#include "load.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <thread>
#include <utility>

#include "harness.hpp"

namespace layerbench {
namespace {

struct Pending {
  std::size_t index = 0;
  double late_s = 0.0;  ///< send time minus due time (open loop)
  std::future<smore::ServeResult> future;
};

/// Resolve one request into `out`; returns its latency (< 0 on failure).
double resolve(Pending& p, const VerifyFn& verify, LoadResult& out) {
  try {
    const smore::ServeResult r = p.future.get();
    if (r.status != smore::ServeStatus::kOk) {
      ++out.failed;
      return -1.0;
    }
    Answer a;
    a.index = p.index;
    a.label = r.label;
    a.ood = r.is_ood ? 1 : 0;
    a.max_similarity = r.max_similarity;
    a.version = r.snapshot_version;
    a.latency_ms = (p.late_s + r.latency_seconds) * 1e3;
    bool right = false;
    std::string msg = verify(a, &right);
    if (!msg.empty() && out.mismatch.empty()) out.mismatch = std::move(msg);
    ++out.answered;
    out.right += right ? 1 : 0;
    return a.latency_ms;
  } catch (const std::exception&) {
    ++out.failed;
    return -1.0;
  }
}

}  // namespace

double LoadResult::rate() const {
  return seconds > 0.0 ? static_cast<double>(answered) / seconds : 0.0;
}

void LoadResult::add(const LoadResult& part) {
  attempted += part.attempted;
  failed += part.failed;
  answered += part.answered;
  right += part.right;
  if (mismatch.empty()) mismatch = part.mismatch;
  seconds += part.seconds;
  max_late_ms = std::max(max_late_ms, part.max_late_ms);
  latencies_ms.insert(latencies_ms.end(), part.latencies_ms.begin(),
                      part.latencies_ms.end());
}

double LoadResult::quantile_ms(double q) const {
  return quantile(latencies_ms, q);
}

LoadResult open_loop(double rate, std::size_t count, std::size_t first_index,
                     const SubmitFn& submit, const VerifyFn& verify) {
  LoadResult out;
  std::vector<Pending> pending;
  pending.reserve(count);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  rate));
    std::this_thread::sleep_until(due);
    Pending p;
    p.index = first_index + i;
    p.late_s = std::chrono::duration<double>(Clock::now() - due).count();
    out.max_late_ms = std::max(out.max_late_ms, p.late_s * 1e3);
    ++out.attempted;
    try {
      p.future = submit(p.index);
    } catch (const std::exception&) {
      ++out.failed;
      continue;
    }
    pending.push_back(std::move(p));
  }
  out.latencies_ms.reserve(pending.size());
  for (Pending& p : pending) {
    const double ms = resolve(p, verify, out);
    if (ms >= 0.0) out.latencies_ms.push_back(ms);
  }
  out.seconds = seconds_since(start);
  return out;
}

LoadResult closed_loop(std::size_t clients, std::size_t depth,
                       std::size_t count, std::size_t first_index,
                       const SubmitFn& submit, const VerifyFn& verify) {
  const std::size_t end = first_index + count;
  std::atomic<std::size_t> next{first_index};
  std::vector<LoadResult> parts(clients);
  const auto start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& out = parts[c];
      std::deque<Pending> inflight;
      for (;;) {
        if (inflight.size() == depth) {
          resolve(inflight.front(), verify, out);
          inflight.pop_front();
        }
        Pending p;
        p.index = next.fetch_add(1);
        if (p.index >= end) break;
        ++out.attempted;
        try {
          p.future = submit(p.index);
        } catch (const std::exception&) {
          ++out.failed;
          continue;
        }
        inflight.push_back(std::move(p));
      }
      for (Pending& p : inflight) resolve(p, verify, out);
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult out;
  for (const LoadResult& p : parts) out.add(p);
  out.seconds = seconds_since(start);
  return out;
}

}  // namespace layerbench
