#include "harness.hpp"

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace layerbench {

// ------------------------------------------------------------------ Report

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

PhaseCount& Report::phase(const std::string& name) {
  for (PhaseCount& p : phases_) {
    if (p.name == name) return p;
  }
  phases_.push_back({name, 0, 0});
  return phases_.back();
}

std::uint64_t Report::attempted() const {
  std::uint64_t n = 0;
  for (const PhaseCount& p : phases_) n += p.attempted;
  return n;
}

std::uint64_t Report::failed() const {
  std::uint64_t n = 0;
  for (const PhaseCount& p : phases_) n += p.failed;
  return n;
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok && failures_.size() < 32) failures_.push_back(what);
}

// -------------------------------------------------------------- statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double weighted_median(std::vector<std::pair<double, double>> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double total = 0.0;
  for (const auto& p : v) total += p.second;
  double acc = 0.0;
  for (const auto& p : v) {
    acc += p.second;
    if (acc >= 0.5 * total) return p.first;
  }
  return v.back().first;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void release_free_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

// ------------------------------------------------------------------ CallLog

void CallLog::record(std::size_t rows, double seconds) {
  const std::lock_guard<std::mutex> lock(m_);
  ++calls_;
  rows_ += rows;
  busy_ += seconds;
  durations_.push_back(seconds);
}

std::uint64_t CallLog::calls() const {
  const std::lock_guard<std::mutex> lock(m_);
  return calls_;
}

std::uint64_t CallLog::rows() const {
  const std::lock_guard<std::mutex> lock(m_);
  return rows_;
}

double CallLog::busy_seconds() const {
  const std::lock_guard<std::mutex> lock(m_);
  return busy_;
}

std::vector<double> CallLog::durations() const {
  const std::lock_guard<std::mutex> lock(m_);
  return durations_;
}

// ------------------------------------------------------------ ProbeEncoder

ProbeEncoder::ProbeEncoder(std::shared_ptr<const smore::Encoder> inner,
                           bool timing)
    : inner_(std::move(inner)), timing_(timing) {
  if (inner_ == nullptr) throw std::invalid_argument("ProbeEncoder: null");
}

std::size_t ProbeEncoder::dim() const noexcept { return inner_->dim(); }

std::size_t ProbeEncoder::footprint_bytes() const {
  return inner_->footprint_bytes();
}

void ProbeEncoder::encode_batch(const smore::WindowDataset& dataset,
                                smore::HvMatrix& out, bool parallel) const {
  const auto t0 = Clock::now();
  inner_->encode_batch(dataset, out, parallel);
  if (timing_) log_.record(dataset.size(), seconds_since(t0));
  const std::lock_guard<std::mutex> lock(capture_m_);
  if (capture_) captured_ = out;
}

void ProbeEncoder::save(std::ostream& out) const { inner_->save(out); }

void ProbeEncoder::set_capture(bool on) const {
  const std::lock_guard<std::mutex> lock(capture_m_);
  capture_ = on;
  if (!on) captured_ = smore::HvMatrix();
}

smore::HvMatrix ProbeEncoder::take_capture() const {
  const std::lock_guard<std::mutex> lock(capture_m_);
  return std::move(captured_);
}

// ------------------------------------------------------------ ProbeBackend

ProbeBackend::ProbeBackend(std::shared_ptr<const smore::InferenceBackend> inner,
                           std::shared_ptr<CallLog> log)
    : inner_(std::move(inner)), log_(std::move(log)) {
  if (inner_ == nullptr || log_ == nullptr) {
    throw std::invalid_argument("ProbeBackend: null");
  }
}

smore::SmoreBatchResult ProbeBackend::predict_batch_full(
    smore::HvView queries) const {
  const auto t0 = Clock::now();
  smore::SmoreBatchResult r = inner_->predict_batch_full(queries);
  log_->record(queries.rows, seconds_since(t0));
  return r;
}

std::size_t ProbeBackend::footprint_bytes() const noexcept {
  return inner_->footprint_bytes();
}
std::size_t ProbeBackend::dim() const noexcept { return inner_->dim(); }
std::size_t ProbeBackend::num_domains() const noexcept {
  return inner_->num_domains();
}
smore::ServeBackend ProbeBackend::kind() const noexcept {
  return inner_->kind();
}
const char* ProbeBackend::name() const noexcept { return inner_->name(); }

std::shared_ptr<const smore::ModelSnapshot> with_probes(
    const smore::ModelSnapshot& snap, std::shared_ptr<CallLog> predict_log,
    std::shared_ptr<const smore::Encoder> encoder) {
  auto out = std::make_shared<smore::ModelSnapshot>(snap);
  out->backend =
      std::make_shared<ProbeBackend>(snap.backend, std::move(predict_log));
  if (encoder != nullptr) out->encoder = std::move(encoder);
  return out;
}

smore::ModelRegistry::ArtifactOpener timed_opener(
    smore::ModelRegistry::ArtifactOpener inner,
    std::shared_ptr<CallLog> load_log, std::shared_ptr<CallLog> predict_log) {
  return [inner = std::move(inner), load_log = std::move(load_log),
          predict_log = std::move(predict_log)](const std::string& tenant)
             -> std::shared_ptr<const smore::ModelSnapshot> {
    const auto t0 = Clock::now();
    auto snap = inner(tenant);
    if (load_log != nullptr) load_log->record(1, seconds_since(t0));
    if (predict_log == nullptr) return snap;
    return with_probes(*snap, predict_log);
  };
}

smore::obs::TracerConfig full_tracer(std::size_t capacity) {
  smore::obs::TracerConfig cfg;
  cfg.ring_capacity = capacity;
  cfg.slow_ring_capacity = 16;
  cfg.sample_every = 1;
  cfg.slow_threshold_seconds = 1e9;  // keep nothing twice
  return cfg;
}

SpanSummary summarize_spans(const std::vector<smore::obs::TraceSpan>& spans) {
  SpanSummary s;
  s.spans = spans.size();
  if (spans.empty()) return s;
  std::vector<double> queue;
  std::vector<double> fulfil;
  std::vector<double> service;
  std::vector<std::pair<double, double>> serv;
  double sum_ep = 0.0;
  double sum_all = 0.0;
  for (const auto& sp : spans) {
    const double w = 1.0 / static_cast<double>(std::max<std::uint32_t>(
                               1, sp.batch_rows));
    const double e = static_cast<double>(sp.encode_ns) * 1e-6;
    const double p = static_cast<double>(sp.predict_ns) * 1e-6;
    const double f = static_cast<double>(sp.fulfill_ns) * 1e-6;
    queue.push_back(static_cast<double>(sp.queue_ns) * 1e-6);
    fulfil.push_back(f);
    service.push_back(e + p + f);
    serv.emplace_back(e + p + f, w);
    sum_ep += w * (e + p);
    sum_all += w * (e + p + f);
  }
  s.queue_p50_ms = quantile(queue, 0.5);
  s.queue_p99_ms = quantile(queue, 0.99);
  s.fulfil_p50_ms = quantile(fulfil, 0.5);
  s.service_p50_ms = quantile(service, 0.5);
  s.service_ms_per_batch = weighted_median(std::move(serv));
  s.encode_predict_share = sum_all > 0.0 ? sum_ep / sum_all : 0.0;
  return s;
}

Sizes sizes_for(const RunOptions& opt) {
  Sizes s;
  if (opt.smoke) {
    s.smoke = true;
    s.dsads_scale = 0.02;
    s.uschad_scale = 0.01;
    s.dim = 1024;
    s.fleet_tenants = 6;
    s.fleet_dim = 512;
  }
  return s;
}

}  // namespace layerbench
