#pragma once
// Load generators shared by the serving workloads: an open loop that sends
// on a fixed schedule and times every request from when it was due, and a
// closed loop of clients that each keep a fixed number of requests in
// flight. Every answer is handed to the workload's verifier as it arrives
// (index, label, verdict, δ_max, generation), so it can be checked against
// a direct call without being stored.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "serve/server.hpp"

namespace layerbench {

/// One answered request. `index` is the request's position in the
/// workload's input sequence.
struct Answer {
  std::size_t index = 0;
  int label = -1;
  std::uint8_t ood = 0;
  double max_similarity = 0.0;
  std::uint64_t version = 0;
  double latency_ms = 0.0;  ///< from due time (open loop) or submit
};

struct LoadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;    ///< exceptions and non-OK statuses
  std::uint64_t answered = 0;
  std::uint64_t right = 0;     ///< answers whose label is the true label
  std::string mismatch;        ///< first verifier complaint, if any
  double seconds = 0.0;        ///< wall time of the phase
  double max_late_ms = 0.0;    ///< open loop: worst send delay past due
  /// Open loop only: latency of every answer.
  std::vector<double> latencies_ms;

  /// Answers per second over the whole phase.
  [[nodiscard]] double rate() const;
  /// Fold another phase's counts, wall time and latencies into this one.
  void add(const LoadResult& part);
  /// Quantile q over every open-loop answer.
  [[nodiscard]] double quantile_ms(double q) const;
};

/// Submits request `index` and returns its future.
using SubmitFn = std::function<std::future<smore::ServeResult>(std::size_t)>;
/// Checks one answer; returns an empty string when it is as expected and
/// sets *right when its label is the true one. Called from load threads.
using VerifyFn = std::function<std::string(const Answer&, bool* right)>;

/// Open loop: `count` requests, request i due at start + i / rate, sent by
/// one generator thread. Latency runs from the due time to fulfilment.
LoadResult open_loop(double rate, std::size_t count, std::size_t first_index,
                     const SubmitFn& submit, const VerifyFn& verify);

/// Closed loop: `clients` threads, each keeping `depth` requests in flight
/// (the next is sent when the oldest completes), until `count` requests
/// have been sent and answered. Request indices run from `first_index` in
/// send order, so the same arguments always send the same requests.
LoadResult closed_loop(std::size_t clients, std::size_t depth,
                       std::size_t count, std::size_t first_index,
                       const SubmitFn& submit, const VerifyFn& verify);

}  // namespace layerbench
