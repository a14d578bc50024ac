#pragma once
// InferenceServer: the micro-batching serving runtime for ONE model
// (DESIGN.md §9).
//
// A deployed system receives *single* windows from many concurrent clients
// — nobody hands the server a WindowDataset. This front end serves them
// through the shared serving plane (serve/plane.hpp) as a fleet of one: a
// single shard, one pinned and always-resident model, no registry.
//
//   * producers submit one encoded hypervector (or one raw Window, encoded
//     inside the batch via Encoder::encode_batch) and get a
//     std::future<ServeResult>;
//   * batching workers coalesce requests into micro-batches and run ONE
//     encode_batch + ONE predict_batch_full per batch against an immutable
//     ModelSnapshot, amortizing the per-request costs (wakeups, kernel
//     setup, allocations) across the batch;
//   * the adaptation worker enrols OOD-flagged queries (the paper's Fig. 2
//     "Model Update" box, Sec 3.6) on a clone of the live model and
//     publishes the next snapshot while readers keep serving the old one.
//
// Backpressure: the queue is bounded. submit() blocks the producer when the
// server is saturated (latency, not memory growth); try_submit() refuses
// instead (load shedding). Shutdown is graceful: the queue closes, workers
// drain every in-flight request, and every future is fulfilled.

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "core/domain_lifecycle.hpp"
#include "data/timeseries.hpp"
#include "hdc/encoder_base.hpp"
#include "serve/plane.hpp"
#include "serve/snapshot.hpp"
#include "serve/status.hpp"
#include "util/latency.hpp"

namespace smore {

class Pipeline;

/// Serving runtime knobs. The two scheduler knobs trade latency for
/// throughput: max_batch caps how much work one kernel pass fuses, and
/// max_delay_us caps how long the first request of a batch waits for
/// stragglers when traffic is sparse. Which representation answers queries
/// is NOT a server knob: every snapshot carries its own InferenceBackend
/// (packed when quantized, float otherwise) and the server just calls it.
struct ServerConfig {
  std::size_t max_batch = 64;        ///< coalesce at most this many requests
  std::uint32_t max_delay_us = 200;  ///< batch-formation wait after 1st item
  std::size_t num_workers = 1;       ///< batching worker threads
  std::size_t queue_capacity = 1024; ///< request bound (backpressure point)

  bool adaptation = false;           ///< run the online-adaptation worker
  std::size_t adapt_min_batch = 64;  ///< OOD windows per enrollment round
  std::size_t adapt_buffer_capacity = 1024;  ///< OOD side-buffer bound
  std::size_t adapt_max_domains = 16;  ///< stop enrolling beyond this K
  std::uint32_t adapt_poll_ms = 2;   ///< fallback wake (a full buffer wakes)

  /// Bounded domain lifecycle (DESIGN.md §13). Off: every adaptation round
  /// enrolls ONE new domain and rounds past adapt_max_domains are shed (the
  /// pre-lifecycle policy, kept for operators that consolidate manually).
  /// On: rounds are clustered, merged into similar existing domains, and the
  /// bank is evicted down to lifecycle_config.max_domains — adapt_max_domains
  /// is ignored, adaptation never stops, and K stays O(1) forever.
  bool lifecycle = false;
  LifecycleConfig lifecycle_config;  ///< knobs when `lifecycle` is on

  /// Telemetry hub (DESIGN.md §14): every counter/histogram below lives in
  /// its MetricsRegistry, requests cut trace spans, and publish / shed /
  /// lifecycle occurrences emit events. Null means a private hub — stats()
  /// always works and unit tests never collide on metric names.
  std::shared_ptr<obs::Telemetry> telemetry;
};

// ServeStatus lives in serve/status.hpp and ServeResult in serve/plane.hpp
// (shared with the router and the telemetry layer).

/// Counters + latency percentiles (the stats endpoint payload). A VIEW over
/// the server's metrics registry: every field is read back from the same
/// handles the hot path writes, so stats() and the exporters can never
/// disagree. `latency` is empty when the hub's histogram switch is off.
struct ServerStats {
  std::uint64_t submitted = 0;      ///< accepted into the queue
  std::uint64_t rejected = 0;       ///< try_submit refusals (queue full)
  std::uint64_t completed = 0;      ///< futures fulfilled with a value
  std::uint64_t batches = 0;        ///< batched predict passes
  std::uint64_t batched_rows = 0;   ///< requests across those passes
  std::uint64_t ood_flagged = 0;    ///< responses with is_ood
  std::uint64_t adaptation_rounds = 0;   ///< snapshots published by adaptation
  std::uint64_t adaptation_absorbed = 0; ///< OOD windows enrolled
  std::uint64_t adaptation_dropped = 0;  ///< OOD windows shed (all causes)
  std::uint64_t adaptation_overflow = 0; ///< …of which: side-buffer overflow
  std::uint64_t adaptation_merged = 0;   ///< lifecycle: clusters merged
  std::uint64_t adaptation_evicted = 0;  ///< lifecycle: domains evicted
  std::uint64_t snapshot_version = 0;    ///< live generation id
  std::size_t live_domains = 0;          ///< K of the live snapshot
  double mean_batch_fill = 0.0;     ///< batched_rows / batches
  LatencySummary latency;           ///< submit→fulfill percentiles
};

/// The one-model front end. Construction starts the plane's threads;
/// destruction (or shutdown()) drains and joins them.
class InferenceServer {
 public:
  /// `boot` is the initial snapshot (must be non-null; its backend answers
  /// queries). `encoder` may be null, in which case the snapshot's own
  /// encoder (set when booted from a Pipeline) is used; when neither exists
  /// every request must be pre-encoded and submit(Window) throws
  /// std::logic_error. The server shares ownership of the encoder — no
  /// "must outlive the server" contract. Throws std::invalid_argument on
  /// config/snapshot mismatch.
  InferenceServer(std::shared_ptr<const ModelSnapshot> boot,
                  std::shared_ptr<const Encoder> encoder,
                  ServerConfig config = {});

  /// Boot straight from a deployable Pipeline: snapshot version
  /// `boot_version`, the pipeline's packed backend when quantized, and the
  /// pipeline's encoder (shared) for raw-window submission.
  explicit InferenceServer(const Pipeline& pipeline, ServerConfig config = {},
                           std::uint64_t boot_version = 1);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Submit one encoded hypervector; blocks while the queue is full
  /// (backpressure). Throws std::invalid_argument on dimension mismatch.
  /// After shutdown() it never blocks or throws: the returned future is
  /// already fulfilled with ServeStatus::kShuttingDown.
  std::future<ServeResult> submit(std::vector<float> hv);

  /// Submit one raw multi-sensor window, encoded inside the micro-batch via
  /// the server's encoder (one encode_batch per batch, not per request).
  std::future<ServeResult> submit(Window window);

  /// Non-blocking submit: returns std::nullopt (and counts a rejection)
  /// instead of waiting when the queue is full — the load-shedding policy.
  /// When `shed_reason` is non-null it reports why a request was refused
  /// (kShedQueueFull vs kShuttingDown); untouched on acceptance.
  std::optional<std::future<ServeResult>> try_submit(
      std::vector<float> hv, ServeStatus* shed_reason = nullptr);

  /// Atomically swap the serving model (TenantModel::publish: same
  /// dimension, in-flight batches finish on their generation, a stale
  /// publisher loses and gets false).
  bool publish(std::shared_ptr<const ModelSnapshot> snap);

  /// The live snapshot (never null).
  [[nodiscard]] std::shared_ptr<const ModelSnapshot> snapshot() const {
    return plane_->pinned()->snapshot();
  }

  [[nodiscard]] const ServerConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t dim() const noexcept {
    return plane_->pinned()->dim();
  }

  /// Graceful shutdown: stop accepting, drain every queued request, fulfill
  /// every future, join all threads. Idempotent; the destructor calls it.
  void shutdown();

  /// Counters and latency percentiles since construction.
  [[nodiscard]] ServerStats stats() const;

  /// The telemetry hub this server reports into (never null — private when
  /// the config left it unset). Exporters (obs/export.hpp) read it.
  [[nodiscard]] const std::shared_ptr<obs::Telemetry>& telemetry()
      const noexcept {
    return plane_->telemetry().hub_ptr();
  }

 private:
  ServerConfig config_;
  std::shared_ptr<const Encoder> encoder_;
  std::unique_ptr<ServingPlane> plane_;
};

}  // namespace smore
