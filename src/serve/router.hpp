#pragma once
// MultiTenantServer: the fleet front end of the serving plane (DESIGN.md
// §12). Many tenants, each with its own model, share one machine:
//
//   * tenant → shard routing — a request hashes by tenant id onto one of
//     `num_shards` queue+worker slices, so tenants on different shards never
//     contend on a queue lock and one tenant's traffic coalesces in one place;
//   * per-tenant micro-batches — a batch never mixes tenants and pins its
//     TenantModel, so a registry eviction mid-batch cannot free the model
//     under the kernel;
//   * tenant-fair admission + drain — with `fair` set, try_submit enforces a
//     per-tenant in-flight quota (a flooding Zipf-head tenant is shed with
//     kShedTenantQuota while the tail is still admitted) and workers drain
//     pending tenant groups round-robin. With `fair` off the plane is the
//     throughput-greedy baseline: no quota, largest-group-first drain
//     (maximizes batch fill, starves the tail).
//
// Model residency (lazy load, single-flight, LRU under a byte budget) is the
// registry's job; an artifact that fails to load fails THE REQUESTS that
// needed it, never the process. Requests are pre-encoded hypervectors: in a
// fleet the encoder travels inside each tenant's artifact. Routing,
// batching, per-tenant adaptation (always lifecycle-bounded, DESIGN.md §13)
// and the graceful shutdown live in the shared plane (serve/plane.hpp);
// this front end adds the registry, the periodic telemetry exporter and the
// fleet's stats views.

#include <cstdint>
#include <memory>
#include <mutex>  // std::once_flag only; locks go through util/mutex.hpp
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/plane.hpp"
#include "serve/registry.hpp"
#include "util/annotations.hpp"
#include "util/latency.hpp"
#include "util/mutex.hpp"

namespace smore {

/// Per-tenant counters + latency histograms. Slots are created on first
/// submit and never dropped — stats survive model eviction, so a tenant's
/// history spans its cold/warm cycles. A VIEW over the telemetry registry's
/// {tenant=...} series; the histograms are empty when the hub's histogram
/// switch is off.
struct TenantServerStats {
  std::string tenant;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_tenant_quota = 0;
  std::uint64_t load_failures = 0;  ///< requests failed by artifact loads
  std::uint64_t ood_flagged = 0;
  std::uint64_t inflight = 0;  ///< gauge at the time of the stats call
  std::uint64_t adaptation_rounds = 0;   ///< generations this tenant published
  std::uint64_t adaptation_absorbed = 0; ///< OOD windows absorbed
  std::uint64_t adaptation_dropped = 0;  ///< OOD windows shed (all causes)
  std::uint64_t adaptation_overflow = 0; ///< …of which: side-buffer overflow
  std::uint64_t adaptation_merged = 0;   ///< lifecycle: clusters merged
  std::uint64_t adaptation_evicted = 0;  ///< lifecycle: domains evicted
  /// Histogram COPIES (mergeable): queue_wait is submit → batch start,
  /// service is batch start → fulfillment, latency is the end-to-end sum
  /// per request. The bench merges tail-tenant cohorts from these.
  LatencyHistogram queue_wait;
  LatencyHistogram service;
  LatencyHistogram latency;
};

/// Aggregate counters + the registry's residency stats.
struct MultiTenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;  ///< all sheds + late submits
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_tenant_quota = 0;
  std::uint64_t load_failures = 0;
  std::uint64_t completed = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched_rows = 0;
  std::uint64_t ood_flagged = 0;
  std::uint64_t tenants_seen = 0;  ///< tenant slots ever created
  std::uint64_t adaptation_rounds = 0;   ///< tenant generations published
  std::uint64_t adaptation_absorbed = 0;
  std::uint64_t adaptation_dropped = 0;
  std::uint64_t adaptation_overflow = 0;
  std::uint64_t adaptation_merged = 0;   ///< lifecycle: clusters merged
  std::uint64_t adaptation_evicted = 0;  ///< lifecycle: domains evicted
  double mean_batch_fill = 0.0;
  LatencySummary latency;  ///< submit → fulfill, all tenants merged
  RegistryStats registry;
};

/// The fleet router. Construction spawns all shard workers; destruction (or
/// shutdown()) drains and joins them.
class MultiTenantServer {
 public:
  /// `registry` must be non-null (shared: benches/operators keep a handle
  /// for evict/publish). Throws std::invalid_argument otherwise.
  explicit MultiTenantServer(std::shared_ptr<ModelRegistry> registry,
                             MultiTenantConfig config = {});
  ~MultiTenantServer();

  MultiTenantServer(const MultiTenantServer&) = delete;
  MultiTenantServer& operator=(const MultiTenantServer&) = delete;

  /// Submit one encoded query for `tenant`; blocks on a full shard queue
  /// (backpressure). A cold tenant triggers the (single-flight) artifact
  /// load on THIS call. Load failure returns a future carrying the loader's
  /// exception; dimension mismatch throws std::invalid_argument; after
  /// shutdown() the future is already fulfilled with kShuttingDown.
  std::future<ServeResult> submit(const std::string& tenant,
                                  std::vector<float> hv);

  /// Non-blocking submit: sheds instead of waiting. std::nullopt on a full
  /// shard queue (kShedQueueFull), an exhausted tenant quota
  /// (kShedTenantQuota, fair mode), or after shutdown (kShuttingDown) —
  /// the reason lands in `*shed_reason` when non-null. A failed artifact
  /// load still returns a future (carrying the exception): the request was
  /// admitted, the tenant is broken — those are different signals.
  std::optional<std::future<ServeResult>> try_submit(
      const std::string& tenant, std::vector<float> hv,
      ServeStatus* shed_reason = nullptr);

  [[nodiscard]] const MultiTenantConfig& config() const noexcept {
    return plane_->config();
  }
  [[nodiscard]] ModelRegistry& registry() noexcept { return *registry_; }

  /// Graceful shutdown: close every shard queue, drain every pending tenant
  /// group, fulfill every future, join all workers. Idempotent; the
  /// destructor calls it.
  void shutdown();

  [[nodiscard]] MultiTenantStats stats() const;
  /// Per-tenant stats (histogram copies), sorted by tenant id.
  [[nodiscard]] std::vector<TenantServerStats> tenant_stats() const;

  /// The telemetry hub this fleet reports into (never null — private when
  /// the config left it unset). Exporters (obs/export.hpp) read it.
  [[nodiscard]] const std::shared_ptr<obs::Telemetry>& telemetry()
      const noexcept {
    return plane_->telemetry().hub_ptr();
  }

  /// Write the JSON telemetry snapshot to `path` atomically (tmp + rename).
  /// What the periodic exporter calls; also useful for one-shot dumps.
  bool write_telemetry(const std::string& path) const;

 private:
  /// Periodic JSON snapshot writer (spawned when export_path is set).
  void export_loop();

  std::shared_ptr<ModelRegistry> registry_;
  std::unique_ptr<ServingPlane> plane_;

  // Periodic exporter (export_path only).
  std::thread export_thread_;
  Mutex export_m_;
  CondVar export_cv_;
  bool export_stopping_ SMORE_GUARDED_BY(export_m_) = false;
  std::once_flag export_once_;
};

}  // namespace smore
