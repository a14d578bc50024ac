#pragma once
// ServeTelemetry: the serving plane's metric vocabulary and the ONE
// accounting-before-fulfillment implementation (DESIGN.md §14).
//
// All externally observable accounting must land BEFORE any promise is
// fulfilled, so a submitter that returns from get() and immediately reads
// stats() sees its own request counted. record_batch() is that block; it
// also cuts the per-request trace spans from the same four timestamps (so
// queue+encode+predict+fulfill == total exactly) and feeds the latency
// histograms.
//
// Metric handles are created once at construction / slot creation — the hot
// path never touches the registry map. Counters are always on (they back the
// stats structs); histogram and trace recording honor the hub's switches,
// which is the axis bench_telemetry_overhead measures.

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "obs/telemetry.hpp"
#include "serve/status.hpp"
#include "util/latency.hpp"

namespace smore {

/// Per-tenant metric handle bundle ({tenant=...} label set). Created once
/// per tenant slot; raw pointers stay valid for the hub's lifetime.
struct TenantTelemetry {
  obs::Counter* submitted = nullptr;
  obs::Counter* completed = nullptr;
  obs::Counter* shed_queue = nullptr;
  obs::Counter* shed_quota = nullptr;
  obs::Counter* load_failures = nullptr;
  obs::Counter* ood = nullptr;
  obs::Counter* adapt_rounds = nullptr;
  obs::Counter* adapt_absorbed = nullptr;
  obs::Counter* adapt_dropped = nullptr;
  obs::Counter* adapt_overflow = nullptr;
  obs::Counter* adapt_merged = nullptr;
  obs::Counter* adapt_evicted = nullptr;
  obs::Histogram* queue_wait = nullptr;  ///< submit → batch start
  obs::Histogram* service = nullptr;     ///< batch start → fulfill
  obs::Histogram* latency = nullptr;     ///< submit → fulfill
};

/// One serving plane's handle bundle over an obs::Telemetry hub. `plane`
/// labels every plane-level series ("server" or "fleet"), so a hub shared
/// between planes exports without collisions. A null hub means "private
/// hub": stats views always work and unit tests never collide on names.
class ServeTelemetry {
 public:
  ServeTelemetry(std::shared_ptr<obs::Telemetry> hub, std::string plane,
                 std::size_t worker_stripes);

  [[nodiscard]] obs::Telemetry& hub() noexcept { return *hub_; }
  [[nodiscard]] const obs::Telemetry& hub() const noexcept { return *hub_; }
  [[nodiscard]] const std::shared_ptr<obs::Telemetry>& hub_ptr()
      const noexcept {
    return hub_;
  }
  [[nodiscard]] const std::string& plane() const noexcept { return plane_; }

  /// Get-or-create the {tenant=name} handle bundle (call at slot creation,
  /// not per request — registration takes the registry mutex).
  [[nodiscard]] TenantTelemetry tenant(const std::string& name);

  /// One refusal: plane rejected + per-reason shed counter, the tenant's
  /// mirror counters when given, and exactly one kShed event carrying the
  /// reason. `scope` is the tenant (fleet plane) or the plane name.
  void record_shed(ServeStatus reason, std::string_view scope,
                   const TenantTelemetry* tenant = nullptr);

  /// One admitted request whose artifact load failed (counters only — the
  /// registry emits the load-failure event; it made the call).
  void record_load_failure(const TenantTelemetry* tenant);

  /// The four batch phase boundaries. `encode_done == batch_start` on planes
  /// that take pre-encoded queries (the encode span reads 0).
  struct BatchTimes {
    std::chrono::steady_clock::time_point batch_start;
    std::chrono::steady_clock::time_point encode_done;
    std::chrono::steady_clock::time_point predict_done;
    std::chrono::steady_clock::time_point done;
  };

  /// THE accounting-before-fulfillment block: batch/row/completed/ood
  /// counters (plane + tenant), latency histograms when enabled, and one
  /// trace span per request when enabled — all from the caller's timestamps,
  /// all before the caller touches a promise. Spans are parallel over the
  /// batch: submit_times[i], ood_flags[i], labels[i] describe request i.
  /// Spans name `tenant_name` only when `tenant` series exist.
  void record_batch(const BatchTimes& t,
                    std::span<const std::chrono::steady_clock::time_point>
                        submit_times,
                    std::span<const std::uint8_t> ood_flags,
                    std::span<const int> labels,
                    std::uint64_t snapshot_version, std::uint32_t shard,
                    std::string_view tenant_name,
                    const TenantTelemetry* tenant);

  /// Fill the plane-level fields every stats view shares (ServerStats,
  /// MultiTenantStats) from the same handles the hot path bumps, so stats()
  /// and the exporters can never disagree.
  template <typename Stats>
  void fill_stats(Stats& s) const {
    s.submitted = submitted->value();
    s.rejected = rejected->value();
    s.completed = completed->value();
    s.batches = batches->value();
    s.batched_rows = batched_rows->value();
    s.ood_flagged = ood_flagged->value();
    s.adaptation_rounds = adapt_rounds->value();
    s.adaptation_absorbed = adapt_absorbed->value();
    s.adaptation_dropped = adapt_dropped->value();
    s.adaptation_overflow = adapt_overflow->value();
    s.adaptation_merged = adapt_merged->value();
    s.adaptation_evicted = adapt_evicted->value();
    s.mean_batch_fill = s.batches != 0 ? static_cast<double>(s.batched_rows) /
                                             static_cast<double>(s.batches)
                                       : 0.0;
    s.latency = LatencySummary::from(latency->snapshot());
  }

  // Plane-level handles ({plane=...} label), public by design: the plane
  // bumps adaptation/drop counters at its own decision points.
  obs::Counter* submitted = nullptr;
  obs::Counter* rejected = nullptr;  ///< all refusals (every shed reason)
  obs::Counter* shed_queue_full = nullptr;
  obs::Counter* shed_quota = nullptr;
  obs::Counter* shed_shutdown = nullptr;
  obs::Counter* load_failures = nullptr;
  obs::Counter* completed = nullptr;
  obs::Counter* batches = nullptr;
  obs::Counter* batched_rows = nullptr;
  obs::Counter* ood_flagged = nullptr;
  obs::Counter* adapt_rounds = nullptr;
  obs::Counter* adapt_absorbed = nullptr;
  obs::Counter* adapt_dropped = nullptr;
  obs::Counter* adapt_overflow = nullptr;
  obs::Counter* adapt_merged = nullptr;
  obs::Counter* adapt_evicted = nullptr;
  obs::Histogram* latency = nullptr;  ///< submit → fulfill, plane-wide

 private:
  std::shared_ptr<obs::Telemetry> hub_;
  std::string plane_;
};

}  // namespace smore
