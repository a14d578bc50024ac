#pragma once
// ServingPlane: the one serving plane behind both front ends (DESIGN.md §9,
// §12). `MultiTenantServer` (serve/router.hpp) runs it over a ModelRegistry;
// `InferenceServer` (serve/server.hpp) runs it as a fleet of one — a single
// shard serving one pinned, always-resident TenantModel.
//
//   producers ──submit()──▶ shard MpmcQueue ──▶ shard workers
//                (future)   (bounded,           stage per tenant, drain
//                            backpressure)      round-robin or largest-first,
//                                               process_batch: encode raw
//                                               windows, ONE predict per
//                                               tenant-batch, account, fulfil
//                                                    │ OOD rows + usage
//                                                    ▼
//                    adaptation thread ◀── per-tenant side buffers
//                    (one round per ready tenant: clone → policy → publish)
//
// Everything here exists once: the submit/refusal/late-submit path, the
// worker loop, process_batch, the adaptation loop and the shutdown sequence.
// Front ends only translate their configs, resolve names and read stats.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>  // std::once_flag only; locks go through util/mutex.hpp
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/domain_lifecycle.hpp"
#include "data/timeseries.hpp"
#include "hdc/encoder_base.hpp"
#include "serve/adaptation.hpp"
#include "serve/registry.hpp"
#include "serve/status.hpp"
#include "serve/telemetry.hpp"
#include "util/annotations.hpp"
#include "util/mpmc_queue.hpp"
#include "util/mutex.hpp"

namespace smore {

/// Per-request response (the future's value). The non-status fields are
/// meaningful only when `status == ServeStatus::kOk`.
struct ServeResult {
  ServeStatus status = ServeStatus::kOk;
  int label = -1;
  bool is_ood = false;
  double max_similarity = 0.0;     ///< δ_max against the domain descriptors
  std::vector<double> weights;     ///< ensemble weights used (size K)
  double latency_seconds = 0.0;    ///< submit → fulfillment
  std::uint64_t snapshot_version = 0;  ///< model generation that answered
};

/// Fleet-serving knobs, and the plane's: the one-tenant front end fills
/// them from its ServerConfig.
struct MultiTenantConfig {
  std::size_t num_shards = 1;        ///< independent queue+worker slices
  std::size_t workers_per_shard = 1; ///< batching workers per shard
  std::size_t max_batch = 64;        ///< per-tenant micro-batch cap
  std::uint32_t max_delay_us = 200;  ///< batch-formation wait when idle
  std::size_t shard_queue_capacity = 1024;  ///< per-shard request bound

  bool fair = true;  ///< per-tenant quota + round-robin drain (see router)
  /// Max in-flight requests per tenant before try_submit sheds with
  /// kShedTenantQuota (fair mode only; 0 = unbounded). Blocking submit()
  /// bypasses the quota — backpressure already slows that producer down.
  std::size_t tenant_inflight_quota = 256;

  /// Per-tenant online adaptation: shard workers feed each tenant's OOD
  /// traffic into that tenant's own bounded side buffer, and ONE shared
  /// adaptation worker runs a round for every ready tenant and republishes
  /// its generation. Fleet rounds are always lifecycle-bounded (DESIGN.md
  /// §13). Cold (evicted) tenants are never reloaded just to adapt them —
  /// their buffered rounds are shed and counted.
  bool adaptation = false;
  std::size_t adapt_min_batch = 64;         ///< OOD windows per tenant round
  std::size_t adapt_buffer_capacity = 512;  ///< per-tenant side-buffer bound
  std::uint32_t adapt_poll_ms = 2;  ///< fallback sweep (a full buffer wakes)
  LifecycleConfig lifecycle_config;         ///< bounded lifecycle knobs

  /// Telemetry hub (DESIGN.md §14): every fleet counter/histogram lives in
  /// its MetricsRegistry, requests cut trace spans, and shed / publish /
  /// lifecycle occurrences emit events. Pass the SAME hub as
  /// RegistryConfig::telemetry for one unified export surface (fleet_top
  /// sees residency AND traffic); null means a private hub.
  std::shared_ptr<obs::Telemetry> telemetry;
  /// When non-empty, a background thread writes the JSON telemetry snapshot
  /// (obs::snapshot_json_text) to this path every export_interval_ms,
  /// atomically (tmp + rename) — the file fleet_top watches. One final
  /// write happens at shutdown so the last counters are never lost.
  std::string export_path;
  std::uint32_t export_interval_ms = 1000;  ///< exporter cadence
};

/// What a front end adds to the shared knobs. Exactly one of `registry`
/// and `pinned` is set.
struct PlaneSpec {
  std::string plane;  ///< {plane=...} label: "server" or "fleet"
  std::shared_ptr<ModelRegistry> registry;  ///< fleet: tenants resolve here
  /// One-tenant plane: the model every request uses. Its events are scoped
  /// to `plane`, and it gets no {tenant=...} series.
  std::shared_ptr<TenantModel> pinned;
  std::shared_ptr<const Encoder> encoder;  ///< encodes raw-Window requests
  /// Off: each adaptation round enrols ONE new domain, and rounds are shed
  /// once the live model has `max_domains` domains (run_enrol_round).
  bool lifecycle = true;
  std::size_t max_domains = 0;
};

/// Persistent per-tenant bookkeeping: created on a tenant's first submit
/// and never dropped, so stats survive model eviction. Counters and
/// histograms live in the telemetry registry; only the in-flight gauge and
/// the adaptation side state are slot-local.
struct TenantSlot {
  TenantSlot(std::string name, std::optional<TenantTelemetry> telemetry)
      : tenant(std::move(name)), series(telemetry) {}
  /// The {tenant=...} handles; null on the one-tenant plane.
  [[nodiscard]] const TenantTelemetry* tel() const {
    return series ? &*series : nullptr;
  }

  const std::string tenant;  ///< event scope (the plane name when pinned)
  const std::optional<TenantTelemetry> series;
  std::atomic<std::uint64_t> inflight{0};
  // OOD side buffer + per-domain usage credit since the last round
  // (adaptation only; bounded by adapt_buffer_capacity, overflow is shed).
  Mutex adapt_m;
  std::vector<OodSample> ood_buffer SMORE_GUARDED_BY(adapt_m);
  std::map<int, double> usage SMORE_GUARDED_BY(adapt_m);
};

class ServingPlane {
 public:
  /// Spawns every shard worker and, with adaptation on, the adaptation
  /// thread. Throws std::invalid_argument unless exactly one of
  /// spec.registry / spec.pinned is set.
  ServingPlane(MultiTenantConfig config, PlaneSpec spec);
  ~ServingPlane();

  ServingPlane(const ServingPlane&) = delete;
  ServingPlane& operator=(const ServingPlane&) = delete;

  /// Admit one request: an encoded `hv`, or a raw `window` (hv empty) that
  /// the batch encodes. Blocking mode waits on a full shard queue and turns
  /// a post-shutdown submit into a ready kShuttingDown future; non-blocking
  /// mode returns nullopt with the reason in *shed_reason. A failed
  /// artifact load returns a future carrying the loader's exception. Throws
  /// std::invalid_argument when `hv` does not fit the tenant's model. The
  /// tenant name is ignored on the one-tenant plane.
  std::optional<std::future<ServeResult>> submit(
      const std::string& tenant, std::vector<float> hv,
      std::unique_ptr<Window> window, bool blocking, ServeStatus* shed_reason);

  /// Publish to the pinned tenant with the event reason ("operator", …).
  /// Throws std::invalid_argument on a null or mismatched snapshot
  /// (TenantModel::publish); false when the live generation is as new.
  bool publish(std::shared_ptr<const ModelSnapshot> snap, const char* reason);

  /// Set the pinned plane's generation gauges from its live snapshot.
  void refresh_gauges() const;

  /// Close every queue, drain and fulfil every request, join all threads.
  /// Idempotent.
  void shutdown();

  [[nodiscard]] const MultiTenantConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] ServeTelemetry& telemetry() const noexcept { return *tel_; }
  [[nodiscard]] const std::shared_ptr<TenantModel>& pinned() const noexcept {
    return spec_.pinned;
  }
  /// Tenant slots ever created (fleet only; 0 on the one-tenant plane).
  [[nodiscard]] std::uint64_t tenants_seen() const {
    return tenants_seen_ != nullptr ? tenants_seen_->value() : 0;
  }
  /// Every slot (a snapshot of the insert-only map).
  [[nodiscard]] std::vector<std::shared_ptr<TenantSlot>> slots() const;

 private:
  struct Request {
    std::shared_ptr<TenantSlot> slot;
    std::shared_ptr<TenantModel> model;  // pinned at admission: eviction-safe
    std::vector<float> hv;               // encoded query (empty for a window)
    std::unique_ptr<Window> window;      // raw window, encoded in-batch
    std::promise<ServeResult> promise;
    std::chrono::steady_clock::time_point submit_time;
  };

  std::shared_ptr<TenantSlot> slot_of(const std::string& tenant);
  void worker_loop(std::size_t shard);
  /// Run one single-tenant micro-batch end to end.
  void process_batch(std::vector<Request>& batch, std::size_t shard);
  void adaptation_loop();
  /// One tenant's round: policy on a clone → publish its next generation.
  void run_round(TenantSlot& slot, std::vector<OodSample> round,
                 std::span<const std::pair<int, double>> usage);
  /// Count `n` buffered windows dropped (plane + tenant) and emit the shed.
  void shed_round(const TenantSlot& slot, std::size_t n, const char* reason,
                  bool overflow = false);
  bool publish_to(TenantModel& model, const TenantSlot& slot,
                  std::shared_ptr<const ModelSnapshot> snap,
                  const char* reason);

  MultiTenantConfig config_;
  PlaneSpec spec_;
  std::shared_ptr<TenantSlot> pinned_slot_;
  std::vector<std::unique_ptr<MpmcQueue<Request>>> queues_;  // one per shard
  std::vector<std::thread> workers_;

  std::thread adaptation_thread_;
  Mutex adapt_wake_m_;
  CondVar adapt_cv_;
  bool adapt_ready_ SMORE_GUARDED_BY(adapt_wake_m_) = false;
  bool adapt_stopping_ SMORE_GUARDED_BY(adapt_wake_m_) = false;

  // Tenant slots: sharded string → slot map, insert-only.
  static constexpr std::size_t kSlotShards = 16;
  struct SlotShard {
    Mutex m;
    std::unordered_map<std::string, std::shared_ptr<TenantSlot>> map
        SMORE_GUARDED_BY(m);
  };
  std::vector<std::unique_ptr<SlotShard>> slot_shards_;

  std::unique_ptr<ServeTelemetry> tel_;
  obs::Counter* tenants_seen_ = nullptr;  // fleet only
  obs::Gauge* version_gauge_ = nullptr;   // pinned only
  obs::Gauge* domains_gauge_ = nullptr;   // pinned only

  std::atomic<bool> shut_down_{false};
  std::once_flag shutdown_once_;
};

}  // namespace smore
