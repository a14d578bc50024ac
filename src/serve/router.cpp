#include "serve/router.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/export.hpp"

namespace smore {

MultiTenantServer::MultiTenantServer(std::shared_ptr<ModelRegistry> registry,
                                     MultiTenantConfig config)
    : registry_(std::move(registry)) {
  if (registry_ == nullptr) {
    throw std::invalid_argument("MultiTenantServer: null registry");
  }
  PlaneSpec spec;
  spec.plane = "fleet";
  spec.registry = registry_;
  plane_ = std::make_unique<ServingPlane>(std::move(config), std::move(spec));
  if (!plane_->config().export_path.empty()) {
    export_thread_ = std::thread([this] { export_loop(); });
  }
}

MultiTenantServer::~MultiTenantServer() { shutdown(); }

std::future<ServeResult> MultiTenantServer::submit(const std::string& tenant,
                                                   std::vector<float> hv) {
  return *plane_->submit(tenant, std::move(hv), nullptr,
                         /*blocking=*/true, nullptr);
}

std::optional<std::future<ServeResult>> MultiTenantServer::try_submit(
    const std::string& tenant, std::vector<float> hv,
    ServeStatus* shed_reason) {
  return plane_->submit(tenant, std::move(hv), nullptr,
                        /*blocking=*/false, shed_reason);
}

void MultiTenantServer::export_loop() {
  const std::chrono::milliseconds interval(
      std::max<std::uint32_t>(1, config().export_interval_ms));
  for (;;) {
    {
      const MutexLock lock(export_m_);
      const auto deadline = std::chrono::steady_clock::now() + interval;
      while (!export_stopping_) {
        if (export_cv_.wait_until(export_m_, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      if (export_stopping_) return;  // shutdown writes the final snapshot
    }
    write_telemetry(config().export_path);
  }
}

bool MultiTenantServer::write_telemetry(const std::string& path) const {
  return obs::write_file_atomic(path, obs::snapshot_json_text(*telemetry()));
}

void MultiTenantServer::shutdown() {
  plane_->shutdown();  // drains every shard, joins the plane's threads
  std::call_once(export_once_, [this] {
    if (!export_thread_.joinable()) return;
    {
      const MutexLock lock(export_m_);
      export_stopping_ = true;
    }
    export_cv_.notify_all();
    export_thread_.join();
    // Final snapshot AFTER all workers drained: the exported file's last
    // generation carries the complete counters.
    write_telemetry(config().export_path);
  });
}

MultiTenantStats MultiTenantServer::stats() const {
  const ServeTelemetry& tel = plane_->telemetry();
  MultiTenantStats s;
  tel.fill_stats(s);
  s.shed_queue_full = tel.shed_queue_full->value();
  s.shed_tenant_quota = tel.shed_quota->value();
  s.load_failures = tel.load_failures->value();
  s.tenants_seen = plane_->tenants_seen();
  s.registry = registry_->stats();
  return s;
}

std::vector<TenantServerStats> MultiTenantServer::tenant_stats() const {
  std::vector<TenantServerStats> out;
  for (const auto& slot : plane_->slots()) {
    const TenantTelemetry& tel = *slot->tel();
    TenantServerStats t;
    t.tenant = slot->tenant;
    t.submitted = tel.submitted->value();
    t.completed = tel.completed->value();
    t.shed_queue_full = tel.shed_queue->value();
    t.shed_tenant_quota = tel.shed_quota->value();
    t.load_failures = tel.load_failures->value();
    t.ood_flagged = tel.ood->value();
    t.inflight = slot->inflight.load(std::memory_order_relaxed);
    t.adaptation_rounds = tel.adapt_rounds->value();
    t.adaptation_absorbed = tel.adapt_absorbed->value();
    t.adaptation_dropped = tel.adapt_dropped->value();
    t.adaptation_overflow = tel.adapt_overflow->value();
    t.adaptation_merged = tel.adapt_merged->value();
    t.adaptation_evicted = tel.adapt_evicted->value();
    t.queue_wait = tel.queue_wait->snapshot();
    t.service = tel.service->snapshot();
    t.latency = tel.latency->snapshot();
    out.push_back(std::move(t));
  }
  std::sort(out.begin(), out.end(),
            [](const TenantServerStats& a, const TenantServerStats& b) {
              return a.tenant < b.tenant;
            });
  return out;
}

}  // namespace smore
