#include "serve/server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/pipeline.hpp"

namespace smore {

InferenceServer::InferenceServer(std::shared_ptr<const ModelSnapshot> boot,
                                 std::shared_ptr<const Encoder> encoder,
                                 ServerConfig config)
    : config_(std::move(config)), encoder_(std::move(encoder)) {
  if (boot == nullptr || boot->model == nullptr || boot->backend == nullptr) {
    throw std::invalid_argument("InferenceServer: null boot snapshot");
  }
  if (encoder_ == nullptr) {
    encoder_ = boot->encoder;  // Pipeline-boot snapshots carry one
  }
  if (encoder_ != nullptr && encoder_->dim() != boot->backend->dim()) {
    throw std::invalid_argument(
        "InferenceServer: encoder/model dimension mismatch");
  }
  config_.num_workers = std::max<std::size_t>(1, config_.num_workers);
  config_.max_batch = std::max<std::size_t>(1, config_.max_batch);

  // A fleet of one: one shard whose workers are this server's, no tenant
  // quota, and the single-tenant adaptation policy.
  MultiTenantConfig plane;
  plane.workers_per_shard = config_.num_workers;
  plane.max_batch = config_.max_batch;
  plane.max_delay_us = config_.max_delay_us;
  plane.shard_queue_capacity = config_.queue_capacity;
  plane.fair = false;
  plane.adaptation = config_.adaptation;
  plane.adapt_min_batch = config_.adapt_min_batch;
  plane.adapt_buffer_capacity = config_.adapt_buffer_capacity;
  plane.adapt_poll_ms = config_.adapt_poll_ms;
  plane.lifecycle_config = config_.lifecycle_config;
  plane.telemetry = config_.telemetry;
  PlaneSpec spec;
  spec.plane = "server";
  spec.pinned = std::make_shared<TenantModel>("server", std::move(boot));
  spec.encoder = encoder_;
  spec.lifecycle = config_.lifecycle;
  spec.max_domains = config_.adapt_max_domains;
  plane_ = std::make_unique<ServingPlane>(std::move(plane), std::move(spec));
}

InferenceServer::InferenceServer(const Pipeline& pipeline, ServerConfig config,
                                 std::uint64_t boot_version)
    : InferenceServer(ModelSnapshot::make(pipeline, boot_version),
                      pipeline.encoder_ptr(), std::move(config)) {}

InferenceServer::~InferenceServer() { shutdown(); }

std::future<ServeResult> InferenceServer::submit(std::vector<float> hv) {
  return *plane_->submit({}, std::move(hv), nullptr, /*blocking=*/true,
                         nullptr);
}

std::future<ServeResult> InferenceServer::submit(Window window) {
  if (encoder_ == nullptr) {
    throw std::logic_error(
        "InferenceServer::submit(Window): server built without an encoder");
  }
  return *plane_->submit({}, {}, std::make_unique<Window>(std::move(window)),
                         /*blocking=*/true, nullptr);
}

std::optional<std::future<ServeResult>> InferenceServer::try_submit(
    std::vector<float> hv, ServeStatus* shed_reason) {
  return plane_->submit({}, std::move(hv), nullptr, /*blocking=*/false,
                        shed_reason);
}

bool InferenceServer::publish(std::shared_ptr<const ModelSnapshot> snap) {
  return plane_->publish(std::move(snap), "operator");
}

void InferenceServer::shutdown() { plane_->shutdown(); }

ServerStats InferenceServer::stats() const {
  ServerStats s;
  plane_->telemetry().fill_stats(s);
  const auto live = snapshot();
  s.snapshot_version = live->version;
  s.live_domains = live->model->num_domains();
  // Keep the exporter's gauges fresh even when nobody published recently.
  plane_->refresh_gauges();
  return s;
}

}  // namespace smore
