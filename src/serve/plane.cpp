#include "serve/plane.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <stdexcept>
#include <utility>

#include "data/dataset.hpp"
#include "hdc/hv_matrix.hpp"

namespace smore {

namespace {
/// A future already fulfilled with just a status (late-submit path).
std::future<ServeResult> ready_status(ServeStatus status) {
  std::promise<ServeResult> p;
  ServeResult r;
  r.status = status;
  p.set_value(std::move(r));
  return p.get_future();
}

/// A future already fulfilled with an exception (artifact-load failure:
/// the error surfaces to THIS request, never process-wide).
std::future<ServeResult> ready_error(std::exception_ptr error) {
  std::promise<ServeResult> p;
  p.set_exception(std::move(error));
  return p.get_future();
}
}  // namespace

ServingPlane::ServingPlane(MultiTenantConfig config, PlaneSpec spec)
    : config_(std::move(config)), spec_(std::move(spec)) {
  if ((spec_.registry == nullptr) == (spec_.pinned == nullptr)) {
    throw std::invalid_argument(
        "ServingPlane: needs exactly one of a registry or a pinned model");
  }
  config_.num_shards = std::max<std::size_t>(1, config_.num_shards);
  config_.workers_per_shard =
      std::max<std::size_t>(1, config_.workers_per_shard);
  config_.max_batch = std::max<std::size_t>(1, config_.max_batch);
  config_.shard_queue_capacity =
      std::max<std::size_t>(1, config_.shard_queue_capacity);
  config_.adapt_min_batch = std::max<std::size_t>(1, config_.adapt_min_batch);
  config_.adapt_buffer_capacity =
      std::max(config_.adapt_min_batch, config_.adapt_buffer_capacity);

  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    queues_.push_back(
        std::make_unique<MpmcQueue<Request>>(config_.shard_queue_capacity));
  }
  slot_shards_.resize(kSlotShards);
  for (auto& s : slot_shards_) s = std::make_unique<SlotShard>();

  const std::size_t total = config_.num_shards * config_.workers_per_shard;
  tel_ = std::make_unique<ServeTelemetry>(config_.telemetry, spec_.plane,
                                          total);
  obs::MetricsRegistry& m = tel_->hub().metrics();
  const obs::Labels plane{{"plane", spec_.plane}};
  if (spec_.pinned != nullptr) {
    pinned_slot_ = std::make_shared<TenantSlot>(spec_.plane, std::nullopt);
    SlotShard& shard = *slot_shards_.front();
    const MutexLock lock(shard.m);
    shard.map.emplace(spec_.plane, pinned_slot_);
    version_gauge_ = m.gauge("smore_snapshot_version", plane);
    domains_gauge_ = m.gauge("smore_live_domains", plane);
    refresh_gauges();
    tel_->hub().emit(
        obs::EventType::kSnapshotPublish, spec_.plane, "boot",
        static_cast<std::int64_t>(spec_.pinned->snapshot()->version));
  } else {
    tenants_seen_ = m.counter("smore_tenants_seen_total", plane);
  }

  workers_.reserve(total);
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    for (std::size_t w = 0; w < config_.workers_per_shard; ++w) {
      workers_.emplace_back([this, s] { worker_loop(s); });
    }
  }
  if (config_.adaptation) {
    adaptation_thread_ = std::thread([this] { adaptation_loop(); });
  }
}

ServingPlane::~ServingPlane() { shutdown(); }

std::shared_ptr<TenantSlot> ServingPlane::slot_of(const std::string& tenant) {
  SlotShard& shard =
      *slot_shards_[std::hash<std::string>{}(tenant) % kSlotShards];
  const MutexLock lock(shard.m);
  auto it = shard.map.find(tenant);
  if (it != shard.map.end()) return it->second;
  // The {tenant=...} metric bundle is created here, once per slot — the hot
  // path only ever touches the cached raw handles.
  auto slot = std::make_shared<TenantSlot>(tenant, tel_->tenant(tenant));
  shard.map.emplace(tenant, slot);
  tenants_seen_->add(1);
  return slot;
}

std::optional<std::future<ServeResult>> ServingPlane::submit(
    const std::string& tenant, std::vector<float> hv,
    std::unique_ptr<Window> window, bool blocking, ServeStatus* shed_reason) {
  const std::shared_ptr<TenantSlot> slot =
      pinned_slot_ != nullptr ? pinned_slot_ : slot_of(tenant);
  // Every refusal is counted with exactly one shed event. A blocking submit
  // is only ever refused by shutdown: it resolves on the result plane with
  // a ready kShuttingDown future, never an exception or an endless block.
  const auto refuse = [&](ServeStatus why)
      -> std::optional<std::future<ServeResult>> {
    tel_->record_shed(why, slot->tenant, slot->tel());
    if (blocking) return ready_status(why);
    if (shed_reason != nullptr) *shed_reason = why;
    return std::nullopt;
  };
  if (shut_down_.load(std::memory_order_acquire)) {
    return refuse(ServeStatus::kShuttingDown);
  }

  // Admission control: the in-flight count is bumped BEFORE the quota test
  // (fetch_add is the reservation; losers roll back) so concurrent
  // submitters cannot all pass the same reading. Blocking submit() skips
  // the test — the queue bound already applies backpressure to it — but
  // still counts, so its traffic is visible to concurrent try_submits.
  const std::uint64_t inflight =
      slot->inflight.fetch_add(1, std::memory_order_relaxed);
  if (!blocking && config_.fair && config_.tenant_inflight_quota != 0 &&
      inflight >= config_.tenant_inflight_quota) {
    slot->inflight.fetch_sub(1, std::memory_order_relaxed);
    return refuse(ServeStatus::kShedTenantQuota);
  }

  // Resolve the model (cold tenants load here, single-flight). The loader's
  // exception is delivered on the request's own future — admission
  // succeeded, the TENANT is broken, and only its requests see that.
  std::shared_ptr<TenantModel> model = spec_.pinned;
  if (model == nullptr) {
    try {
      model = spec_.registry->acquire(tenant);
    } catch (...) {
      slot->inflight.fetch_sub(1, std::memory_order_relaxed);
      // Counters only: the registry emitted the load-failure event (it made
      // the call, it knows the cause).
      tel_->record_load_failure(slot->tel());
      return ready_error(std::current_exception());
    }
  }
  if (window == nullptr && hv.size() != model->dim()) {
    slot->inflight.fetch_sub(1, std::memory_order_relaxed);
    throw std::invalid_argument("serve: dimension mismatch for tenant " +
                                slot->tenant);
  }

  Request req{slot, std::move(model), std::move(hv), std::move(window), {},
              std::chrono::steady_clock::now()};
  std::future<ServeResult> fut = req.promise.get_future();
  // Same hash as the slot map, different modulus: one tenant's traffic
  // always lands on one shard, where its micro-batches coalesce.
  MpmcQueue<Request>& queue =
      *queues_[std::hash<std::string>{}(slot->tenant) % queues_.size()];
  // On refusal the queue has already consumed the moved request (promise
  // included): `req` and `fut` are dead on those paths. The reason is the
  // queue's own atomic decision (QueuePush), not a second racy closed()
  // read that a concurrent shutdown could flip.
  QueuePush pushed = QueuePush::kClosed;
  if (blocking) {
    if (queue.push(std::move(req))) pushed = QueuePush::kAccepted;
  } else {
    pushed = queue.try_push(std::move(req));
  }
  if (pushed != QueuePush::kAccepted) {
    slot->inflight.fetch_sub(1, std::memory_order_relaxed);
    return refuse(pushed == QueuePush::kFull ? ServeStatus::kShedQueueFull
                                             : ServeStatus::kShuttingDown);
  }
  if (slot->tel() != nullptr) slot->tel()->submitted->add(1);
  tel_->submitted->add(1);
  return fut;
}

bool ServingPlane::publish(std::shared_ptr<const ModelSnapshot> snap,
                           const char* reason) {
  if (snap == nullptr || snap->backend == nullptr) {
    throw std::invalid_argument("serve: publish of a null snapshot");
  }
  return publish_to(*spec_.pinned, *pinned_slot_, std::move(snap), reason);
}

bool ServingPlane::publish_to(TenantModel& model, const TenantSlot& slot,
                              std::shared_ptr<const ModelSnapshot> snap,
                              const char* reason) {
  const std::uint64_t version = snap->version;
  if (!model.publish(std::move(snap))) return false;
  // Exactly one publish event per generation that actually went live, at
  // the layer that decided it (a lost CAS is the caller's shed to report).
  refresh_gauges();
  tel_->hub().emit(obs::EventType::kSnapshotPublish, slot.tenant, reason,
                   static_cast<std::int64_t>(version));
  return true;
}

void ServingPlane::refresh_gauges() const {
  if (version_gauge_ == nullptr) return;  // fleet: no plane-wide generation
  const auto live = spec_.pinned->snapshot();
  version_gauge_->set(static_cast<double>(live->version));
  domains_gauge_->set(static_cast<double>(live->model->num_domains()));
}

void ServingPlane::worker_loop(std::size_t shard) {
  MpmcQueue<Request>& queue = *queues_[shard];
  const std::chrono::microseconds delay(config_.max_delay_us);

  // Worker-local staging: arrivals (any tenant, FIFO off the shard queue)
  // are grouped per tenant here, because a batch cannot mix tenants. The
  // rotation ring realizes drain fairness: one micro-batch per pending
  // tenant per turn. Invariant (fair mode): a tenant is in the ring iff its
  // group exists (groups are erased when drained).
  std::unordered_map<std::string, std::deque<Request>> groups;
  std::deque<std::string> rotation;
  std::size_t pending = 0;
  std::vector<Request> incoming;
  std::vector<Request> batch;
  incoming.reserve(config_.max_batch);
  batch.reserve(config_.max_batch);

  for (;;) {
    incoming.clear();
    if (pending == 0) {
      // Idle: block for the first arrival (pop_batch also coalesces
      // stragglers for max_delay_us). 0 means closed AND drained — with no
      // pending work left, the shard is fully served.
      if (queue.pop_batch(incoming, config_.max_batch, delay) == 0) return;
    } else {
      // Work in hand: top up without sleeping, then keep draining. After
      // close this returns 0 and the loop finishes the pending groups —
      // graceful shutdown fulfills every future across all shards.
      queue.try_pop_batch(incoming, config_.max_batch);
    }
    for (Request& r : incoming) {
      std::deque<Request>& g = groups[r.slot->tenant];
      if (g.empty() && config_.fair) rotation.push_back(r.slot->tenant);
      g.push_back(std::move(r));
      ++pending;
    }

    // Pick the tenant to serve this turn.
    auto git = groups.begin();
    if (config_.fair) {
      git = groups.find(rotation.front());
      rotation.pop_front();
    } else {
      // Throughput-greedy baseline: serve the LARGEST pending group —
      // maximizing batch fill maximizes aggregate q/s, and is exactly the
      // policy that starves the tail: a Zipf-head tenant's group refills
      // faster than a tail tenant's singleton can ever become the largest.
      // Ties break toward the older front request so equal-depth groups
      // still drain in arrival order.
      for (auto it = std::next(groups.begin()); it != groups.end(); ++it) {
        if (it->second.size() > git->second.size() ||
            (it->second.size() == git->second.size() &&
             it->second.front().submit_time <
                 git->second.front().submit_time)) {
          git = it;
        }
      }
    }

    std::deque<Request>& g = git->second;
    batch.clear();
    const std::size_t take = std::min(config_.max_batch, g.size());
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(g.front()));
      g.pop_front();
    }
    pending -= take;
    if (g.empty()) {
      groups.erase(git);
    } else if (config_.fair) {
      rotation.push_back(git->first);  // back of the ring: others go first
    }
    process_batch(batch, shard);
  }
}

void ServingPlane::process_batch(std::vector<Request>& batch,
                                 std::size_t shard) {
  TenantSlot& slot = *batch.front().slot;
  // All requests of a batch share one tenant; the snapshot is grabbed once
  // (RCU read) and pins the model generation for the whole batch.
  const auto snap = batch.front().model->snapshot();
  const std::size_t dim = snap->backend->dim();
  const auto batch_start = std::chrono::steady_clock::now();

  // Assemble the query block. Encoded rows are copied; raw windows are
  // grouped by shape and each group encoded with ONE encode_batch. A row
  // fails alone, on its own promise, never the batch or the worker: a
  // window the encoder rejects fails its shape group, and an encoded row
  // can misfit when one tenant was evicted and redeployed with a new
  // dimension while earlier requests sat queued against the old model.
  std::size_t n = batch.size();
  HvMatrix queries(n, dim);
  std::map<std::pair<std::size_t, std::size_t>, std::vector<std::size_t>>
      window_groups;  // (channels, steps) -> batch rows
  std::vector<std::exception_ptr> failed;  // lazily sized: rare path
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (batch[i].window != nullptr) {
      window_groups[{batch[i].window->channels(), batch[i].window->steps()}]
          .push_back(i);
    } else if (batch[i].hv.size() == dim) {
      queries.set_row(i, batch[i].hv);
    } else {
      if (failed.empty()) failed.resize(n);
      failed[i] = std::make_exception_ptr(std::invalid_argument(
          "serve: request for tenant " + slot.tenant +
          " was pinned to a model generation with a different dimension "
          "than its batch"));
      ++mismatched;
    }
  }
  for (const auto& [shape, rows] : window_groups) {
    try {
      WindowDataset windows("serve", shape.first, shape.second);
      for (const std::size_t i : rows) windows.add(std::move(*batch[i].window));
      HvMatrix encoded;
      // A single batching worker owns the whole machine and uses the pool;
      // with several workers, each stays serial on the encode so concurrent
      // batches don't convoy on the shared global pool (the predict kernels
      // parallelize internally either way).
      spec_.encoder->encode_batch(windows, encoded,
                                  /*parallel=*/workers_.size() == 1);
      for (std::size_t j = 0; j < rows.size(); ++j) {
        queries.set_row(rows[j], encoded.row(j));
      }
    } catch (...) {
      if (failed.empty()) failed.resize(n);
      for (const std::size_t i : rows) failed[i] = std::current_exception();
    }
  }
  if (!failed.empty()) {
    if (mismatched != 0) {
      tel_->hub().emit(obs::EventType::kShed, slot.tenant, "dim-mismatch",
                       static_cast<std::int64_t>(mismatched));
    }
    // Accounting before fulfillment: each failed request's quota is released
    // before its promise resolves. Survivors compact in place.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (failed[i] != nullptr) {
        slot.inflight.fetch_sub(1, std::memory_order_relaxed);
        batch[i].promise.set_exception(failed[i]);
      } else {
        if (kept != i) {
          queries.set_row(kept, queries.row(i));
          batch[kept] = std::move(batch[i]);
        }
        ++kept;
      }
    }
    batch.resize(kept);
    n = kept;
    if (n == 0) return;
  }
  // The encode span reads 0 on batches of pre-encoded queries.
  const auto encode_done = window_groups.empty()
                               ? batch_start
                               : std::chrono::steady_clock::now();

  SmoreBatchResult result;
  try {
    // One virtual call: the snapshot's backend knows its representation.
    result = snap->backend->predict_batch_full(queries.view().slice(0, n));
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    slot.inflight.fetch_sub(n, std::memory_order_relaxed);
    for (Request& req : batch) req.promise.set_exception(error);
    return;
  }
  const std::size_t k = result.num_domains;
  const auto predict_done = std::chrono::steady_clock::now();
  const auto now = std::chrono::steady_clock::now();

  // ALL externally observable accounting lands before any promise is
  // fulfilled: a submitter that returns from get() and immediately reads
  // stats() must see its own request counted, its quota reservation
  // released, and its latency recorded (ServeTelemetry::record_batch).
  std::vector<std::chrono::steady_clock::time_point> submit_times;
  submit_times.reserve(n);
  for (const Request& req : batch) submit_times.push_back(req.submit_time);
  tel_->record_batch({batch_start, encode_done, predict_done, now},
                     submit_times, result.ood, result.labels, snap->version,
                     static_cast<std::uint32_t>(shard), slot.tenant,
                     slot.tel());
  slot.inflight.fetch_sub(n, std::memory_order_relaxed);

  for (std::size_t i = 0; i < n; ++i) {
    ServeResult r;
    r.label = result.labels[i];
    r.is_ood = result.ood[i] != 0;
    r.max_similarity = result.max_similarity[i];
    r.weights.assign(
        result.weights.begin() + static_cast<std::ptrdiff_t>(i * k),
        result.weights.begin() + static_cast<std::ptrdiff_t>((i + 1) * k));
    r.latency_seconds =
        std::chrono::duration<double>(now - batch[i].submit_time).count();
    r.snapshot_version = snap->version;
    batch[i].promise.set_value(std::move(r));
  }

  if (config_.adaptation && k > 0) {
    // Feed this tenant's adaptation, off the response path: OOD rows into
    // its bounded side buffer with their predicted pseudo-labels, and
    // (lifecycle only) one unit of usage credit to each request's
    // best-matching domain so decay/evict rank domains by what this
    // tenant's traffic actually exercises.
    std::vector<double> pos_usage(spec_.lifecycle ? k : 0, 0.0);
    for (std::size_t i = 0; spec_.lifecycle && i < n; ++i) {
      const double* w = result.weights.data() + i * k;
      pos_usage[static_cast<std::size_t>(std::max_element(w, w + k) - w)] +=
          1.0;
    }
    const std::vector<int>& ids = snap->model->descriptors().domain_ids();
    std::size_t overflow = 0;
    bool ready = false;
    {
      const MutexLock lock(slot.adapt_m);
      for (std::size_t p = 0; p < pos_usage.size() && p < ids.size(); ++p) {
        if (pos_usage[p] != 0.0) slot.usage[ids[p]] += pos_usage[p];
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (result.ood[i] == 0) continue;
        if (slot.ood_buffer.size() >= config_.adapt_buffer_capacity) {
          ++overflow;  // best-effort: overload sheds adaptation, not serving
          continue;
        }
        std::vector<float> hv = std::move(batch[i].hv);
        if (hv.empty()) hv.assign(queries.row(i).begin(), queries.row(i).end());
        slot.ood_buffer.push_back(OodSample{std::move(hv), result.labels[i]});
      }
      ready = slot.ood_buffer.size() >= config_.adapt_min_batch;
    }
    if (overflow != 0) shed_round(slot, overflow, "buffer-overflow", true);
    if (ready) {
      {
        const MutexLock lock(adapt_wake_m_);
        adapt_ready_ = true;
      }
      adapt_cv_.notify_one();
    }
  }
}

std::vector<std::shared_ptr<TenantSlot>> ServingPlane::slots() const {
  std::vector<std::shared_ptr<TenantSlot>> out;
  for (const auto& shard : slot_shards_) {
    const MutexLock lock(shard->m);
    for (const auto& [tenant, slot] : shard->map) out.push_back(slot);
  }
  return out;
}

void ServingPlane::adaptation_loop() {
  const std::chrono::milliseconds poll(
      std::max<std::uint32_t>(1, config_.adapt_poll_ms));
  for (;;) {
    {
      const MutexLock lock(adapt_wake_m_);
      // Timed wait for (ready || stopping), written as an explicit loop so
      // the guarded reads stay under the lock the analysis sees; a timeout
      // falls through to a sweep (the poll cadence).
      const auto deadline = std::chrono::steady_clock::now() + poll;
      while (!adapt_stopping_ && !adapt_ready_) {
        if (adapt_cv_.wait_until(adapt_wake_m_, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      if (adapt_stopping_) break;
      adapt_ready_ = false;
    }
    // Sweep every tenant with a ready round. One worker for the plane: a
    // round is a clone + a few kernel calls over at most
    // adapt_buffer_capacity rows, and serialization across tenants keeps
    // adaptation from ever competing with serving for more than one core.
    for (const auto& slot : slots()) {
      std::vector<OodSample> round;
      std::vector<std::pair<int, double>> usage;
      {
        const MutexLock lock(slot->adapt_m);
        if (slot->ood_buffer.size() < config_.adapt_min_batch) continue;
        round.swap(slot->ood_buffer);
        usage.assign(slot->usage.begin(), slot->usage.end());
        slot->usage.clear();
      }
      run_round(*slot, std::move(round), usage);
    }
  }
  // Shutdown drain: buffered windows that never made a round are shed, not
  // silently forgotten — same honesty contract as the request counters.
  for (const auto& slot : slots()) {
    std::size_t remaining = 0;
    {
      const MutexLock lock(slot->adapt_m);
      remaining = slot->ood_buffer.size();
      slot->ood_buffer.clear();
      slot->usage.clear();
    }
    if (remaining != 0) shed_round(*slot, remaining, "shutdown");
  }
}

void ServingPlane::shed_round(const TenantSlot& slot, std::size_t n,
                              const char* reason, bool overflow) {
  tel_->adapt_dropped->add(n);
  if (overflow) tel_->adapt_overflow->add(n);
  if (const TenantTelemetry* t = slot.tel()) {
    t->adapt_dropped->add(n);
    if (overflow) t->adapt_overflow->add(n);
  }
  tel_->hub().emit(obs::EventType::kAdaptationShed, slot.tenant, reason,
                   static_cast<std::int64_t>(n));
}

void ServingPlane::run_round(TenantSlot& slot, std::vector<OodSample> round,
                             std::span<const std::pair<int, double>> usage) {
  const std::shared_ptr<TenantModel> tm =
      spec_.pinned != nullptr ? spec_.pinned
                              : spec_.registry->resident(slot.tenant);
  if (tm == nullptr) {
    // Cold tenant: adaptation never pays an artifact reload for a tenant
    // whose traffic no longer keeps it resident. The round is shed.
    shed_round(slot, round.size(), "cold-tenant");
    return;
  }
  const auto snap = tm->snapshot();
  // Rows collected against an older evict+redeploy generation may not fit
  // the current dimension; they are shed per-row, same as mismatched
  // requests in process_batch — never an exception out of this thread.
  const std::size_t dim = snap->backend->dim();
  const auto misfit = std::remove_if(
      round.begin(), round.end(),
      [dim](const OodSample& s) { return s.hv.size() != dim; });
  const auto mismatched = static_cast<std::size_t>(round.end() - misfit);
  round.erase(misfit, round.end());
  if (mismatched != 0) shed_round(slot, mismatched, "dim-mismatch");
  if (round.empty()) return;
  try {
    const AdaptationOutcome out =
        spec_.lifecycle
            ? run_lifecycle_round(*snap, round, usage,
                                  config_.lifecycle_config, snap->version + 1)
            : run_enrol_round(*snap, round, spec_.max_domains,
                              snap->version + 1);
    if (out.next == nullptr) {
      // Enrolment cap reached: keep serving, shed the round (the policy is
      // bounded model growth; operators raise the cap or push a
      // consolidated model).
      shed_round(slot, round.size(), "domain-cap");
    } else if (publish_to(*tm, slot, out.next, "adaptation")) {
      const LifecycleRoundStats& st = out.lifecycle;
      tel_->adapt_rounds->add(1);
      tel_->adapt_absorbed->add(st.absorbed);
      tel_->adapt_merged->add(st.merged);
      tel_->adapt_evicted->add(st.evicted);
      if (const TenantTelemetry* t = slot.tel()) {
        t->adapt_rounds->add(1);
        t->adapt_absorbed->add(st.absorbed);
        t->adapt_merged->add(st.merged);
        t->adapt_evicted->add(st.evicted);
      }
      // Lifecycle events only for the generation that actually went live.
      emit_lifecycle_events(tel_->hub(), slot.tenant, out);
    } else {
      // Lost the publish CAS to a newer generation (an operator push):
      // stale-publisher-loses, the round is shed rather than clobbering it.
      shed_round(slot, round.size(), "publish-race");
    }
  } catch (...) {
    // A failed round is this tenant's loss, never the worker's: the thread
    // survives, the round is counted shed.
    shed_round(slot, round.size(), "round-failed");
  }
}

void ServingPlane::shutdown() {
  std::call_once(shutdown_once_, [this] {
    shut_down_.store(true, std::memory_order_release);
    for (auto& queue : queues_) queue->close();  // workers drain, then exit
    for (auto& w : workers_) w.join();
    if (adaptation_thread_.joinable()) {
      {
        const MutexLock lock(adapt_wake_m_);
        adapt_stopping_ = true;
      }
      adapt_cv_.notify_all();
      adaptation_thread_.join();
    }
  });
}

}  // namespace smore
