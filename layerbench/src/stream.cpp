// edge-stream: a USC-HAD-like model trained on every domain but one is
// quantized and served by an InferenceServer with lifecycle adaptation on.
// Raw windows arrive one by one on a recurring-drift schedule (seen domains,
// the held-out subject group, seen again, held-out again, …). The run is
// made of whole rounds of the same requests: each round boots a fresh
// server from the boot model, sends an open-loop segment at a fixed rate
// well below capacity, then a closed-loop saturation segment.

#include <algorithm>
#include <atomic>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "harness.hpp"
#include "hdc/encoder.hpp"
#include "layers.hpp"
#include "load.hpp"
#include "obs/telemetry.hpp"
#include "serve/adaptation.hpp"
#include "serve/server.hpp"

namespace layerbench {
namespace {

constexpr double kTargetOod = 0.05;
constexpr double kOpenRate = 500.0;    ///< open-loop windows per second
constexpr std::size_t kSegment = 256;  ///< windows per drift segment
constexpr std::size_t kOpenCount = 512;     ///< open-loop windows per round
constexpr std::size_t kClosedCount = 4096;  ///< closed-loop windows per round
constexpr std::size_t kClients = 1;    ///< closed-loop client threads
constexpr std::size_t kDepth = 64;     ///< requests the client keeps in flight
constexpr int kBootModels = 5;         ///< boot models deployed (last is served)
constexpr int kSetups = 7;             ///< repetitions of each set-up step

/// The recurring-drift schedule: request i falls in segment i / kSegment;
/// even segments draw from the seen-domain pool, odd ones from the held-out
/// pool, each pool walked in a seed-shuffled order.
class Schedule {
 public:
  Schedule(const smore::WindowDataset& seen, const smore::WindowDataset& held,
           std::uint64_t seed)
      : seen_(seen), held_(held) {
    std::mt19937_64 rng(seed);
    for (std::size_t i = 0; i < seen.size(); ++i) seen_order_.push_back(i);
    for (std::size_t i = 0; i < held.size(); ++i) held_order_.push_back(i);
    std::shuffle(seen_order_.begin(), seen_order_.end(), rng);
    std::shuffle(held_order_.begin(), held_order_.end(), rng);
  }
  [[nodiscard]] bool held_out(std::size_t i) const {
    return (i / kSegment) % 2 == 1;
  }
  /// Position of request i in its pool.
  [[nodiscard]] std::size_t pool_index(std::size_t i) const {
    return held_out(i) ? held_order_[i % held_order_.size()]
                       : seen_order_[i % seen_order_.size()];
  }
  [[nodiscard]] const smore::Window& window(std::size_t i) const {
    return held_out(i) ? held_[pool_index(i)] : seen_[pool_index(i)];
  }

 private:
  const smore::WindowDataset& seen_;
  const smore::WindowDataset& held_;
  std::vector<std::size_t> seen_order_;
  std::vector<std::size_t> held_order_;
};

struct Phases {
  LoadResult open;
  LoadResult closed;
};

/// One round: boot a server on `snap`, send requests [0, open_n) in an
/// open loop, then the next closed_n in a closed loop, and shut it down.
Phases drive(const std::shared_ptr<const smore::ModelSnapshot>& snap,
             const std::shared_ptr<const smore::Encoder>& encoder,
             smore::ServerConfig cfg, const Schedule& schedule,
             std::size_t open_n, std::size_t closed_n, const VerifyFn& verify,
             smore::ServerStats* stats) {
  smore::InferenceServer server(snap, encoder, cfg);
  const SubmitFn submit = [&](std::size_t i) {
    return server.submit(schedule.window(i));
  };
  Phases ph;
  ph.open = open_loop(kOpenRate, open_n, 0, submit, verify);
  ph.closed =
      closed_loop(kClients, kDepth, closed_n, open_n, submit, verify);
  server.shutdown();
  if (stats != nullptr) *stats = server.stats();
  return ph;
}

/// Sum of the counters of several rounds' servers; the live domain count
/// is the last round's.
void add_stats(smore::ServerStats& sum, const smore::ServerStats& s) {
  sum.batches += s.batches;
  sum.batched_rows += s.batched_rows;
  sum.adaptation_rounds += s.adaptation_rounds;
  sum.adaptation_absorbed += s.adaptation_absorbed;
  sum.adaptation_dropped += s.adaptation_dropped;
  sum.live_domains = s.live_domains;
  sum.mean_batch_fill =
      sum.batches > 0 ? static_cast<double>(sum.batched_rows) /
                            static_cast<double>(sum.batches)
                      : 0.0;
}

smore::WindowDataset empty_like(const smore::WindowDataset& d) {
  return smore::WindowDataset(d.name(), d.channels(), d.steps());
}

}  // namespace

void run_edge_stream(const RunOptions& opt, Report& report) {
  const Sizes sz = sizes_for(opt);
  const smore::SyntheticSpec spec = smore::uschad_spec(sz.uschad_scale);
  smore::EncoderConfig ec;
  ec.dim = sz.dim;
  smore::SmoreConfig sc;
  const int classes = spec.activities;
  const int held = spec.num_domains() - 1;

  // Set-up, part 1: generate the dataset (kSetups times).
  std::vector<double> gen_s;
  smore::WindowDataset data;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    data = smore::generate_dataset(spec);
    gen_s.push_back(seconds_since(t0));
  }
  // Training set: four of every five seen-domain windows; the fifth feeds
  // the stream's seen segments; the held-out domain feeds its drift ones.
  smore::WindowDataset train = empty_like(data);
  smore::WindowDataset seen = empty_like(data);
  smore::WindowDataset held_pool = empty_like(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const smore::Window& w = data[i];
    if (w.domain() == held) {
      held_pool.add(w);
    } else {
      (i % 5 == 0 ? seen : train).add(w);
    }
  }
  report.detail.set("train_windows", static_cast<std::uint64_t>(train.size()));
  report.detail.set("seen_pool", static_cast<std::uint64_t>(seen.size()));
  report.detail.set("held_out_pool",
                    static_cast<std::uint64_t>(held_pool.size()));

  // Deploy kBootModels boot models from as many seeds; the last one is
  // served, and the held-out packed accuracy is their mean.
  std::vector<double> deploy_s;
  std::vector<double> fit_s;
  std::vector<double> quant_s;
  std::vector<double> cal_s;
  double held_packed_acc = 0.0;
  ArtifactTrip trip;
  smore::HvMatrix train_enc;
  for (int i = 0; i < kBootModels; ++i) {
    ec.seed = derive_seed(opt.seed, 10 + i);
    sc.domain_model.seed = derive_seed(opt.seed, 20 + i);
    Deployment dep = deploy(train, ec, sc, classes, kTargetOod, false);
    fit_s.push_back(dep.fit_s);
    quant_s.push_back(dep.quantize_s);
    cal_s.push_back(dep.calibrate_s);
    deploy_s.push_back(dep.deploy_s());
    held_packed_acc +=
        dep.pipeline->evaluate(held_pool, smore::ServeBackend::kPacked)
            .accuracy /
        kBootModels;
    trip = std::move(dep.trip);
    train_enc = std::move(dep.calibration_encodings);
  }
  PhaseCount& deploy_phase = report.phase("deploy");
  deploy_phase.attempted += kBootModels;

  // Set-up, part 2: load the artifact, boot a server, answer one window
  // (kSetups times).
  smore::ServerConfig cfg;
  cfg.adaptation = true;
  cfg.lifecycle = true;
  std::vector<double> boot_s;
  std::unique_ptr<smore::Pipeline> pipe;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    std::istringstream in(trip.bytes, std::ios::binary);
    pipe = std::make_unique<smore::Pipeline>(smore::Pipeline::load(in));
    smore::InferenceServer server(*pipe, cfg);
    (void)server.submit(held_pool[0]).get();
    server.shutdown();
    boot_s.push_back(seconds_since(t0));
  }
  const auto boot = smore::ModelSnapshot::make(*pipe, 1, true);

  // Direct answers of the boot model for every pool window.
  const smore::SmoreBatchResult direct_seen =
      pipe->predict_batch_full(seen, smore::ServeBackend::kPacked);
  const smore::SmoreBatchResult direct_held =
      pipe->predict_batch_full(held_pool, smore::ServeBackend::kPacked);

  const Schedule schedule(seen, held_pool, derive_seed(opt.seed, 3));
  PhaseCount& open_phase = report.phase("open-loop");
  PhaseCount& closed_phase = report.phase("closed-loop");

  // Every answer from the boot generation must equal the direct batched
  // call on the same window; later generations are adapted models.
  std::atomic<std::uint64_t> boot_answers{0};
  const VerifyFn verify = [&](const Answer& a, bool* right) -> std::string {
    *right = a.label == schedule.window(a.index).label();
    if (a.version != 1) return {};
    boot_answers.fetch_add(1, std::memory_order_relaxed);
    const smore::SmoreBatchResult& d =
        schedule.held_out(a.index) ? direct_held : direct_seen;
    const std::size_t j = schedule.pool_index(a.index);
    if (d.labels[j] == a.label && d.ood[j] == a.ood &&
        d.max_similarity[j] == a.max_similarity) {
      return {};
    }
    return "request " + std::to_string(a.index) +
           " served by the boot generation differs from the direct batched "
           "call";
  };

  // --smoke sends an eighth of each segment.
  const std::size_t open_n = sz.smoke ? kOpenCount / 8 : kOpenCount;
  const std::size_t closed_n = sz.smoke ? kClosedCount / 8 : kClosedCount;

  // A traced run first measures the tracing overhead: closed-loop segments
  // of the same requests on fresh servers booted from the same snapshot,
  // without and with the probes and full request tracing, alternating which
  // goes first, three of each.
  std::vector<double> plain_rates;
  std::vector<double> traced_rates;
  std::vector<LoadResult> overhead_parts;
  if (opt.trace) {
    PhaseCount& overhead_phase = report.phase("trace-overhead");
    for (int i = 0; i < kOverheadSamples; ++i) {
      const bool traced = overhead_sample_traced(i);
      smore::ServerConfig seg_cfg = cfg;
      std::shared_ptr<const smore::ModelSnapshot> snap = boot;
      std::shared_ptr<const smore::Encoder> encoder = pipe->encoder_ptr();
      if (traced) {
        smore::obs::TelemetryConfig tc;
        tc.trace = full_tracer(1 << 15);
        seg_cfg.telemetry = smore::obs::Telemetry::make(tc);
        auto seg_probe = std::make_shared<ProbeEncoder>(encoder, true);
        snap = with_probes(*boot, std::make_shared<CallLog>(), seg_probe);
        encoder = seg_probe;
      }
      Phases seg =
          drive(snap, encoder, seg_cfg, schedule, 0, closed_n, verify, nullptr);
      (traced ? traced_rates : plain_rates).push_back(seg.closed.rate());
      overhead_phase.attempted += seg.closed.attempted;
      overhead_phase.failed += seg.closed.failed;
      overhead_parts.push_back(std::move(seg.closed));
    }
  }
  auto probe = std::make_shared<ProbeEncoder>(pipe->encoder_ptr(), opt.trace);
  auto predict_log = std::make_shared<CallLog>();
  smore::ServerConfig run_cfg = cfg;
  std::shared_ptr<const smore::ModelSnapshot> served_snap = boot;
  std::shared_ptr<const smore::Encoder> served_encoder = pipe->encoder_ptr();
  if (opt.trace) {
    smore::obs::TelemetryConfig tc;
    tc.trace = full_tracer(1 << 17);
    run_cfg.telemetry = smore::obs::Telemetry::make(tc);
    served_snap = with_probes(*boot, predict_log, probe);
    served_encoder = probe;
  }
  // Whole rounds until the measuring time is spent (half the run when
  // traced; the other half goes to the overhead segments and the isolated
  // layer measurements).
  smore::ServerStats stats;
  Phases run;
  std::vector<double> closed_rates;
  const double measure_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const auto start = Clock::now();
  do {
    smore::ServerStats round_stats;
    const Phases r = drive(served_snap, served_encoder, run_cfg, schedule,
                           open_n, closed_n, verify, &round_stats);
    add_stats(stats, round_stats);
    closed_rates.push_back(r.closed.rate());
    run.open.add(r.open);
    run.closed.add(r.closed);
    release_free_memory();
  } while (seconds_since(start) < measure_s);
  open_phase.attempted += run.open.attempted;
  open_phase.failed += run.open.failed;
  closed_phase.attempted += run.closed.attempted;
  closed_phase.failed += run.closed.failed;

  // ---- metrics ----
  for (const LoadResult* part : {&run.open, &run.closed}) {
    report.check(part->mismatch.empty(), part->mismatch);
  }
  for (const LoadResult& part : overhead_parts) {
    report.check(part.mismatch.empty(), part.mismatch);
  }
  report.check(boot_answers.load() > 0,
               "no answer came from the boot generation");
  const std::uint64_t served = run.open.answered + run.closed.answered;
  const double accuracy =
      served > 0 ? static_cast<double>(run.open.right + run.closed.right) /
                       static_cast<double>(served)
                 : 0.0;
  const smore::SmoreEvaluation held_float =
      pipe->evaluate(held_pool, smore::ServeBackend::kFloat);
  const smore::SmoreEvaluation held_packed =
      pipe->evaluate(held_pool, smore::ServeBackend::kPacked);

  report.metric("setup_s", median(gen_s) + median(boot_s), "s");
  report.metric("deploy_s", median(deploy_s), "s");
  report.metric("throughput_per_s", median(closed_rates), "1/s");
  report.detail.set("rounds", static_cast<std::uint64_t>(closed_rates.size()));
  report.detail.set("closed_loop_rate_q1", quantile(closed_rates, 0.25));
  report.detail.set("closed_loop_rate_q3", quantile(closed_rates, 0.75));
  report.detail.set("closed_loop_whole_rate", run.closed.rate());
  report.metric("p50_ms", run.open.quantile_ms(0.50), "ms");
  report.detail.set("open_loop_p90_ms", run.open.quantile_ms(0.90));
  report.detail.set("open_loop_p99_ms", run.open.quantile_ms(0.99));
  report.metric("accuracy", accuracy, "ratio");
  report.metric("accuracy_packed", held_packed_acc, "ratio");
  report.detail.set("held_out_accuracy_float", held_float.accuracy);
  report.detail.set("held_out_ood_rate_packed", held_packed.ood_rate);
  report.detail.set("open_loop_rate", kOpenRate);
  report.detail.set("open_loop_max_late_ms", run.open.max_late_ms);
  report.detail.set("open_loop_samples", run.open.answered);
  report.detail.set("adaptation_rounds", stats.adaptation_rounds);
  report.detail.set("live_domains",
                    static_cast<std::uint64_t>(stats.live_domains));
  report.detail.set("answers_from_boot_generation", boot_answers.load());

  // ---- checks against the method ----
  std::string msg = check_above_chance(accuracy, classes);
  report.check(msg.empty(), "served " + msg);
  msg = check_above_chance(held_packed.accuracy, classes);
  report.check(msg.empty(), "held-out packed " + msg);
  check_pipeline_calibration(*pipe, std::move(train_enc), train, kTargetOod,
                             report, "boot model");
  for (const smore::WindowDataset* pool : {&seen, &held_pool}) {
    const smore::HvDataset enc = pipe->encode(*pool);
    const smore::HvView view = enc.view();
    const std::size_t stride = std::max<std::size_t>(1, view.rows / 64);
    const smore::SmoreBatchResult fr = pipe->model().predict_batch_full(view);
    const smore::SmoreBatchResult pr = pipe->packed()->predict_batch_full(view);
    msg = check_float_delta(pipe->model(), view, fr, stride);
    report.check(msg.empty(), msg);
    msg = check_packed_delta(pipe->model(), pipe->packed()->delta_star(), view,
                             pr, stride);
    report.check(msg.empty(), msg);
    msg = check_ttm_labels(pipe->model(), view, fr.labels, stride);
    report.check(msg.empty(), msg);
  }

  if (!opt.trace) return;

  // ---- per-layer metrics (traced run) ----
  zero_serving_layers(report);
  measure_isolated_layers(*pipe, held_pool, sz.smoke ? 0.5 : 3.0, report);
  report.metric("core.fit_s", median(fit_s), "s");
  report.metric("core.calibrate_s", median(cal_s), "s");
  report.metric("core.quantize_s", median(quant_s), "s");
  report_encode_log(probe->log(), report);

  const auto spans = run_cfg.telemetry->tracer().recent();
  const SpanSummary sum = summarize_spans(spans);
  report.metric("serve.server.batches", static_cast<double>(stats.batches),
                "count");
  report.metric("serve.server.rows_per_batch", stats.mean_batch_fill,
                "count");
  report.metric("serve.server.queue_wait_p50_ms", sum.queue_p50_ms, "ms");
  report.metric("serve.server.queue_wait_p99_ms", sum.queue_p99_ms, "ms");
  std::vector<double> enc_ms;
  for (double s : probe->log().durations()) enc_ms.push_back(s * 1e3);
  report.metric("serve.server.encode_ms_per_batch", median(enc_ms), "ms");
  // Boot-generation batches are timed by the backend probe; later
  // generations get a fresh backend, so their predict time comes from the
  // request spans (one batch = batch_rows spans, weighted to count once).
  std::vector<std::pair<double, double>> predict_ms;
  for (double s : predict_log->durations()) predict_ms.emplace_back(s * 1e3, 1.0);
  for (const auto& sp : spans) {
    if (sp.snapshot_version <= 1) continue;
    predict_ms.emplace_back(static_cast<double>(sp.predict_ns) * 1e-6,
                            1.0 / std::max<std::uint32_t>(1, sp.batch_rows));
  }
  report.metric("serve.server.predict_ms_per_batch",
                weighted_median(std::move(predict_ms)), "ms");
  report.metric("serve.server.fulfil_p50_ms", sum.fulfil_p50_ms, "ms");
  report.detail.set("spans", static_cast<std::uint64_t>(sum.spans));
  report.detail.set("encode_predict_share_of_batch_service",
                    sum.encode_predict_share);
  report.detail.set("span_service_ms_per_batch", sum.service_ms_per_batch);

  report.metric("serve.adapt.rounds", static_cast<double>(stats.adaptation_rounds),
                "count");
  report.metric("serve.adapt.absorbed",
                static_cast<double>(stats.adaptation_absorbed), "count");
  report.metric("serve.adapt.dropped",
                static_cast<double>(stats.adaptation_dropped), "count");
  report.metric("serve.adapt.live_domains",
                static_cast<double>(stats.live_domains), "count");
  // One lifecycle round (clone → cluster → merge → republish) on the boot
  // generation over a held-out batch, timed through the adaptation layer's
  // public entry point.
  {
    const smore::HvDataset enc = pipe->encode(held_pool);
    const smore::SmoreBatchResult pr =
        pipe->packed()->predict_batch_full(enc.view());
    std::vector<smore::OodSample> round;
    for (std::size_t i = 0; i < std::min<std::size_t>(cfg.adapt_min_batch,
                                                       enc.size());
         ++i) {
      const auto row = enc.row(i);
      round.push_back({std::vector<float>(row.begin(), row.end()),
                       pr.labels[i]});
    }
    std::vector<double> round_ms;
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      const smore::AdaptationOutcome out = smore::run_lifecycle_round(
          *boot, round, {}, cfg.lifecycle_config, 2);
      round_ms.push_back(seconds_since(t0) * 1e3);
      report.check(out.next != nullptr, "lifecycle round produced no model");
    }
    report.metric("serve.adapt.round_ms", median(round_ms), "ms");
  }

  // Untraced over traced throughput: above 1 when tracing costs time.
  report.metric("trace.overhead", median(plain_rates) / median(traced_rates),
                "ratio");
}

}  // namespace layerbench
