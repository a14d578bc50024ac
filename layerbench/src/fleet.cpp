// fleet-zipf: tenants with distinct small models (distinct encoder and
// training seeds, so a misrouted request answers differently) are deployed
// as artifacts and served from a ModelRegistry through a MultiTenantServer
// on the packed backend. Queries are pre-encoded with each tenant's own
// encoder; tenant popularity is Zipf(1.0). The run is made of whole rounds
// of the same requests; each round boots a fresh fleet and sends an open
// loop at a fixed rate, a closed-loop saturation segment, and a churn
// segment against a registry whose budget holds only a quarter of the fleet.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <stdexcept>
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
#include "serve/registry.hpp"
#include "serve/router.hpp"

namespace layerbench {
namespace {

constexpr double kTargetOod = 0.05;
constexpr double kOpenRate = 5000.0;  ///< open-loop queries per second
constexpr std::size_t kOpenCount = 5000;     ///< open-loop queries per round
constexpr std::size_t kClosedCount = 100000; ///< closed-loop queries per round
constexpr std::size_t kChurnCount = 5000;    ///< churn queries per round
constexpr std::size_t kRedeploys = 6;  ///< tenants redeployed per round
constexpr std::size_t kClients = 2;   ///< closed-loop client threads
constexpr std::size_t kDepth = 64;    ///< requests each client keeps in flight
constexpr double kZipfS = 1.0;

std::string tenant_name(std::size_t t) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "t%02zu", t);
  return buf;
}

/// The small per-tenant dataset: 6 activities, 3 domains of two subjects,
/// 6 channels × 64 steps. Tenant t's corpus is fixed by t.
smore::SyntheticSpec tenant_spec(std::size_t t, double scale) {
  smore::SyntheticSpec s;
  s.name = "tenant";
  s.activities = 6;
  s.subjects = 6;
  s.subject_to_domain = {0, 0, 1, 1, 2, 2};
  s.channels = 6;
  s.window_steps = 64;
  const auto per_domain = static_cast<std::size_t>(std::max(24.0, 96 * scale));
  s.domain_counts = {per_domain, per_domain, per_domain};
  s.seed = 0x7e4a47 + t;
  return s;
}

struct Tenant {
  std::string name;
  smore::HvMatrix queries;        ///< pre-encoded with the tenant's encoder
  std::vector<int> truth;         ///< query labels
  smore::SmoreBatchResult direct;  ///< direct packed predict of `queries`
};

/// Request i of the traffic: a Zipf-ranked tenant and one of its queries.
struct Traffic {
  std::vector<double> cdf;
  std::uint64_t seed = 0;

  [[nodiscard]] std::size_t tenant(std::size_t i) const {
    const std::uint64_t h = derive_seed(seed, 2 * i);
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                                 cdf.size() - 1);
  }
  [[nodiscard]] std::size_t query(std::size_t i, std::size_t pool) const {
    return static_cast<std::size_t>(derive_seed(seed, 2 * i + 1) % pool);
  }
};

struct Fleet {
  std::shared_ptr<smore::ModelRegistry> registry;
  std::unique_ptr<smore::MultiTenantServer> server;
};

Fleet boot_fleet(const smore::ModelRegistry::ArtifactOpener& opener,
                 std::size_t budget,
                 std::shared_ptr<smore::obs::Telemetry> hub) {
  smore::RegistryConfig rc;
  rc.byte_budget = budget;
  rc.telemetry = hub;
  Fleet f;
  f.registry = std::make_shared<smore::ModelRegistry>(opener, rc);
  smore::MultiTenantConfig mc;
  mc.telemetry = std::move(hub);
  f.server = std::make_unique<smore::MultiTenantServer>(f.registry, mc);
  return f;
}

smore::WindowDataset first_window(const smore::WindowDataset& d) {
  smore::WindowDataset out(d.name(), d.channels(), d.steps());
  out.add(d[0]);
  return out;
}

/// Send one query to every tenant (each loads its model) and wait.
void warm(smore::MultiTenantServer& server, const std::vector<Tenant>& tenants) {
  std::vector<std::future<smore::ServeResult>> answers;
  for (const Tenant& t : tenants) {
    const auto row = t.queries.row(0);
    answers.push_back(
        server.submit(t.name, std::vector<float>(row.begin(), row.end())));
  }
  for (auto& a : answers) (void)a.get();
}

SubmitFn submitter(smore::MultiTenantServer& server,
                   const std::vector<Tenant>& tenants, const Traffic& traffic) {
  return [&server, &tenants, &traffic](std::size_t i) {
    const Tenant& t = tenants[traffic.tenant(i)];
    const auto row = t.queries.row(traffic.query(i, t.queries.rows()));
    return server.submit(t.name, std::vector<float>(row.begin(), row.end()));
  };
}

/// Compare each answer with the direct packed predict of its tenant.
VerifyFn verifier(const std::vector<Tenant>& tenants, const Traffic& traffic) {
  return [&tenants, &traffic](const Answer& a, bool* right) -> std::string {
    const Tenant& t = tenants[traffic.tenant(a.index)];
    const std::size_t j = traffic.query(a.index, t.queries.rows());
    *right = a.label == t.truth[j];
    if (t.direct.labels[j] == a.label && t.direct.ood[j] == a.ood &&
        t.direct.max_similarity[j] == a.max_similarity) {
      return {};
    }
    return "request " + std::to_string(a.index) + " for " + t.name +
           " differs from a direct packed predict on its own model";
  };
}

/// Deploy tenant t (fit → quantize → calibrate → save → load) from its
/// training set with its own encoder and training seeds.
Deployment deploy_tenant(const smore::WindowDataset& train, std::size_t t,
                         std::uint64_t seed, std::size_t dim) {
  smore::EncoderConfig ec;
  ec.dim = dim;
  ec.seed = derive_seed(seed, 100 + t);
  smore::SmoreConfig sc;
  sc.domain_model.seed = derive_seed(seed, 200 + t);
  return deploy(train, ec, sc, 6, kTargetOod, false);
}

/// Registry counters summed over rounds; the peak is the highest of any
/// round's registry.
void add_registry_stats(smore::RegistryStats& sum,
                        const smore::RegistryStats& s) {
  sum.hits += s.hits;
  sum.misses += s.misses;
  sum.loads += s.loads;
  sum.evictions += s.evictions;
  sum.single_flight_waits += s.single_flight_waits;
  sum.peak_resident_bytes =
      std::max(sum.peak_resident_bytes, s.peak_resident_bytes);
}

/// Router counters summed over rounds.
void add_stats(smore::MultiTenantStats& sum,
               const smore::MultiTenantStats& s) {
  sum.rejected += s.rejected;
  sum.batches += s.batches;
  sum.batched_rows += s.batched_rows;
  sum.mean_batch_fill = sum.batches > 0
                            ? static_cast<double>(sum.batched_rows) /
                                  static_cast<double>(sum.batches)
                            : 0.0;
  add_registry_stats(sum.registry, s.registry);
}

}  // namespace

void run_fleet_zipf(const RunOptions& opt, Report& report) {
  const Sizes sz = sizes_for(opt);
  const std::size_t n_tenants = sz.fleet_tenants;
  const std::string dir = opt.out_dir + "/fleet-artifacts-seed" +
                          std::to_string(opt.seed);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  // ---- set-up, three times: generate every tenant's corpus, deploy it
  // (fit → quantize → calibrate → save → load, each deploy timed), write its
  // artifact, then boot registry + server and load every tenant by sending
  // it one query. The seeds are the same each time, so every set-up writes
  // the same artifacts. The last also builds each tenant's reference
  // answers and runs its checks, outside the set-up clock. ----
  std::vector<Tenant> tenants;
  std::vector<double> setup_s;
  std::vector<double> deploy_s;
  std::vector<double> fit_s;
  std::vector<double> quant_s;
  std::vector<double> cal_s;
  std::vector<double> gen_s;
  double acc_packed = 0.0;
  std::unique_ptr<smore::Pipeline> sample_pipeline;
  smore::WindowDataset sample_windows;
  std::size_t resident_total = 0;
  std::vector<smore::WindowDataset> trains;  ///< tenant training sets
  std::vector<std::string> artifacts;        ///< tenant artifact bytes
  const auto plain_opener = smore::ModelRegistry::directory_source(dir);
  PhaseCount& deploy_phase = report.phase("deploy");
  for (int rep = 0; rep < 3; ++rep) {
    const bool last = rep == 2;
    double timed_s = 0.0;
    std::vector<Tenant> warm_set;
    for (std::size_t t = 0; t < n_tenants; ++t) {
      const auto t0 = Clock::now();
      const smore::WindowDataset data =
          smore::generate_dataset(tenant_spec(t, sz.smoke ? 0.25 : 1.0));
      gen_s.push_back(seconds_since(t0));
      smore::WindowDataset train("tenant", data.channels(), data.steps());
      smore::WindowDataset queries("tenant", data.channels(), data.steps());
      for (std::size_t i = 0; i < data.size(); ++i) {
        (i % 4 == 0 ? queries : train).add(data[i]);
      }
      ++deploy_phase.attempted;
      Deployment dep = deploy_tenant(train, t, opt.seed, sz.fleet_dim);
      fit_s.push_back(dep.fit_s);
      quant_s.push_back(dep.quantize_s);
      cal_s.push_back(dep.calibrate_s);
      deploy_s.push_back(dep.deploy_s());
      const std::string path = dir + "/" + tenant_name(t) + ".smore";
      std::ofstream out(path, std::ios::binary);
      out << dep.trip.bytes;
      out.close();
      if (!out) throw std::runtime_error("cannot write " + path);
      // One query per tenant to load it: the first training window,
      // encoded by the tenant's own encoder.
      Tenant w;
      w.name = tenant_name(t);
      dep.pipeline->encoder().encode_batch(first_window(train), w.queries);
      warm_set.push_back(std::move(w));
      timed_s += seconds_since(t0);
      if (!last) continue;

      trains.push_back(train);
      artifacts.push_back(dep.trip.bytes);
      // Reference answers and checks, from the artifact as served.
      smore::Pipeline loaded = smore::Pipeline::load(path);
      Tenant ten;
      ten.name = tenant_name(t);
      smore::HvDataset enc = loaded.encode(queries);
      ten.truth = enc.labels();
      ten.direct = loaded.packed()->predict_batch_full(enc.view());
      const smore::HvView view = enc.view();
      const std::size_t stride = std::max<std::size_t>(1, view.rows / 8);
      std::string msg = check_packed_delta(loaded.model(),
                                           loaded.packed()->delta_star(), view,
                                           ten.direct, stride);
      report.check(msg.empty(), ten.name + " " + msg);
      const smore::SmoreBatchResult fr = loaded.model().predict_batch_full(view);
      msg = check_float_delta(loaded.model(), view, fr, stride);
      report.check(msg.empty(), ten.name + " " + msg);
      msg = check_ttm_labels(loaded.model(), view, fr.labels, stride);
      report.check(msg.empty(), ten.name + " " + msg);
      check_pipeline_calibration(loaded, std::move(dep.calibration_encodings),
                                 train, kTargetOod, report, ten.name);
      std::size_t right = 0;
      for (std::size_t i = 0; i < ten.truth.size(); ++i) {
        right += static_cast<std::size_t>(ten.direct.labels[i] == ten.truth[i]);
      }
      acc_packed += static_cast<double>(right) /
                    static_cast<double>(ten.truth.size());
      ten.queries = smore::HvMatrix(enc.size(), enc.dim());
      std::copy(view.data, view.data + view.rows * view.dim,
                ten.queries.data());
      tenants.push_back(std::move(ten));
      if (t == 0) {
        sample_pipeline = std::make_unique<smore::Pipeline>(std::move(loaded));
        sample_windows = queries;
      }
    }
    const auto t0 = Clock::now();
    Fleet f = boot_fleet(plain_opener, SIZE_MAX, nullptr);
    warm(*f.server, warm_set);
    setup_s.push_back(timed_s + seconds_since(t0));
    resident_total = f.registry->stats().resident_bytes;
    f.server->shutdown();
  }
  acc_packed /= static_cast<double>(n_tenants);

  Traffic traffic;
  traffic.seed = derive_seed(opt.seed, 3);
  traffic.cdf.resize(n_tenants);
  double sum = 0.0;
  for (std::size_t i = 0; i < n_tenants; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
    traffic.cdf[i] = sum;
  }
  for (double& c : traffic.cdf) c /= sum;

  const VerifyFn verify = verifier(tenants, traffic);

  // --smoke sends an eighth of each segment.
  const std::size_t open_n = sz.smoke ? kOpenCount / 8 : kOpenCount;
  const std::size_t closed_n = sz.smoke ? kClosedCount / 8 : kClosedCount;
  const std::size_t churn_n = sz.smoke ? kChurnCount / 8 : kChurnCount;

  // A traced run first measures the tracing overhead: two warm fleets, one
  // plain and one with the probes and full request tracing, take turns at
  // closed-loop segments of the same requests, alternating which goes
  // first, three segments each.
  std::vector<double> plain_rates;
  std::vector<double> traced_rates;
  if (opt.trace) {
    PhaseCount& overhead_phase = report.phase("trace-overhead");
    smore::obs::TelemetryConfig tc;
    tc.trace = full_tracer(1 << 16);
    Fleet plain = boot_fleet(plain_opener, SIZE_MAX, nullptr);
    Fleet traced = boot_fleet(
        timed_opener(plain_opener, std::make_shared<CallLog>(),
                     std::make_shared<CallLog>()),
        SIZE_MAX, smore::obs::Telemetry::make(tc));
    warm(*plain.server, tenants);
    warm(*traced.server, tenants);
    for (int i = 0; i < kOverheadSamples; ++i) {
      const bool on = overhead_sample_traced(i);
      const LoadResult r =
          closed_loop(kClients, kDepth, closed_n, 0,
                      submitter(*(on ? traced : plain).server, tenants, traffic),
                      verify);
      report.check(r.mismatch.empty(), r.mismatch);
      (on ? traced_rates : plain_rates).push_back(r.rate());
      overhead_phase.attempted += r.attempted;
      overhead_phase.failed += r.failed;
    }
    plain.server->shutdown();
    traced.server->shutdown();
  }

  auto load_log = std::make_shared<CallLog>();
  auto predict_log = opt.trace ? std::make_shared<CallLog>() : nullptr;
  std::shared_ptr<smore::obs::Telemetry> hub;
  if (opt.trace) {
    smore::obs::TelemetryConfig tc;
    tc.trace = full_tracer(1 << 18);
    hub = smore::obs::Telemetry::make(tc);
  }
  const auto opener = timed_opener(plain_opener, load_log, predict_log);

  // ---- whole rounds until the measuring time is spent (half the run when
  // traced): redeploy kRedeploys tenants (a rolling republish; the same
  // seeds must give the same artifact), open loop + closed loop on a fresh
  // unbounded registry, then churn on a fresh registry with a budget of a
  // quarter of the fleet ----
  const std::size_t budget = std::max<std::size_t>(1, resident_total / 4);
  LoadResult open;
  LoadResult closed;
  LoadResult churned;
  std::vector<double> closed_rates;
  std::vector<double> churn_rates;
  smore::MultiTenantStats steady_stats;
  smore::RegistryStats churn_registry;
  std::uint64_t churn_rejected = 0;
  smore::LatencyHistogram tail;
  std::vector<smore::obs::TraceSpan> spans;
  const double measure_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  const auto start = Clock::now();
  std::size_t next_redeploy = 0;
  do {
    for (std::size_t k = 0; k < kRedeploys; ++k) {
      const std::size_t t = next_redeploy++ % n_tenants;
      ++deploy_phase.attempted;
      const Deployment dep =
          deploy_tenant(trains[t], t, opt.seed, sz.fleet_dim);
      fit_s.push_back(dep.fit_s);
      quant_s.push_back(dep.quantize_s);
      cal_s.push_back(dep.calibrate_s);
      deploy_s.push_back(dep.deploy_s());
      report.check(dep.trip.bytes == artifacts[t],
                   "redeploying " + tenant_name(t) +
                       " with the same seeds gave a different artifact");
    }
    Fleet steady = boot_fleet(opener, SIZE_MAX, hub);
    warm(*steady.server, tenants);
    const SubmitFn submit = submitter(*steady.server, tenants, traffic);
    open.add(open_loop(kOpenRate, open_n, 0, submit, verify));
    const LoadResult c =
        closed_loop(kClients, kDepth, closed_n, open_n, submit, verify);
    closed_rates.push_back(c.rate());
    closed.add(c);
    steady.server->shutdown();
    add_stats(steady_stats, steady.server->stats());
    // Tail cohort: the lower half of the Zipf ranks (submit → fulfilment,
    // from the router's per-tenant histograms).
    for (const smore::TenantServerStats& ts : steady.server->tenant_stats()) {
      const std::size_t rank = static_cast<std::size_t>(
          std::stoul(ts.tenant.substr(1)));
      if (rank >= n_tenants / 2) tail.merge(ts.latency);
    }

    Fleet churn = boot_fleet(opener, budget, nullptr);
    const LoadResult ch =
        closed_loop(kClients, kDepth, churn_n, open_n + closed_n,
                    submitter(*churn.server, tenants, traffic), verify);
    churn_rates.push_back(ch.rate());
    churned.add(ch);
    churn.server->shutdown();
    const smore::MultiTenantStats cs = churn.server->stats();
    add_registry_stats(churn_registry, cs.registry);
    churn_rejected += cs.rejected;
    release_free_memory();
  } while (seconds_since(start) < measure_s);
  if (hub != nullptr) spans = hub->tracer().recent();

  PhaseCount& open_phase = report.phase("open-loop");
  open_phase.attempted += open.attempted;
  open_phase.failed += open.failed;
  PhaseCount& closed_phase = report.phase("closed-loop");
  closed_phase.attempted += closed.attempted;
  closed_phase.failed += closed.failed;
  PhaseCount& churn_phase = report.phase("churn");
  churn_phase.attempted += churned.attempted;
  churn_phase.failed += churned.failed;

  // ---- checks ----
  std::uint64_t right = 0;
  std::uint64_t served = 0;
  for (const LoadResult* r : {&open, &closed, &churned}) {
    report.check(r->mismatch.empty(), r->mismatch);
    right += r->right;
    served += r->answered;
  }
  const double accuracy =
      served > 0 ? static_cast<double>(right) / static_cast<double>(served)
                 : 0.0;
  std::string msg = check_above_chance(accuracy, 6);
  report.check(msg.empty(), "served " + msg);
  report.check(churn_registry.evictions > 0,
               "the churn phase evicted no tenant");
  // The registry's stated invariant: accounted bytes never exceed the
  // budget while more than one model is resident (every tenant artifact is
  // far below the budget).
  const std::size_t peak = churn_registry.peak_resident_bytes;
  report.check(peak <= budget,
               "registry peak residency " + std::to_string(peak) +
                   " bytes exceeds its budget of " + std::to_string(budget));
  report.detail.set("churn_peak_resident_bytes",
                    static_cast<std::uint64_t>(peak));

  report.metric("setup_s", median(setup_s), "s");
  report.metric("deploy_s", median(deploy_s), "s");
  report.metric("throughput_per_s", median(closed_rates), "1/s");
  report.detail.set("rounds", static_cast<std::uint64_t>(closed_rates.size()));
  report.detail.set("closed_loop_rate_q1", quantile(closed_rates, 0.25));
  report.detail.set("closed_loop_rate_q3", quantile(closed_rates, 0.75));
  report.detail.set("closed_loop_whole_rate", closed.rate());
  report.metric("p50_ms", open.quantile_ms(0.50), "ms");
  report.detail.set("open_loop_p90_ms", open.quantile_ms(0.90));
  report.detail.set("open_loop_p99_ms", open.quantile_ms(0.99));
  report.metric("accuracy", accuracy, "ratio");
  report.metric("accuracy_packed", acc_packed, "ratio");
  report.detail.set("tenants", static_cast<std::uint64_t>(n_tenants));
  report.detail.set("dim", static_cast<std::uint64_t>(sz.fleet_dim));
  report.detail.set("open_loop_rate", kOpenRate);
  report.detail.set("open_loop_max_late_ms", open.max_late_ms);
  report.detail.set("open_loop_samples", open.answered);
  report.detail.set("tail_cohort_p99_ms", tail.p99() * 1e3);
  report.detail.set("tail_cohort_samples", tail.count());
  report.detail.set("churn_queries_per_s", median(churn_rates));
  report.detail.set("churn_budget_bytes", static_cast<std::uint64_t>(budget));
  report.detail.set("fleet_resident_bytes",
                    static_cast<std::uint64_t>(resident_total));
  report.detail.set("tenant_generate_s_median", median(gen_s));

  if (opt.trace) {
    zero_serving_layers(report);
    measure_isolated_layers(*sample_pipeline, sample_windows,
                            sz.smoke ? 0.5 : 3.0, report);
    report.metric("core.fit_s", median(fit_s), "s");
    report.metric("core.calibrate_s", median(cal_s), "s");
    report.metric("core.quantize_s", median(quant_s), "s");
    // Encode is bypassed: queries arrive pre-encoded.
    report.metric("hdc.encode.calls", 0.0, "count");
    report.metric("hdc.encode.windows", 0.0, "count");
    report.metric("hdc.encode.busy_s", 0.0, "s");
    report.metric("hdc.encode.rows_per_call", 0.0, "count");

    const SpanSummary s = summarize_spans(spans);
    report.metric("serve.router.rows_per_batch", steady_stats.mean_batch_fill,
                  "count");
    report.metric("serve.router.queue_wait_p50_ms", s.queue_p50_ms, "ms");
    report.metric("serve.router.queue_wait_p99_ms", s.queue_p99_ms, "ms");
    report.metric("serve.router.service_p50_ms", s.service_p50_ms, "ms");
    report.metric("serve.router.shed",
                  static_cast<double>(steady_stats.rejected + churn_rejected),
                  "count");
    report.detail.set("spans", static_cast<std::uint64_t>(s.spans));
    std::vector<double> predict_ms;
    for (double x : predict_log->durations()) predict_ms.push_back(x * 1e3);
    report.detail.set("predict_ms_per_batch", median(predict_ms));

    const smore::RegistryStats& a = steady_stats.registry;
    const smore::RegistryStats& b = churn_registry;
    report.metric("serve.registry.loads", static_cast<double>(a.loads + b.loads),
                  "count");
    report.metric("serve.registry.evictions",
                  static_cast<double>(a.evictions + b.evictions), "count");
    report.metric("serve.registry.hits", static_cast<double>(a.hits + b.hits),
                  "count");
    report.metric("serve.registry.misses",
                  static_cast<double>(a.misses + b.misses), "count");
    report.metric("serve.registry.single_flight_waits",
                  static_cast<double>(a.single_flight_waits +
                                      b.single_flight_waits),
                  "count");
    std::vector<double> load_ms;
    for (double x : load_log->durations()) load_ms.push_back(x * 1e3);
    report.metric("serve.registry.load_ms", median(load_ms), "ms");
    report.metric("serve.registry.peak_resident_bytes",
                  static_cast<double>(b.peak_resident_bytes), "bytes");
    // Untraced over traced throughput: above 1 when tracing costs time.
    report.metric("trace.overhead", median(plain_rates) / median(traced_rates),
                  "ratio");
  }
  std::filesystem::remove_all(dir);
}

}  // namespace layerbench
