// lodo-deploy: every leave-one-domain-out fold of a DSADS-like dataset goes
// through the Pipeline facade on raw windows — fit → quantize → calibrate →
// save → load, then evaluate the held-out domain on both backends and
// classify a sample of held-out windows one at a time.

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "harness.hpp"
#include "hdc/encoder.hpp"
#include "layers.hpp"

namespace layerbench {
namespace {

constexpr double kTargetOod = 0.05;
/// Held-out windows classified one at a time per fold.
constexpr std::size_t kSingles = 64;

struct FoldResult {
  double fit_s = 0.0;
  double quantize_s = 0.0;
  double calibrate_s = 0.0;
  double deploy_s = 0.0;
  double eval_s = 0.0;
  std::size_t eval_windows = 0;
  double accuracy = 0.0;
  double accuracy_packed = 0.0;
  std::vector<double> predict_ms;
  std::uint64_t encode_calls = 0;
  std::uint64_t encode_windows = 0;
  double encode_busy_s = 0.0;
  std::size_t artifact_bytes = 0;
  double save_ms = 0.0;
  double load_ms = 0.0;
  std::unique_ptr<smore::Pipeline> pipeline;
};

struct Fold {
  smore::WindowDataset train;
  smore::WindowDataset test;
};

std::vector<Fold> make_folds(const smore::WindowDataset& data, int domains) {
  std::vector<Fold> folds;
  for (int f = 0; f < domains; ++f) {
    Fold fold{smore::WindowDataset(data.name(), data.channels(), data.steps()),
              smore::WindowDataset(data.name(), data.channels(), data.steps())};
    for (const smore::Window& w : data.windows()) {
      (w.domain() == f ? fold.test : fold.train).add(w);
    }
    folds.push_back(std::move(fold));
  }
  return folds;
}

/// One fold, timed; checks go to `report` (outside every timed region).
FoldResult run_fold(const Fold& fold, const smore::EncoderConfig& ec,
                    const smore::SmoreConfig& sc, int classes, bool timing,
                    Report& report,
                    const std::string& tag) {
  FoldResult res;
  Deployment dep = deploy(fold.train, ec, sc, classes, kTargetOod, timing);
  res.fit_s = dep.fit_s;
  res.quantize_s = dep.quantize_s;
  res.calibrate_s = dep.calibrate_s;
  res.deploy_s = dep.deploy_s();
  res.artifact_bytes = dep.trip.bytes.size();
  res.save_ms = dep.trip.save_s * 1e3;
  res.load_ms = dep.trip.load_s * 1e3;
  const ProbeEncoder& probe = *dep.probe;
  res.encode_calls = probe.log().calls();
  res.encode_windows = probe.log().rows();
  res.encode_busy_s = probe.log().busy_seconds();
  smore::Pipeline* pipe = dep.pipeline.get();

  probe.set_capture(true);
  auto t0 = Clock::now();
  const smore::SmoreEvaluation ef =
      pipe->evaluate(fold.test, smore::ServeBackend::kFloat);
  double eval_s = seconds_since(t0);
  smore::HvMatrix test_enc = probe.take_capture();
  probe.set_capture(false);
  t0 = Clock::now();
  const smore::SmoreEvaluation ep =
      pipe->evaluate(fold.test, smore::ServeBackend::kPacked);
  eval_s += seconds_since(t0);
  res.eval_s = eval_s;
  res.eval_windows = 2 * fold.test.size();
  res.accuracy = ef.accuracy;
  res.accuracy_packed = ep.accuracy;

  const std::size_t singles = std::min<std::size_t>(kSingles, fold.test.size());
  const std::size_t step = fold.test.size() / singles;
  for (std::size_t i = 0; i < singles; ++i) {
    t0 = Clock::now();
    (void)pipe->predict(fold.test[i * step]);
    res.predict_ms.push_back(seconds_since(t0) * 1e3);
  }

  // ---- checks (untimed) ----
  const smore::SmoreModel& model = pipe->model();
  const smore::BinarySmoreModel* packed = pipe->packed();
  check_pipeline_calibration(*pipe, std::move(dep.calibration_encodings),
                             fold.train, kTargetOod, report, tag);

  const smore::HvView view = test_enc.view();
  const smore::SmoreBatchResult fr = model.predict_batch_full(view);
  const smore::SmoreBatchResult pr = packed->predict_batch_full(view);
  const std::size_t stride = std::max<std::size_t>(1, view.rows / 48);
  std::string msg = check_float_delta(model, view, fr, stride);
  report.check(msg.empty(), tag + " " + msg);
  msg = check_packed_delta(model, packed->delta_star(), view, pr, stride);
  report.check(msg.empty(), tag + " " + msg);
  msg = check_ttm_labels(model, view, fr.labels, stride);
  report.check(msg.empty(), tag + " " + msg);

  // The reported accuracies are the accuracies of these labels.
  std::size_t right_f = 0;
  std::size_t right_p = 0;
  for (std::size_t i = 0; i < fold.test.size(); ++i) {
    right_f += static_cast<std::size_t>(fr.labels[i] == fold.test[i].label());
    right_p += static_cast<std::size_t>(pr.labels[i] == fold.test[i].label());
  }
  const double n = static_cast<double>(fold.test.size());
  report.check(static_cast<double>(right_f) / n == ef.accuracy &&
                   static_cast<double>(right_p) / n == ep.accuracy,
               tag + " evaluate() accuracy differs from its labels");
  msg = check_above_chance(ef.accuracy, classes);
  report.check(msg.empty(), tag + " float " + msg);
  msg = check_above_chance(ep.accuracy, classes);
  report.check(msg.empty(), tag + " packed " + msg);

  // save → load is bit-identical on both backends.
  msg = check_identical(fr, dep.loaded->model().predict_batch_full(view));
  report.check(msg.empty(), tag + " float save/load: " + msg);
  msg = check_identical(pr, dep.loaded->packed()->predict_batch_full(view));
  report.check(msg.empty(), tag + " packed save/load: " + msg);

  res.pipeline = std::move(dep.pipeline);
  return res;
}

}  // namespace

void run_lodo_deploy(const RunOptions& opt, Report& report) {
  const Sizes sz = sizes_for(opt);
  // The dataset is the spec's own (one fixed DSADS-like corpus, as a real
  // dataset would be); the seed draws the model: encoder basis and OnlineHD
  // sample order.
  const smore::SyntheticSpec spec = smore::dsads_spec(sz.dsads_scale);
  smore::EncoderConfig ec;
  ec.dim = sz.dim;
  ec.seed = derive_seed(opt.seed, 1);
  smore::SmoreConfig sc;
  sc.domain_model.seed = derive_seed(opt.seed, 2);

  // Set-up: generate the dataset and warm an encoder (five times).
  std::vector<double> setup_s;
  smore::WindowDataset data;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    data = smore::generate_dataset(spec);
    smore::MultiSensorEncoder warm(ec);
    (void)warm.encode_one(data[0]);
    setup_s.push_back(seconds_since(t0));
  }
  const int classes = spec.activities;
  const int domains = spec.num_domains();
  const std::vector<Fold> folds = make_folds(data, domains);
  report.detail.set("windows", static_cast<std::uint64_t>(data.size()));
  report.detail.set("channels", static_cast<std::uint64_t>(data.channels()));
  report.detail.set("steps", static_cast<std::uint64_t>(data.steps()));
  report.detail.set("classes", classes);
  report.detail.set("domains", domains);
  report.detail.set("dim", static_cast<std::uint64_t>(sz.dim));

  PhaseCount& deploy_phase = report.phase("deploy");
  PhaseCount& eval_phase = report.phase("evaluate");
  PhaseCount& single_phase = report.phase("predict-b1");

  // A traced run first deploys fold 0 untraced to warm the process and to
  // give the isolated layer timings their model, then measures the tracing
  // overhead: fold-0 deploys with and without the encode probe's timing,
  // alternating which goes first, three of each.
  std::vector<double> plain_fold0_s;
  std::vector<double> traced_fold0_s;
  if (opt.trace) {
    FoldResult base = run_fold(folds[0], ec, sc, classes, false, report,
                               "fold 0 (warm-up)");
    measure_isolated_layers(*base.pipeline, folds[0].test,
                            sz.smoke ? 0.5 : 4.0, report);
    for (int i = 0; i < kOverheadSamples; ++i) {
      const bool traced = overhead_sample_traced(i);
      const FoldResult r = run_fold(folds[0], ec, sc, classes, traced, report,
                                    "fold 0 (overhead pair " +
                                        std::to_string(i / 2) + ")");
      (traced ? traced_fold0_s : plain_fold0_s).push_back(r.deploy_s);
    }
  }

  std::vector<FoldResult> results;
  const auto start = Clock::now();
  std::size_t rounds = 0;
  do {
    for (int f = 0; f < domains; ++f) {
      const std::string tag =
          "round " + std::to_string(rounds) + " fold " + std::to_string(f);
      ++deploy_phase.attempted;
      eval_phase.attempted += 2 * folds[f].test.size();
      single_phase.attempted +=
          std::min<std::size_t>(kSingles, folds[f].test.size());
      try {
        FoldResult r = run_fold(folds[f], ec, sc, classes, opt.trace, report, tag);
        r.pipeline.reset();
        results.push_back(std::move(r));
      } catch (const std::exception& e) {
        ++deploy_phase.failed;
        eval_phase.failed += 2 * folds[f].test.size();
        single_phase.failed += std::min<std::size_t>(kSingles, folds[f].test.size());
        report.check(false, tag + " threw: " + e.what());
      }
    }
    ++rounds;
  } while (seconds_since(start) < opt.seconds);
  report.detail.set("rounds", static_cast<std::uint64_t>(rounds));

  std::vector<double> deploy;
  std::vector<double> fit;
  std::vector<double> quant;
  std::vector<double> cal;
  std::vector<double> singles;
  std::vector<double> calls;
  std::vector<double> windows;
  std::vector<double> busy;
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  double eval_windows = 0.0;
  double eval_seconds = 0.0;
  double acc = 0.0;
  double acc_packed = 0.0;
  std::size_t bytes = 0;
  for (const FoldResult& r : results) {
    deploy.push_back(r.deploy_s);
    fit.push_back(r.fit_s);
    quant.push_back(r.quantize_s);
    cal.push_back(r.calibrate_s);
    singles.insert(singles.end(), r.predict_ms.begin(), r.predict_ms.end());
    calls.push_back(static_cast<double>(r.encode_calls));
    windows.push_back(static_cast<double>(r.encode_windows));
    busy.push_back(r.encode_busy_s);
    save_ms.push_back(r.save_ms);
    load_ms.push_back(r.load_ms);
    eval_windows += static_cast<double>(r.eval_windows);
    eval_seconds += r.eval_s;
    acc += r.accuracy;
    acc_packed += r.accuracy_packed;
    bytes = r.artifact_bytes;
  }
  const double nf = results.empty() ? 1.0 : static_cast<double>(results.size());

  report.metric("setup_s", median(setup_s), "s");
  report.metric("deploy_s", median(deploy), "s");
  report.metric("throughput_per_s",
                eval_seconds > 0.0 ? eval_windows / eval_seconds : 0.0, "1/s");
  report.metric("p50_ms", quantile(singles, 0.50), "ms");
  report.detail.set("deploy_s_lower_quartile", quantile(deploy, 0.25));
  report.detail.set("predict_b1_p99_ms", quantile(singles, 0.99));
  report.metric("accuracy", acc / nf, "ratio");
  report.metric("accuracy_packed", acc_packed / nf, "ratio");
  report.detail.set("predict_b1_samples",
                    static_cast<std::uint64_t>(singles.size()));

  if (opt.trace) {
    zero_serving_layers(report);
    const double fit_m = median(fit);
    const double cal_m = median(cal);
    const double quant_m = median(quant);
    const double deploy_m = median(deploy);
    report.metric("core.fit_s", fit_m, "s");
    report.metric("core.calibrate_s", cal_m, "s");
    report.metric("core.quantize_s", quant_m, "s");
    // Per deploy (median fold): encode calls/windows/busy time.
    const double calls_m = median(calls);
    const double windows_m = median(windows);
    report.metric("hdc.encode.calls", calls_m, "count");
    report.metric("hdc.encode.windows", windows_m, "count");
    report.metric("hdc.encode.busy_s", median(busy), "s");
    report.metric("hdc.encode.rows_per_call",
                  calls_m > 0.0 ? windows_m / calls_m : 0.0, "count");
    report.metric("core.artifact.bytes", static_cast<double>(bytes), "bytes");
    report.metric("core.artifact.save_ms", median(save_ms), "ms");
    report.metric("core.artifact.load_ms", median(load_ms), "ms");
    // fit + quantize + calibrate (encode inside) against the whole deploy.
    report.detail.set("blocking_share_of_deploy",
                      deploy_m > 0.0 ? (fit_m + cal_m + quant_m) / deploy_m
                                     : 0.0);
    report.detail.set("training_windows_per_fold",
                      static_cast<std::uint64_t>(folds[0].train.size()));
    report.metric("trace.overhead",
                  median(traced_fold0_s) / median(plain_fold0_s),
                  "ratio");
  }
}

}  // namespace layerbench
