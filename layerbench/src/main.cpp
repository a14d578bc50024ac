// bench_layers: the layered benchmark's executable (README.md).
//
//   bench_layers --workload <lodo-deploy|edge-stream|fleet-zipf>
//                --seed N --seconds S --trace 0|1 [--out-dir DIR]
//   bench_layers --smoke       every workload and check at tiny sizes
//   bench_layers --selftest    feed every check a corrupted result
//
// Prints each metric by name and unit, then one JSON line with every metric
// it measured plus the attempted/failed counts and the correctness verdict.
// The results file (machine fingerprint, git SHA, seed, per-phase counts,
// every metric and detail) goes to --out-dir through the obs/json DOM.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "checks.hpp"
#include "harness.hpp"
#include "hdc/dispatch.hpp"
#include "obs/json.hpp"
#include "util/cpu_features.hpp"
#include "util/thread_pool.hpp"

namespace {

using layerbench::Report;
using layerbench::RunOptions;
using smore::obs::JsonValue;

void usage() {
  std::fprintf(stderr,
               "usage: bench_layers --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR] [--git-sha SHA]\n"
               "       bench_layers --smoke | --selftest\n"
               "workloads: lodo-deploy edge-stream fleet-zipf\n");
}

JsonValue machine() {
  const auto& d = smore::kern::dispatch();
  JsonValue m = JsonValue::object();
  m.set("dispatch_tier", smore::kern::tier_name(d.tier));
  m.set("cpu_features", smore::to_string(d.features));
  m.set("cores",
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  m.set("pool_threads",
        static_cast<std::uint64_t>(smore::ThreadPool::global().size()));
  return m;
}

JsonValue metrics_json(const Report& r) {
  JsonValue m = JsonValue::object();
  for (const Report::Metric& x : r.metrics()) {
    JsonValue v = JsonValue::object();
    v.set("value", x.value);
    v.set("unit", x.unit);
    m.set(x.name, std::move(v));
  }
  return m;
}

JsonValue results_file(const RunOptions& opt, const Report& r) {
  JsonValue doc = JsonValue::object();
  doc.set("schema", "layerbench/1");
  doc.set("workload", opt.workload);
  doc.set("seed", opt.seed);
  doc.set("seconds", opt.seconds);
  doc.set("trace", opt.trace);
  doc.set("smoke", opt.smoke);
  doc.set("git_sha", opt.git_sha);
  doc.set("machine", machine());
  JsonValue phases = JsonValue::array();
  for (const auto& p : r.phases()) {
    JsonValue ph = JsonValue::object();
    ph.set("name", p.name);
    ph.set("attempted", p.attempted);
    ph.set("failed", p.failed);
    phases.push_back(std::move(ph));
  }
  doc.set("phases", std::move(phases));
  JsonValue checks = JsonValue::object();
  checks.set("run", r.checks());
  JsonValue failures = JsonValue::array();
  for (const std::string& f : r.failures()) failures.push_back(f);
  checks.set("failures", std::move(failures));
  doc.set("checks", std::move(checks));
  doc.set("metrics", metrics_json(r));
  doc.set("detail", r.detail);
  return doc;
}

/// Run one workload and print its metrics; returns whether it was correct.
bool run_one(const RunOptions& opt) {
  Report report;
  try {
    if (opt.workload == "lodo-deploy") {
      layerbench::run_lodo_deploy(opt, report);
    } else if (opt.workload == "edge-stream") {
      layerbench::run_edge_stream(opt, report);
    } else if (opt.workload == "fleet-zipf") {
      layerbench::run_fleet_zipf(opt, report);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      usage();
      std::exit(2);
    }
  } catch (const std::exception& e) {
    report.check(false, std::string("workload aborted: ") + e.what());
    report.phase("aborted").failed += 1;
    report.phase("aborted").attempted += 1;
  }
  report.metric("peak_rss_mb", layerbench::peak_rss_mb(), "MB");

  for (const Report::Metric& m : report.metrics()) {
    std::printf("%-44s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& p : report.phases()) {
    std::printf("phase %-20s attempted %10llu failed %llu\n", p.name.c_str(),
                static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.failed));
  }
  std::printf("checks run %llu, failed %zu\n",
              static_cast<unsigned long long>(report.checks()),
              report.failures().size());
  for (const std::string& f : report.failures()) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  if (!opt.out_dir.empty()) {
    const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + "-trace" +
                             (opt.trace ? "1" : "0") + ".json";
    std::ofstream out(path);
    out << results_file(opt, report).dump(2) << "\n";
    if (!out) std::fprintf(stderr, "could not write %s\n", path.c_str());
  }

  JsonValue line = JsonValue::object();
  line.set("correct", report.correct());
  line.set("attempted", report.attempted());
  line.set("failed", report.failed());
  line.set("metrics", metrics_json(report));
  std::printf("%s\n", line.dump().c_str());
  std::fflush(stdout);
  return report.correct();
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = value() != "0";
    } else if (a == "--out-dir") {
      opt.out_dir = value();
    } else if (a == "--git-sha") {
      opt.git_sha = value();
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--selftest") {
      selftest = true;
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
      usage();
      return 2;
    }
  }

  if (selftest || opt.smoke) {
    const int bad = layerbench::run_selftest(selftest);
    std::printf("selftest: %s\n", bad == 0 ? "every check caught its "
                                             "corrupted result"
                                           : "FAILED");
    if (bad != 0) return 1;
    if (selftest && !opt.smoke) return 0;
  }

  if (opt.out_dir.empty()) opt.out_dir = "layerbench-out";
  std::filesystem::create_directories(opt.out_dir);
  if (opt.smoke && opt.workload.empty()) {
    // Every workload, traced and untraced, at tiny sizes.
    opt.seconds = 0.5;
    bool ok = true;
    for (const char* w : {"lodo-deploy", "edge-stream", "fleet-zipf"}) {
      for (const bool trace : {false, true}) {
        opt.workload = w;
        opt.trace = trace;
        ok = run_one(opt) && ok;
      }
    }
    return ok ? 0 : 1;
  }
  if (opt.workload.empty()) {
    usage();
    return 2;
  }
  return run_one(opt) ? 0 : 1;
}
