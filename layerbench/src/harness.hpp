#pragma once
// Shared plumbing of the layered benchmark: run options, the report every
// workload fills, sample statistics, and the forwarding probes that time the
// program's layers from outside (see README.md for the metric catalogue).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/inference_backend.hpp"
#include "hdc/encoder_base.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "serve/registry.hpp"
#include "serve/snapshot.hpp"

namespace layerbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A seed for one purpose (`salt`) derived from the run seed (splitmix64).
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  ///< tiny sizes: every workload and check in seconds
  std::string out_dir;  ///< where the results file and artifacts go
  std::string git_sha = "unknown";
};

/// Work attempted and failed in one phase of a workload.
struct PhaseCount {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Everything one workload run produces. Every workload fills every
/// end-to-end metric; per-layer metrics are filled by traced runs (layers a
/// workload does not exercise read 0).
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void metric(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

  PhaseCount& phase(const std::string& name);
  [[nodiscard]] const std::deque<PhaseCount>& phases() const {
    return phases_;
  }
  [[nodiscard]] std::uint64_t attempted() const;
  [[nodiscard]] std::uint64_t failed() const;

  /// Record one correctness check; a failing check makes the run incorrect.
  void check(bool ok, const std::string& what);
  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] std::uint64_t checks() const { return checks_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

  /// Free-form figures for the results file (not printed as metrics).
  smore::obs::JsonValue detail = smore::obs::JsonValue::object();

 private:
  std::vector<Metric> metrics_;
  std::deque<PhaseCount> phases_;  // stable references across phase()
  std::vector<std::string> failures_;
  std::uint64_t checks_ = 0;
};

// ------------------------------------------------------------- statistics

/// Quantile of `v` (linear interpolation, q in [0, 1]); 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// Median of (value, weight) pairs: the smallest value whose cumulative
/// weight reaches half the total. 0 when empty.
double weighted_median(std::vector<std::pair<double, double>> v);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();
/// Hand the allocator's free memory back to the system (glibc malloc_trim).
/// Serving rounds call it between rounds, so that memory freed in one
/// round's client-thread arenas is not carried into the next.
void release_free_memory();

// ----------------------------------------------------------------- probes

/// Per-call timing record shared by the probes: calls, rows, busy time,
/// and the duration of every call.
class CallLog {
 public:
  void record(std::size_t rows, double seconds);
  [[nodiscard]] std::uint64_t calls() const;
  [[nodiscard]] std::uint64_t rows() const;
  [[nodiscard]] double busy_seconds() const;
  [[nodiscard]] std::vector<double> durations() const;

 private:
  mutable std::mutex m_;
  std::uint64_t calls_ = 0;
  std::uint64_t rows_ = 0;
  double busy_ = 0.0;
  std::vector<double> durations_;
};

/// Forwarding Encoder decorator. With timing on it logs every encode_batch
/// call; with capture on it keeps a copy of the last encoded block (the
/// checks read the encodings the program itself produced).
class ProbeEncoder final : public smore::Encoder {
 public:
  ProbeEncoder(std::shared_ptr<const smore::Encoder> inner, bool timing);

  [[nodiscard]] std::size_t dim() const noexcept override;
  [[nodiscard]] std::size_t footprint_bytes() const override;
  using smore::Encoder::encode_batch;
  void encode_batch(const smore::WindowDataset& dataset, smore::HvMatrix& out,
                    bool parallel) const override;
  void save(std::ostream& out) const override;

  void set_capture(bool on) const;
  /// The block encoded by the last call made while capture was on.
  [[nodiscard]] smore::HvMatrix take_capture() const;

  [[nodiscard]] CallLog& log() const { return log_; }

 private:
  std::shared_ptr<const smore::Encoder> inner_;
  bool timing_;
  mutable CallLog log_;
  mutable std::mutex capture_m_;
  mutable bool capture_ = false;
  mutable smore::HvMatrix captured_;
};

/// Forwarding InferenceBackend decorator that logs every batched predict.
class ProbeBackend final : public smore::InferenceBackend {
 public:
  ProbeBackend(std::shared_ptr<const smore::InferenceBackend> inner,
               std::shared_ptr<CallLog> log);

  [[nodiscard]] smore::SmoreBatchResult predict_batch_full(
      smore::HvView queries) const override;
  [[nodiscard]] std::size_t footprint_bytes() const noexcept override;
  [[nodiscard]] std::size_t dim() const noexcept override;
  [[nodiscard]] std::size_t num_domains() const noexcept override;
  [[nodiscard]] smore::ServeBackend kind() const noexcept override;
  [[nodiscard]] const char* name() const noexcept override;

 private:
  std::shared_ptr<const smore::InferenceBackend> inner_;
  std::shared_ptr<CallLog> log_;
};

/// Copy of `snap` whose backend (and encoder, when given) are swapped for
/// probes through ModelSnapshot's public fields.
std::shared_ptr<const smore::ModelSnapshot> with_probes(
    const smore::ModelSnapshot& snap, std::shared_ptr<CallLog> predict_log,
    std::shared_ptr<const smore::Encoder> encoder = nullptr);

/// Artifact opener that times each load and, when `predict_log` is set,
/// installs a ProbeBackend on the loaded snapshot.
smore::ModelRegistry::ArtifactOpener timed_opener(
    smore::ModelRegistry::ArtifactOpener inner,
    std::shared_ptr<CallLog> load_log, std::shared_ptr<CallLog> predict_log);

/// Tracing-overhead samples: untraced (U) and traced (T) runs of the same
/// work in the pairs U T, T U, U T, so neither side always runs first.
inline constexpr int kOverheadSamples = 6;
inline bool overhead_sample_traced(int i) { return i % 4 == 1 || i % 4 == 2; }

/// Tracer settings of a traced run: every request's spans are kept.
smore::obs::TracerConfig full_tracer(std::size_t capacity);

/// Figures rebuilt from request spans. Per-batch figures weight each span by
/// 1/batch_rows so every batch counts once.
struct SpanSummary {
  std::size_t spans = 0;
  double queue_p50_ms = 0.0;
  double queue_p99_ms = 0.0;
  double fulfil_p50_ms = 0.0;
  double service_p50_ms = 0.0;  ///< batch start → fulfilment, per request
  double service_ms_per_batch = 0.0;
  /// (encode + predict) / (encode + predict + fulfil), summed over batches.
  double encode_predict_share = 0.0;
};
SpanSummary summarize_spans(const std::vector<smore::obs::TraceSpan>& spans);

// ------------------------------------------------------------- workloads

/// Scale knobs shared by the workloads (smoke mode shrinks them).
struct Sizes {
  bool smoke = false;
  double dsads_scale = 0.05;
  double uschad_scale = 0.04;
  std::size_t dim = 4096;
  std::size_t fleet_tenants = 24;
  std::size_t fleet_dim = 2048;
};
Sizes sizes_for(const RunOptions& opt);

void run_lodo_deploy(const RunOptions& opt, Report& report);
void run_edge_stream(const RunOptions& opt, Report& report);
void run_fleet_zipf(const RunOptions& opt, Report& report);

}  // namespace layerbench
