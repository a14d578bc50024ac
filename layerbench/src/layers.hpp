#pragma once
// Isolated per-layer timings: each hdc / core layer's public functions
// called directly at one workload's shapes (README.md, "Per-layer
// metrics").

#include <memory>
#include <string>

#include "core/pipeline.hpp"
#include "data/timeseries.hpp"
#include "hdc/encoder.hpp"
#include "harness.hpp"
#include "obs/json.hpp"

namespace layerbench {

/// Every serving-layer metric a traced run reports; workloads that do not
/// exercise a layer report its metrics as 0.
void zero_serving_layers(Report& report);

/// Time encode (batch 1 and 64, one thread and the pool), the four kernels,
/// descriptor similarity, float and packed predict (batch 1 and 64) and the
/// artifact round trip on `pipeline` (trained, quantized, calibrated), with
/// `windows` (at least one) as the encode input. Spends about
/// `budget_seconds`.
void measure_isolated_layers(const smore::Pipeline& pipeline,
                             const smore::WindowDataset& windows,
                             double budget_seconds, Report& report);

/// Encode-probe figures of a workload: calls, windows, busy seconds and
/// rows per call of `log`.
void report_encode_log(const CallLog& log, Report& report);

/// Serialize `pipeline` and load it back, timing both.
struct ArtifactTrip {
  std::string bytes;
  double save_s = 0.0;
  double load_s = 0.0;
};
ArtifactTrip artifact_trip(const smore::Pipeline& pipeline,
                           std::unique_ptr<smore::Pipeline>* loaded);

/// One deploy through the Pipeline facade, timed step by step: fit →
/// quantize → calibrate → save → load. The encoder is a ProbeEncoder (its
/// log times every encode when `timing` is on); the encodings calibrate
/// produced are kept for the calibration checks.
struct Deployment {
  std::shared_ptr<ProbeEncoder> probe;
  std::unique_ptr<smore::Pipeline> pipeline;  ///< as trained
  std::unique_ptr<smore::Pipeline> loaded;    ///< loaded back from `trip`
  smore::HvMatrix calibration_encodings;
  ArtifactTrip trip;
  double fit_s = 0.0;
  double quantize_s = 0.0;
  double calibrate_s = 0.0;
  /// fit + quantize + calibrate + save + load.
  [[nodiscard]] double deploy_s() const {
    return fit_s + quantize_s + calibrate_s + trip.save_s + trip.load_s;
  }
};
Deployment deploy(const smore::WindowDataset& train,
                  const smore::EncoderConfig& ec, const smore::SmoreConfig& sc,
                  int classes, double target_ood, bool timing);

}  // namespace layerbench
