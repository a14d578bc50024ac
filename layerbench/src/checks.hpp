#pragma once
// Output checks made apart from the program: each recomputes a property of
// Algorithm 1 in the benchmark's own double-precision code, or tests a
// property the method must have. Every check returns an empty string on
// success and a description of the first violation otherwise, so the
// self-test can feed it a corrupted result and expect a complaint.

#include <cstddef>
#include <span>
#include <string>

#include "core/inference_backend.hpp"
#include "core/pipeline.hpp"
#include "core/smore.hpp"
#include "data/timeseries.hpp"
#include "harness.hpp"
#include "hdc/hv_matrix.hpp"

namespace layerbench {

/// Queries whose recomputed δ_max lies within this distance of δ* have no
/// checkable OOD verdict (rounding may put them on either side).
inline constexpr double kVerdictEpsilon = 1e-6;

/// Float backend: δ_max recomputed as the largest double-precision cosine
/// against `model.descriptors()`, compared with result.max_similarity, and
/// the OOD verdict compared with (δ_max < δ*) away from δ*. Checks rows
/// 0, stride, 2·stride, … of the block.
std::string check_float_delta(const smore::SmoreModel& model,
                              smore::HvView queries,
                              const smore::SmoreBatchResult& result,
                              std::size_t stride);

/// Packed backend: δ_max recomputed as the largest normalized Hamming
/// similarity 1 - 2·h/d between the sign bits of each query and of each
/// float descriptor (the packed model is the sign-quantized float model),
/// compared exactly, and the verdict against the packed δ*.
std::string check_packed_delta(const smore::SmoreModel& model,
                               double packed_delta_star,
                               smore::HvView queries,
                               const smore::SmoreBatchResult& result,
                               std::size_t stride);

/// Float labels against the argmax of the paper-literal test-time model
/// (SmoreModel::materialize_test_time_model), with the class cosines
/// recomputed here in double precision. Queries whose top two classes lie
/// within kVerdictEpsilon are skipped.
std::string check_ttm_labels(const smore::SmoreModel& model,
                             smore::HvView queries,
                             std::span<const int> labels, std::size_t stride);

/// Calibration flags the target share of the calibration set: within 1/n
/// on both sides when `two_sided`, else at most target + 1/n (Hamming
/// similarities tie, and tied samples at δ* are not flagged).
std::string check_calibration(double ood_rate, double target, std::size_t n,
                              bool two_sided);

/// Both calibration checks of a deployed pipeline, on the encodings of its
/// calibration windows as the pipeline itself produced them (float: within
/// 1/n both sides; packed: at most target + 1/n). Results go to `report`.
void check_pipeline_calibration(const smore::Pipeline& pipeline,
                                smore::HvMatrix encoded,
                                const smore::WindowDataset& windows,
                                double target, Report& report,
                                const std::string& tag);

/// Two results of the same queries are identical, bit for bit.
std::string check_identical(const smore::SmoreBatchResult& a,
                            const smore::SmoreBatchResult& b);

/// Accuracy above chance (1 / classes).
std::string check_above_chance(double accuracy, int classes);

/// Feed each check a corrupted result and expect it to fail; also expect
/// the uncorrupted inputs to pass. Returns the number of self-test
/// failures (0 = every check has teeth).
int run_selftest(bool verbose);

}  // namespace layerbench
