#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "core/binary_smore.hpp"
#include "core/test_time_model.hpp"
#include "hdc/hv_dataset.hpp"

namespace layerbench {
namespace {

std::string describe(const char* what, std::size_t row, double want,
                     double got) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: query %zu expected %.9g got %.9g",
                what, row, want, got);
  return buf;
}

double cosine_double(const float* a, const float* b, std::size_t d) {
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (std::size_t j = 0; j < d; ++j) {
    dot += static_cast<double>(a[j]) * static_cast<double>(b[j]);
    na += static_cast<double>(a[j]) * static_cast<double>(a[j]);
    nb += static_cast<double>(b[j]) * static_cast<double>(b[j]);
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / std::sqrt(na * nb);
}

double hamming_similarity(const float* a, const float* b, std::size_t d) {
  std::size_t differ = 0;
  for (std::size_t j = 0; j < d; ++j) {
    differ += static_cast<std::size_t>((a[j] >= 0.0f) != (b[j] >= 0.0f));
  }
  return 1.0 - 2.0 * static_cast<double>(differ) / static_cast<double>(d);
}

/// Shared δ_max / verdict comparison of the two backends' checks.
template <typename Sim>
std::string check_delta(const smore::SmoreModel& model, double delta_star,
                        smore::HvView queries,
                        const smore::SmoreBatchResult& result,
                        std::size_t stride, double tolerance, Sim sim,
                        const char* tag) {
  if (result.labels.size() != queries.rows ||
      result.max_similarity.size() != queries.rows ||
      result.ood.size() != queries.rows) {
    return std::string(tag) + ": result arity differs from the query block";
  }
  const auto& bank = model.descriptors();
  if (stride == 0) stride = 1;
  for (std::size_t i = 0; i < queries.rows; i += stride) {
    const float* q = queries.data + i * queries.dim;
    double best = -2.0;
    for (std::size_t k = 0; k < bank.size(); ++k) {
      best = std::max(best, sim(q, bank.descriptor(k).data(), queries.dim));
    }
    if (std::abs(best - result.max_similarity[i]) > tolerance) {
      return describe((std::string(tag) + " delta_max").c_str(), i, best,
                      result.max_similarity[i]);
    }
    if (std::abs(best - delta_star) <= kVerdictEpsilon) continue;
    const bool ood = best < delta_star;
    if (ood != (result.ood[i] != 0)) {
      return describe((std::string(tag) + " OOD verdict").c_str(), i,
                      ood ? 1.0 : 0.0, result.ood[i]);
    }
  }
  return {};
}

}  // namespace

std::string check_float_delta(const smore::SmoreModel& model,
                              smore::HvView queries,
                              const smore::SmoreBatchResult& result,
                              std::size_t stride) {
  // The program accumulates in float lanes; 1e-5 absorbs that rounding and
  // still catches any real perturbation of a similarity.
  return check_delta(model, model.config().delta_star, queries, result, stride,
                     1e-5, cosine_double, "float");
}

std::string check_packed_delta(const smore::SmoreModel& model,
                               double packed_delta_star,
                               smore::HvView queries,
                               const smore::SmoreBatchResult& result,
                               std::size_t stride) {
  return check_delta(model, packed_delta_star, queries, result, stride, 1e-12,
                     hamming_similarity, "packed");
}

std::string check_ttm_labels(const smore::SmoreModel& model,
                             smore::HvView queries,
                             std::span<const int> labels, std::size_t stride) {
  if (labels.size() != queries.rows) {
    return "labels: arity differs from the query block";
  }
  if (stride == 0) stride = 1;
  for (std::size_t i = 0; i < queries.rows; i += stride) {
    const std::span<const float> q = queries.row(i);
    const smore::TestTimeModel ttm = model.materialize_test_time_model(q);
    double best = -2.0;
    double second = -2.0;
    int arg = -1;
    for (int c = 0; c < ttm.num_classes(); ++c) {
      const double s =
          cosine_double(q.data(), ttm.class_vector(c).data(), queries.dim);
      if (s > best) {
        second = best;
        best = s;
        arg = c;
      } else if (s > second) {
        second = s;
      }
    }
    if (best - second <= kVerdictEpsilon) continue;
    if (arg != labels[i]) {
      return describe("test-time-model argmax", i, arg, labels[i]);
    }
  }
  return {};
}

std::string check_calibration(double ood_rate, double target, std::size_t n,
                              bool two_sided) {
  const double slack = 1.0 / static_cast<double>(n == 0 ? 1 : n) + 1e-12;
  const bool ok = two_sided ? std::abs(ood_rate - target) <= slack
                            : ood_rate <= target + slack;
  if (ok) return {};
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "calibration flags %.6f of %zu in-distribution windows, "
                "target %.4f",
                ood_rate, n, target);
  return buf;
}

void check_pipeline_calibration(const smore::Pipeline& pipeline,
                                smore::HvMatrix encoded,
                                const smore::WindowDataset& windows,
                                double target, Report& report,
                                const std::string& tag) {
  std::vector<int> labels;
  std::vector<int> domains;
  for (const smore::Window& w : windows.windows()) {
    labels.push_back(w.label());
    domains.push_back(w.domain());
  }
  const smore::HvDataset ds = smore::HvDataset::adopt(
      std::move(encoded), std::move(labels), std::move(domains));
  std::string msg = check_calibration(pipeline.model().evaluate(ds).ood_rate,
                                      target, ds.size(), true);
  report.check(msg.empty(), tag + " float calibration: " + msg);
  msg = check_calibration(pipeline.packed()->evaluate(ds).ood_rate, target,
                          ds.size(), false);
  report.check(msg.empty(), tag + " packed calibration: " + msg);
}

std::string check_identical(const smore::SmoreBatchResult& a,
                            const smore::SmoreBatchResult& b) {
  if (a.labels.size() != b.labels.size()) return "results differ in arity";
  for (std::size_t i = 0; i < a.labels.size(); ++i) {
    if (a.labels[i] != b.labels[i]) {
      return describe("label", i, a.labels[i], b.labels[i]);
    }
    if (a.ood[i] != b.ood[i]) return describe("OOD flag", i, a.ood[i], b.ood[i]);
    if (a.max_similarity[i] != b.max_similarity[i]) {
      return describe("delta_max", i, a.max_similarity[i],
                      b.max_similarity[i]);
    }
  }
  if (a.weights != b.weights) return "ensemble weights differ";
  return {};
}

std::string check_above_chance(double accuracy, int classes) {
  const double chance = 1.0 / static_cast<double>(classes);
  if (accuracy > chance) return {};
  char buf[96];
  std::snprintf(buf, sizeof(buf), "accuracy %.4f not above chance %.4f",
                accuracy, chance);
  return buf;
}

int run_selftest(bool verbose) {
  // A small separable encoded problem: 4 classes × 3 domains, d = 512.
  constexpr std::size_t kDim = 512;
  constexpr int kClasses = 4;
  constexpr int kDomains = 3;
  std::mt19937_64 rng(0x5e1f7e57);
  std::normal_distribution<float> noise(0.0f, 0.6f);
  std::uniform_int_distribution<int> coin(0, 1);
  std::vector<std::vector<float>> proto(kClasses, std::vector<float>(kDim));
  std::vector<std::vector<float>> shift(kDomains, std::vector<float>(kDim));
  for (auto& p : proto) {
    for (float& x : p) x = coin(rng) ? 1.0f : -1.0f;
  }
  for (auto& s : shift) {
    for (float& x : s) x = 0.5f * (coin(rng) ? 1.0f : -1.0f);
  }
  smore::HvDataset train(kDim);
  smore::HvDataset queries(kDim);
  std::vector<float> row(kDim);
  for (int d = 0; d < kDomains; ++d) {
    for (int c = 0; c < kClasses; ++c) {
      for (int i = 0; i < 24; ++i) {
        for (std::size_t j = 0; j < kDim; ++j) {
          row[j] = proto[c][j] + shift[d][j] + noise(rng);
        }
        (i < 20 ? train : queries).add(row, c, d);
      }
    }
  }
  smore::SmoreConfig cfg;
  cfg.domain_model.epochs = 3;
  smore::SmoreModel model(kClasses, kDim, cfg);
  model.fit(train);
  const double delta = model.calibrate_delta_star(train, 0.05);
  smore::BinarySmoreModel packed(model);
  const double packed_delta = packed.calibrate_delta_star(train, 0.05);

  const smore::HvView view = queries.view();
  const smore::SmoreBatchResult fr = model.predict_batch_full(view);
  const smore::SmoreBatchResult pr = packed.predict_batch_full(view);
  const smore::SmoreEvaluation fe = model.evaluate(train);
  const smore::SmoreEvaluation pe = packed.evaluate(train);

  int failures = 0;
  const auto expect = [&](bool should_pass, const std::string& msg,
                          const char* name) {
    const bool passed = msg.empty();
    if (passed != should_pass) {
      ++failures;
      std::fprintf(stderr, "selftest: %s %s\n", name,
                   should_pass ? ("failed on good input: " + msg).c_str()
                               : "accepted a corrupted result");
    } else if (verbose) {
      std::fprintf(stderr, "selftest: %s ok (%s)\n", name,
                   should_pass ? "passes" : msg.c_str());
    }
  };

  // Untouched inputs pass.
  expect(true, check_float_delta(model, view, fr, 1), "float delta");
  expect(true, check_packed_delta(model, packed_delta, view, pr, 1),
         "packed delta");
  expect(true, check_ttm_labels(model, view, fr.labels, 1), "ttm labels");
  expect(true, check_calibration(fe.ood_rate, 0.05, train.size(), true),
         "float calibration");
  expect(true, check_calibration(pe.ood_rate, 0.05, train.size(), false),
         "packed calibration");
  expect(true, check_identical(fr, model.predict_batch_full(view)),
         "identical");
  expect(true, check_above_chance(fe.accuracy, kClasses), "above chance");

  // A flipped label.
  {
    smore::SmoreBatchResult bad = fr;
    bad.labels[3] = (bad.labels[3] + 1) % kClasses;
    expect(false, check_ttm_labels(model, view, bad.labels, 1),
           "ttm labels (flipped label)");
    expect(false, check_identical(fr, bad), "identical (flipped label)");
  }
  // A perturbed similarity.
  {
    smore::SmoreBatchResult bad = fr;
    bad.max_similarity[5] += 1e-3;
    expect(false, check_float_delta(model, view, bad, 1),
           "float delta (perturbed similarity)");
    expect(false, check_identical(fr, bad), "identical (perturbed similarity)");
    smore::SmoreBatchResult pbad = pr;
    pbad.max_similarity[5] += 2.0 / static_cast<double>(kDim);
    expect(false, check_packed_delta(model, packed_delta, view, pbad, 1),
           "packed delta (perturbed similarity)");
  }
  // A flipped OOD verdict (on a query clear of δ*).
  {
    smore::SmoreBatchResult bad = fr;
    std::size_t flip = 0;
    while (flip + 1 < bad.ood.size() &&
           std::abs(bad.max_similarity[flip] - delta) <= 1e-3) {
      ++flip;
    }
    bad.ood[flip] = bad.ood[flip] ? 0 : 1;
    expect(false, check_float_delta(model, view, bad, 1),
           "float delta (flipped verdict)");
  }
  // A miscalibrated threshold and a chance-level accuracy.
  expect(false, check_calibration(0.05 + 2.0 / train.size(), 0.05,
                                  train.size(), true),
         "calibration (off by two samples)");
  expect(false, check_calibration(0.05 + 2.0 / train.size(), 0.05,
                                  train.size(), false),
         "packed calibration (off by two samples)");
  expect(false, check_above_chance(1.0 / kClasses, kClasses),
         "above chance (chance accuracy)");
  return failures;
}

}  // namespace layerbench
