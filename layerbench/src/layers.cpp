#include "layers.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <sstream>
#include <vector>

#include "hdc/bit_matrix.hpp"
#include "hdc/hv_matrix.hpp"
#include "hdc/ops.hpp"
#include "hdc/ops_binary.hpp"

namespace layerbench {
namespace {

/// Repeat `fn` in reps of `calls` calls each until `budget` seconds pass
/// (at least three reps); returns the median seconds per call.
double seconds_per_call(const std::function<void()>& fn, std::size_t calls,
                        double budget) {
  fn();  // warm caches and lazy state
  std::vector<double> reps;
  const auto start = Clock::now();
  while (reps.size() < 3 || seconds_since(start) < budget) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    reps.push_back(seconds_since(t0) / static_cast<double>(calls));
    if (reps.size() >= 1000) break;
  }
  return median(reps);
}

smore::WindowDataset first_n(const smore::WindowDataset& src, std::size_t n) {
  smore::WindowDataset out(src.name(), src.channels(), src.steps());
  for (std::size_t i = 0; i < n; ++i) out.add(src[i % src.size()]);
  return out;
}

}  // namespace

void zero_serving_layers(Report& r) {
  for (const char* name :
       {"serve.server.batches", "serve.server.rows_per_batch",
        "serve.adapt.rounds", "serve.adapt.absorbed", "serve.adapt.dropped",
        "serve.adapt.live_domains", "serve.router.rows_per_batch",
        "serve.router.shed", "serve.registry.loads",
        "serve.registry.evictions", "serve.registry.hits",
        "serve.registry.misses", "serve.registry.single_flight_waits"}) {
    r.metric(name, 0.0, "count");
  }
  for (const char* name :
       {"serve.server.queue_wait_p50_ms", "serve.server.queue_wait_p99_ms",
        "serve.server.encode_ms_per_batch", "serve.server.predict_ms_per_batch",
        "serve.server.fulfil_p50_ms", "serve.adapt.round_ms",
        "serve.router.queue_wait_p50_ms", "serve.router.queue_wait_p99_ms",
        "serve.router.service_p50_ms", "serve.registry.load_ms"}) {
    r.metric(name, 0.0, "ms");
  }
  r.metric("serve.registry.peak_resident_bytes", 0.0, "bytes");
}

void report_encode_log(const CallLog& log, Report& r) {
  const double calls = static_cast<double>(log.calls());
  const double rows = static_cast<double>(log.rows());
  r.metric("hdc.encode.calls", calls, "count");
  r.metric("hdc.encode.windows", rows, "count");
  r.metric("hdc.encode.busy_s", log.busy_seconds(), "s");
  r.metric("hdc.encode.rows_per_call", calls > 0 ? rows / calls : 0.0,
           "count");
}

ArtifactTrip artifact_trip(const smore::Pipeline& pipeline,
                           std::unique_ptr<smore::Pipeline>* loaded) {
  ArtifactTrip trip;
  std::ostringstream out(std::ios::binary);
  auto t0 = Clock::now();
  pipeline.save(out);
  trip.bytes = out.str();
  trip.save_s = seconds_since(t0);
  std::istringstream in(trip.bytes, std::ios::binary);
  t0 = Clock::now();
  auto p = std::make_unique<smore::Pipeline>(smore::Pipeline::load(in));
  trip.load_s = seconds_since(t0);
  if (loaded != nullptr) *loaded = std::move(p);
  return trip;
}

Deployment deploy(const smore::WindowDataset& train,
                  const smore::EncoderConfig& ec, const smore::SmoreConfig& sc,
                  int classes, double target_ood, bool timing) {
  Deployment d;
  d.probe = std::make_shared<ProbeEncoder>(
      std::make_shared<smore::MultiSensorEncoder>(ec), timing);
  d.pipeline = std::make_unique<smore::Pipeline>(d.probe, classes, sc);
  auto t0 = Clock::now();
  d.pipeline->fit(train);
  d.fit_s = seconds_since(t0);
  t0 = Clock::now();
  d.pipeline->quantize();
  d.quantize_s = seconds_since(t0);
  d.probe->set_capture(true);
  t0 = Clock::now();
  d.pipeline->calibrate(train, target_ood);
  d.calibrate_s = seconds_since(t0);
  d.calibration_encodings = d.probe->take_capture();
  d.probe->set_capture(false);
  d.trip = artifact_trip(*d.pipeline, &d.loaded);
  return d;
}

void measure_isolated_layers(const smore::Pipeline& pipeline,
                             const smore::WindowDataset& windows,
                             double budget_seconds, Report& r) {
  const double slot = budget_seconds / 14.0;
  const smore::Encoder& enc = pipeline.encoder();
  const std::size_t d = pipeline.dim();
  const smore::WindowDataset one = first_n(windows, 1);
  const smore::WindowDataset b64 = first_n(windows, 64);
  smore::HvMatrix out;

  // hdc: encode at the workload's window shape.
  r.metric("hdc.encode.b1_1t.windows_per_s",
           1.0 / seconds_per_call([&] { enc.encode_batch(one, out, false); },
                                  8, slot),
           "1/s");
  r.metric("hdc.encode.b64_1t.windows_per_s",
           64.0 / seconds_per_call([&] { enc.encode_batch(b64, out, false); },
                                   1, slot),
           "1/s");
  r.metric("hdc.encode.b64_pool.windows_per_s",
           64.0 / seconds_per_call([&] { enc.encode_batch(b64, out, true); },
                                   1, slot),
           "1/s");
  smore::HvMatrix queries;
  enc.encode_batch(b64, queries, true);
  const smore::HvView q64 = queries.view();
  const smore::HvView q1 = q64.slice(0, 1);

  // hdc: kernels, as computed bytes moved (single thread).
  const smore::SmoreModel& model = pipeline.model();
  const std::size_t k = model.num_domains();
  const std::size_t classes = static_cast<std::size_t>(model.num_classes());
  const std::size_t np = k * classes;
  {
    std::mt19937_64 rng(0x6b65726e);
    std::uniform_real_distribution<float> u(-1.0f, 1.0f);
    std::vector<float> levels(3 * d);
    for (float& x : levels) x = u(rng);
    std::vector<float> acc(d, 0.0f);
    const float* lv[3] = {levels.data(), levels.data() + d,
                          levels.data() + 2 * d};
    const std::size_t shifts[3] = {0, 1, 2};
    const double s = seconds_per_call(
        [&] { smore::ops::ngram_axpy(lv, shifts, 3, d, 0.01f, acc.data()); },
        256, slot);
    // Reads three level rows and the accumulator, writes the accumulator.
    r.metric("hdc.kernel.ngram_axpy.bytes_per_s",
             static_cast<double>(5 * d * sizeof(float)) / s, "B/s");

    std::vector<float> protos(np * d);
    for (float& x : protos) x = u(rng);
    std::vector<double> sims(64 * np);
    const double s2 = seconds_per_call(
        [&] {
          smore::ops::similarity_matrix(q64.data, 64, protos.data(), np, d,
                                        sims.data(), nullptr, false);
        },
        1, slot);
    r.metric("hdc.kernel.similarity_matrix.bytes_per_s",
             static_cast<double>((64 + np) * d * sizeof(float) +
                                 64 * np * sizeof(double)) /
                 s2,
             "B/s");

    const smore::BitMatrix qbits = smore::ops::sign_pack_matrix(q64, false);
    const smore::BitMatrix pbits =
        smore::ops::sign_pack_matrix(smore::HvView(protos.data(), np, d), false);
    std::vector<std::size_t> dist(64 * np);
    const double s3 = seconds_per_call(
        [&] {
          smore::ops::hamming_matrix(qbits.data(), 64, pbits.data(), np,
                                     qbits.words_per_row(), dist.data(),
                                     false);
        },
        16, slot);
    r.metric("hdc.kernel.hamming_matrix.bytes_per_s",
             static_cast<double>((64 + np) * qbits.words_per_row() *
                                     sizeof(std::uint64_t) +
                                 64 * np * sizeof(std::size_t)) /
                 s3,
             "B/s");

    smore::BitMatrix packed(64, d);
    const double s4 = seconds_per_call(
        [&] {
          smore::ops::sign_pack_matrix(q64.data, 64, d, packed.data(),
                                       packed.words_per_row(), false);
        },
        64, slot);
    r.metric("hdc.kernel.sign_pack.rows_per_s", 64.0 / s4, "1/s");
  }

  // core: descriptor similarity, float and packed Algorithm 1.
  r.metric("core.descriptor.queries_per_s",
           64.0 / seconds_per_call(
                      [&] { (void)model.descriptors().similarities_batch(q64); },
                      4, slot),
           "1/s");
  r.metric("core.predict_float.b1.queries_per_s",
           1.0 / seconds_per_call([&] { (void)model.predict_batch_full(q1); },
                                  16, slot),
           "1/s");
  r.metric("core.predict_float.b64.queries_per_s",
           64.0 / seconds_per_call([&] { (void)model.predict_batch_full(q64); },
                                   1, slot),
           "1/s");
  const smore::BinarySmoreModel* packed = pipeline.packed();
  if (packed != nullptr) {
    r.metric("core.predict_packed.b1.queries_per_s",
             1.0 / seconds_per_call(
                       [&] { (void)packed->predict_batch_full(q1); }, 64, slot),
             "1/s");
    r.metric("core.predict_packed.b64.queries_per_s",
             64.0 / seconds_per_call(
                        [&] { (void)packed->predict_batch_full(q64); }, 4,
                        slot),
             "1/s");
  }

  // core: the artifact round trip.
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  std::size_t bytes = 0;
  const auto start = Clock::now();
  while (save_ms.size() < 3 || seconds_since(start) < 2.0 * slot) {
    const ArtifactTrip trip = artifact_trip(pipeline, nullptr);
    bytes = trip.bytes.size();
    save_ms.push_back(trip.save_s * 1e3);
    load_ms.push_back(trip.load_s * 1e3);
    if (save_ms.size() >= 50) break;
  }
  r.metric("core.artifact.bytes", static_cast<double>(bytes), "bytes");
  r.metric("core.artifact.save_ms", median(save_ms), "ms");
  r.metric("core.artifact.load_ms", median(load_ms), "ms");
}

}  // namespace layerbench
