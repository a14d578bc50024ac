#include "serve/adaptation.hpp"

#include <algorithm>

#include "hdc/hv_matrix.hpp"
#include "obs/telemetry.hpp"

namespace smore {

AdaptationOutcome run_lifecycle_round(
    const ModelSnapshot& parent, std::span<const OodSample> round,
    std::span<const std::pair<int, double>> usage,
    const LifecycleConfig& config, std::uint64_t next_version) {
  AdaptationOutcome out;
  if (round.empty()) return out;
  SmoreModel next = parent.model->clone();
  HvMatrix block(round.size(), next.dim());
  std::vector<int> labels(round.size());
  for (std::size_t i = 0; i < round.size(); ++i) {
    block.set_row(i, round[i].hv);
    labels[i] = round[i].pseudo_label;
  }
  DomainLifecycle engine(config);
  out.lifecycle = engine.run_round(next, block.view(), labels, usage);
  out.next =
      ModelSnapshot::next_generation(parent, std::move(next), next_version);
  return out;
}

AdaptationOutcome run_enrol_round(const ModelSnapshot& parent,
                                  std::span<const OodSample> round,
                                  std::size_t max_domains,
                                  std::uint64_t next_version) {
  AdaptationOutcome out;
  out.enroll_reason = "ood-round";
  if (round.empty() || parent.model->num_domains() >= max_domains) return out;
  SmoreModel next = parent.model->clone();
  // The bank keeps ids sorted, but max_element keeps this correct even if
  // that invariant ever changes — colliding with an existing id would
  // silently merge the round into an unrelated domain.
  const auto& ids = next.descriptors().domain_ids();
  const int domain =
      ids.empty() ? 0 : *std::max_element(ids.begin(), ids.end()) + 1;
  for (const OodSample& sample : round) {
    next.absorb_labeled(sample.hv, sample.pseudo_label, domain);
  }
  out.lifecycle.enrolled_new = 1;
  out.lifecycle.absorbed = round.size();
  out.lifecycle.enrolled_ids.push_back(domain);
  out.next =
      ModelSnapshot::next_generation(parent, std::move(next), next_version);
  return out;
}

void emit_lifecycle_events(obs::Telemetry& telemetry, std::string_view scope,
                           const AdaptationOutcome& outcome) {
  const LifecycleRoundStats& stats = outcome.lifecycle;
  for (const int id : stats.merged_ids) {
    telemetry.emit(obs::EventType::kLifecycleMerge, scope, "centroid-match",
                   id);
  }
  for (const int id : stats.enrolled_ids) {
    telemetry.emit(obs::EventType::kLifecycleEnroll, scope,
                   outcome.enroll_reason, id);
  }
  for (const int id : stats.evicted_ids) {
    telemetry.emit(obs::EventType::kLifecycleEvict, scope, "domain-cap", id);
  }
}

}  // namespace smore
