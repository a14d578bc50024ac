#pragma once
// The adaptation round policies of the serving plane (DESIGN.md §13).
//
// The plane's adaptation loop (serve/plane.cpp) drains a tenant's OOD side
// buffer, runs one round on a clone of the live generation and publishes
// the result as the next generation. The two round policies live here as
// pure functions — the plane keeps only buffering, locking and publishing.

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/domain_lifecycle.hpp"
#include "serve/snapshot.hpp"

namespace smore::obs {
class Telemetry;
}  // namespace smore::obs

namespace smore {

/// One OOD window queued for enrollment: the encoded query plus the
/// pseudo-label the serving pass predicted for it (paper Sec 3.6 — the
/// ensemble's own prediction supervises the update).
struct OodSample {
  std::vector<float> hv;
  int pseudo_label = -1;
};

/// Result of one adaptation round: the candidate next generation (null when
/// the round was empty or the policy declined it) and what the round did to
/// produce it.
struct AdaptationOutcome {
  std::shared_ptr<const ModelSnapshot> next;
  LifecycleRoundStats lifecycle;
  const char* enroll_reason = "novel-cluster";  ///< event reason per enrol
};

/// Clone `parent`'s model, run one lifecycle round over `round` (usage is
/// the per-domain served-query credit accumulated since the last round), and
/// wrap the result as generation `next_version` with the parent's shape
/// (re-quantized iff the parent was quantized, same shared encoder). The
/// caller publishes the returned snapshot — CAS semantics stay at the
/// publish site, where losing to a newer generation is handled.
[[nodiscard]] AdaptationOutcome run_lifecycle_round(
    const ModelSnapshot& parent, std::span<const OodSample> round,
    std::span<const std::pair<int, double>> usage,
    const LifecycleConfig& config, std::uint64_t next_version);

/// The unbounded policy: enrol the whole round as ONE new domain (fresh id
/// past the largest live one; every sample absorbed under its pseudo-label
/// — the paper's "Model Update" box, Sec 3.6) and wrap it like
/// run_lifecycle_round does. Declines (null `next`) when the round is empty
/// or `parent` already has `max_domains` domains.
[[nodiscard]] AdaptationOutcome run_enrol_round(
    const ModelSnapshot& parent, std::span<const OodSample> round,
    std::size_t max_domains, std::uint64_t next_version);

/// Emit one lifecycle event per merge / enroll / evict decision of a
/// PUBLISHED round (DESIGN.md §14) — call this only after the publish CAS
/// succeeded, so the event log never claims changes that a lost race threw
/// away (a shed round emits kAdaptationShed at its own decision site
/// instead). `scope` is the tenant (fleet plane) or the plane name.
void emit_lifecycle_events(obs::Telemetry& telemetry, std::string_view scope,
                           const AdaptationOutcome& outcome);

}  // namespace smore
