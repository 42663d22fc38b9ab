// Hostile scenario layers — composable perturbations on top of the clean
// §VII-A workload, each violating one assumption the paper's guarantees
// rest on. The monitor never sees ground truth; it sees *reports*, and
// reports churn, get lost, arrive late, drift, correlate with topology, and
// lie. Every layer produces a self-consistent observed snapshot stream
// (observed_{k-1} of interval k is exactly what was published at k-1), so
// the same stream can be replayed byte-identically through the from-scratch
// characterizer, the snapshot-level MotionPlane, and the incremental
// FrameEngine — which is what tests/conformance asserts.
//
// Layers (all off by default; a HostileScenario with every layer off
// reproduces the clean ScenarioGenerator stream bit-for-bit):
//
//   churn     — devices retire (slot parked at its last position, per the
//               FleetRoster model) and re-enter at a fresh position. Violates
//               the fixed-universe reading of §III-A. Safe side: a parked or
//               just-readmitted device is never in A_k, so it can never
//               influence a verdict (motions are A_k-masked).
//   reports   — loss: an impacted device's report AND its a_k flag vanish
//               for one interval (the monitor replays its last claim; a pure
//               recall hole — the safe failure). stale: the report is
//               delayed one interval and its a_k flag delivered late, so the
//               device enters A_{k+1} with a distorted two-interval
//               trajectory (duplication + reordering at the snapshot
//               boundary).
//   drift     — a share of the fleet wanders at a fixed per-device velocity
//               each interval. Violates "QoS is stationary between errors";
//               drifters are never abnormal, so verdicts are untouched, but
//               the state roll's locality assumption (few movers per
//               interval) is maximally stressed.
//   regional  — topology-correlated events from net/topology: an *outage*
//               converges an aggregation's gateways onto one degraded point
//               (truly massive, but the converging motion is NOT r-consistent
//               — members were QoS-scattered at k-1 — so Theorem 5 classifies
//               each member isolated: the documented recall loss when the
//               common-displacement restriction R2 is violated). A *flash
//               crowd* scatters a region's gateways loosely around a
//               congestion point, superposing dense motions (stresses
//               Corollary 8 / Theorem 7).
//   adversary — a TrajectoryShaper (adversary/adversary.hpp) drives a fixed
//               colluder block interval after interval: shadow-crowd flips a
//               designated victim's isolated verdicts to massive (§VIII),
//               superposition-bomb chains overlapping dense motions to blow
//               up the Theorem-7 search, scatter-chaff floods A_k with fake
//               isolated anomalies.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "common/device_set.hpp"
#include "common/rng.hpp"
#include "net/topology.hpp"
#include "sim/scenario.hpp"

namespace acn {

struct ChurnParams {
  /// Fraction of the fleet retired per interval (and re-admitted from the
  /// parked pool, once one exists). 0 = off.
  double rate = 0.0;
  /// Retirement stops when the active fleet would drop below this floor
  /// (0 = half the fleet).
  std::size_t min_active = 0;
};

struct ReportPathologyParams {
  /// P{an impacted device's report + a_k flag are lost this interval}.
  double loss = 0.0;
  /// P{an impacted device's report is one interval stale and its a_k flag
  /// delivered at k+1}. Drawn after loss (mutually exclusive per device).
  double stale = 0.0;
};

struct DriftParams {
  double share = 0.0;        ///< fraction of the fleet drifting
  double step_factor = 0.0;  ///< per-interval drift step, as a fraction of r
};

struct RegionalParams {
  double outage_rate = 0.0;  ///< P{an aggregation outage strikes this interval}
  double flash_rate = 0.0;   ///< P{a regional flash crowd strikes this interval}
  /// Spread of the degraded point's impact, as a fraction of r.
  double outage_jitter = 0.5;
  /// Spread of the congestion blob, as a fraction of r (loose by design).
  double flash_jitter = 3.0;
  /// Tree shape; gateways_per_aggregation is re-derived from n by
  /// HostileScenario so that gateway ids are valid device ids.
  TopologyConfig topology;
};

struct AdversaryParams {
  /// nullopt = no adversary.
  std::optional<TrajectoryAttack> attack;
  /// Size of the colluder block (the top device ids, reserved: the base
  /// workload never impacts a colluder).
  std::size_t colluders = 0;
  /// P{the designated victim suffers a genuinely isolated crash this
  /// interval} (targeted attacks only).
  double victim_crash_rate = 0.5;
  double claim_jitter = 0.35;  ///< TrajectoryShaper::Config::claim_jitter
  double chain_spacing = 0.75; ///< TrajectoryShaper::Config::chain_spacing
};

struct HostileParams {
  ScenarioParams base;  ///< the clean §VII-A workload underneath
  ChurnParams churn;
  ReportPathologyParams reports;
  DriftParams drift;
  RegionalParams regional;
  AdversaryParams adversary;
  /// Hostile-layer stream, independent of base.seed so the clean workload
  /// underneath a family is comparable across layer settings.
  std::uint64_t seed = 1;

  void validate() const;
};

/// One interval as the monitor sees it, plus the ground truth the monitor
/// does not see.
struct HostileStep {
  Snapshot observed;    ///< monitor-visible positions (claims) at k
  DeviceSet abnormal;   ///< monitor-visible A_k (flags that arrived)
  StepTruth truth;      ///< injected truth incl. regional and victim events
  DeviceSet fabricated; ///< colluders claiming a fake a_k this interval
  DeviceSet suppressed; ///< truly abnormal devices whose flag did not arrive
  std::size_t active = 0;  ///< active (non-parked) devices this interval
};

class HostileScenario {
 public:
  explicit HostileScenario(HostileParams params);

  /// Observed snapshot S_0 (reports are honest before the stream starts);
  /// feed it to streaming paths before the first advance().
  [[nodiscard]] Snapshot initial() const { return Snapshot(observed_); }

  /// Advances one interval through the full layer pipeline:
  /// churn -> regional event draw -> eligibility mask -> clean advance ->
  /// drift -> regional displacement -> victim crash -> re-admission respawn
  /// -> observed assembly (loss / stale / late flags) -> adversary shaping.
  [[nodiscard]] HostileStep advance();

  [[nodiscard]] const HostileParams& params() const noexcept { return params_; }
  [[nodiscard]] std::uint64_t step_count() const noexcept { return steps_; }
  /// The device whose verdict targeted attacks aim to flip (nullopt when no
  /// targeted adversary is configured).
  [[nodiscard]] std::optional<DeviceId> victim() const noexcept { return victim_; }
  [[nodiscard]] const std::vector<DeviceId>& colluders() const noexcept {
    return colluders_;
  }

 private:
  [[nodiscard]] bool is_protected(DeviceId j) const noexcept;
  void run_churn();
  /// Members of a random aggregation (outage) or region (flash crowd),
  /// filtered to active unprotected devices not already taken by another
  /// event this interval (R1 across layers).
  [[nodiscard]] std::vector<DeviceId> draw_regional_members(
      bool outage, const std::vector<bool>& taken);
  [[nodiscard]] Point random_point();
  [[nodiscard]] Point jittered(const Point& centre, double amplitude);

  HostileParams params_;
  ScenarioGenerator scenario_;
  Rng rng_;  ///< hostile-layer stream (never touches the base generator's)
  std::optional<Topology> topo_;
  std::optional<TrajectoryShaper> shaper_;
  std::vector<DeviceId> colluders_;
  std::vector<bool> colluder_mask_;
  std::optional<DeviceId> victim_;

  std::vector<bool> active_;
  std::size_t active_count_;
  std::vector<DeviceId> just_admitted_;  ///< re-entered this interval
  std::vector<Point> observed_;          ///< last published claims
  std::vector<Point> drift_velocity_;    ///< empty point = non-drifter
  std::vector<DeviceId> pending_late_;   ///< a_k flags delivered this interval
  std::uint64_t steps_ = 0;
};

/// One named hostile family: parameters plus the paper assumption it
/// violates (docs/paper_map.md spells out the expected safe-side behaviour).
struct HostileSpec {
  std::string name;
  std::string violates;
  HostileParams params;
};

/// The standard suite: >= 6 families covering every layer (plus a clean
/// control and a combined stress family), sized for fleet size n. The same
/// (n, seed) pair yields the same suite bit-for-bit on any platform.
[[nodiscard]] std::vector<HostileSpec> standard_hostile_suite(std::size_t n,
                                                              std::uint64_t seed);

}  // namespace acn
