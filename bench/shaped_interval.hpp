// One interval of a collusion attack, as bench_adversary scores it and the
// adversary tests pin it: a TrajectoryShaper rewrites the colluders' claims
// of an honest state at k-1 (the victim not yet abnormal), then at k, and
// A_k grows by the colluders that claimed a_k = true at k. The streaming
// form, interval after interval, is the hostile suite's (sim/hostile).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "adversary/adversary.hpp"
#include "core/state.hpp"

namespace acn::bench {

struct ShapedInterval {
  StatePair observed;    ///< shaped claims, A_k grown by `fabricated`
  DeviceSet fabricated;  ///< colluders that claimed a_k = true at k
};

/// Shapes S_{k-1} of `honest` with the victim not yet abnormal, then S_k
/// with the victim abnormal iff it is in A_k. Throws what shape() throws.
inline ShapedInterval shape_interval(const StatePair& honest, TrajectoryShaper& shaper,
                                     std::optional<DeviceId> victim) {
  std::vector<Point> prev = honest.prev().positions();
  std::vector<Point> curr = honest.curr().positions();
  shaper.shape(victim, false, prev);
  DeviceSet fabricated(
      shaper.shape(victim, victim.has_value() && honest.is_abnormal(*victim), curr));
  StatePair observed(Snapshot(prev), Snapshot(curr),
                     honest.abnormal().set_union(fabricated));
  return {std::move(observed), std::move(fabricated)};
}

}  // namespace acn::bench
