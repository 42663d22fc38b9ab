// A first countermeasure against trajectory-claim collusion.
//
// Observation: fabricated crowds are *too* coherent. Honest devices hit by
// one error share a displacement but keep their idiosyncratic offsets
// (they were spread across a radius-r ball before the error); colluders
// shadowing a victim cluster tightly around the victim's own trajectory in
// the joint space. CloneFilter flags groups of devices whose pairwise joint
// distance is below a suspicion radius much smaller than r — legitimate
// under the model's own dimensioning only with negligible probability —
// and drops all but one representative from the abnormal set before
// characterization.
//
// This is deliberately a *heuristic* defense (the paper leaves the
// Byzantine extension to future work); the bench quantifies both its
// recovery rate and its collateral damage on honest verdicts.
#pragma once

#include <cstdint>

#include "common/device_set.hpp"
#include "core/params.hpp"
#include "core/state.hpp"

namespace acn {

class CloneFilter {
 public:
  struct Config {
    /// Two claims closer than suspicion_factor * r (joint Chebyshev) are
    /// clones of each other.
    double suspicion_factor = 0.2;
    /// Minimal clone-group size before anything is dropped (pairs happen
    /// honestly; crowds do not).
    std::size_t min_group = 3;
  };

  /// Throws std::invalid_argument unless suspicion_factor lies in (0, 1)
  /// (NaN fails) and min_group >= 2.
  explicit CloneFilter(Config config);

  /// Returns the devices to drop from A_k: every clone-group of size >=
  /// min_group loses all members but its smallest id.
  [[nodiscard]] DeviceSet suspicious(const StatePair& state, Params model) const;

  /// Convenience: a copy of `state` with the suspicious claims removed from
  /// the abnormal set (positions untouched — they are claims either way).
  [[nodiscard]] StatePair filtered(const StatePair& state, Params model) const;

 private:
  Config config_;
};

}  // namespace acn
