// Human- and machine-readable rendering of characterization results — the
// layer the CLI tool and operator dashboards consume.
#pragma once

#include <string>
#include <vector>

#include "core/characterizer.hpp"

namespace acn {

/// Full per-device results for one interval.
struct CharacterizationReport {
  DeviceSet abnormal;  ///< A_k, ascending
  CharacterizationSets sets;
  std::vector<Decision> decisions;  ///< one per device of `abnormal`, in order

  /// Totals line + one row per device: id, class, deciding rule, work.
  [[nodiscard]] std::string to_text() const;

  /// CSV with columns: device, class, rule, exact, maximal_motions,
  /// dense_motions, collections_tested.
  [[nodiscard]] std::string to_csv() const;
};

/// Characterizes all of A_k and bundles the full report.
[[nodiscard]] CharacterizationReport make_report(const StatePair& state, Params params,
                                                 CharacterizeOptions options = {});

}  // namespace acn
