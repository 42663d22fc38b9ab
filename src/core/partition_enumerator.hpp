// Exhaustive enumeration of anomaly partitions — the omniscient observer.
//
// The paper defines M_k / I_k / U_k by quantifying over *all* anomaly
// partitions (relations (2), (3), Definition 8). This module makes that
// quantification executable on small instances so the local algorithms can
// be validated against exact ground truth (the paper's Theorems 5-7 and
// Corollary 8 claim the local conditions coincide with it).
//
// Enumeration is exponential (the paper bounds it by Bell numbers, §V); we
// make it tractable by decomposing A_k into connected components of the
// 2r-interaction graph (a motion is a joint-space clique and can never span
// components, and conditions C1/C2 decompose likewise — asserted by tests),
// then enumerating restricted-growth set partitions per component with
// motion-feasibility pruning, validating C1/C2 on each complete candidate.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/device_set.hpp"
#include "core/params.hpp"
#include "core/partition.hpp"
#include "core/state.hpp"

namespace acn {

/// Exact tri-partition of A_k (observer's answer to the relaxed ACP).
struct CharacterizationSets {
  DeviceSet massive;     ///< M_k: in a dense class of every anomaly partition
  DeviceSet isolated;    ///< I_k: in a sparse class of every anomaly partition
  DeviceSet unresolved;  ///< U_k: partitions disagree

  [[nodiscard]] bool acp_solvable() const noexcept { return unresolved.empty(); }
};

/// Thrown when an instance exceeds the enumeration limits (the observer is a
/// test oracle, not a production path).
class EnumerationLimitError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class PartitionEnumerator {
 public:
  struct Limits {
    std::size_t max_component_size = 14;
    std::uint64_t max_partitions_per_component = 5'000'000;
  };

  PartitionEnumerator(const StatePair& state, Params params);
  PartitionEnumerator(const StatePair& state, Params params, Limits limits);

  /// Connected components of the 2r-interaction graph over A_k, by an
  /// all-pairs scan (the reference MotionPlane's components are tested
  /// against); sorted ids, ordered by smallest member.
  [[nodiscard]] std::vector<std::vector<DeviceId>> components() const;

  /// All anomaly partitions of the whole A_k (no component decomposition).
  /// Exponential in |A_k|; use only on small instances (tests, examples).
  [[nodiscard]] std::vector<AnomalyPartition> enumerate_all() const;

  /// Exact M_k / I_k / U_k by per-component enumeration.
  /// Throws EnumerationLimitError when a component exceeds the limits.
  [[nodiscard]] CharacterizationSets characterize_all() const;

  /// Number of valid anomaly partitions (product over components).
  /// Saturates at UINT64_MAX. Same limits as characterize_all().
  [[nodiscard]] std::uint64_t count_partitions() const;

 private:
  struct ComponentScan {
    std::uint64_t valid_partitions = 0;
    // Per member (parallel to the component vector): smallest / largest class
    // size over all valid partitions.
    std::vector<std::size_t> min_class_size;
    std::vector<std::size_t> max_class_size;
  };

  [[nodiscard]] ComponentScan scan_component(const std::vector<DeviceId>& comp) const;

  /// C1/C2 validity of a complete component partition (classes are already
  /// guaranteed to be motions by construction).
  [[nodiscard]] bool component_partition_valid(
      const std::vector<std::vector<DeviceId>>& classes) const;

  const StatePair& state_;
  Params params_;
  Limits limits_;
};

}  // namespace acn
