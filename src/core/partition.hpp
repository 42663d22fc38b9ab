// Anomaly partitions (Definition 6) and their construction (Algorithm 1,
// Lemma 2).
//
// A partition P_k of A_k into disjoint r-consistent motions B_1..B_l is an
// *anomaly partition* iff
//   C1: no subset of the union of sparse classes (|B_i| <= tau) forms a
//       tau-dense r-consistent motion, and
//   C2: no such subset can merge with a dense class into a larger motion.
//
// Both conditions quantify over all subsets; `is_valid_anomaly_partition`
// uses the polynomially checkable equivalents proved below:
//   C1  <=>  every maximal motion inside the sparse union has <= tau members
//            (any dense motion would be contained in a maximal one);
//   C2  <=>  for every dense class B_i and every single device ell of the
//            sparse union, B_i + {ell} is not an r-consistent motion
//            (a violating B yields a violating singleton ell in B, and a
//            violating singleton is itself a violating B).
//
// Reproduction note (documented in EXPERIMENTS.md): Algorithm 1 as printed
// in the paper — repeatedly extract *any* maximal motion of the remaining
// pool — does not always yield a valid anomaly partition. Counterexample
// (1-D, tau=2, r=0.125): positions {0, 0.225, 0.3, 0.325}, all abnormal,
// static trajectories. Extracting the maximal motion {0, 0.225} first leaves
// {0.3, 0.325}, and the sparse union {all four} then contains the dense
// motion {0.225, 0.3, 0.325}, violating C1. The nondeterministic choices
// must be angelic: picking {0.225, 0.3, 0.325} first succeeds. We therefore
// ship the faithful greedy (`build_greedy_partition`) plus a robust wrapper
// (`build_anomaly_partition`) that validates and retries with fresh
// randomness, preferring dense-first extraction.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/device_set.hpp"
#include "common/rng.hpp"
#include "core/params.hpp"
#include "core/state.hpp"

namespace acn {

/// A partition of A_k into disjoint classes. Validity as an *anomaly*
/// partition is checked separately (is_valid_anomaly_partition).
class AnomalyPartition {
 public:
  /// Throws std::invalid_argument if classes overlap or any class is empty.
  explicit AnomalyPartition(std::vector<DeviceSet> classes);

  [[nodiscard]] std::span<const DeviceSet> classes() const noexcept { return classes_; }
  [[nodiscard]] std::size_t class_count() const noexcept { return classes_.size(); }

  /// P_k(j): the class containing j; throws std::out_of_range if absent.
  [[nodiscard]] const DeviceSet& class_of(DeviceId j) const;
  [[nodiscard]] bool covers(DeviceId j) const noexcept;

  /// Union of all classes (must equal A_k for a partition *of A_k*).
  [[nodiscard]] DeviceSet support() const;

  /// M_{P_k}: devices whose class is tau-dense (Definition 7).
  [[nodiscard]] DeviceSet massive_devices(std::uint32_t tau) const;
  /// I_{P_k}: devices whose class is tau-sparse (Definition 7).
  [[nodiscard]] DeviceSet isolated_devices(std::uint32_t tau) const;

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<DeviceSet> classes_;
};

/// Checks that `partition` is an anomaly partition of A_k for `state`:
/// classes cover A_k exactly, each class has an r-consistent motion, and
/// conditions C1 and C2 hold. On failure, *why (if non-null) receives a
/// human-readable reason.
[[nodiscard]] bool is_valid_anomaly_partition(const StatePair& state, Params params,
                                              const AnomalyPartition& partition,
                                              std::string* why = nullptr);

/// Faithful Algorithm 1 over A_k of `state`: repeatedly pick a random
/// remaining device and extract a random maximal motion (of the remaining
/// pool) containing it. May yield an invalid partition in rare geometries;
/// see header comment.
[[nodiscard]] AnomalyPartition build_greedy_partition(const StatePair& state, Params params,
                                                      Rng& rng);

/// Robust construction: dense-first greedy, validated; retries with fresh
/// randomness up to max_attempts, then throws std::runtime_error (never
/// observed with paper-scale inputs; exercised in tests).
[[nodiscard]] AnomalyPartition build_anomaly_partition(const StatePair& state, Params params,
                                                       Rng& rng, int max_attempts = 64);

}  // namespace acn
