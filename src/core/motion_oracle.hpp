// MotionOracle: query view over the snapshot-level MotionPlane (the paper's
// Algorithm 2, `maxMotions`, plus the derived queries of Algorithms 3-5).
//
// Key observation (see DESIGN.md): a set B has an r-consistent motion in
// [k-1, k] iff the bounding box of its joint positions has side <= 2r in
// every dimension. Every maximal motion containing device j is the exact
// cover of a "canonical window": an axis-aligned joint-space box of side 2r
// whose lower edge in each dimension sits on the coordinate of some
// neighbourhood point within [x_dim(j) - 2r, x_dim(j)]. The plane performs
// that sliding once per snapshot for every device of A_k
// (enumerate_maximal_windows in motion_plane.hpp); the oracle reads the
// precomputed families and answers the remaining *parameterized* queries —
// motions within a restricted candidate set (the Theorem 7 search), motions
// over arbitrary pools (anomaly-partition validation) — by running the same
// slide on demand. All queries touch only devices within 2r of the argument,
// the locality the paper proves sufficient.
//
// The oracle is cheap to construct from an existing plane: it owns only
// memo tables keyed by device id (materialized families, neighbourhoods of
// non-abnormal devices), so every worker thread of the parallel
// characterization path gets a private oracle over one shared read-only
// plane.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/device_set.hpp"
#include "core/motion_plane.hpp"
#include "core/params.hpp"
#include "core/state.hpp"

namespace acn {

/// True iff `pool` holds a tau-dense motion: a canonical-window slide with
/// early exit at the first full-dimensional window covering more than tau
/// devices (never materializes maximal families). When `anchor` is set,
/// windows are constrained to cover the anchor. `windows_explored`, when
/// non-null, is incremented per window visited. Shared by
/// MotionOracle::has_dense_motion_avoiding and the partition validity
/// checker (condition C1), which must agree on the same state.
[[nodiscard]] bool exists_dense_window_cover(const StatePair& state, const Params& params,
                                             std::span<const DeviceId> pool,
                                             std::optional<DeviceId> anchor,
                                             std::uint64_t* windows_explored = nullptr);

class MotionOracle {
 public:
  /// Oracle over the abnormal set A_k of `state`. Both referenced objects
  /// must outlive the oracle. The backing MotionPlane is built lazily on
  /// the first per-device query, so pool-only consumers (the Algorithm 1
  /// greedy builders) never pay the plane build.
  MotionOracle(const StatePair& state, Params params);

  /// Thin view over an existing plane (must outlive the oracle). Used by the
  /// parallel characterization path: one shared plane, one oracle (and thus
  /// one set of memo tables) per worker.
  explicit MotionOracle(const MotionPlane& plane);

  // Non-copyable/movable: the view may point into its own owned plane.
  MotionOracle(const MotionOracle&) = delete;
  MotionOracle& operator=(const MotionOracle&) = delete;

  /// N(j): abnormal devices within joint distance 2r of j (j included when
  /// abnormal). Precomputed by the plane for abnormal devices; memoized grid
  /// query otherwise.
  [[nodiscard]] std::span<const DeviceId> neighbourhood(DeviceId j);

  /// M(j): all maximal r-consistent motions containing j (Algorithm 2).
  /// Requires j in A_k. Materialized from the plane on first access;
  /// deterministic (sorted) order.
  [[nodiscard]] const std::vector<DeviceSet>& maximal_motions(DeviceId j);

  /// W-bar_k(j): maximal motions containing j that are tau-dense. Memoized
  /// (split_neighbourhood asks for every neighbour's dense family).
  [[nodiscard]] const std::vector<DeviceSet>& dense_motions(DeviceId j);

  /// Maximal motions containing j within A_k \ removed. Used by the
  /// Theorem 7 search, where collections of dense motions are "removed".
  [[nodiscard]] std::vector<DeviceSet> maximal_motions_excluding(
      DeviceId j, const DeviceSet& removed);

  /// True iff a tau-dense motion containing j exists within A_k \ removed —
  /// relation (4) of Theorem 7 (its negation, precisely). For an abnormal j
  /// a scan of j's dense family; otherwise a window slide that
  /// short-circuits at the first dense cover. Not memoized: a memo keyed on
  /// a hash of `removed` could return another set's answer on a collision.
  [[nodiscard]] bool has_dense_motion_avoiding(DeviceId j, const DeviceSet& removed);

  /// All maximal motions within an arbitrary pool of abnormal devices, no
  /// anchoring device. Used by the partition validity checker (condition C1)
  /// and by Algorithm 1, where maximality is relative to the remaining pool.
  [[nodiscard]] std::vector<DeviceSet> maximal_motions_of_pool(
      std::vector<DeviceId> pool) const;

  /// Maximal motions containing j *relative to a pool* (Algorithm 1's
  /// "maximal r-consistent motion in S"). Requires j in pool.
  [[nodiscard]] std::vector<DeviceSet> maximal_motions_in_pool(
      DeviceId j, std::vector<DeviceId> pool) const;

  /// Plane build counters (once built) plus this view's query counters.
  [[nodiscard]] const OracleCounters& counters() const noexcept { return counters_; }
  /// The backing plane, building it if this oracle owns a lazy one.
  [[nodiscard]] const MotionPlane& plane() const { return ensure_plane(); }
  [[nodiscard]] const StatePair& state() const noexcept { return state_; }
  [[nodiscard]] const Params& params() const noexcept { return params_; }

 private:
  /// Early-exit variant: true iff some window covering `anchor` within
  /// `pool` holds more than tau devices at every dimension.
  [[nodiscard]] bool exists_dense_cover(std::span<const DeviceId> pool, DeviceId anchor);

  /// Builds the owned plane on first use (lazy ctor) and folds its build
  /// counters into counters_.
  const MotionPlane& ensure_plane() const;

  const StatePair& state_;
  Params params_;
  mutable std::optional<MotionPlane> owned_plane_;  ///< lazy ctor's plane
  mutable const MotionPlane* plane_;                ///< null until built/borrowed
  mutable OracleCounters counters_;
  // Families materialized as DeviceSets for the set-algebra call sites;
  // built from the plane's interned runs on first access.
  std::unordered_map<DeviceId, std::vector<DeviceSet>> motions_memo_;
  std::unordered_map<DeviceId, std::vector<DeviceSet>> dense_memo_;
  // Neighbourhoods of non-abnormal query devices (not covered by the plane).
  std::unordered_map<DeviceId, std::vector<DeviceId>> extra_neighbourhood_memo_;
};

}  // namespace acn
