// Uniform-grid spatial index over the abnormal devices, supporting the
// neighbourhood queries of the local algorithms: N(j) = devices within 2r of
// j in the joint space (the paper shows trajectories within 4r of a device
// are all it ever needs — two grid hops).
//
// The grid is built on *current* positions (cell side = 2r) and candidate
// hits are filtered by exact joint distance, so correctness never depends on
// the grid geometry — only speed does. Each occupied cell is identified by
// its exact integer coordinates (a hash only picks the bucket, and cells
// whose hashes collide are told apart by their coordinates), and its
// members are one ascending run of a flat array. That makes the cells
// themselves a usable structure: the motion plane computes its
// 2r-interaction components straight from them (cells and neighbouring
// cell pairs).
//
// This is the project's one spatial index. Every verdict reads only the
// 4r-closure of A_k (§V, Corollary 8), so each interval indexes exactly A_k:
// the streaming engine builds one per interval and hands it to the
// MotionPlane, whose from-scratch constructor builds the same one itself.
// The index is immutable after construction and every query is const.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/device_set.hpp"
#include "core/state.hpp"

namespace acn {

/// Floor for grid cell sides so the index degenerates gracefully when the
/// consistency window 2r approaches 0. The plane's grids are built through
/// MotionPlane::index_for, so the engine and the from-scratch plane agree on
/// the same geometry.
inline constexpr double kMinGridCell = 1e-9;

class GridIndex {
 public:
  /// Indexes `members` (typically A_k) of `state` with cell side `cell`.
  /// Requires cell > 0 (a NaN cell is rejected too).
  GridIndex(const StatePair& state, const DeviceSet& members, double cell);

  /// All indexed devices ell with joint Chebyshev distance(ell, j) <= radius,
  /// including j itself when indexed. Sorted by id. The query device does not
  /// have to be a member. `radius` may exceed the cell size (4r queries).
  [[nodiscard]] std::vector<DeviceId> within(DeviceId j, double radius) const;
  /// True iff within(j, radius) holds a device other than j, without
  /// building it: scans j's own cell first and stops at the first such
  /// device. With `radius` at least the cell side, a device that shares its
  /// cell stops there after O(1) distance checks.
  [[nodiscard]] bool has_neighbour(DeviceId j, double radius) const;

  /// Number of occupied cells.
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return cell_offsets_.size() - 1;
  }
  /// Members of occupied cell c, ascending by id.
  [[nodiscard]] std::span<const DeviceId> cell_members(std::uint32_t c) const noexcept {
    return {members_.data() + cell_offsets_[c], cell_offsets_[c + 1] - cell_offsets_[c]};
  }
  /// Calls visit(a, b) once for every unordered pair of distinct occupied
  /// cells that may hold two devices within `radius` of each other — the
  /// cells within() would scan from one another.
  void for_each_cell_pair(
      double radius, const std::function<void(std::uint32_t, std::uint32_t)>& visit) const;

 private:
  static constexpr std::uint32_t kNoCell = 0xFFFFFFFFu;

  /// Cell coordinates of device j's current position (the S_k half of the
  /// state's joint columns), one per dimension.
  void coords_of(DeviceId j, std::int64_t* out) const noexcept;
  /// The occupied cell at exactly `coord`, or kNoCell.
  [[nodiscard]] std::uint32_t find_cell(const std::int64_t* coord) const noexcept;
  /// Cells at most `reach` apart in every dimension from the cell at `base`
  /// (the one at `base` included), each visited once. With `half`, only
  /// offsets whose first non-zero component is positive — every unordered
  /// neighbour pair then comes up from exactly one side.
  void for_each_cell_near(const std::int64_t* base, std::int64_t reach, bool half,
                          const std::function<void(std::uint32_t)>& visit) const;
  [[nodiscard]] std::int64_t reach_for(double radius) const;

  const StatePair& state_;
  double cell_;
  std::vector<std::int64_t> cell_coords_;      ///< dim() entries per cell
  std::vector<std::uint32_t> cell_offsets_;    ///< cell_count() + 1 entries
  std::vector<DeviceId> members_;              ///< per-cell ascending runs
  std::unordered_map<std::uint64_t, std::uint32_t> buckets_;  ///< hash -> first cell
  std::vector<std::uint32_t> bucket_next_;     ///< per cell: next cell, same hash
};

}  // namespace acn
