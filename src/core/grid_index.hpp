// Uniform-grid spatial index over the abnormal devices, supporting the
// neighbourhood queries of the local algorithms: N(j) = devices within 2r of
// j in the joint space (the paper shows trajectories within 4r of a device
// are all it ever needs — two grid hops).
//
// The grid is built on *current* positions (cell side = 2r) and candidate
// hits are filtered by exact joint distance, so correctness never depends on
// the grid geometry — only speed does. Cell keys are packed incrementally
// from per-dimension indices (no per-visit coordinate vector), and the
// batch-query overload reuses a caller-owned output buffer so the motion
// plane's per-device neighbourhood pass allocates nothing per visit.
//
// This is the project's one spatial index. Every verdict reads only the
// 4r-closure of A_k (§V, Corollary 8), so each interval indexes exactly A_k:
// the streaming engine builds one per interval and hands it to the
// MotionPlane, whose from-scratch constructor builds the same one itself.
// Queries are const and touch no shared mutable state, so the plane's
// worker lanes read one index concurrently.
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
/// consistency window 2r approaches 0. Shared by every 2r grid build
/// (FrameEngine, MotionPlane, PartitionEnumerator) so they agree on the same
/// geometry.
inline constexpr double kMinGridCell = 1e-9;

/// Connected components over the sorted `ids`, where `neighbours_of(rank)`
/// yields the (sorted) neighbours of ids[rank] among `ids` — the
/// 2r-interaction graph when the lists come from a window-radius grid
/// query. Every component is sorted by id; components are ordered by
/// smallest member. Shared by the MotionPlane build (arena-backed lists)
/// and PartitionEnumerator::components (on-the-fly grid queries).
[[nodiscard]] std::vector<std::vector<DeviceId>> connected_components(
    std::span<const DeviceId> ids,
    const std::function<std::span<const DeviceId>(std::size_t)>& neighbours_of);

class GridIndex {
 public:
  /// Indexes `members` (typically A_k) of `state` with cell side `cell`.
  /// Requires cell > 0.
  GridIndex(const StatePair& state, const DeviceSet& members, double cell);

  /// All indexed devices ell with joint Chebyshev distance(ell, j) <= radius,
  /// including j itself when indexed. Sorted by id. The query device does not
  /// have to be a member. `radius` may exceed the cell size (4r queries).
  [[nodiscard]] std::vector<DeviceId> within(DeviceId j, double radius) const;

  /// Same query into a caller-owned buffer (cleared first). The motion-plane
  /// build issues one query per abnormal device; reusing `out` keeps that
  /// pass allocation-free.
  void within_into(DeviceId j, double radius, std::vector<DeviceId>& out) const;

  [[nodiscard]] std::size_t member_count() const noexcept { return member_count_; }

 private:
  /// Key of the cell holding device j's current position (the S_k half of
  /// the state's joint columns).
  [[nodiscard]] std::uint64_t cell_key(DeviceId j) const noexcept;

  const StatePair& state_;
  double cell_;
  std::size_t member_count_;
  std::unordered_map<std::uint64_t, std::vector<DeviceId>> cells_;
};

}  // namespace acn
