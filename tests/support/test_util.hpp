// Shared builders for tests: compact construction of StatePairs from
// coordinate lists, a brute-force motion enumerator used as ground truth
// against the canonical-window enumeration, and a reader that turns a
// MotionPlane family into sets.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "common/device_set.hpp"
#include "core/motion.hpp"
#include "core/motion_plane.hpp"
#include "core/state.hpp"

namespace acn::test {

/// One service per device: device j moves from prev_curr[j].first to
/// prev_curr[j].second. All devices abnormal unless a set is given.
inline StatePair make_state_1d(const std::vector<std::pair<double, double>>& prev_curr) {
  std::vector<Point> prev;
  std::vector<Point> curr;
  std::vector<DeviceId> all;
  for (std::size_t j = 0; j < prev_curr.size(); ++j) {
    prev.push_back(Point{prev_curr[j].first});
    curr.push_back(Point{prev_curr[j].second});
    all.push_back(static_cast<DeviceId>(j));
  }
  return StatePair(Snapshot(std::move(prev)), Snapshot(std::move(curr)),
                   DeviceSet(std::move(all)));
}

inline StatePair make_state_1d(const std::vector<std::pair<double, double>>& prev_curr,
                               DeviceSet abnormal) {
  std::vector<Point> prev;
  std::vector<Point> curr;
  for (const auto& [p, c] : prev_curr) {
    prev.push_back(Point{p});
    curr.push_back(Point{c});
  }
  return StatePair(Snapshot(std::move(prev)), Snapshot(std::move(curr)),
                   std::move(abnormal));
}

/// Devices that do not move: prev == curr == positions[j].
inline StatePair make_static_1d(const std::vector<double>& positions) {
  std::vector<std::pair<double, double>> pc;
  pc.reserve(positions.size());
  for (const double x : positions) pc.emplace_back(x, x);
  return make_state_1d(pc);
}

/// d-dimensional variant: each device given (prev, curr) coordinate vectors.
inline StatePair make_state(const std::vector<std::vector<double>>& prev,
                            const std::vector<std::vector<double>>& curr) {
  std::vector<Point> p;
  std::vector<Point> c;
  std::vector<DeviceId> all;
  for (std::size_t j = 0; j < prev.size(); ++j) {
    p.emplace_back(std::span<const double>(prev[j]));
    c.emplace_back(std::span<const double>(curr[j]));
    all.push_back(static_cast<DeviceId>(j));
  }
  return StatePair(Snapshot(std::move(p)), Snapshot(std::move(c)),
                   DeviceSet(std::move(all)));
}

/// Brute force: all maximal r-consistent motions containing `anchor` within
/// `pool`, by full subset enumeration. Pool must be small (< ~20).
inline std::vector<DeviceSet> brute_force_maximal_motions(
    const StatePair& state, double r, const std::vector<DeviceId>& pool,
    DeviceId anchor) {
  std::vector<DeviceSet> motions;
  const std::size_t n = pool.size();
  for (std::uint64_t mask = 1; mask < (1ULL << n); ++mask) {
    std::vector<DeviceId> members;
    bool has_anchor = false;
    for (std::size_t b = 0; b < n; ++b) {
      if ((mask & (1ULL << b)) != 0) {
        members.push_back(pool[b]);
        has_anchor = has_anchor || pool[b] == anchor;
      }
    }
    if (!has_anchor) continue;
    DeviceSet candidate(std::move(members));
    if (has_consistent_motion(state, candidate, r)) motions.push_back(candidate);
  }
  return keep_maximal(std::move(motions));
}

/// The member sets of a plane family (e.g. plane.maximal(j) or
/// plane.dense(j)), in the family's order.
inline std::vector<DeviceSet> members_of(const MotionPlane& plane,
                                         std::span<const MotionPlane::MotionId> family) {
  std::vector<DeviceSet> sets;
  sets.reserve(family.size());
  for (const MotionPlane::MotionId mid : family) sets.emplace_back(plane.members(mid));
  return sets;
}

}  // namespace acn::test
