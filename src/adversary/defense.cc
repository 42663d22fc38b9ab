#include "adversary/defense.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/grid_index.hpp"
#include "core/motion_plane.hpp"

namespace acn {

CloneFilter::CloneFilter(Config config) : config_(config) {
  // Written so NaN fails: a NaN radius would match no pair and silently
  // switch the defense off.
  if (!(config.suspicion_factor > 0.0 && config.suspicion_factor < 1.0)) {
    throw std::invalid_argument("CloneFilter: suspicion_factor must be in (0, 1)");
  }
  if (config.min_group < 2) {
    throw std::invalid_argument("CloneFilter: min_group must be >= 2");
  }
}

DeviceSet CloneFilter::suspicious(const StatePair& state, Params model) const {
  model.validate();
  const double radius = config_.suspicion_factor * model.r;
  const DeviceSet& abnormal = state.abnormal();
  if (abnormal.empty()) return {};

  // Clone groups: the components of A_k under joint distance <= radius.
  std::vector<std::uint32_t> rank_of(abnormal.ids().back() + 1);
  for (std::uint32_t rank = 0; rank < abnormal.size(); ++rank) {
    rank_of[abnormal[rank]] = rank;
  }
  const std::vector<std::uint32_t> root = component_roots(
      state, GridIndex(state, abnormal, std::max(radius, kMinGridCell)), radius, rank_of,
      abnormal.size());

  std::vector<std::size_t> group_size(abnormal.size(), 0);
  for (const std::uint32_t r : root) ++group_size[r];

  std::vector<DeviceId> drops;
  std::vector<bool> keeper_chosen(abnormal.size(), false);
  for (std::size_t a = 0; a < abnormal.size(); ++a) {
    if (group_size[root[a]] < config_.min_group) continue;
    if (!keeper_chosen[root[a]]) {
      keeper_chosen[root[a]] = true;  // smallest id survives (abnormal sorted)
      continue;
    }
    drops.push_back(abnormal[a]);
  }
  return DeviceSet(std::move(drops));
}

StatePair CloneFilter::filtered(const StatePair& state, Params model) const {
  return StatePair(state.prev(), state.curr(),
                   state.abnormal().set_difference(suspicious(state, model)));
}

}  // namespace acn
