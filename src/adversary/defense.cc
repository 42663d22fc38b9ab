#include "adversary/defense.hpp"

#include <numeric>
#include <stdexcept>
#include <vector>

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
  const std::vector<DeviceId> abnormal(state.abnormal().begin(),
                                       state.abnormal().end());

  // Union-find over clone edges (joint distance below the suspicion radius).
  std::vector<std::size_t> parent(abnormal.size());
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::size_t a = 0; a < abnormal.size(); ++a) {
    for (std::size_t b = a + 1; b < abnormal.size(); ++b) {
      if (state.joint_distance(abnormal[a], abnormal[b]) <= radius) {
        parent[find(a)] = find(b);
      }
    }
  }

  std::vector<std::size_t> group_size(abnormal.size(), 0);
  for (std::size_t a = 0; a < abnormal.size(); ++a) ++group_size[find(a)];

  std::vector<DeviceId> drops;
  std::vector<bool> keeper_chosen(abnormal.size(), false);
  for (std::size_t a = 0; a < abnormal.size(); ++a) {
    const std::size_t root = find(a);
    if (group_size[root] < config_.min_group) continue;
    if (!keeper_chosen[root]) {
      keeper_chosen[root] = true;  // smallest id survives (abnormal sorted)
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
