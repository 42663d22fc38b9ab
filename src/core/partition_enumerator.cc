#include "core/partition_enumerator.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "core/motion.hpp"
#include "core/motion_plane.hpp"

namespace acn {

PartitionEnumerator::PartitionEnumerator(const StatePair& state, Params params)
    : PartitionEnumerator(state, params, Limits()) {}

PartitionEnumerator::PartitionEnumerator(const StatePair& state, Params params,
                                         Limits limits)
    : state_(state), params_(params), limits_(limits) {
  params_.validate();
}

std::vector<std::vector<DeviceId>> PartitionEnumerator::components() const {
  // A plain all-pairs union-find: this is the reference the plane's
  // cell-union pass is tested against, so it shares none of that code.
  const DeviceSet& abnormal = state_.abnormal();
  const std::size_t m = abnormal.size();
  std::vector<std::size_t> parent(m);
  for (std::size_t i = 0; i < m; ++i) parent[i] = i;
  const auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = a + 1; b < m; ++b) {
      if (state_.joint_distance(abnormal[a], abnormal[b]) <= params_.window()) {
        parent[find(a)] = find(b);
      }
    }
  }
  // Ascending scan: members sorted, components ordered by smallest member.
  std::vector<std::vector<DeviceId>> components;
  std::vector<std::size_t> slot(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    std::size_t& s = slot[find(i)];
    if (s == m) {
      s = components.size();
      components.emplace_back();
    }
    components[s].push_back(abnormal[i]);
  }
  return components;
}

namespace {

/// Restricted-growth enumeration of set partitions whose classes all keep an
/// r-consistent motion. Calls `on_complete` for every such partition.
void enumerate_motion_partitions(
    const StatePair& state, double r, const std::vector<DeviceId>& members,
    std::uint64_t max_partitions, std::uint64_t& visited,
    const std::function<void(const std::vector<std::vector<DeviceId>>&)>& on_complete) {
  std::vector<std::vector<DeviceId>> classes;
  std::vector<JointBox> boxes;
  const double window = 2.0 * r;

  const std::function<void(std::size_t)> recurse = [&](std::size_t index) {
    if (index == members.size()) {
      if (++visited > max_partitions) {
        throw EnumerationLimitError("partition enumeration budget exceeded");
      }
      on_complete(classes);
      return;
    }
    const DeviceId j = members[index];
    const Point& joint = state.joint(j);
    // Join an existing class if the motion property survives.
    for (std::size_t c = 0; c < classes.size(); ++c) {
      if (!boxes[c].would_fit(joint, window)) continue;
      classes[c].push_back(j);
      const JointBox saved = boxes[c];
      boxes[c].add(joint);
      recurse(index + 1);
      boxes[c] = saved;
      classes[c].pop_back();
    }
    // Or open a new class (canonical: the class is identified by its first,
    // smallest member, so each partition is produced exactly once).
    classes.push_back({j});
    boxes.emplace_back(state.joint_dim());
    boxes.back().add(joint);
    recurse(index + 1);
    classes.pop_back();
    boxes.pop_back();
  };
  recurse(0);
}

}  // namespace

bool PartitionEnumerator::component_partition_valid(
    const std::vector<std::vector<DeviceId>>& classes) const {
  // Split into dense classes and the sparse union.
  std::vector<DeviceId> sparse_union;
  std::vector<const std::vector<DeviceId>*> dense;
  for (const auto& cls : classes) {
    if (cls.size() > params_.tau) {
      dense.push_back(&cls);
    } else {
      sparse_union.insert(sparse_union.end(), cls.begin(), cls.end());
    }
  }
  // C2 first: no sparse-union device can join a dense class. Cheap (box
  // fits), so it gates the clique search below.
  for (const auto* cls : dense) {
    JointBox box(state_.joint_dim());
    for (const DeviceId id : *cls) box.add(state_.joint(id));
    for (const DeviceId ell : sparse_union) {
      if (box.would_fit(state_.joint(ell), params_.window())) return false;
    }
  }
  // C1: no dense motion within the sparse union, checked by the early-exit
  // clique search. (The maximal-motion formulation of partition.hpp is
  // equivalent but materializes whole families; this check runs once per
  // enumerated partition and must stay cheap.)
  return !has_dense_motion(state_, params_, sparse_union);
}

PartitionEnumerator::ComponentScan PartitionEnumerator::scan_component(
    const std::vector<DeviceId>& comp) const {
  if (comp.size() > limits_.max_component_size) {
    throw EnumerationLimitError(
        "interaction component of size " + std::to_string(comp.size()) +
        " exceeds the observer limit " + std::to_string(limits_.max_component_size));
  }
  ComponentScan scan;
  scan.min_class_size.assign(comp.size(), std::numeric_limits<std::size_t>::max());
  scan.max_class_size.assign(comp.size(), 0);

  std::uint64_t visited = 0;
  enumerate_motion_partitions(
      state_, params_.r, comp, limits_.max_partitions_per_component, visited,
      [&](const std::vector<std::vector<DeviceId>>& classes) {
        if (!component_partition_valid(classes)) return;
        ++scan.valid_partitions;
        for (const auto& cls : classes) {
          for (const DeviceId id : cls) {
            const auto pos = static_cast<std::size_t>(
                std::lower_bound(comp.begin(), comp.end(), id) - comp.begin());
            scan.min_class_size[pos] = std::min(scan.min_class_size[pos], cls.size());
            scan.max_class_size[pos] = std::max(scan.max_class_size[pos], cls.size());
          }
        }
      });
  return scan;
}

std::vector<AnomalyPartition> PartitionEnumerator::enumerate_all() const {
  std::vector<AnomalyPartition> out;
  const DeviceSet& abnormal = state_.abnormal();
  if (abnormal.empty()) return out;
  if (abnormal.size() > limits_.max_component_size) {
    throw EnumerationLimitError("A_k too large for whole-set enumeration");
  }
  const std::vector<DeviceId> members(abnormal.begin(), abnormal.end());
  std::uint64_t visited = 0;
  enumerate_motion_partitions(
      state_, params_.r, members, limits_.max_partitions_per_component, visited,
      [&](const std::vector<std::vector<DeviceId>>& classes) {
        if (!component_partition_valid(classes)) return;
        std::vector<DeviceSet> sets;
        sets.reserve(classes.size());
        for (const auto& cls : classes) sets.emplace_back(cls);
        out.emplace_back(std::move(sets));
      });
  return out;
}

CharacterizationSets PartitionEnumerator::characterize_all() const {
  CharacterizationSets sets;
  for (const auto& comp : components()) {
    const ComponentScan scan = scan_component(comp);
    if (scan.valid_partitions == 0) {
      throw EnumerationLimitError(
          "component admits no valid anomaly partition (contradicts Lemma 2)");
    }
    for (std::size_t i = 0; i < comp.size(); ++i) {
      const bool always_dense = scan.min_class_size[i] > params_.tau;
      const bool never_dense = scan.max_class_size[i] <= params_.tau;
      if (always_dense) {
        sets.massive = sets.massive.with(comp[i]);
      } else if (never_dense) {
        sets.isolated = sets.isolated.with(comp[i]);
      } else {
        sets.unresolved = sets.unresolved.with(comp[i]);
      }
    }
  }
  return sets;
}

std::uint64_t PartitionEnumerator::count_partitions() const {
  std::uint64_t total = 1;
  for (const auto& comp : components()) {
    const ComponentScan scan = scan_component(comp);
    if (scan.valid_partitions == 0) return 0;
    if (total > std::numeric_limits<std::uint64_t>::max() / scan.valid_partitions) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    total *= scan.valid_partitions;
  }
  return total;
}

}  // namespace acn
