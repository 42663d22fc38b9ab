#include "core/partition.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "core/motion.hpp"
#include "core/motion_plane.hpp"

namespace acn {

AnomalyPartition::AnomalyPartition(std::vector<DeviceSet> classes)
    : classes_(std::move(classes)) {
  DeviceSet seen;
  for (const DeviceSet& cls : classes_) {
    if (cls.empty()) {
      throw std::invalid_argument("AnomalyPartition: empty class");
    }
    if (!seen.is_disjoint_from(cls)) {
      throw std::invalid_argument("AnomalyPartition: overlapping classes");
    }
    seen = seen.set_union(cls);
  }
}

const DeviceSet& AnomalyPartition::class_of(DeviceId j) const {
  for (const DeviceSet& cls : classes_) {
    if (cls.contains(j)) return cls;
  }
  throw std::out_of_range("AnomalyPartition::class_of: device " + std::to_string(j) +
                          " not covered");
}

bool AnomalyPartition::covers(DeviceId j) const noexcept {
  for (const DeviceSet& cls : classes_) {
    if (cls.contains(j)) return true;
  }
  return false;
}

DeviceSet AnomalyPartition::support() const {
  DeviceSet all;
  for (const DeviceSet& cls : classes_) all = all.set_union(cls);
  return all;
}

DeviceSet AnomalyPartition::massive_devices(std::uint32_t tau) const {
  DeviceSet out;
  for (const DeviceSet& cls : classes_) {
    if (is_dense(cls, tau)) out = out.set_union(cls);
  }
  return out;
}

DeviceSet AnomalyPartition::isolated_devices(std::uint32_t tau) const {
  DeviceSet out;
  for (const DeviceSet& cls : classes_) {
    if (!is_dense(cls, tau)) out = out.set_union(cls);
  }
  return out;
}

std::string AnomalyPartition::to_string() const {
  std::string s = "{";
  for (std::size_t i = 0; i < classes_.size(); ++i) {
    if (i > 0) s += ", ";
    s += classes_[i].to_string();
  }
  s += "}";
  return s;
}

bool is_valid_anomaly_partition(const StatePair& state, Params params,
                                const AnomalyPartition& partition, std::string* why) {
  const auto fail = [&](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return false;
  };

  if (partition.support() != state.abnormal()) {
    return fail("classes do not cover A_k exactly");
  }
  for (const DeviceSet& cls : partition.classes()) {
    if (!has_consistent_motion(state, cls, params.r)) {
      return fail("class " + cls.to_string() + " is not an r-consistent motion");
    }
  }

  // Union of sparse classes and the list of dense classes.
  DeviceSet sparse_union;
  std::vector<const DeviceSet*> dense_classes;
  for (const DeviceSet& cls : partition.classes()) {
    if (is_dense(cls, params.tau)) {
      dense_classes.push_back(&cls);
    } else {
      sparse_union = sparse_union.set_union(cls);
    }
  }

  // C1 <=> every maximal motion inside the sparse union has <= tau members.
  // (Any dense motion B inside the sparse union extends to a maximal motion
  // of the sparse-union pool that is itself dense; conversely a dense maximal
  // motion is a dense subset.)
  if (!sparse_union.empty()) {
    // Pure pool enumeration — no plane build, the pool is the input.
    std::vector<DeviceId> pool(sparse_union.begin(), sparse_union.end());
    for (const DeviceSet& motion :
         maximal_motions(state, params, std::move(pool), std::nullopt)) {
      if (is_dense(motion, params.tau)) {
        return fail("C1 violated: dense motion " + motion.to_string() +
                    " inside the sparse union");
      }
    }
  }

  // C2 <=> no single sparse-union device can join a dense class. (If some
  // B merges with B_i, any single ell in B yields B_i + {ell} subset of
  // B_i + B, still an r-consistent motion; singletons are subsets too.)
  for (const DeviceSet* dense : dense_classes) {
    for (const DeviceId ell : sparse_union) {
      if (motion_with_extra(state, *dense, ell, params.r)) {
        return fail("C2 violated: device " + std::to_string(ell) +
                    " can join dense class " + dense->to_string());
      }
    }
  }
  return true;
}

namespace {

/// One greedy pass; `dense_first` extracts a largest maximal motion of the
/// remaining pool (paper's angelic choice), otherwise a uniformly random
/// maximal motion containing a uniformly random device (faithful reading).
AnomalyPartition greedy_pass(const StatePair& state, const Params& params, Rng& rng,
                             bool dense_first) {
  const DeviceSet& abnormal = state.abnormal();
  std::vector<DeviceId> pool(abnormal.begin(), abnormal.end());
  std::vector<DeviceSet> classes;

  while (!pool.empty()) {
    DeviceSet chosen;
    if (dense_first) {
      // Extract a maximum-cardinality maximal motion of the remaining pool;
      // ties broken uniformly at random.
      std::vector<DeviceSet> all = maximal_motions(state, params, pool, std::nullopt);
      std::size_t best = 0;
      for (const DeviceSet& motion : all) best = std::max(best, motion.size());
      std::vector<const DeviceSet*> best_sets;
      for (const DeviceSet& motion : all) {
        if (motion.size() == best) best_sets.push_back(&motion);
      }
      chosen = *best_sets[rng.uniform_int(best_sets.size())];
    } else {
      const DeviceId j = pool[rng.uniform_int(pool.size())];
      std::vector<DeviceSet> motions = maximal_motions(state, params, pool, j);
      chosen = motions[rng.uniform_int(motions.size())];
    }
    classes.push_back(chosen);
    std::erase_if(pool, [&](DeviceId id) { return chosen.contains(id); });
  }
  return AnomalyPartition(std::move(classes));
}

}  // namespace

AnomalyPartition build_greedy_partition(const StatePair& state, Params params, Rng& rng) {
  params.validate();
  return greedy_pass(state, params, rng, /*dense_first=*/false);
}

AnomalyPartition build_anomaly_partition(const StatePair& state, Params params, Rng& rng,
                                         int max_attempts) {
  params.validate();
  std::string why;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    // Dense-first is the reliable strategy; interleave faithful-random passes
    // to keep the sampled partition distribution broad.
    const bool dense_first = attempt % 2 == 0;
    AnomalyPartition partition = greedy_pass(state, params, rng, dense_first);
    if (is_valid_anomaly_partition(state, params, partition, &why)) {
      return partition;
    }
  }
  throw std::runtime_error("build_anomaly_partition: no valid partition after " +
                           std::to_string(max_attempts) + " attempts; last: " + why);
}

}  // namespace acn
