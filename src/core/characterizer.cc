#include "core/characterizer.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <span>

#include "common/worker_pool.hpp"
#include "core/kernels/kernels.hpp"

namespace acn {

Characterizer::Characterizer(const StatePair& state, Params params,
                             CharacterizeOptions options)
    : owned_plane_(std::in_place, state, params),
      plane_(&*owned_plane_),
      options_(options) {}

Characterizer::Characterizer(const MotionPlane& plane, CharacterizeOptions options)
    : plane_(&plane), options_(options) {}

Characterizer::FamilyVerdict Characterizer::decide_family(DeviceId j) const {
  const MotionPlane& plane = *plane_;
  const std::uint32_t ci = plane.component_of(j);
  const auto comp = plane.component_members(ci);
  const std::size_t words = plane.component_words(ci);
  const auto family = plane.dense(j);
  FamilyVerdict verdict{std::vector<std::uint64_t>(words, 0),
                        std::vector<std::uint64_t>(words, 0)};

  // Word-parallel over j's component rank space. D_k(j) is the OR of the
  // membership bitsets of j's dense motions.
  for (const MotionPlane::MotionId mid : family) {
    const auto bits = plane.motion_bits(mid);
    for (std::size_t k = 0; k < words; ++k) verdict.d[k] |= bits[k];
  }

  // J/L split: ell joins J_k(j) iff every dense motion of ell contains j,
  // i.e. iff W-bar_k(ell) is a subset of F = W-bar_k(j) — the same for every
  // member of F. One bit test: j's comp-rank in ell's family bitset (ell
  // lies in a motion of F, so it has a family).
  const std::uint32_t jcr = plane.comp_rank_of(j);
  for (std::size_t k = 0; k < words; ++k) {
    std::uint64_t w = verdict.d[k];
    while (w != 0) {
      const int bit = std::countr_zero(w);
      w &= w - 1;
      const DeviceId ell = comp[k * 64 + static_cast<std::size_t>(bit)];
      const auto inter = plane.family_bits(plane.family(ell));
      if (((inter[jcr >> 6] >> (jcr & 63)) & 1) == 0) verdict.l[k] |= 1ULL << bit;
    }
  }

  // Theorem 6 (Algorithm 3): some maximal dense motion of j intersects
  // J_k(j) in more than tau devices  =>  massive. (|M ∩ J| > tau gives the
  // dense motion M ∩ J ⊆ J_k(j) required by the theorem, and conversely any
  // dense B ⊆ J_k(j) extends to a maximal M in W-bar(j) with |M ∩ J| > tau.)
  // M lies inside D_k(j) = J ∪ L, so |M ∩ J| = popcount(M & ~L).
  const kernels::Ops& ops = kernels::dispatch();
  for (const MotionPlane::MotionId mid : family) {
    if (ops.popcount_andnot(plane.motion_bits(mid).data(), verdict.l.data(), words) >
        plane.params().tau) {
      verdict.theorem6 = true;
      break;
    }
  }
  return verdict;
}

Decision Characterizer::decide_member(DeviceId j, const FamilyVerdict& family) const {
  Decision decision;
  decision.maximal_motion_count = plane_->maximal(j).size();
  decision.dense_motion_count = plane_->dense(j).size();

  // Theorem 5: no dense motion containing j  =>  isolated.
  if (decision.dense_motion_count == 0) {
    decision.cls = AnomalyClass::kIsolated;
    decision.rule = DecisionRule::kTheorem5;
    return decision;
  }
  if (family.theorem6) {
    decision.cls = AnomalyClass::kMassive;
    decision.rule = DecisionRule::kTheorem6;
    return decision;
  }
  if (!options_.run_full_nsc) {
    decision.cls = AnomalyClass::kUnresolved;
    decision.rule = DecisionRule::kTheorem6Only;
    return decision;
  }

  // Theorem 7 / Corollary 8 (Algorithms 4/5): search for a violating
  // collection; its existence certifies "unresolved", its absence "massive".
  const NscOutcome outcome = search_violating_collection(j, family.l);
  decision.collections_tested = outcome.nodes;
  if (outcome.exhausted) {
    decision.cls = AnomalyClass::kUnresolved;  // safe side: never over-claims
    decision.rule = DecisionRule::kBudgetExhausted;
    decision.exact = false;
  } else if (outcome.violating_found) {
    decision.cls = AnomalyClass::kUnresolved;
    decision.rule = DecisionRule::kCorollary8;
  } else {
    decision.cls = AnomalyClass::kMassive;
    decision.rule = DecisionRule::kTheorem7;
  }
  return decision;
}

Decision Characterizer::characterize(DeviceId j) const {
  return decide_member(j, decide_family(j));  // the plane throws if j is not in A_k
}

namespace {

/// Word-parallel id set over the compact search universe (the members of the
/// candidate bases and of j's dense motions — everything Theorem 7 can ever
/// touch, well under a thousand ids even for massive superposed anomalies).
struct SearchBits {
  std::vector<std::uint64_t> words;

  explicit SearchBits(std::size_t bit_count) : words((bit_count + 63) / 64, 0) {}
  void set(std::size_t i) noexcept { words[i >> 6] |= 1ULL << (i & 63); }
  [[nodiscard]] bool test(std::size_t i) const noexcept {
    return (words[i >> 6] >> (i & 63)) & 1;
  }
};

/// The devices of j's component whose comp-rank bit is set in `bits`.
DeviceSet devices_of(const MotionPlane& plane, DeviceId j, std::span<const std::uint64_t> bits) {
  const auto comp = plane.component_members(plane.component_of(j));
  std::vector<DeviceId> ids;
  for (std::size_t k = 0; k < bits.size(); ++k) {
    for (std::uint64_t w = bits[k]; w != 0; w &= w - 1) {
      ids.push_back(comp[k * 64 + static_cast<std::size_t>(std::countr_zero(w))]);
    }
  }
  return DeviceSet::from_sorted(std::move(ids));  // comp-rank order is id order
}

}  // namespace

Characterizer::NscOutcome Characterizer::search_violating_collection(
    DeviceId j, std::span<const std::uint64_t> l) const {
  const MotionPlane& plane = *plane_;
  const StatePair& state = plane.state();
  const Params& params = plane.params();
  const std::size_t tau = params.tau;
  NscOutcome outcome;

  // The candidate scan below is word-parallel over j's component rank space
  // (every base and target motion lives in j's 2r-interaction component); the
  // search itself then re-ranks the support densely so per-node cost scales
  // with the support, not the component (see below).
  const std::uint32_t ci = plane.component_of(j);
  const auto comp = plane.component_members(ci);
  const std::size_t words = plane.component_words(ci);
  const std::uint32_t jcr = plane.comp_rank_of(j);
  const kernels::Ops& ops = kernels::dispatch();

  // N(j) as a bitset. Every dense motion of j lives inside N(j) (its
  // 2r-neighbourhood), so a collection element can only influence relation
  // (4) through members it shares with N(j). A base with no such member is
  // removable from any violating collection (dropping it keeps not-(4): the
  // surviving motions of j are untouched), so it is pruned — exactly.
  SearchBits nbr_bits(comp.size());
  for (const DeviceId id : plane.neighbourhood(j)) nbr_bits.set(plane.comp_rank_of(id));

  // Candidate base sets: maximal dense motions of L-neighbours avoiding j,
  // i.e. the component's dense motions that miss j and hold an L_k(j)
  // device, kept when they meet N(j). Collections are WLOG one element per
  // base: two disjoint elements carved from the same base merge into one
  // (their union is still a subset of the base — a motion — still dense,
  // still holding a far and an L device). A component's motion ids run in
  // lexicographic member order, the deterministic walk order.
  std::vector<MotionPlane::MotionId> bases;
  const auto [first, last] = plane.component_motions(ci);
  for (MotionPlane::MotionId mid = first; mid < last; ++mid) {
    const auto bits = plane.motion_bits(mid);
    if (plane.members(mid).size() <= tau || ((bits[jcr >> 6] >> (jcr & 63)) & 1) != 0) {
      continue;
    }
    bool meets_l = false;
    bool touches = false;
    for (std::size_t k = 0; k < words; ++k) {
      meets_l = meets_l || (bits[k] & l[k]) != 0;
      touches = touches || (bits[k] & nbr_bits.words[k]) != 0;
    }
    if (meets_l && touches) bases.push_back(mid);
  }

  // Compact search universe: the members of the bases and of j's dense
  // motions (j excluded — never removable), re-ranked densely so the
  // word-parallel search state is as narrow as the support, not as wide as
  // the whole component. Built by OR-ing the plane's membership bitsets and
  // walking the set bits once — comp-rank order is id order, so dense rank
  // i is the i-th support id ascending, the exact universe (and avail-list
  // order) of a sorted-merge construction, at O(1) per member.
  const std::size_t dense_count = plane.dense(j).size();
  SearchBits support(comp.size());
  for (const MotionPlane::MotionId mid : bases) {
    const auto bits = plane.motion_bits(mid);
    for (std::size_t k = 0; k < words; ++k) support.words[k] |= bits[k];
  }
  for (std::size_t i = 0; i < dense_count; ++i) {
    const auto bits = plane.motion_bits(plane.dense(j)[i]);
    for (std::size_t k = 0; k < words; ++k) support.words[k] |= bits[k];
  }
  support.words[jcr >> 6] &= ~(1ULL << (jcr & 63));
  // dense_rank[cr] is only read for support comp-ranks, so the stale slots
  // of a reused buffer never leak into a later call.
  thread_local std::vector<std::uint32_t> dense_rank;
  if (dense_rank.size() < comp.size()) dense_rank.resize(comp.size());
  std::uint32_t u = 0;
  // A set is usable in a violating collection only if it holds a device
  // farther than 2r from j (negation of relation (5)); such devices are
  // never target members (every target member shares a motion with j, hence
  // sits within 2r of it). The L flag doubles as the effect test: L_k(j) is
  // a subset of D_k(j) \ {j}, i.e. of the target union. Both are sized for
  // the component; the search reads only their first cwords words.
  SearchBits far_bits(comp.size());
  SearchBits l_bits(comp.size());
  for (std::size_t k = 0; k < words; ++k) {
    std::uint64_t w = support.words[k];
    while (w != 0) {
      const std::size_t cr = k * 64 + static_cast<std::size_t>(std::countr_zero(w));
      w &= w - 1;
      dense_rank[cr] = u;
      if (state.joint_distance(j, comp[cr]) > params.window()) far_bits.set(u);
      if ((l[cr >> 6] >> (cr & 63)) & 1) l_bits.set(u);
      ++u;
    }
  }
  const std::size_t cwords = (u + 63) / 64;

  // Re-rank the plane bitsets into the compact space. Bases avoid j, so
  // nothing to clear there; targets (j's maximal dense motions, the only
  // sets relation (4) consults) drop j's bit via the support mask above.
  // The counting identity: a dense motion containing j within A_k \ U
  // exists iff some target keeps at least tau members besides j outside U
  // (those members plus j form a motion, a subset of the target; conversely
  // a surviving dense motion extends to a maximal dense motion of j, whose
  // remainder outside U is at least as large).
  const auto compact_into = [&](MotionPlane::MotionId mid, std::uint64_t* out) {
    const auto bits = plane.motion_bits(mid);
    for (std::size_t k = 0; k < words; ++k) {
      std::uint64_t w = bits[k] & support.words[k];
      while (w != 0) {
        const std::size_t cr =
            k * 64 + static_cast<std::size_t>(std::countr_zero(w));
        w &= w - 1;
        const std::uint32_t i = dense_rank[cr];
        out[i >> 6] |= 1ULL << (i & 63);
      }
    }
  };
  std::vector<std::uint64_t> base_words(bases.size() * cwords, 0);
  std::vector<const std::uint64_t*> base_bits;
  base_bits.reserve(bases.size());
  for (std::size_t i = 0; i < bases.size(); ++i) {
    compact_into(bases[i], base_words.data() + i * cwords);
    base_bits.push_back(base_words.data() + i * cwords);
  }
  std::vector<std::uint64_t> target_words(dense_count * cwords, 0);
  for (std::size_t i = 0; i < dense_count; ++i) {
    compact_into(plane.dense(j)[i], target_words.data() + i * cwords);
  }
  const auto rel4_broken = [&](const std::uint64_t* used) {
    return ops.targets_all_below(target_words.data(), dense_count, cwords, used,
                                 tau);
  };

  // Depth-first search over base sets: at each node either skip the base or
  // carve a qualifying subset (dense, a far member, an L member) out of its
  // not-yet-used members. Subsets (not just whole sets) must be explored:
  // two overlapping bases may both contribute only if trimmed to disjoint
  // parts. Each node first applies the exact subtree bound: take every
  // member the remaining *usable* bases could still contribute — if even
  // that leaves a target with tau survivors, no extension of this node can
  // break relation (4), and the subtree is pruned. This bound is what ends
  // the search quickly on dense superposed blobs (where the seed
  // implementation burned its whole node budget) while staying exact.
  //
  // The usability scan that feeds the bound is threaded down the search:
  // `used` only grows along a descent, so a base unusable at a node (open
  // part <= tau, or no open far / L member) is unusable in the whole
  // subtree. Each node therefore scans only the rows its ancestors found
  // usable (one nsc_scan_rows kernel call), passes the survivors to its
  // children, and skips the combination enumeration outright when its own
  // base is unusable — no pick carved from it could qualify.
  //
  // All per-node state lives in per-depth scratch rows (depth == base
  // index), so the search allocates nothing past its first descent.
  const std::size_t depth_count = bases.size() + 1;
  std::vector<std::uint64_t> used_rows(depth_count * cwords, 0);
  std::vector<std::uint64_t> achievable_row(cwords);
  std::vector<std::vector<std::size_t>> avail_rows(depth_count);
  std::vector<std::vector<std::uint8_t>> flag_rows(depth_count);
  std::vector<std::vector<std::size_t>> pick_rows(depth_count);
  std::vector<std::vector<std::uint32_t>> cand_rows(depth_count + 1);
  cand_rows[0].resize(bases.size());
  std::iota(cand_rows[0].begin(), cand_rows[0].end(), 0u);

  // `used` always points at the caller's row; depth `index` owns the row it
  // writes candidate subsets into before descending, plus the survivor list
  // (cand_rows[index + 1]) its children read.
  const auto dfs = [&](auto&& self, std::size_t index, const std::uint64_t* used,
                       std::span<const std::uint32_t> rows) -> bool {
    if (outcome.exhausted) return false;
    ++outcome.nodes;
    if (outcome.nodes > options_.node_budget) {
      outcome.exhausted = true;
      return false;
    }
    // not-(4): no dense motion containing j survives outside `used` — the
    // collection built so far is violating (not-(5) held for each pick).
    if (rel4_broken(used)) return true;
    if (index == bases.size()) return false;
    // Ancestors' survivor lists may still lead with bases already passed.
    while (!rows.empty() && rows.front() < index) rows = rows.subspan(1);

    // Usability scan + exact subtree bound, one kernel call: scan every
    // candidate base's open bits, OR the usable ones into achievable_row,
    // keep their indices for the children.
    std::vector<std::uint32_t>& surv = cand_rows[index + 1];
    surv.resize(rows.size());
    std::copy(used, used + cwords, achievable_row.data());
    const std::size_t surv_n = ops.nsc_scan_rows(
        base_words.data(), rows.data(), rows.size(), cwords, used,
        far_bits.words.data(), l_bits.words.data(), tau, achievable_row.data(),
        surv.data());
    if (!rel4_broken(achievable_row.data())) return false;
    const std::span<const std::uint32_t> child(surv.data(), surv_n);

    // Branch 1: carve a qualifying subset out of this base's unused members
    // (tried before skipping: witnesses usually involve the early bases).
    // Only a usable base can yield a qualifying pick — an open part of at
    // most tau members, or one with no far or no L device, fails every
    // pick's constraints, so the enumeration is skipped exactly.
    if (surv_n == 0 || child.front() != index) {
      return self(self, index + 1, used, child);
    }
    // Walking the set bits of base & ~used in word order yields the same
    // ascending rank order the dense scan produced. Each open member's far /
    // L membership is cached as a flag byte so the combination walk below
    // can maintain its counts with two table reads per changed position.
    std::vector<std::size_t>& avail = avail_rows[index];
    std::vector<std::uint8_t>& aflags = flag_rows[index];
    avail.clear();
    aflags.clear();
    for (std::size_t k = 0; k < cwords; ++k) {
      std::uint64_t w = base_bits[index][k] & ~used[k];
      while (w != 0) {
        const std::size_t i =
            k * 64 + static_cast<std::size_t>(std::countr_zero(w));
        w &= w - 1;
        avail.push_back(i);
        aflags.push_back(static_cast<std::uint8_t>(
            (far_bits.test(i) ? 1u : 0u) | (l_bits.test(i) ? 2u : 0u)));
      }
    }
    const std::size_t m = avail.size();  // > tau: the base is usable

    std::uint64_t* next = used_rows.data() + index * cwords;
    // The candidate row and the far / L counts are maintained incrementally
    // across the lexicographic walk: a successor step only rewrites the
    // suffix of the pick that changed (usually just the last position), so
    // the per-candidate cost is O(changed positions), not O(s).
    unsigned far_cnt = 0;
    unsigned l_cnt = 0;
    const auto add_member = [&](std::size_t p) {
      const std::size_t i = avail[p];
      next[i >> 6] |= 1ULL << (i & 63);
      far_cnt += aflags[p] & 1u;
      l_cnt += aflags[p] >> 1;
    };
    const auto drop_member = [&](std::size_t p) {
      const std::size_t i = avail[p];
      next[i >> 6] &= ~(1ULL << (i & 63));
      far_cnt -= aflags[p] & 1u;
      l_cnt -= aflags[p] >> 1;
    };
    // Enumerate combinations per size, largest first (they prune relation
    // (4) fastest and any violating subset stays available at smaller
    // sizes). Each candidate combination is charged against the budget.
    for (std::size_t s = m; s > tau; --s) {
      std::vector<std::size_t>& pick = pick_rows[index];
      pick.resize(s);
      std::copy(used, used + cwords, next);
      far_cnt = 0;
      l_cnt = 0;
      for (std::size_t i = 0; i < s; ++i) {
        pick[i] = i;
        add_member(i);
      }
      for (;;) {
        ++outcome.nodes;
        if (outcome.nodes > options_.node_budget) {
          outcome.exhausted = true;
          return false;
        }
        if (far_cnt != 0 && l_cnt != 0) {
          if (self(self, index + 1, next, child.subspan(1))) return true;
          if (outcome.exhausted) return false;
        }
        // Next combination in lexicographic order.
        std::size_t i = s;
        while (i > 0 && pick[i - 1] == m - s + i - 1) --i;
        if (i == 0) break;
        for (std::size_t k = i - 1; k < s; ++k) drop_member(pick[k]);
        ++pick[i - 1];
        for (std::size_t k = i; k < s; ++k) pick[k] = pick[k - 1] + 1;
        for (std::size_t k = i - 1; k < s; ++k) add_member(pick[k]);
      }
    }
    // Branch 2: skip this base set entirely.
    return self(self, index + 1, used, child.subspan(1));
  };

  const std::vector<std::uint64_t> root(cwords, 0);
  outcome.violating_found = dfs(dfs, 0, root.data(), cand_rows[0]);
  return outcome;
}

std::vector<Decision> Characterizer::decide(WorkerPool* pool,
                                            std::vector<double>* lane_ms) const {
  const MotionPlane& plane = *plane_;
  const DeviceSet& abnormal = plane.state().abnormal();
  const std::size_t m = abnormal.size();
  std::vector<Decision> decisions(m);

  // A_k slots grouped by dense family, by a counting sort: counts land two
  // places up, so after the prefix sum begin[f + 1] is family f's start, and
  // placing f's members advances it to f + 1's. Theorem 5 needs no family.
  const std::size_t families = plane.family_count();
  std::vector<std::uint32_t> begin(families + 2, 0);
  for (std::size_t i = 0; i < m; ++i) {
    const MotionPlane::FamilyId f = plane.family(abnormal[i]);
    if (f == MotionPlane::kNoFamily) {
      decisions[i] = decide_member(abnormal[i], {});
    } else {
      ++begin[f + 2];
    }
  }
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  std::vector<std::uint32_t> slots(begin[families + 1]);
  for (std::size_t i = 0; i < m; ++i) {
    const MotionPlane::FamilyId f = plane.family(abnormal[i]);
    if (f != MotionPlane::kNoFamily) slots[begin[f + 1]++] = static_cast<std::uint32_t>(i);
  }

  // Costliest family first (classic LPT against skew): the shared cursor
  // hands out indices in order, so one monster family (many members x big
  // dense family x big component — the component bounds N(j), the NSC
  // search's input) drawn late would serialize the tail behind one lane.
  std::vector<std::uint64_t> cost(families);
  for (std::size_t f = 0; f < families; ++f) {
    const DeviceId first = abnormal[slots[begin[f]]];
    cost[f] = (begin[f + 1] - begin[f]) * (1 + plane.dense(first).size()) *
              (1 + plane.component_members(plane.component_of(first)).size());
  }
  std::vector<std::uint32_t> order(families);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return cost[a] > cost[b]; });

  const auto decide_family_at = [&](std::size_t i) {
    const std::uint32_t f = order[i];
    const FamilyVerdict verdict = decide_family(abnormal[slots[begin[f]]]);
    for (std::uint32_t s = begin[f]; s < begin[f + 1]; ++s) {
      decisions[slots[s]] = decide_member(abnormal[slots[s]], verdict);
    }
  };
  if (pool != nullptr) {
    // Inline below parallel_grain devices (for_each: count < min_fanout).
    pool->for_each(families, m >= options_.parallel_grain ? 1 : families + 1,
                   decide_family_at, lane_ms);
  } else {
    for (std::size_t i = 0; i < families; ++i) decide_family_at(i);
  }
  return decisions;
}

CharacterizationSets Characterizer::characterize_all() const {
  return bucket(plane_->state().abnormal(), decide());
}

CharacterizationSets bucket(const DeviceSet& abnormal,
                            std::span<const Decision> decisions) {
  std::vector<DeviceId> isolated;
  std::vector<DeviceId> massive;
  std::vector<DeviceId> unresolved;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    switch (decisions[i].cls) {
      case AnomalyClass::kIsolated: isolated.push_back(abnormal[i]); break;
      case AnomalyClass::kMassive: massive.push_back(abnormal[i]); break;
      case AnomalyClass::kUnresolved: unresolved.push_back(abnormal[i]); break;
    }
  }
  CharacterizationSets sets;
  sets.isolated = DeviceSet::from_sorted(std::move(isolated));
  sets.massive = DeviceSet::from_sorted(std::move(massive));
  sets.unresolved = DeviceSet::from_sorted(std::move(unresolved));
  return sets;
}

DeviceSet Characterizer::neighbourhood_d(DeviceId j) const {
  return devices_of(*plane_, j, decide_family(j).d);
}

DeviceSet Characterizer::neighbourhood_j(DeviceId j) const {
  const FamilyVerdict family = decide_family(j);
  return devices_of(*plane_, j, family.d).set_difference(devices_of(*plane_, j, family.l));
}

DeviceSet Characterizer::neighbourhood_l(DeviceId j) const {
  return devices_of(*plane_, j, decide_family(j).l);
}

}  // namespace acn
