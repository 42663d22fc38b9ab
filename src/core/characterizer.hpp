// Local characterization of anomalies — the paper's primary contribution.
//
// Implements Algorithm 3 (characterize) and Algorithms 4/5 (full NSC):
//   * Theorem 5  — j in I_k  <=>  W-bar_k(j) is empty;
//   * Theorem 6  — sufficient condition for j in M_k: some maximal dense
//     motion of j intersects J_k(j) in more than tau devices;
//   * Theorem 7  — NSC for j in M_k: no collection C of pairwise disjoint
//     dense motions of L_k(j)-neighbours (avoiding j) simultaneously breaks
//     relation (4) (some dense motion of j survives outside the union of C)
//     and relation (5) (some member of C is consistent with j);
//   * Corollary 8 — j in U_k <=> such a *violating* collection exists.
//
// Everything is computed from trajectories within 4r of j (neighbourhoods
// of neighbours), matching the locality claim at the end of §V.
//
// All motion families are read from a snapshot-level MotionPlane built once
// per (state, params). Theorems 5 and 6 read j only through its dense
// family F = W-bar_k(j) (D_k(j) = union of F; ell is in J_k(j) iff
// W-bar_k(ell) is a subset of F), so they run once per family, and decide()
// fans the families out over a WorkerPool (disjoint result slots,
// byte-identical to the serial walk). Only the Theorem-7 search reads j.
//
// The Theorem 7 search: a violating collection only ever contains sets B
// with (a) |B| > tau, (b) B a subset of some maximal dense motion M of an
// L_k(j)-neighbour with j not in M (any dense motion extends to a maximal
// one, which cannot contain j because B holds a point farther than 2r from
// j — see (c)), (c) at least one member farther than 2r from j in the joint
// space (otherwise B + {j} is a motion and relation (5) holds), and (d) at
// least one member of L_k(j) (Theorem 7 draws candidate sets from W_k(ell),
// ell in L_k(j), whose members contain ell) — and collections are WLOG one
// element per base, since disjoint elements of the same base merge. The
// search walks the maximal candidate sets (word-parallel bitsets over the
// compact member universe), at each step either skipping one or carving a
// qualifying subset out of its not-yet-used members, testing
// not-relation-(4) by counting survivors of j's precomputed dense family.
// Every node applies an exact subtree bound — if even removing every member
// the remaining *usable* bases offer leaves some dense motion of j with tau
// survivors, the subtree is fruitless — which is what ends the search on
// the dense superposed blobs where blind enumeration drowned. Subsets (not
// just whole sets) must be explored: two overlapping maximal motions may
// both contribute only if trimmed to disjoint parts. A node budget bounds
// the worst case; hitting it is reported, never silent.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/device_set.hpp"
#include "core/motion_plane.hpp"
#include "core/params.hpp"
#include "core/partition_enumerator.hpp"
#include "core/state.hpp"

namespace acn {

class WorkerPool;

/// Which condition produced the decision (Table III buckets by this).
enum class DecisionRule : std::uint8_t {
  kTheorem5,         ///< isolated: no dense motion at all
  kTheorem6,         ///< massive via the cheap sufficient condition
  kTheorem7,         ///< massive via the full NSC (search exhausted, no witness)
  kCorollary8,       ///< unresolved: a violating collection was found
  kTheorem6Only,     ///< unresolved *by Algorithm 3* (full NSC not requested)
  kBudgetExhausted,  ///< search budget hit; reported as unresolved (safe side)
};

[[nodiscard]] constexpr const char* to_string(DecisionRule rule) noexcept {
  switch (rule) {
    case DecisionRule::kTheorem5: return "Theorem5";
    case DecisionRule::kTheorem6: return "Theorem6";
    case DecisionRule::kTheorem7: return "Theorem7";
    case DecisionRule::kCorollary8: return "Corollary8";
    case DecisionRule::kTheorem6Only: return "Theorem6Only";
    case DecisionRule::kBudgetExhausted: return "BudgetExhausted";
  }
  return "?";
}

struct CharacterizeOptions {
  /// Run Algorithms 4/5 (Theorem 7 NSC) when Algorithm 3 says "unresolved".
  bool run_full_nsc = true;
  /// Upper bound on Theorem-7 search nodes per device. A node is one DFS
  /// entry or candidate combination, and every DFS entry now applies an
  /// exact achievability bound over the usable remaining bases — one node
  /// prunes what used to take thousands of blind combination nodes, so the
  /// budget is calibrated far lower than the seed's 4M. Every resolvable
  /// configuration observed across the paper-scale and n=20000 superposed
  /// workloads finishes within ~60k nodes; the budget leaves 4x headroom.
  std::uint64_t node_budget = 262'144;
  /// |A_k| below which decide(pool) runs the inline serial loop instead of
  /// engaging the pool (the recorded bench showed the thread machinery
  /// costing more than it saved on every n=1000/5000 cell). Tests pin the
  /// pooled path by setting this to 1.
  std::size_t parallel_grain = 256;
};

/// Outcome of characterizing one device, with the work accounting the
/// evaluation section reports (Table III).
struct Decision {
  AnomalyClass cls = AnomalyClass::kUnresolved;
  DecisionRule rule = DecisionRule::kTheorem5;
  bool exact = true;  ///< false only when the node budget was exhausted

  std::size_t maximal_motion_count = 0;     ///< |M(j)|   (cost metric, I_k)
  std::size_t dense_motion_count = 0;       ///< |W-bar(j)| (cost metric, M_k/Thm6)
  std::uint64_t collections_tested = 0;     ///< Theorem-7 search nodes
};

class Characterizer {
 public:
  /// Builds a private MotionPlane for `state`, which must outlive the
  /// characterizer.
  explicit Characterizer(const StatePair& state, Params params,
                         CharacterizeOptions options = {});

  /// Reads an externally owned plane (must outlive the characterizer);
  /// nothing is recomputed. Lets one plane serve several consumers of the
  /// same snapshot.
  explicit Characterizer(const MotionPlane& plane, CharacterizeOptions options = {});

  // Non-copyable/movable: plane_ may point into owned_plane_.
  Characterizer(const Characterizer&) = delete;
  Characterizer& operator=(const Characterizer&) = delete;

  /// Characterizes one abnormal device (throws if j is not in A_k). A pure
  /// read of the plane: any number of threads may call it concurrently.
  [[nodiscard]] Decision characterize(DeviceId j) const;

  /// Decisions for every device of A_k, in A_k (ascending id) order — the
  /// one batch entry point, deciding Theorems 5 and 6 once per dense family.
  /// Without a pool, a serial loop. With one, the families fan out over its
  /// lanes, costliest first (members x dense-family size x component size)
  /// so one expensive family drawn late cannot serialize the tail; below
  /// options.parallel_grain devices the pool runs the loop inline. Each
  /// family writes only its members' slots, so the result is byte-identical
  /// for any pool and schedule. `lane_ms`, when given with a pool, receives
  /// per-lane busy times (see WorkerPool::for_each).
  [[nodiscard]] std::vector<Decision> decide(WorkerPool* pool = nullptr,
                                             std::vector<double>* lane_ms = nullptr) const;

  /// bucket(A_k, decide()).
  [[nodiscard]] CharacterizationSets characterize_all() const;

  /// D_k(j): union of the maximal dense motions containing j.
  [[nodiscard]] DeviceSet neighbourhood_d(DeviceId j) const;
  /// J_k(j): members of D_k(j) whose every maximal dense motion contains j.
  [[nodiscard]] DeviceSet neighbourhood_j(DeviceId j) const;
  /// L_k(j): members of D_k(j) with a maximal dense motion avoiding j.
  [[nodiscard]] DeviceSet neighbourhood_l(DeviceId j) const;

  [[nodiscard]] const MotionPlane& plane() const noexcept { return *plane_; }
  [[nodiscard]] const Params& params() const noexcept { return plane_->params(); }

 private:
  /// What every member of one dense family shares: D_k(j) and L_k(j) over
  /// the component's comp-ranks (J_k(j) = D \ L), and Theorem 6's outcome.
  struct FamilyVerdict {
    std::vector<std::uint64_t> d;
    std::vector<std::uint64_t> l;
    bool theorem6 = false;
  };
  /// The verdict of j's dense family; every member gives the same one.
  [[nodiscard]] FamilyVerdict decide_family(DeviceId j) const;
  /// j's decision from its family's verdict (Theorem 7 where 6 fails).
  [[nodiscard]] Decision decide_member(DeviceId j, const FamilyVerdict& family) const;

  struct NscOutcome {
    bool violating_found = false;
    bool exhausted = false;
    std::uint64_t nodes = 0;
  };
  /// Plane-const and self-contained (the search carries its own bitset
  /// state), so any number of pool lanes may run it concurrently.
  /// `l` is L_k(j) over j's component comp-ranks.
  [[nodiscard]] NscOutcome search_violating_collection(
      DeviceId j, std::span<const std::uint64_t> l) const;

  std::optional<MotionPlane> owned_plane_;  ///< engaged by the state ctor
  const MotionPlane* plane_;
  CharacterizeOptions options_;
};

/// Buckets `decisions` (one per device of `abnormal`, ascending id order,
/// as decide() returns them) into M_k / I_k / U_k.
[[nodiscard]] CharacterizationSets bucket(const DeviceSet& abnormal,
                                          std::span<const Decision> decisions);

}  // namespace acn
