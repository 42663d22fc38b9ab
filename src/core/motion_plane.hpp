// MotionPlane: the snapshot-level motion precomputation.
//
// The paper's scalability argument (§VIII) is that per-device work tracks
// the dimensioned neighbourhood size, not n — every Theorem 5/6/7 decision
// reads only motion families of devices within 4r of the device deciding.
// The seed implementation re-derived those overlapping families per device
// (its D/J/L split re-filtered every neighbour's dense family on every
// call), so a massive anomaly of size m paid O(m^2) family filters per
// snapshot. The plane inverts that: one pass per snapshot computes the
// 2r-interaction components of A_k and, for every abnormal device, its
// maximal-motion family (Algorithm 2) and its tau-dense family (W-bar_k),
// after which every decision is a read-only lookup — and the decisions can
// run in parallel across dense families (Characterizer::decide over a
// WorkerPool). Neighbourhoods are not stored: every 2r-neighbour of j lies
// in j's component, so N(j) is a scan of that component on request.
//
// Storage is flat throughout:
//   * components are sorted runs of one DeviceId array, indexed by offset;
//   * motions live in an arena-style store — each distinct motion is an
//     (offset, length) run of sorted DeviceIds in one contiguous buffer,
//     stored exactly once and shared by every member's family (the common
//     case inside a blob: all members of a dense cluster see the same
//     maximal motions). One search per interaction component emits each
//     maximal motion once, so no dedup pass is needed;
//   * maximal families are per-device slices of one MotionId array; each
//     distinct dense family is one MotionId run and one bitset, per device
//     a family id.
//
// Maximal motions are maximal cliques. Under the Chebyshev norm a set's
// joint bounding box fits the 2r window iff every pair of its members is
// within 2r, so the r-consistent motions of a pool are the cliques of its
// joint 2r-graph (edge: joint_distance(a, b) <= 2r), and Algorithm 2's
// maximal motions are its maximal cliques. One search enumerates them:
// Bron–Kerbosch with Tomita pivoting over adjacency bitsets, with the
// tight-cluster cut (a set whose box fits the window is one clique) per
// component and per search node.
//
// The plane is the one query surface over motion families. The two
// queries over an arbitrary pool — the maximal motions (the plane's
// per-component search, also Algorithm 1's extraction step) and the
// early-exit dense-motion check (the partition checker's condition C1) —
// run the same search and live here as free functions.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/device_set.hpp"
#include "core/grid_index.hpp"
#include "core/params.hpp"
#include "core/state.hpp"

namespace acn {

class WorkerPool;

/// Thrown when a plane build's arena allocations (component lists,
/// adjacency bitsets, emitted cliques, interned motions, membership bitsets) would exceed the
/// configured byte budget. An adversarial placement at large n can make the
/// motion-family arenas combinatorially large; this turns what would be an
/// effectively unrecoverable std::bad_alloc (or an OOM kill) into a clean
/// per-interval error the engine surfaces as a verdict-safe failure — the
/// engine state itself is untouched, the next interval builds a new plane.
class ArenaBudgetExceeded : public std::runtime_error {
 public:
  ArenaBudgetExceeded(std::uint64_t attempted, std::uint64_t limit)
      : std::runtime_error(
            "MotionPlane: arena budget exceeded (" + std::to_string(attempted) +
            " bytes needed, limit " + std::to_string(limit) + ")"),
        attempted_(attempted),
        limit_(limit) {}
  [[nodiscard]] std::uint64_t attempted_bytes() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t limit_bytes() const noexcept { return limit_; }

 private:
  std::uint64_t attempted_;
  std::uint64_t limit_;
};

/// Byte meter shared by every arena of one plane build. limit == 0 means
/// unlimited. charge() is relaxed-atomic: worker lanes charge concurrently,
/// and the test only needs to trip NEAR the limit, not at an exact byte.
struct ArenaBudget {
  std::atomic<std::uint64_t> used{0};
  std::uint64_t limit = 0;

  void charge(std::uint64_t bytes) {
    const std::uint64_t total =
        used.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (limit != 0 && total > limit) throw ArenaBudgetExceeded(total, limit);
  }
};

/// Work counters; the evaluation (Table III) reports operation counts.
/// Filled by the plane build (and by maximal_motions when given). The
/// window/cover names predate the clique search; the end-to-end benchmark
/// prints them under these names.
struct OracleCounters {
  /// Per-device grid lookups. The plane computes its components from the
  /// grid's cells and issues none, so this reads 0; it stays because the
  /// end-to-end benchmark reports it.
  std::uint64_t neighbourhood_queries = 0;
  /// Bron–Kerbosch search nodes. A tight component, or a pool that fits
  /// one window, counts one node and runs no search.
  std::uint64_t windows_explored = 0;
  /// Maximal cliques emitted: one per maximal motion, so the plane's count
  /// equals motions_stored, and covers per motion reads 1.
  std::uint64_t covers_generated = 0;
  std::uint64_t enumeration_calls = 0;      ///< components, tight ones included
  std::uint64_t motions_stored = 0;         ///< distinct motions in the arena
  std::uint64_t motions_shared = 0;  ///< family references beyond the first
                                     ///< to an interned motion (arena reuse)
};

/// Per-lane busy times of the plane build's fan-out (the engine's lane-skew
/// instrumentation; see WorkerPool::for_each on lane_ms), summed over its
/// two sections (adjacency per component, then the clique search). Empty
/// when the build ran serially.
struct PlaneBuildLanes {
  std::vector<double> enumerate_lane_ms;
};

/// Algorithm 2's core: all inclusion-maximal r-consistent motions within
/// `pool` — the maximal cliques of its 2r-graph; when `anchor` is set, only
/// those containing the anchor (R = {anchor}, P = pool ∩ N(anchor)). The
/// anchor counts as a pool member. Sorted order. The Algorithm 1 builders'
/// extraction step.
[[nodiscard]] std::vector<DeviceSet> maximal_motions(
    const StatePair& state, const Params& params, std::vector<DeviceId> pool,
    std::optional<DeviceId> anchor, OracleCounters* counters = nullptr);

/// True iff `pool` holds a tau-dense motion: the same clique search, pruned
/// where |R| + |P| <= tau and stopped at the first clique of more than tau
/// members. The partition validity checker's condition C1.
[[nodiscard]] bool has_dense_motion(const StatePair& state, const Params& params,
                                    std::span<const DeviceId> pool);

class MotionPlane {
 public:
  /// Index of an interned motion within the plane's store.
  using MotionId = std::uint32_t;
  /// Index of an interned dense family; kNoFamily marks an empty one.
  using FamilyId = std::uint32_t;
  static constexpr FamilyId kNoFamily = 0xFFFFFFFFu;

  /// Builds the whole plane for state.abnormal() eagerly, serially, over
  /// index_for(state, params). `state` must outlive the plane. This is the
  /// from-scratch reference path; it delegates to the ctor below.
  MotionPlane(const StatePair& state, Params params);

  /// Builds the plane over `grid`, which must index exactly state.abnormal()
  /// of `state` as index_for does — the streaming engine builds that index
  /// per interval (timing it apart) and moves it in. The components come
  /// from one serial union-find over the grid's cells. A tight component
  /// is its own only motion; the others' clique searches fan out over
  /// `pool` when given: first the adjacency per component, then the outer
  /// Bron–Kerbosch loop as tasks over ranges of each component's degeneracy
  /// order, both costliest first, `component_fanout` being the task count
  /// below which a section runs inline. Each component's cliques are sorted
  /// by members before interning, so families, interned ids, counters and
  /// arena_bytes() are byte-identical for any pool size.
  /// `state` must outlive the plane; `lanes`, when given, receives per-lane
  /// busy times of the fan-out. `arena_budget_bytes` caps the total bytes
  /// the build may park in its arenas (0 = unlimited); exceeding it throws
  /// ArenaBudgetExceeded with the plane half-built but the engine state
  /// untouched.
  MotionPlane(const StatePair& state, Params params, GridIndex grid,
              WorkerPool* pool = nullptr, std::size_t component_fanout = 2,
              PlaneBuildLanes* lanes = nullptr, std::uint64_t arena_budget_bytes = 0);

  /// The A_k index a plane is built over: state.abnormal() at cell side
  /// max(2r, kMinGridCell). Validates `params` first, so an out-of-domain
  /// radius (NaN included) throws before any cell coordinate is computed.
  [[nodiscard]] static GridIndex index_for(const StatePair& state, const Params& params);

  [[nodiscard]] const StatePair& state() const noexcept { return state_; }
  [[nodiscard]] const Params& params() const noexcept { return params_; }

  /// |A_k|: number of devices the plane covers.
  [[nodiscard]] std::size_t device_count() const noexcept { return ids_.size(); }
  /// True iff j is abnormal (covered by the plane).
  [[nodiscard]] bool covers(DeviceId j) const noexcept;

  /// N(j): abnormal devices within 2r of j, j included. Sorted. Computed on
  /// request by one scan of j's component, which holds every 2r-neighbour
  /// of j. Requires covers(j) (throws std::invalid_argument otherwise).
  [[nodiscard]] std::vector<DeviceId> neighbourhood(DeviceId j) const;
  /// M(j): ids of all maximal motions containing j, in deterministic
  /// (lexicographic by members) order. Requires covers(j).
  [[nodiscard]] std::span<const MotionId> maximal(DeviceId j) const;
  /// W-bar_k(j): ids of the tau-dense members of M(j), same order — the run
  /// of j's dense family. Requires covers(j).
  [[nodiscard]] std::span<const MotionId> dense(DeviceId j) const;
  /// Id of j's dense family (kNoFamily when W-bar_k(j) is empty); devices
  /// share an id iff their dense() runs are equal. Requires covers(j).
  [[nodiscard]] FamilyId family(DeviceId j) const { return family_of_[rank_of(j)]; }
  /// Number of distinct non-empty dense families.
  [[nodiscard]] std::size_t family_count() const noexcept {
    return family_offsets_.size() - 1;
  }

  /// Members of one interned motion (sorted run in the arena).
  [[nodiscard]] std::span<const DeviceId> members(MotionId m) const noexcept {
    return {motion_arena_.data() + motion_offsets_[m],
            motion_offsets_[m + 1] - motion_offsets_[m]};
  }

  /// Number of distinct motions in the arena (after interning).
  [[nodiscard]] std::size_t motion_count() const noexcept {
    return motion_offsets_.size() - 1;
  }
  [[nodiscard]] const OracleCounters& counters() const noexcept { return counters_; }

  // ----- Component-indexed views (the characterizer's bitsliced fast path).
  // Every motion lives inside one interaction component; within a component
  // the sorted member list defines a dense rank space ("comp-ranks") small
  // enough that motion membership is one bitset word-run. Theorem 6/7
  // decisions then become AND + popcount instead of sorted-run merges.

  /// Number of 2r-interaction components.
  [[nodiscard]] std::size_t component_count() const noexcept {
    return comp_member_offsets_.size() - 1;
  }
  /// Component index of abnormal device j. Requires covers(j).
  [[nodiscard]] std::uint32_t component_of(DeviceId j) const {
    return comp_of_[rank_of(j)];
  }
  /// Sorted (ascending) members of component c — the comp-rank universe:
  /// member i has comp-rank i.
  [[nodiscard]] std::span<const DeviceId> component_members(std::uint32_t c) const noexcept {
    return {comp_members_.data() + comp_member_offsets_[c],
            comp_member_offsets_[c + 1] - comp_member_offsets_[c]};
  }
  /// Ids [first, last) of component c's motions: one contiguous run, in
  /// lexicographic (by members) order.
  [[nodiscard]] std::pair<MotionId, MotionId> component_motions(std::uint32_t c) const;
  /// Rank of j within its component's sorted member list.
  [[nodiscard]] std::uint32_t comp_rank_of(DeviceId j) const {
    return comp_rank_of_[rank_of(j)];
  }
  /// Words per comp-rank bitset of component c.
  [[nodiscard]] std::size_t component_words(std::uint32_t c) const noexcept {
    return (component_members(c).size() + 63) / 64;
  }
  /// Membership bitset of motion m over its component's comp-ranks.
  [[nodiscard]] std::span<const std::uint64_t> motion_bits(MotionId m) const noexcept {
    return {motion_bits_.data() + motion_bits_offsets_[m],
            motion_bits_offsets_[m + 1] - motion_bits_offsets_[m]};
  }
  /// AND of the motion_bits of family f's motions: for a device ell of
  /// family f, j's bit is set iff every dense motion of ell contains j.
  [[nodiscard]] std::span<const std::uint64_t> family_bits(FamilyId f) const noexcept {
    return {family_bits_.data() + family_bits_offsets_[f],
            family_bits_offsets_[f + 1] - family_bits_offsets_[f]};
  }

  /// Bytes the build charged to its arenas (the budget meter's reading),
  /// the adjacency bitsets of the searches included.
  [[nodiscard]] std::uint64_t arena_bytes() const noexcept {
    return budget_.used.load(std::memory_order_relaxed);
  }

 private:
  /// The build proper (components, clique search, the merge, the bitsets).
  void build(WorkerPool* pool, std::size_t component_fanout, PlaneBuildLanes* lanes);
  /// Rank of j within the sorted A_k ids; throws if not abnormal.
  [[nodiscard]] std::size_t rank_of(DeviceId j) const;

  const StatePair& state_;
  Params params_;
  GridIndex grid_;             ///< A_k index (its cells feed the components)
  std::vector<DeviceId> ids_;  ///< A_k, sorted

  // Per-device maximal families (device_count() + 1 offsets).
  std::vector<std::uint32_t> maximal_offsets_;
  std::vector<MotionId> maximal_ids_;

  // Interned dense families (family_count() + 1 offsets each).
  std::vector<FamilyId> family_of_;  ///< per rank
  std::vector<std::uint32_t> family_offsets_{0};
  std::vector<MotionId> family_motions_;
  std::vector<std::uint32_t> family_bits_offsets_{0};  ///< word offsets
  std::vector<std::uint64_t> family_bits_;

  // The interned motion store.
  std::vector<std::uint32_t> motion_offsets_;  ///< motion_count() + 1 entries
  std::vector<DeviceId> motion_arena_;

  // Dense id -> A_k-rank lookup (kNoRank for non-abnormal), sized one past
  // the largest abnormal id: rank_of/covers in O(1) instead of a binary
  // search — the single hottest call of the characterize phase before this.
  static constexpr std::uint32_t kNoRank = 0xFFFFFFFFu;
  std::vector<std::uint32_t> rank_lookup_;

  // Component-indexed arenas (see the accessor block above).
  std::vector<std::uint32_t> comp_of_;        ///< per rank: component index
  std::vector<std::uint32_t> comp_rank_of_;   ///< per rank: rank within comp
  std::vector<std::uint32_t> comp_member_offsets_;  ///< comp_count + 1
  std::vector<DeviceId> comp_members_;        ///< sorted members, flattened
  std::vector<std::uint32_t> motion_component_;     ///< per motion
  std::vector<std::uint32_t> motion_bits_offsets_;  ///< word offsets, count+1
  std::vector<std::uint64_t> motion_bits_;

  mutable ArenaBudget budget_;
  OracleCounters counters_;
};

}  // namespace acn
