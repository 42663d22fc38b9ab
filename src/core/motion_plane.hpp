// MotionPlane: the snapshot-level motion precomputation.
//
// The paper's scalability argument (§VIII) is that per-device work tracks
// the dimensioned neighbourhood size, not n — every Theorem 5/6/7 decision
// reads only motion families of devices within 4r of the device deciding.
// The seed implementation re-derived those overlapping families per device
// (split_neighbourhood re-filtered every neighbour's dense family on every
// call), so a massive anomaly of size m paid O(m^2) family filters per
// snapshot. The plane inverts that: one pass per snapshot computes the
// 2r-interaction components of A_k and, for every abnormal device, its
// maximal-motion family (Algorithm 2) and its tau-dense family (W-bar_k),
// after which each per-device decision is a read-only lookup — and the
// decisions can run in parallel across A_k (Characterizer::decide over a
// WorkerPool). Neighbourhoods are not stored: every 2r-neighbour of j lies
// in j's component, so N(j) is a scan of that component on request.
//
// Storage is flat throughout:
//   * components are sorted runs of one DeviceId array, indexed by offset;
//   * motions live in an arena-style store — each distinct motion is an
//     (offset, length) run of sorted DeviceIds in one contiguous buffer,
//     stored exactly once and shared by every member's family (the common
//     case inside a blob: all members of a dense cluster see the same
//     maximal motions). One enumeration per interaction component makes
//     the runs distinct by construction, so no dedup pass is needed;
//   * per-device families are (offset, length) slices of MotionId arrays.
//
// The plane is the one query surface over motion families. The two
// queries over an arbitrary pool — the canonical-window enumeration the
// plane build runs per component (also Algorithm 1's extraction step) and
// its early-exit dense-cover variant (the partition checker's condition
// C1) — live here as free functions.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/device_set.hpp"
#include "core/grid_index.hpp"
#include "core/params.hpp"
#include "core/state.hpp"

namespace acn {

class WorkerPool;

/// Thrown when a plane build's arena allocations (component lists, window
/// covers, interned motions, membership bitsets) would exceed the
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
/// Filled by the plane build (and by enumerate_maximal_windows when given).
struct OracleCounters {
  /// Per-device grid lookups. The plane computes its components from the
  /// grid's cells and issues none, so this reads 0; it stays because the
  /// end-to-end benchmark reports it.
  std::uint64_t neighbourhood_queries = 0;
  std::uint64_t windows_explored = 0;       ///< canonical windows visited
  std::uint64_t covers_generated = 0;       ///< window covers materialized
  std::uint64_t enumeration_calls = 0;      ///< maxMotions invocations
  std::uint64_t motions_stored = 0;         ///< distinct motions in the arena
  std::uint64_t motions_shared = 0;  ///< family references beyond the first
                                     ///< to an interned motion (arena reuse)
};

/// Per-lane busy times of the plane build's fan-out (the engine's lane-skew
/// instrumentation; see WorkerPool::for_each on lane_ms). Empty when the
/// enumeration ran serially.
struct PlaneBuildLanes {
  std::vector<double> enumerate_lane_ms;  ///< per-component enumeration
};

/// Canonical-window enumeration (the paper's Algorithm 2 core): all
/// inclusion-maximal r-consistent motions within `pool`; when `anchor` is
/// set, only motions containing the anchor. Deterministic (sorted) order.
/// Shared by the MotionPlane build and the Algorithm 1 builders.
[[nodiscard]] std::vector<DeviceSet> enumerate_maximal_windows(
    const StatePair& state, const Params& params, std::vector<DeviceId> pool,
    std::optional<DeviceId> anchor, OracleCounters* counters = nullptr);

/// True iff `pool` holds a tau-dense motion: the same canonical-window
/// slide with early exit at the first full-dimensional window covering more
/// than tau devices (never materializes maximal families). The partition
/// validity checker's condition C1.
[[nodiscard]] bool exists_dense_window_cover(const StatePair& state, const Params& params,
                                             std::span<const DeviceId> pool);

/// The tight-cluster cut predicate: true iff `active` spans at most
/// `window` in every joint dimension listed in `dims` — i.e. one window per
/// listed dimension covers the whole set, making `active` itself the only
/// inclusion-maximal cover reachable below the current slide node (any
/// other window keeps a subset). Anchored-slide precondition: every pool
/// member lies within `window` (joint Chebyshev) of the anchor — then the
/// bounding interval of active ∪ {anchor} also has length <= window per
/// dimension, so an anchored covering window exists. The anchored
/// enumeration establishes it by construction: it filters its pool by
/// joint_distance <= window. The ONE definition shared by the enumeration
/// slide and the early-exit dense-cover slide — their agreement on the same
/// state depends on both using it.
[[nodiscard]] bool spans_fit_window(const StatePair& state, double window,
                                    std::span<const DeviceId> active,
                                    std::span<const std::size_t> dims) noexcept;

class MotionPlane {
 public:
  /// Index of an interned motion within the plane's store.
  using MotionId = std::uint32_t;

  /// Builds the whole plane for state.abnormal() eagerly, serially, over
  /// index_for(state, params). `state` must outlive the plane. This is the
  /// from-scratch reference path; it delegates to the ctor below.
  MotionPlane(const StatePair& state, Params params);

  /// Builds the plane over `grid`, which must index exactly state.abnormal()
  /// of `state` as index_for does — the streaming engine builds that index
  /// per interval (timing it apart) and moves it in. The components come
  /// from one serial union-find over the grid's cells; the family
  /// enumeration fans out over `pool` when given, as per-component tasks
  /// sized by an estimated enumeration cost (member count x per-dimension
  /// window span), with oversized non-tight components split across tasks
  /// by top-level window edge ranges. Tasks merge in component-discovery/
  /// task order and the cover dedup is content-based, so families, interned
  /// ids, and counters are byte-identical for any pool size and any split.
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
  /// W-bar_k(j): ids of the tau-dense members of M(j), same order.
  /// Requires covers(j).
  [[nodiscard]] std::span<const MotionId> dense(DeviceId j) const;

  /// Members of one interned motion (sorted run in the arena).
  [[nodiscard]] std::span<const DeviceId> members(MotionId m) const noexcept {
    return {motion_arena_.data() + motion_offsets_[m],
            motion_offsets_[m + 1] - motion_offsets_[m]};
  }
  [[nodiscard]] bool motion_contains(MotionId m, DeviceId id) const noexcept;

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
  /// Rank of j within its component's sorted member list.
  [[nodiscard]] std::uint32_t comp_rank_of(DeviceId j) const {
    return comp_rank_of_[rank_of(j)];
  }
  /// Component index of motion m.
  [[nodiscard]] std::uint32_t motion_component(MotionId m) const noexcept {
    return motion_component_[m];
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
  /// AND of the motion_bits of all of j's dense motions (all-ones over j's
  /// component when the dense family is empty — the vacuous truth the J/L
  /// split's "every dense motion of ell contains j" test needs). Requires
  /// covers(j).
  [[nodiscard]] std::span<const std::uint64_t> dense_intersection_bits(DeviceId j) const {
    const std::size_t rank = rank_of(j);
    return {inter_bits_.data() + inter_bits_offsets_[rank],
            inter_bits_offsets_[rank + 1] - inter_bits_offsets_[rank]};
  }

  /// Bytes currently parked in the plane's arenas (budget meter reading).
  [[nodiscard]] std::uint64_t arena_bytes() const noexcept {
    return budget_.used.load(std::memory_order_relaxed);
  }

 private:
  /// The build proper (components, enumeration, the merge, the bitsets).
  void build(WorkerPool* pool, std::size_t component_fanout, PlaneBuildLanes* lanes);
  /// Rank of j within the sorted A_k ids; throws if not abnormal.
  [[nodiscard]] std::size_t rank_of(DeviceId j) const;
  /// Appends one sorted member run to the arena store (runs are distinct by
  /// construction — see the ctor) and returns its id.
  MotionId intern(std::span<const DeviceId> motion);

  const StatePair& state_;
  Params params_;
  GridIndex grid_;             ///< A_k index (its cells feed the components)
  std::vector<DeviceId> ids_;  ///< A_k, sorted

  // Per-device slices (all offset arrays have device_count() + 1 entries).
  std::vector<std::uint32_t> maximal_offsets_;
  std::vector<MotionId> maximal_ids_;
  std::vector<std::uint32_t> dense_offsets_;
  std::vector<MotionId> dense_ids_;

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
  std::vector<std::uint32_t> inter_bits_offsets_;   ///< word offsets, m+1
  std::vector<std::uint64_t> inter_bits_;

  mutable ArenaBudget budget_;
  OracleCounters counters_;
};

}  // namespace acn
