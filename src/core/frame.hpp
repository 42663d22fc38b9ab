// The locality-bounded incremental snapshot pipeline (the streaming engine).
//
// The paper's locality result (§V, Corollary 8: a verdict depends only on
// trajectories within 4r of the deciding device) bounds every interval's
// work to the 4r-closure of A_k. The engine runs four phases per interval:
//
//   1. state roll — the previous half of the rolling StatePair's joint
//      columns catches up with the current half at the ids the last roll
//      moved (O(|moved|)), then the new snapshot's columns are compared into
//      the current half; entries are rewritten only where a position
//      changed (StatePair::advance). A snapshot fed with change marks
//      (FleetRoster's, through OnlineMonitor::close_interval) is compared
//      at the marked ids alone; one fed bare is compared at every id;
//   2. A_k index — one GridIndex over the abnormal devices, cell
//      max(2r, kMinGridCell): the only spatial index, sized by |A_k|, not n;
//   3. plane — the MotionPlane built over that index, through the same path
//      as the from-scratch MotionPlane(state, params): components by a
//      union-find over the index's cells, then the per-component maximal
//      clique search fanned out over the engine's persistent WorkerPool;
//   4. characterize — Theorems 5-7 for every device of A_k, decided per
//      dense family and fanned out over the same pool.
//
// Verdicts are byte-identical to a from-scratch rebuild for every thread
// count (tests/core/frame_equivalence_test.cc sweeps this, teleports and
// all-abnormal edge cases included). OnlineMonitor, the MonitoringSwarm,
// and the simulation harness all sit on top of this engine; per-phase
// timings are exposed through FrameStats.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/device_set.hpp"
#include "common/worker_pool.hpp"
#include "core/characterizer.hpp"
#include "core/grid_index.hpp"
#include "core/motion_plane.hpp"
#include "core/params.hpp"
#include "core/state.hpp"

namespace acn {

/// Busy-time aggregate over the worker lanes of one parallel phase. The
/// max/mean gap is the phase's skew: max is the wall-clock the phase paid,
/// mean is what perfect balance would have paid — bench_characterize_all
/// prints both per phase so load imbalance shows up as a number, not a
/// hunch. lanes == 0 means the phase ran without a fan-out this interval.
struct LaneBreakdown {
  double max_ms = 0.0;
  double mean_ms = 0.0;
  unsigned lanes = 0;

  [[nodiscard]] static LaneBreakdown of(std::span<const double> lane_ms) noexcept {
    LaneBreakdown out;
    out.lanes = static_cast<unsigned>(lane_ms.size());
    if (lane_ms.empty()) return out;
    double total = 0.0;
    for (const double ms : lane_ms) {
      total += ms;
      if (ms > out.max_ms) out.max_ms = ms;
    }
    out.mean_ms = total / static_cast<double>(lane_ms.size());
    return out;
  }
};

/// Wall-clock phase breakdown of one engine interval, in milliseconds —
/// what bench_characterize_all reports per phase.
struct FrameStats {
  double state_ms = 0.0;         ///< state roll (joint/SoA in-place update)
  double grid_ms = 0.0;          ///< A_k index build
  double plane_ms = 0.0;         ///< motion-plane build over the 4r-closure
  double characterize_ms = 0.0;  ///< Theorems 5-7 over A_k
  std::size_t moved = 0;         ///< devices whose position changed
  std::size_t abnormal = 0;      ///< |A_k|
  std::size_t components = 0;    ///< 2r-interaction components enumerated
  std::size_t motions = 0;       ///< distinct maximal motions interned

  // Per-lane skew of each fan-out phase (see LaneBreakdown).
  LaneBreakdown state_lanes;        ///< state-roll chunk fan-out
  LaneBreakdown plane_enum_lanes;   ///< plane component enumeration
  LaneBreakdown characterize_lanes; ///< per-family decision fan-out

  /// Sum of the phase timers: the engine-side wall clock of one interval.
  [[nodiscard]] double total_ms() const noexcept {
    return state_ms + grid_ms + plane_ms + characterize_ms;
  }
};

/// The streaming engine: feed one snapshot per interval, read verdicts.
class FrameEngine {
 public:
  struct Config {
    Params model;
    /// Options for every decision; characterize.parallel_grain
    /// is the |A_k| below which the characterization fan-out runs inline
    /// (Characterizer::decide's threshold).
    CharacterizeOptions characterize{};
    /// Lanes for every per-interval fan-out (state roll, plane build,
    /// per-family characterization): 1 = inline serial (default), 0 =
    /// hardware concurrency. Verdicts are identical for every value.
    unsigned threads = 1;
    /// Task count below which a plane build section runs inline.
    std::size_t component_fanout = 2;
    /// Byte cap on the per-interval motion-plane arenas (component lists,
    /// adjacency bitsets, emitted cliques, interned motions, membership
    /// bitsets). An adversarial
    /// placement can make the motion-family arenas combinatorially large;
    /// the cap turns that from an OOM kill into an ArenaBudgetExceeded
    /// thrown out of observe() after the state roll: the state holds the
    /// new snapshot, the interval has no verdicts, and the next interval
    /// proceeds normally. 0 disables the cap.
    std::uint64_t plane_arena_budget = 8ULL << 30;
  };

  /// Per-interval verdicts (absent for the priming snapshot).
  struct Result {
    std::vector<Decision> decisions;  ///< one per device of A_k, ascending
    CharacterizationSets sets;
  };

  explicit FrameEngine(Config config);

  /// Feeds the snapshot of the next interval (its columns are compared
  /// into the rolling state; the snapshot itself is not kept) and
  /// characterizes every device of `abnormal` against the previous one.
  /// Returns std::nullopt for the first (priming) snapshot. Throws
  /// std::invalid_argument if the fleet size or dimension changes — the
  /// engine's device universe is fixed (StatePair::advance precondition);
  /// deployments with churn feed it through FleetRoster, which recycles
  /// slots inside a fixed capacity instead of resizing the snapshot.
  ///
  /// `changed`, when not empty, marks where the snapshot may differ from
  /// the state's S_k half: changed[j] != 0 for every device j whose
  /// position may have changed since the last roll (see the
  /// StatePair::advance overload). The roll then compares the marked ids
  /// alone, and the state, its moved() list and FrameStats::moved are the
  /// full compare's. The priming snapshot reads no marks. Throws
  /// std::invalid_argument unless `changed` is empty or holds one mark per
  /// device.
  std::optional<Result> observe(const Snapshot& positions, DeviceSet abnormal,
                                std::span<const std::uint8_t> changed = {});

  /// The rolling state (requires at least one observe()).
  [[nodiscard]] const StatePair& state() const { return *state_; }
  [[nodiscard]] bool primed() const noexcept { return state_.has_value(); }

  /// The last interval's motion plane (null before the second observe()).
  [[nodiscard]] const MotionPlane* plane() const noexcept {
    return plane_.has_value() ? &*plane_ : nullptr;
  }

  /// Phase breakdown of the latest observe().
  [[nodiscard]] const FrameStats& last_stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t intervals() const noexcept { return intervals_; }

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] WorkerPool& pool() noexcept { return pool_; }

 private:
  Config config_;
  std::optional<StatePair> state_;    ///< (S_{k-1}, S_k, A_k), rolled in place
  WorkerPool pool_;
  std::optional<MotionPlane> plane_;  ///< rebuilt per interval
  FrameStats stats_;
  std::uint64_t intervals_ = 0;
};

}  // namespace acn
