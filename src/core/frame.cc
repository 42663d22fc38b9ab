#include "core/frame.hpp"

#include <chrono>

namespace acn {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

FrameEngine::FrameEngine(Config config) : config_(config), pool_(config.threads) {
  config_.model.validate();
}

std::optional<FrameEngine::Result> FrameEngine::observe(const Snapshot& positions,
                                                        DeviceSet abnormal) {
  stats_ = {};
  std::vector<double> lane_scratch;
  if (!state_.has_value()) {
    // Priming snapshot: the state becomes (S_0, S_0, {}) — no previous
    // state, nothing to characterize (any abnormal ids are moot — there is
    // no interval they fired in).
    const auto t0 = Clock::now();
    state_.emplace(positions, positions, DeviceSet{});
    stats_.state_ms = ms_since(t0);
    ++intervals_;
    return std::nullopt;
  }

  // Roll the state in place (validates shape; strong guarantee).
  auto t0 = Clock::now();
  stats_.moved = state_->advance(positions, std::move(abnormal), &pool_, &lane_scratch);
  const StatePair& state = *state_;
  stats_.state_ms = ms_since(t0);
  stats_.state_lanes = LaneBreakdown::of(lane_scratch);
  stats_.abnormal = state.abnormal().size();

  // The interval's one spatial index: A_k only, at the plane's cell side.
  t0 = Clock::now();
  GridIndex grid = MotionPlane::index_for(state, config_.model);
  stats_.grid_ms = ms_since(t0);

  // Plane over the 4r-closure of A_k, through the from-scratch plane's own
  // build path; its family enumeration fans out over the pool.
  t0 = Clock::now();
  PlaneBuildLanes plane_lanes;
  plane_.reset();
  plane_.emplace(state, config_.model, std::move(grid), &pool_,
                 config_.component_fanout, &plane_lanes, config_.plane_arena_budget);
  stats_.plane_ms = ms_since(t0);
  stats_.plane_enum_lanes = LaneBreakdown::of(plane_lanes.enumerate_lane_ms);
  stats_.components = plane_->counters().enumeration_calls;
  stats_.motions = plane_->motion_count();

  t0 = Clock::now();
  Result result;
  Characterizer characterizer(*plane_, config_.characterize);
  result.decisions = characterizer.decide(&pool_, &lane_scratch);
  stats_.characterize_lanes = LaneBreakdown::of(lane_scratch);
  result.sets = bucket(state.abnormal(), result.decisions);
  stats_.characterize_ms = ms_since(t0);

  ++intervals_;
  return result;
}

}  // namespace acn
