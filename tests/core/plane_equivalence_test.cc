// MotionPlane equivalence: the snapshot-level plane must be an invisible
// optimization. Across randomized §VII-A workloads and degenerate
// geometries, per-device characterize() calls, the serial characterize_all()
// and decide() paths, and decide() fanned out over a 4-lane WorkerPool
// reading one externally owned plane must produce byte-identical
// CharacterizationSets and Decisions — same devices, same buckets,
// independent of scheduling.
#include <gtest/gtest.h>

#include <vector>

#include "common/worker_pool.hpp"
#include "core/characterizer.hpp"
#include "core/motion_plane.hpp"
#include "sim/scenario.hpp"
#include "support/test_util.hpp"

namespace acn {
namespace {

/// Buckets per-device characterize() calls on a fresh characterizer — the
/// seed's batch loop, kept as the reference shape.
CharacterizationSets per_device_reference(const StatePair& state, Params params) {
  Characterizer characterizer(state, params);
  CharacterizationSets sets;
  for (const DeviceId j : state.abnormal()) {
    switch (characterizer.characterize(j).cls) {
      case AnomalyClass::kIsolated:
        sets.isolated = sets.isolated.with(j);
        break;
      case AnomalyClass::kMassive:
        sets.massive = sets.massive.with(j);
        break;
      case AnomalyClass::kUnresolved:
        sets.unresolved = sets.unresolved.with(j);
        break;
    }
  }
  return sets;
}

void expect_all_paths_agree(const StatePair& state, Params params,
                            const std::string& label) {
  const CharacterizationSets reference = per_device_reference(state, params);

  Characterizer serial(state, params);
  const CharacterizationSets bulk = serial.characterize_all();
  EXPECT_EQ(bulk.isolated, reference.isolated) << label;
  EXPECT_EQ(bulk.massive, reference.massive) << label;
  EXPECT_EQ(bulk.unresolved, reference.unresolved) << label;

  // Shared plane, a 4-lane pool regardless of core count, and a parallel
  // grain of 1 so the pool fan-out genuinely runs even though these fleets
  // sit far below the production fall-back-to-serial threshold.
  WorkerPool pool(4);
  const MotionPlane plane(state, params);
  const Characterizer parallel(plane, {.parallel_grain = 1});
  const std::vector<Decision> parallel_decisions = parallel.decide(&pool);
  const CharacterizationSets pooled = bucket(state.abnormal(), parallel_decisions);
  EXPECT_EQ(pooled.isolated, reference.isolated) << label;
  EXPECT_EQ(pooled.massive, reference.massive) << label;
  EXPECT_EQ(pooled.unresolved, reference.unresolved) << label;

  // Decisions (not just buckets) must match field for field.
  const std::vector<Decision> serial_decisions = Characterizer(plane).decide();
  ASSERT_EQ(serial_decisions.size(), parallel_decisions.size()) << label;
  for (std::size_t i = 0; i < serial_decisions.size(); ++i) {
    EXPECT_EQ(serial_decisions[i].cls, parallel_decisions[i].cls) << label;
    EXPECT_EQ(serial_decisions[i].rule, parallel_decisions[i].rule) << label;
    EXPECT_EQ(serial_decisions[i].exact, parallel_decisions[i].exact) << label;
    EXPECT_EQ(serial_decisions[i].maximal_motion_count,
              parallel_decisions[i].maximal_motion_count)
        << label;
    EXPECT_EQ(serial_decisions[i].dense_motion_count,
              parallel_decisions[i].dense_motion_count)
        << label;
    EXPECT_EQ(serial_decisions[i].collections_tested,
              parallel_decisions[i].collections_tested)
        << label;
  }
}

// ---------------------------------------------------------------------------
// Randomized §VII-A sweep across the paper's G axis (Figure 7's parameter).
// ---------------------------------------------------------------------------

struct SweepCase {
  std::uint64_t seed;
  double isolated_probability;  // G
};

class PlaneEquivalenceSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PlaneEquivalenceSweep, AllPathsByteIdentical) {
  const auto& param = GetParam();
  ScenarioParams scenario;
  scenario.n = 400;
  scenario.errors_per_step = 12;
  scenario.isolated_probability = param.isolated_probability;
  scenario.seed = param.seed;

  ScenarioGenerator generator(scenario);
  for (int step_index = 0; step_index < 3; ++step_index) {
    const ScenarioStep step = generator.advance();
    expect_all_paths_agree(
        step.state, scenario.model,
        "seed=" + std::to_string(param.seed) +
            " G=" + std::to_string(param.isolated_probability) +
            " step=" + std::to_string(step_index));
  }
}

INSTANTIATE_TEST_SUITE_P(GAxis, PlaneEquivalenceSweep,
                         ::testing::Values(SweepCase{11, 0.0},   //
                                           SweepCase{12, 0.3},   //
                                           SweepCase{13, 0.5},   //
                                           SweepCase{14, 0.7},   //
                                           SweepCase{15, 1.0},   //
                                           SweepCase{16, 0.5},   //
                                           SweepCase{17, 0.0},   //
                                           SweepCase{18, 1.0}));

// ---------------------------------------------------------------------------
// Degenerate geometries.
// ---------------------------------------------------------------------------

TEST(PlaneEquivalenceDegenerateTest, EmptyAbnormalSet) {
  const StatePair state =
      test::make_state_1d({{0.1, 0.1}, {0.5, 0.5}}, DeviceSet{});
  const Params params{.r = 0.05, .tau = 2};

  const MotionPlane plane(state, params);
  EXPECT_EQ(plane.device_count(), 0u);
  EXPECT_EQ(plane.motion_count(), 0u);

  Characterizer characterizer(plane);
  const CharacterizationSets serial = characterizer.characterize_all();
  EXPECT_TRUE(serial.isolated.empty());
  EXPECT_TRUE(serial.massive.empty());
  EXPECT_TRUE(serial.unresolved.empty());
  WorkerPool pool(4);
  EXPECT_TRUE(characterizer.decide(&pool).empty());
}

TEST(PlaneEquivalenceDegenerateTest, AllIsolatedDevices) {
  // Far-apart devices: every family is a singleton, everyone Theorem-5.
  const StatePair state = test::make_state_1d(
      {{0.05, 0.90}, {0.25, 0.10}, {0.50, 0.45}, {0.75, 0.20}, {0.95, 0.60}});
  const Params params{.r = 0.02, .tau = 1};
  expect_all_paths_agree(state, params, "all-isolated");

  Characterizer characterizer(state, params);
  const CharacterizationSets sets = characterizer.characterize_all();
  EXPECT_EQ(sets.isolated.size(), 5u);
}

TEST(PlaneEquivalenceDegenerateTest, DenseBlobAcrossGridCellBoundaries) {
  // One tau-dense blob straddling the 2r grid-cell boundary at 0.1 (cell
  // side = window = 0.1): members land in different cells at k, and the
  // common displacement keeps them one motion. Every path must call the
  // whole blob massive.
  const StatePair state = test::make_state_1d({
      {0.095, 0.595},
      {0.098, 0.598},
      {0.100, 0.600},
      {0.102, 0.602},
      {0.105, 0.605},
      {0.108, 0.608},
  });
  const Params params{.r = 0.05, .tau = 3};
  expect_all_paths_agree(state, params, "blob-across-cells");

  Characterizer characterizer(state, params);
  const CharacterizationSets sets = characterizer.characterize_all();
  EXPECT_EQ(sets.massive.size(), 6u);

  // The blob's family is one interned motion shared by all six devices.
  const MotionPlane plane(state, params);
  EXPECT_EQ(plane.motion_count(), 1u);
  EXPECT_EQ(plane.counters().motions_shared, 5u);
}

// ---------------------------------------------------------------------------
// Plane internals visible through the public surface.
// ---------------------------------------------------------------------------

TEST(MotionPlaneTest, InterningSharesMotionsAcrossDevices) {
  // Two overlapping pairs (chain): device 1's family {0,1} and {1,2};
  // device 0 contributes {0,1} again — interned once.
  const StatePair state = test::make_static_1d({0.10, 0.18, 0.26});
  const MotionPlane plane(state, {.r = 0.05, .tau = 1});
  EXPECT_EQ(plane.motion_count(), 2u);
  ASSERT_EQ(plane.maximal(1).size(), 2u);
  EXPECT_EQ(plane.maximal(0).size(), 1u);
  EXPECT_EQ(plane.maximal(0)[0], plane.maximal(1)[0]);  // same interned run
}

TEST(MotionPlaneTest, ThrowsForNormalDevice) {
  const StatePair state =
      test::make_state_1d({{0.1, 0.1}, {0.2, 0.2}}, DeviceSet({0}));
  const MotionPlane plane(state, {.r = 0.05, .tau = 1});
  EXPECT_FALSE(plane.covers(1));
  EXPECT_THROW((void)plane.maximal(1), std::invalid_argument);
  EXPECT_THROW((void)plane.dense(1), std::invalid_argument);
  EXPECT_THROW((void)plane.neighbourhood(1), std::invalid_argument);
}

}  // namespace
}  // namespace acn
