#include "core/motion_plane.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "support/test_util.hpp"

namespace acn {
namespace {

using test::members_of;

// ---------------------------------------------------------------------------
// Exact configurations, read off the plane's per-device families.
// ---------------------------------------------------------------------------

TEST(MotionPlaneFamilyTest, SingleIsolatedDevice) {
  const StatePair state = test::make_state_1d({{0.1, 0.9}});
  const MotionPlane plane(state, {.r = 0.05, .tau = 1});
  const auto motions = members_of(plane, plane.maximal(0));
  ASSERT_EQ(motions.size(), 1u);
  EXPECT_EQ(motions[0], DeviceSet({0}));
}

TEST(MotionPlaneFamilyTest, TwoOverlappingMaximalMotions) {
  // 1-D static chain: windows {0,1} and {1,2} are both maximal (0-2 too far).
  const StatePair state = test::make_static_1d({0.10, 0.18, 0.26});
  const MotionPlane plane(state, {.r = 0.05, .tau = 1});
  const auto motions = members_of(plane, plane.maximal(1));
  ASSERT_EQ(motions.size(), 2u);
  EXPECT_EQ(motions[0], DeviceSet({0, 1}));
  EXPECT_EQ(motions[1], DeviceSet({1, 2}));
}

TEST(MotionPlaneFamilyTest, MotionNeedsConsistencyAtBothInstants) {
  // Devices adjacent at k-1 but torn apart at k: no common motion.
  const StatePair state = test::make_state_1d({{0.1, 0.2}, {0.11, 0.9}});
  const MotionPlane plane(state, {.r = 0.05, .tau = 1});
  const auto motions = members_of(plane, plane.maximal(0));
  ASSERT_EQ(motions.size(), 1u);
  EXPECT_EQ(motions[0], DeviceSet({0}));
}

TEST(MotionPlaneFamilyTest, OnlyAbnormalDevicesParticipate) {
  // Device 1 is normal; motions must ignore it.
  const StatePair state =
      test::make_state_1d({{0.10, 0.10}, {0.12, 0.12}, {0.14, 0.14}},
                          DeviceSet({0, 2}));
  const MotionPlane plane(state, {.r = 0.05, .tau = 1});
  const auto motions = members_of(plane, plane.maximal(0));
  ASSERT_EQ(motions.size(), 1u);
  EXPECT_EQ(motions[0], DeviceSet({0, 2}));
}

TEST(MotionPlaneFamilyTest, RequestingNormalDeviceThrows) {
  const StatePair state = test::make_state_1d({{0.1, 0.1}, {0.2, 0.2}}, DeviceSet({0}));
  const MotionPlane plane(state, {.r = 0.05, .tau = 1});
  EXPECT_THROW((void)plane.maximal(1), std::invalid_argument);
}

TEST(MotionPlaneFamilyTest, DenseMotionsFilterByTau) {
  // Four devices in one tight cluster.
  const StatePair state = test::make_static_1d({0.10, 0.11, 0.12, 0.13});
  const MotionPlane plane(state, {.r = 0.05, .tau = 3});
  ASSERT_EQ(plane.maximal(0).size(), 1u);
  EXPECT_EQ(plane.dense(0).size(), 1u);  // size 4 > tau = 3

  const MotionPlane stricter(state, {.r = 0.05, .tau = 4});
  EXPECT_TRUE(stricter.dense(0).empty());  // size 4 is not > 4
}

TEST(MotionPlaneFamilyTest, NeighbourhoodIsSymmetricAndWithin2r) {
  const StatePair state = test::make_static_1d({0.10, 0.15, 0.50});
  const MotionPlane plane(state, {.r = 0.05, .tau = 1});
  const auto n0 = plane.neighbourhood(0);
  EXPECT_EQ(std::vector<DeviceId>(n0.begin(), n0.end()),
            (std::vector<DeviceId>{0, 1}));
  const auto n2 = plane.neighbourhood(2);
  EXPECT_EQ(std::vector<DeviceId>(n2.begin(), n2.end()),
            (std::vector<DeviceId>{2}));
}

TEST(MotionPlaneFamilyTest, CountersAdvance) {
  const StatePair state = test::make_static_1d({0.10, 0.12, 0.14});
  const MotionPlane plane(state, {.r = 0.05, .tau = 1});
  EXPECT_GE(plane.counters().enumeration_calls, 1u);
  EXPECT_GE(plane.counters().windows_explored, 1u);
  EXPECT_GE(plane.counters().covers_generated, 1u);
}

TEST(MotionPlaneFamilyTest, ZeroRadiusGroupsIdenticalTrajectoriesOnly) {
  const StatePair state =
      test::make_state_1d({{0.1, 0.5}, {0.1, 0.5}, {0.1, 0.500001}});
  const MotionPlane plane(state, {.r = 0.0, .tau = 1});
  const auto motions = members_of(plane, plane.maximal(0));
  ASSERT_EQ(motions.size(), 1u);
  EXPECT_EQ(motions[0], DeviceSet({0, 1}));
}

// ---------------------------------------------------------------------------
// Pool queries: the canonical-window enumeration over an arbitrary pool.
// ---------------------------------------------------------------------------

TEST(WindowEnumerationTest, AnchoredEnumerationExcludesRemovedDevices) {
  // Removing {1, 2} from the pool leaves device 0 one maximal motion, {0, 3}.
  const StatePair state = test::make_static_1d({0.10, 0.12, 0.14, 0.16});
  const auto restricted =
      enumerate_maximal_windows(state, {.r = 0.05, .tau = 1}, {0, 3}, DeviceId{0});
  ASSERT_EQ(restricted.size(), 1u);
  EXPECT_EQ(restricted[0], DeviceSet({0, 3}));
}

TEST(WindowEnumerationTest, PoolEnumerationFindsAllMaximalMotions) {
  // Same geometry as the greedy counterexample in partition.hpp.
  const StatePair state = test::make_static_1d({0.0, 0.225, 0.3, 0.325});
  const auto motions = enumerate_maximal_windows(state, {.r = 0.125, .tau = 2},
                                                 {0, 1, 2, 3}, std::nullopt);
  ASSERT_EQ(motions.size(), 2u);
  EXPECT_EQ(motions[0], DeviceSet({0, 1}));
  EXPECT_EQ(motions[1], DeviceSet({1, 2, 3}));
}

TEST(WindowEnumerationTest, PoolEnumerationRespectsPoolRestriction) {
  const StatePair state = test::make_static_1d({0.0, 0.225, 0.3, 0.325});
  const auto motions =
      enumerate_maximal_windows(state, {.r = 0.125, .tau = 2}, {1, 2}, DeviceId{1});
  ASSERT_EQ(motions.size(), 1u);
  EXPECT_EQ(motions[0], DeviceSet({1, 2}));
}

// ---------------------------------------------------------------------------
// Property: the plane's families, the anchored slide and the early-exit
// dense-cover slide all agree with brute-force subset search. Randomized
// over geometry, dimension, radius and density.
// ---------------------------------------------------------------------------

struct PlaneSweepCase {
  std::uint64_t seed;
  std::size_t n;
  std::size_t d;
  double r;
  double spread;  // points are sampled in [0, spread]^d to control density
};

class PlaneBruteForceSweep : public ::testing::TestWithParam<PlaneSweepCase> {};

TEST_P(PlaneBruteForceSweep, MatchesBruteForce) {
  const auto& param = GetParam();
  Rng rng(param.seed);
  std::vector<std::vector<double>> prev(param.n, std::vector<double>(param.d));
  std::vector<std::vector<double>> curr(param.n, std::vector<double>(param.d));
  for (std::size_t j = 0; j < param.n; ++j) {
    for (std::size_t i = 0; i < param.d; ++i) {
      prev[j][i] = rng.uniform(0.0, param.spread);
      curr[j][i] = rng.uniform(0.0, param.spread);
    }
  }
  const StatePair state = test::make_state(prev, curr);
  const Params params{.r = param.r, .tau = 1};
  const MotionPlane plane(state, params);

  std::vector<DeviceId> all(param.n);
  for (std::size_t j = 0; j < param.n; ++j) all[j] = static_cast<DeviceId>(j);

  std::size_t largest = 0;
  for (DeviceId j = 0; j < param.n; ++j) {
    auto expected = test::brute_force_maximal_motions(state, param.r, all, j);
    std::sort(expected.begin(), expected.end());
    for (const DeviceSet& motion : expected) largest = std::max(largest, motion.size());

    // The plane's per-component unanchored slide, read per device.
    const auto from_plane = members_of(plane, plane.maximal(j));
    EXPECT_EQ(from_plane, expected) << "plane, device " << j << " seed " << param.seed;

    // The anchored slide (Algorithm 1's extraction step).
    const auto anchored = enumerate_maximal_windows(state, params, all, j);
    EXPECT_EQ(anchored, expected) << "anchored, device " << j << " seed " << param.seed;
  }

  // The early-exit slide (condition C1): a tau-dense motion exists iff the
  // largest maximal motion has more than tau members.
  for (std::uint32_t tau = 1; tau <= largest + 1; ++tau) {
    EXPECT_EQ(exists_dense_window_cover(state, {.r = param.r, .tau = tau}, all),
              largest > tau)
        << "tau " << tau << " largest " << largest << " seed " << param.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomGeometries, PlaneBruteForceSweep,
    ::testing::Values(
        PlaneSweepCase{1, 8, 1, 0.05, 0.3},   //
        PlaneSweepCase{2, 10, 1, 0.1, 0.5},   //
        PlaneSweepCase{3, 12, 1, 0.02, 0.2},  //
        PlaneSweepCase{4, 8, 2, 0.08, 0.4},   //
        PlaneSweepCase{5, 10, 2, 0.12, 0.5},  //
        PlaneSweepCase{6, 12, 2, 0.05, 0.25}, //
        PlaneSweepCase{7, 9, 3, 0.1, 0.4},    //
        PlaneSweepCase{8, 11, 2, 0.15, 0.4},  //
        PlaneSweepCase{9, 13, 1, 0.08, 0.25}, //
        PlaneSweepCase{10, 14, 2, 0.1, 0.45}, //
        PlaneSweepCase{11, 10, 2, 0.2, 0.5},  //
        PlaneSweepCase{12, 12, 3, 0.07, 0.3}));

}  // namespace
}  // namespace acn
