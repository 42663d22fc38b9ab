#include "core/motion_plane.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "core/partition_enumerator.hpp"
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
  EXPECT_EQ(plane.neighbourhood(0), (std::vector<DeviceId>{0, 1}));
  EXPECT_EQ(plane.neighbourhood(2), (std::vector<DeviceId>{2}));
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

TEST(MotionPlaneFamilyTest, RejectsNaNRadius) {
  const StatePair state = test::make_static_1d({0.10, 0.12});
  const Params params{.r = std::numeric_limits<double>::quiet_NaN(), .tau = 1};
  EXPECT_THROW(params.validate(), std::invalid_argument);
  EXPECT_THROW(MotionPlane(state, params), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Components: the plane's cell-union pass against the all-pairs reference
// (PartitionEnumerator::components), on random blobs and on the edge cases
// of the cell shortcut.
// ---------------------------------------------------------------------------

/// The plane's components, checked against the all-pairs reference.
std::vector<std::vector<DeviceId>> checked_components(const StatePair& state,
                                                      const Params& params) {
  const MotionPlane plane(state, params);
  std::vector<std::vector<DeviceId>> components;
  for (std::uint32_t c = 0; c < plane.component_count(); ++c) {
    const auto members = plane.component_members(c);
    components.emplace_back(members.begin(), members.end());
  }
  EXPECT_EQ(components, PartitionEnumerator(state, params).components());
  return components;
}

struct BlobCase {
  std::uint64_t seed;
  std::size_t d;
  double r;
  std::size_t blobs;
  std::size_t per_blob;
};

class PlaneComponentSweep : public ::testing::TestWithParam<BlobCase> {};

TEST_P(PlaneComponentSweep, MatchesAllPairsReference) {
  const auto& param = GetParam();
  Rng rng(param.seed);
  const double cell = 2.0 * param.r;
  std::vector<std::vector<double>> prev;
  std::vector<std::vector<double>> curr;
  const auto add = [&](const std::vector<double>& p_centre, double p_spread,
                       const std::vector<double>& c_centre, double c_spread) {
    std::vector<double> p(param.d);
    std::vector<double> c(param.d);
    for (std::size_t i = 0; i < param.d; ++i) {
      p[i] = std::clamp(p_centre[i] + rng.uniform(-p_spread, p_spread), 0.0, 1.0);
      c[i] = std::clamp(c_centre[i] + rng.uniform(-c_spread, c_spread), 0.0, 1.0);
    }
    prev.push_back(std::move(p));
    curr.push_back(std::move(c));
  };
  for (std::size_t b = 0; b < param.blobs; ++b) {
    // S_k centre on a cell corner, so every blob straddles cell boundaries.
    std::vector<double> p_centre(param.d);
    std::vector<double> c_centre(param.d);
    for (std::size_t i = 0; i < param.d; ++i) {
      p_centre[i] = rng.uniform(0.1, 0.9);
      c_centre[i] = std::round(rng.uniform(0.1, 0.9) / cell) * cell;
    }
    switch (b % 3) {
      case 0:  // tight: every cell of the blob fits the window
        for (std::size_t k = 0; k < param.per_blob; ++k) {
          add(p_centre, 0.9 * param.r, c_centre, 0.9 * param.r);
        }
        break;
      case 1:  // close at k, spread at k-1: cells hold pairs more than 2r apart
        for (std::size_t k = 0; k < param.per_blob / 4; ++k) {
          add(p_centre, 3.0 * param.r, c_centre, 0.4 * param.r);
        }
        break;
      default:  // small and loose at both instants
        for (std::size_t k = 0; k < 8; ++k) add(p_centre, 2.0 * param.r, c_centre, 2.0 * param.r);
        break;
    }
  }
  // A uniform background: singletons and small components.
  const std::vector<double> mid(param.d, 0.5);
  for (std::size_t k = 0; k < 4 * param.per_blob; ++k) add(mid, 0.5, mid, 0.5);

  const StatePair state = test::make_state(prev, curr);
  const auto components = checked_components(state, {.r = param.r, .tau = 3});
  EXPECT_LT(components.size(), prev.size()) << "no two devices joined";
}

INSTANTIATE_TEST_SUITE_P(
    RandomBlobs, PlaneComponentSweep,
    ::testing::Values(BlobCase{21, 1, 0.01, 45, 120},  //
                      BlobCase{22, 2, 0.03, 36, 60},   //
                      BlobCase{23, 2, 0.04, 18, 90},   //
                      BlobCase{24, 3, 0.04, 30, 48},   //
                      BlobCase{25, 3, 0.08, 12, 40}));

TEST(PlaneComponentTest, OneCellFarApartAtThePreviousInstantIsTwoComponents) {
  // Both at k in cell [0.5, 0.6) of side 2r = 0.1; 0.4 apart at k-1. Only
  // the joint bounding-box check keeps the cell from joining wholesale.
  const StatePair state = test::make_state_1d({{0.10, 0.52}, {0.50, 0.55}});
  EXPECT_EQ(checked_components(state, {.r = 0.05, .tau = 1}),
            (std::vector<std::vector<DeviceId>>{{0}, {1}}));
}

TEST(PlaneComponentTest, ExactlyTwoRApartAcrossACellBoundaryIsJoined) {
  // 2r = 2^-4: each pair sits on the corners of two neighbouring cells
  // (6/7, 10/11) and is exactly 2r apart at both instants; at k-1 the
  // lower cell's device is below its partner in one pair, above in the
  // other.
  const Params params{.r = 0.03125, .tau = 1};
  const StatePair state = test::make_state_1d(
      {{0.25, 0.375}, {0.3125, 0.4375}, {0.8125, 0.625}, {0.75, 0.6875}});
  ASSERT_EQ(state.joint_distance(0, 1), params.window());
  ASSERT_EQ(state.joint_distance(2, 3), params.window());
  EXPECT_EQ(checked_components(state, params),
            (std::vector<std::vector<DeviceId>>{{0, 1}, {2, 3}}));
}

TEST(PlaneComponentTest, ExactlyTwoRApartInsideACellIsJoined) {
  // One cell at k, a chain of exact 2r steps at k-1: the cell does not fit
  // the window, so its pairs are tested, and both links hold.
  const Params params{.r = 0.03125, .tau = 1};
  const StatePair state =
      test::make_state_1d({{0.25, 0.40}, {0.3125, 0.40}, {0.375, 0.41}});
  ASSERT_EQ(state.joint_distance(0, 1), params.window());
  EXPECT_EQ(checked_components(state, params),
            (std::vector<std::vector<DeviceId>>{{0, 1, 2}}));
}

TEST(PlaneComponentTest, OneUlpBeyondTwoRIsTwoComponents) {
  const Params params{.r = 0.03125, .tau = 1};
  const double beyond = std::nextafter(params.window(), 1.0);
  const StatePair state = test::make_state_1d({{0.5, 0.0}, {0.5, beyond}});
  ASSERT_EQ(state.joint_distance(0, 1), beyond);
  EXPECT_EQ(checked_components(state, params),
            (std::vector<std::vector<DeviceId>>{{0}, {1}}));
}

TEST(PlaneComponentTest, CoincidentDevicesAtZeroRadiusAreJoined) {
  const StatePair state =
      test::make_state_1d({{0.3, 0.7}, {0.3, 0.7}, {0.3, 0.70001}, {0.3, 0.7}});
  EXPECT_EQ(checked_components(state, {.r = 0.0, .tau = 1}),
            (std::vector<std::vector<DeviceId>>{{0, 1, 3}, {2}}));
}

TEST(PlaneComponentTest, ChainJustUnderTwoRAcrossManyCellsIsOneComponent) {
  // Consecutive links 0.0599 < 2r = 0.06; every other pair is farther.
  std::vector<std::pair<double, double>> chain;
  for (int k = 0; k < 15; ++k) chain.emplace_back(0.5, 0.05 + 0.0599 * k);
  const StatePair state = test::make_state_1d(chain);
  const auto components = checked_components(state, {.r = 0.03, .tau = 1});
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].size(), chain.size());
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
// dense-cover slide all agree with brute-force subset search, and N(j) with
// an all-pairs scan. Randomized over geometry, dimension, radius and
// density.
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

    // N(j), scanned on request from j's component, against all pairs.
    std::vector<DeviceId> within;
    for (const DeviceId other : all) {
      if (state.joint_distance(j, other) <= params.window()) within.push_back(other);
    }
    EXPECT_EQ(plane.neighbourhood(j), within) << "N(j), device " << j << " seed " << param.seed;

    // W-bar_k(j): the brute-force motions with more than tau members.
    std::vector<DeviceSet> dense;
    for (const DeviceSet& motion : expected) {
      if (motion.size() > params.tau) dense.push_back(motion);
    }
    EXPECT_EQ(members_of(plane, plane.dense(j)), dense)
        << "dense, device " << j << " seed " << param.seed;
  }

  // Interned dense families: two devices share a family id iff their
  // dense() runs are equal, and each family's bitset is the AND of its
  // motions' bitsets.
  for (DeviceId a = 0; a < param.n; ++a) {
    const auto run_a = plane.dense(a);
    EXPECT_EQ(plane.family(a) == MotionPlane::kNoFamily, run_a.empty()) << "device " << a;
    for (DeviceId b = 0; b < param.n; ++b) {
      const auto run_b = plane.dense(b);
      EXPECT_EQ(plane.family(a) == plane.family(b),
                std::equal(run_a.begin(), run_a.end(), run_b.begin(), run_b.end()))
          << "devices " << a << ", " << b << " seed " << param.seed;
    }
    if (run_a.empty()) continue;
    std::vector<std::uint64_t> and_bits(plane.motion_bits(run_a[0]).begin(),
                                        plane.motion_bits(run_a[0]).end());
    for (const MotionPlane::MotionId mid : run_a) {
      const auto bits = plane.motion_bits(mid);
      for (std::size_t k = 0; k < and_bits.size(); ++k) and_bits[k] &= bits[k];
    }
    const auto family_bits = plane.family_bits(plane.family(a));
    EXPECT_EQ(std::vector<std::uint64_t>(family_bits.begin(), family_bits.end()), and_bits)
        << "family bits, device " << a << " seed " << param.seed;
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
