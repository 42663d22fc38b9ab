#include "core/grid_index.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"
#include "support/test_util.hpp"

namespace acn {
namespace {

TEST(GridIndexTest, FindsSelf) {
  const StatePair state = test::make_static_1d({0.5});
  const GridIndex grid(state, state.abnormal(), 0.1);
  EXPECT_EQ(grid.within(0, 0.1), (std::vector<DeviceId>{0}));
}

TEST(GridIndexTest, RejectsNonPositiveCell) {
  const StatePair state = test::make_static_1d({0.5});
  EXPECT_THROW(GridIndex(state, state.abnormal(), 0.0), std::invalid_argument);
  EXPECT_THROW(GridIndex(state, state.abnormal(), std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(GridIndexTest, RadiusFiltersByJointDistance) {
  // Device 1 close at k, far at k-1: joint distance is large.
  const StatePair state = test::make_state_1d({{0.5, 0.5}, {0.9, 0.52}});
  const GridIndex grid(state, state.abnormal(), 0.1);
  EXPECT_EQ(grid.within(0, 0.1), (std::vector<DeviceId>{0}));
  EXPECT_EQ(grid.within(0, 0.4), (std::vector<DeviceId>{0, 1}));
}

TEST(GridIndexTest, OnlyIndexedMembersReturned) {
  const StatePair state =
      test::make_static_1d({0.50, 0.52, 0.54});
  const GridIndex grid(state, DeviceSet({0, 2}), 0.1);
  EXPECT_EQ(grid.within(0, 0.1), (std::vector<DeviceId>{0, 2}));
}

TEST(GridIndexTest, LargerRadiusThanCellWorks) {
  // 4r query on a 2r grid (the L_k(j) second hop).
  const StatePair state = test::make_static_1d({0.10, 0.25, 0.40, 0.70});
  const GridIndex grid(state, state.abnormal(), 0.1);
  EXPECT_EQ(grid.within(0, 0.2), (std::vector<DeviceId>{0, 1}));
  EXPECT_EQ(grid.within(0, 0.31), (std::vector<DeviceId>{0, 1, 2}));
}

TEST(GridIndexTest, BoundaryDistanceIncluded) {
  // Exactly representable doubles: distance is exactly the radius.
  const StatePair state = test::make_static_1d({0.25, 0.375});
  const GridIndex grid(state, state.abnormal(), 0.125);
  EXPECT_EQ(grid.within(0, 0.125), (std::vector<DeviceId>{0, 1}));
}

class GridRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridRandomSweep, MatchesLinearScan) {
  Rng rng(GetParam());
  const std::size_t n = 40;
  const std::size_t d = 1 + GetParam() % 3;
  std::vector<std::vector<double>> prev(n, std::vector<double>(d));
  std::vector<std::vector<double>> curr(n, std::vector<double>(d));
  for (auto& p : prev)
    for (auto& x : p) x = rng.uniform();
  for (auto& c : curr)
    for (auto& x : c) x = rng.uniform();
  const StatePair state = test::make_state(prev, curr);
  const double cell = 0.05 + 0.1 * rng.uniform();
  const GridIndex grid(state, state.abnormal(), cell);

  for (const double radius : {cell * 0.5, cell, cell * 2.0}) {
    for (DeviceId j = 0; j < n; j += 7) {
      std::vector<DeviceId> expected;
      for (DeviceId other = 0; other < n; ++other) {
        if (state.joint_distance(j, other) <= radius) expected.push_back(other);
      }
      EXPECT_EQ(grid.within(j, radius), expected)
          << "j=" << j << " radius=" << radius << " seed=" << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridRandomSweep,
                         ::testing::Range(std::uint64_t{0}, std::uint64_t{12}));

}  // namespace
}  // namespace acn
