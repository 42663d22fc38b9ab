#include "core/characterizer.hpp"

#include <gtest/gtest.h>

#include "support/test_util.hpp"

namespace acn {
namespace {

// ---------------------------------------------------------------------------
// Theorem 5: isolated devices.
// ---------------------------------------------------------------------------

TEST(Theorem5Test, LonelyDeviceIsIsolated) {
  const StatePair state = test::make_state_1d({{0.1, 0.9}, {0.5, 0.2}});
  Characterizer characterizer(state, {.r = 0.05, .tau = 1});
  const Decision d = characterizer.characterize(0);
  EXPECT_EQ(d.cls, AnomalyClass::kIsolated);
  EXPECT_EQ(d.rule, DecisionRule::kTheorem5);
  EXPECT_TRUE(d.exact);
}

TEST(Theorem5Test, SparseClusterIsIsolated) {
  // Three devices moving together but tau = 3: the motion is sparse.
  const StatePair state =
      test::make_state_1d({{0.1, 0.5}, {0.12, 0.52}, {0.14, 0.54}});
  Characterizer characterizer(state, {.r = 0.05, .tau = 3});
  for (DeviceId j = 0; j < 3; ++j) {
    const Decision d = characterizer.characterize(j);
    EXPECT_EQ(d.cls, AnomalyClass::kIsolated);
    EXPECT_EQ(d.rule, DecisionRule::kTheorem5);
  }
}

TEST(Theorem5Test, NormalDeviceThrows) {
  const StatePair state = test::make_state_1d({{0.1, 0.1}, {0.2, 0.2}}, DeviceSet({0}));
  Characterizer characterizer(state, {.r = 0.05, .tau = 1});
  EXPECT_THROW((void)characterizer.characterize(1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Theorem 6: the cheap massive condition.
// ---------------------------------------------------------------------------

TEST(Theorem6Test, TightClusterIsMassive) {
  const StatePair state = test::make_state_1d(
      {{0.1, 0.5}, {0.11, 0.51}, {0.12, 0.52}, {0.13, 0.53}, {0.14, 0.54}});
  Characterizer characterizer(state, {.r = 0.05, .tau = 3});
  for (DeviceId j = 0; j < 5; ++j) {
    const Decision d = characterizer.characterize(j);
    EXPECT_EQ(d.cls, AnomalyClass::kMassive) << "device " << j;
    EXPECT_EQ(d.rule, DecisionRule::kTheorem6) << "device " << j;
  }
}

// Figure 4 of the paper: the split of D_k(4) into J_k(4) and L_k(4), tau=2.
// Paper ids 1..7 map to indices 0..6; "device 4" is index 3.
class Figure4aTest : public ::testing::Test {
 protected:
  Figure4aTest()
      : state_(test::make_state_1d({
            {0.10, 0.80},  // 1
            {0.20, 0.78},  // 2
            {0.12, 0.70},  // 3
            {0.22, 0.72},  // 4
            {0.38, 0.74},  // 5
        })),
        characterizer_(state_, {.r = 0.10, .tau = 2}) {}

  StatePair state_;
  Characterizer characterizer_;
};

TEST_F(Figure4aTest, NeighbourhoodSplitMatchesPaper) {
  // D_k(4) = {1,2,3,4,5}, J_k(4) = {1,2,3,4,5}, L_k(4) = {} (paper ids).
  EXPECT_EQ(characterizer_.neighbourhood_d(3), DeviceSet({0, 1, 2, 3, 4}));
  EXPECT_EQ(characterizer_.neighbourhood_j(3), DeviceSet({0, 1, 2, 3, 4}));
  EXPECT_TRUE(characterizer_.neighbourhood_l(3).empty());
}

TEST_F(Figure4aTest, Device4MassiveByTheorem6) {
  const Decision d = characterizer_.characterize(3);
  EXPECT_EQ(d.cls, AnomalyClass::kMassive);
  EXPECT_EQ(d.rule, DecisionRule::kTheorem6);
}

class Figure4bTest : public ::testing::Test {
 protected:
  Figure4bTest()
      : state_(test::make_state_1d({
            {0.10, 0.80},  // 1
            {0.20, 0.78},  // 2
            {0.12, 0.70},  // 3
            {0.22, 0.72},  // 4
            {0.38, 0.74},  // 5
            {0.52, 0.76},  // 6
            {0.54, 0.78},  // 7
        })),
        characterizer_(state_, {.r = 0.10, .tau = 2}) {}

  StatePair state_;
  Characterizer characterizer_;
};

TEST_F(Figure4bTest, NeighbourhoodSplitMatchesPaper) {
  // D_k(4) = {1,2,3,4,5}, J_k(4) = {1,2,3,4}, L_k(4) = {5} (paper ids).
  EXPECT_EQ(characterizer_.neighbourhood_d(3), DeviceSet({0, 1, 2, 3, 4}));
  EXPECT_EQ(characterizer_.neighbourhood_j(3), DeviceSet({0, 1, 2, 3}));
  EXPECT_EQ(characterizer_.neighbourhood_l(3), DeviceSet({4}));
}

TEST_F(Figure4bTest, Device4StillMassiveByTheorem6) {
  const Decision d = characterizer_.characterize(3);
  EXPECT_EQ(d.cls, AnomalyClass::kMassive);
  EXPECT_EQ(d.rule, DecisionRule::kTheorem6);
}

TEST_F(Figure4bTest, Device5HasMotionsOnBothSides) {
  // Device 5 (index 4) belongs to C2={2,4,5} and C3={5,6,7}.
  const auto dense =
      test::members_of(characterizer_.plane(), characterizer_.plane().dense(4));
  ASSERT_EQ(dense.size(), 2u);
  EXPECT_EQ(dense[0], DeviceSet({1, 3, 4}));
  EXPECT_EQ(dense[1], DeviceSet({4, 5, 6}));
}

// ---------------------------------------------------------------------------
// Figure 3: unresolved configuration. Devices 1 and 5 (indices 0, 4) are
// unresolved; 2, 3, 4 are massive.
// ---------------------------------------------------------------------------
class Figure3CharacterizerTest : public ::testing::Test {
 protected:
  Figure3CharacterizerTest()
      : state_(test::make_state_1d({
            {0.10, 0.50},
            {0.14, 0.51},
            {0.16, 0.52},
            {0.18, 0.53},
            {0.22, 0.54},
        })),
        characterizer_(state_, {.r = 0.05, .tau = 3}) {}

  StatePair state_;
  Characterizer characterizer_;
};

TEST_F(Figure3CharacterizerTest, EndpointsUnresolvedByCorollary8) {
  for (const DeviceId j : {DeviceId{0}, DeviceId{4}}) {
    const Decision d = characterizer_.characterize(j);
    EXPECT_EQ(d.cls, AnomalyClass::kUnresolved) << "device " << j;
    EXPECT_EQ(d.rule, DecisionRule::kCorollary8) << "device " << j;
    EXPECT_TRUE(d.exact);
    EXPECT_GE(d.collections_tested, 1u);
  }
}

TEST_F(Figure3CharacterizerTest, CoreDevicesMassive) {
  for (const DeviceId j : {DeviceId{1}, DeviceId{2}, DeviceId{3}}) {
    const Decision d = characterizer_.characterize(j);
    EXPECT_EQ(d.cls, AnomalyClass::kMassive) << "device " << j;
    EXPECT_EQ(d.rule, DecisionRule::kTheorem6) << "device " << j;
  }
}

TEST_F(Figure3CharacterizerTest, WithoutFullNscEndpointsReportUnresolved) {
  Characterizer cheap(state_, {.r = 0.05, .tau = 3},
                      CharacterizeOptions{.run_full_nsc = false});
  const Decision d = cheap.characterize(0);
  EXPECT_EQ(d.cls, AnomalyClass::kUnresolved);
  EXPECT_EQ(d.rule, DecisionRule::kTheorem6Only);
}

// ---------------------------------------------------------------------------
// Figure 5: the ring of four pairs, tau = 3. Theorem 6 is insufficient for
// every device, yet all are massive — only Theorem 7 decides. Pairs (paper
// ids): {1,2}, {3,4}, {5,6}, {7,8} at the four corners of an l-infinity
// diamond; adjacent pairs are within 2r, opposite pairs are not.
// ---------------------------------------------------------------------------
class Figure5Test : public ::testing::Test {
 protected:
  Figure5Test()
      : state_(test::make_state_1d({
            {0.10, 0.01},  // 1   bottom pair
            {0.11, 0.00},  // 2
            {0.20, 0.10},  // 3   right pair
            {0.21, 0.11},  // 4
            {0.10, 0.20},  // 5   top pair
            {0.11, 0.21},  // 6
            {0.00, 0.10},  // 7   left pair
            {0.01, 0.11},  // 8
        })),
        characterizer_(state_, {.r = 0.075, .tau = 3}) {}

  StatePair state_;
  Characterizer characterizer_;
};

TEST_F(Figure5Test, MaximalDenseMotionsOfDevice1MatchPaper) {
  const auto dense =
      test::members_of(characterizer_.plane(), characterizer_.plane().dense(0));
  ASSERT_EQ(dense.size(), 2u);
  EXPECT_EQ(dense[0], DeviceSet({0, 1, 2, 3}));  // {1,2,3,4} in paper ids
  EXPECT_EQ(dense[1], DeviceSet({0, 1, 6, 7}));  // {1,2,7,8} in paper ids
}

TEST_F(Figure5Test, NeighbourhoodSplitMatchesPaper) {
  // J_k(1) = {1,2}, L_k(1) = {3,4,7,8} (paper ids).
  EXPECT_EQ(characterizer_.neighbourhood_j(0), DeviceSet({0, 1}));
  EXPECT_EQ(characterizer_.neighbourhood_l(0), DeviceSet({2, 3, 6, 7}));
}

TEST_F(Figure5Test, EveryDeviceMassiveViaTheorem7) {
  for (DeviceId j = 0; j < 8; ++j) {
    const Decision d = characterizer_.characterize(j);
    EXPECT_EQ(d.cls, AnomalyClass::kMassive) << "device " << j;
    EXPECT_EQ(d.rule, DecisionRule::kTheorem7) << "device " << j;
    EXPECT_TRUE(d.exact);
  }
}

TEST_F(Figure5Test, TheoremSixAloneLeavesRingUnresolved) {
  Characterizer cheap(state_, {.r = 0.075, .tau = 3},
                      CharacterizeOptions{.run_full_nsc = false});
  for (DeviceId j = 0; j < 8; ++j) {
    EXPECT_EQ(cheap.characterize(j).cls, AnomalyClass::kUnresolved);
  }
}

TEST_F(Figure5Test, BudgetExhaustionIsReportedNotSilent) {
  Characterizer tiny(state_, {.r = 0.075, .tau = 3},
                     CharacterizeOptions{.node_budget = 1});
  const Decision d = tiny.characterize(0);
  EXPECT_FALSE(d.exact);
  EXPECT_EQ(d.rule, DecisionRule::kBudgetExhausted);
  EXPECT_EQ(d.cls, AnomalyClass::kUnresolved);  // safe side
}

// ---------------------------------------------------------------------------
// characterize_all: bulk classification equals per-device classification.
// ---------------------------------------------------------------------------

TEST(CharacterizeAllTest, BucketsMatchPerDeviceDecisions) {
  const StatePair state = test::make_state_1d({
      {0.10, 0.50}, {0.14, 0.51}, {0.16, 0.52}, {0.18, 0.53}, {0.22, 0.54},
      {0.90, 0.10},
  });
  Characterizer characterizer(state, {.r = 0.05, .tau = 3});
  const CharacterizationSets sets = characterizer.characterize_all();
  EXPECT_EQ(sets.massive, DeviceSet({1, 2, 3}));
  EXPECT_EQ(sets.unresolved, DeviceSet({0, 4}));
  EXPECT_EQ(sets.isolated, DeviceSet({5}));
}

}  // namespace
}  // namespace acn
