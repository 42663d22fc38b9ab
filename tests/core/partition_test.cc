#include "core/partition.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "support/test_util.hpp"

namespace acn {
namespace {

TEST(AnomalyPartitionTest, RejectsOverlapsAndEmptyClasses) {
  EXPECT_THROW(AnomalyPartition({DeviceSet({1, 2}), DeviceSet({2, 3})}),
               std::invalid_argument);
  EXPECT_THROW(AnomalyPartition({DeviceSet{}}), std::invalid_argument);
}

TEST(AnomalyPartitionTest, ClassLookup) {
  const AnomalyPartition p({DeviceSet({1, 2}), DeviceSet({3})});
  EXPECT_EQ(p.class_of(1), DeviceSet({1, 2}));
  EXPECT_EQ(p.class_of(3), DeviceSet({3}));
  EXPECT_THROW((void)p.class_of(9), std::out_of_range);
  EXPECT_TRUE(p.covers(2));
  EXPECT_FALSE(p.covers(9));
}

TEST(AnomalyPartitionTest, MassiveAndIsolatedSplit) {
  const AnomalyPartition p({DeviceSet({1, 2, 3, 4}), DeviceSet({5}), DeviceSet({6, 7})});
  EXPECT_EQ(p.massive_devices(3), DeviceSet({1, 2, 3, 4}));
  EXPECT_EQ(p.isolated_devices(3), DeviceSet({5, 6, 7}));
  EXPECT_EQ(p.massive_devices(1), DeviceSet({1, 2, 3, 4, 6, 7}));
  EXPECT_EQ(p.support(), DeviceSet({1, 2, 3, 4, 5, 6, 7}));
}

// ---------------------------------------------------------------------------
// Validity checker.
// ---------------------------------------------------------------------------

TEST(PartitionValidityTest, AcceptsTheValidPartitionOfTheCounterexample) {
  const StatePair state = test::make_static_1d({0.0, 0.225, 0.3, 0.325});
  const Params params{.r = 0.125, .tau = 2};
  std::string why;
  const AnomalyPartition good({DeviceSet({0}), DeviceSet({1, 2, 3})});
  EXPECT_TRUE(is_valid_anomaly_partition(state, params, good, &why)) << why;
}

TEST(PartitionValidityTest, RejectsC1Violation) {
  // The greedy counterexample documented in partition.hpp: classes {0,1} and
  // {2,3} are sparse, but {1,2,3} is a dense motion inside their union.
  const StatePair state = test::make_static_1d({0.0, 0.225, 0.3, 0.325});
  const Params params{.r = 0.125, .tau = 2};
  std::string why;
  const AnomalyPartition bad({DeviceSet({0, 1}), DeviceSet({2, 3})});
  EXPECT_FALSE(is_valid_anomaly_partition(state, params, bad, &why));
  EXPECT_NE(why.find("C1"), std::string::npos) << why;
}

TEST(PartitionValidityTest, RejectsC2Violation) {
  // Dense class {0,1,2} and nearby sparse {3} that could join it.
  const StatePair state = test::make_static_1d({0.10, 0.12, 0.14, 0.16});
  const Params params{.r = 0.05, .tau = 2};
  std::string why;
  const AnomalyPartition bad({DeviceSet({0, 1, 2}), DeviceSet({3})});
  EXPECT_FALSE(is_valid_anomaly_partition(state, params, bad, &why));
  EXPECT_NE(why.find("C2"), std::string::npos) << why;
}

TEST(PartitionValidityTest, RejectsNonMotionClass) {
  const StatePair state = test::make_static_1d({0.1, 0.9});
  const Params params{.r = 0.05, .tau = 1};
  std::string why;
  const AnomalyPartition bad({DeviceSet({0, 1})});
  EXPECT_FALSE(is_valid_anomaly_partition(state, params, bad, &why));
  EXPECT_NE(why.find("motion"), std::string::npos) << why;
}

TEST(PartitionValidityTest, RejectsIncompleteCover) {
  const StatePair state = test::make_static_1d({0.1, 0.9});
  const Params params{.r = 0.05, .tau = 1};
  const AnomalyPartition partial({DeviceSet({0})});
  EXPECT_FALSE(is_valid_anomaly_partition(state, params, partial, nullptr));
}

// ---------------------------------------------------------------------------
// Figure 2 of the paper: ten devices, tau = 3; the anomaly partition is not
// unique (Lemma 2). Maximal motions: {1,2,3}, {2,3,4}, {5,...,9}, {10}
// (paper ids; indices are one less).
// ---------------------------------------------------------------------------
class Figure2Test : public ::testing::Test {
 protected:
  Figure2Test()
      : state_(test::make_state_1d({
            {0.10, 0.50},  // 1
            {0.16, 0.55},  // 2
            {0.18, 0.52},  // 3
            {0.24, 0.56},  // 4
            {0.60, 0.20},  // 5
            {0.62, 0.22},  // 6
            {0.64, 0.24},  // 7
            {0.66, 0.21},  // 8
            {0.68, 0.23},  // 9
            {0.90, 0.90},  // 10
        })),
        params_{.r = 0.05, .tau = 3} {}

  StatePair state_;
  Params params_;
};

TEST_F(Figure2Test, BothPaperPartitionsAreValid) {
  std::string why;
  const AnomalyPartition p1({DeviceSet({0, 1, 2}), DeviceSet({3}),
                             DeviceSet({4, 5, 6, 7, 8}), DeviceSet({9})});
  EXPECT_TRUE(is_valid_anomaly_partition(state_, params_, p1, &why)) << why;
  const AnomalyPartition p2({DeviceSet({0}), DeviceSet({1, 2, 3}),
                             DeviceSet({4, 5, 6, 7, 8}), DeviceSet({9})});
  EXPECT_TRUE(is_valid_anomaly_partition(state_, params_, p2, &why)) << why;
}

TEST_F(Figure2Test, GreedyProducesValidPartitionHere) {
  Rng rng(1234);
  for (int attempt = 0; attempt < 20; ++attempt) {
    const AnomalyPartition p = build_greedy_partition(state_, params_, rng);
    std::string why;
    EXPECT_TRUE(is_valid_anomaly_partition(state_, params_, p, &why)) << why;
  }
}

TEST_F(Figure2Test, RobustBuilderAlwaysValid) {
  Rng rng(99);
  for (int attempt = 0; attempt < 10; ++attempt) {
    const AnomalyPartition p = build_anomaly_partition(state_, params_, rng);
    std::string why;
    ASSERT_TRUE(is_valid_anomaly_partition(state_, params_, p, &why)) << why;
    // The dense cluster must always form one class.
    EXPECT_EQ(p.class_of(4), DeviceSet({4, 5, 6, 7, 8}));
  }
}

// ---------------------------------------------------------------------------
// The greedy counterexample: faithful Algorithm 1 can emit invalid
// partitions; the robust builder never does.
// ---------------------------------------------------------------------------

TEST(GreedyCounterexampleTest, FaithfulGreedyCanViolateC1) {
  const StatePair state = test::make_static_1d({0.0, 0.225, 0.3, 0.325});
  const Params params{.r = 0.125, .tau = 2};
  bool saw_invalid = false;
  bool saw_valid = false;
  for (std::uint64_t seed = 0; seed < 64 && (!saw_invalid || !saw_valid); ++seed) {
    Rng rng(seed);
    const AnomalyPartition p = build_greedy_partition(state, params, rng);
    if (is_valid_anomaly_partition(state, params, p, nullptr)) {
      saw_valid = true;
    } else {
      saw_invalid = true;
    }
  }
  EXPECT_TRUE(saw_invalid)
      << "expected some greedy execution to produce an invalid partition";
  EXPECT_TRUE(saw_valid)
      << "expected some greedy execution to produce a valid partition";
}

TEST(GreedyCounterexampleTest, RobustBuilderSucceeds) {
  const StatePair state = test::make_static_1d({0.0, 0.225, 0.3, 0.325});
  const Params params{.r = 0.125, .tau = 2};
  Rng rng(7);
  const AnomalyPartition p = build_anomaly_partition(state, params, rng);
  std::string why;
  ASSERT_TRUE(is_valid_anomaly_partition(state, params, p, &why)) << why;
  EXPECT_EQ(p.class_of(1), DeviceSet({1, 2, 3}));
}

// ---------------------------------------------------------------------------
// Randomized: robust builder output is always a valid anomaly partition.
// ---------------------------------------------------------------------------

class PartitionBuilderSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionBuilderSweep, RobustBuilderAlwaysValidOnRandomInstances) {
  Rng rng(GetParam());
  const std::size_t n = 8 + rng.uniform_int(std::uint64_t{8});
  std::vector<std::pair<double, double>> pc;
  pc.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    pc.emplace_back(rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.4));
  }
  const StatePair state = test::make_state_1d(pc);
  const Params params{.r = 0.02 + 0.08 * rng.uniform(), .tau = 2};
  const AnomalyPartition p = build_anomaly_partition(state, params, rng);
  std::string why;
  EXPECT_TRUE(is_valid_anomaly_partition(state, params, p, &why)) << why;
  EXPECT_EQ(p.support(), state.abnormal());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionBuilderSweep,
                         ::testing::Range(std::uint64_t{0}, std::uint64_t{32}));

}  // namespace
}  // namespace acn
