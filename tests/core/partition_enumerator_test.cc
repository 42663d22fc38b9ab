#include "core/partition_enumerator.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.hpp"
#include "support/test_util.hpp"

namespace acn {
namespace {

// ---------------------------------------------------------------------------
// Figure 3 of the paper (Theorem 3, ACP impossibility): five devices, tau=3,
// maximal motions C1 = {1,2,3,4}, C2 = {2,3,4,5}; exactly two anomaly
// partitions exist and they disagree on devices 1 and 5 (indices 0 and 4).
// ---------------------------------------------------------------------------
class Figure3Test : public ::testing::Test {
 protected:
  Figure3Test()
      : state_(test::make_state_1d({
            {0.10, 0.50},  // 1
            {0.14, 0.51},  // 2
            {0.16, 0.52},  // 3
            {0.18, 0.53},  // 4
            {0.22, 0.54},  // 5
        })),
        params_{.r = 0.05, .tau = 3} {}

  StatePair state_;
  Params params_;
};

TEST_F(Figure3Test, ExactlyTwoAnomalyPartitions) {
  const PartitionEnumerator enumerator(state_, params_);
  const auto partitions = enumerator.enumerate_all();
  ASSERT_EQ(partitions.size(), 2u);
}

TEST_F(Figure3Test, PartitionsMatchThePaper) {
  const PartitionEnumerator enumerator(state_, params_);
  bool saw_c1 = false;
  bool saw_c2 = false;
  for (const auto& p : enumerator.enumerate_all()) {
    if (p.covers(0) && p.class_of(0) == DeviceSet({0, 1, 2, 3})) saw_c1 = true;
    if (p.covers(4) && p.class_of(4) == DeviceSet({1, 2, 3, 4})) saw_c2 = true;
  }
  EXPECT_TRUE(saw_c1);
  EXPECT_TRUE(saw_c2);
}

TEST_F(Figure3Test, CharacterizationSetsMatchTheorem3) {
  const PartitionEnumerator enumerator(state_, params_);
  const CharacterizationSets sets = enumerator.characterize_all();
  EXPECT_EQ(sets.massive, DeviceSet({1, 2, 3}));
  EXPECT_EQ(sets.unresolved, DeviceSet({0, 4}));
  EXPECT_TRUE(sets.isolated.empty());
  EXPECT_FALSE(sets.acp_solvable());  // Theorem 3: ACP cannot be solved here
}

TEST_F(Figure3Test, CountPartitions) {
  const PartitionEnumerator enumerator(state_, params_);
  EXPECT_EQ(enumerator.count_partitions(), 2u);
}

// ---------------------------------------------------------------------------
// Component decomposition.
// ---------------------------------------------------------------------------

TEST(PartitionEnumeratorTest, ComponentsSplitByJointDistance) {
  const StatePair state =
      test::make_static_1d({0.10, 0.12, 0.50, 0.52, 0.54, 0.90});
  const PartitionEnumerator enumerator(state, Params{.r = 0.02, .tau = 1});
  const auto comps = enumerator.components();
  ASSERT_EQ(comps.size(), 3u);
  EXPECT_EQ(comps[0], (std::vector<DeviceId>{0, 1}));
  EXPECT_EQ(comps[1], (std::vector<DeviceId>{2, 3, 4}));
  EXPECT_EQ(comps[2], (std::vector<DeviceId>{5}));
}

TEST(PartitionEnumeratorTest, ComponentsUseJointNotSingleInstantDistance) {
  // Close at k-1, far at k: not connected.
  const StatePair state = test::make_state_1d({{0.1, 0.1}, {0.12, 0.9}});
  const PartitionEnumerator enumerator(state, Params{.r = 0.05, .tau = 1});
  EXPECT_EQ(enumerator.components().size(), 2u);
}

TEST(PartitionEnumeratorTest, RejectsNaNRadius) {
  const StatePair state = test::make_static_1d({0.10, 0.12});
  EXPECT_THROW(PartitionEnumerator(
                   state, Params{.r = std::numeric_limits<double>::quiet_NaN(), .tau = 1}),
               std::invalid_argument);
}

TEST(PartitionEnumeratorTest, WholeSetEnumerationMatchesComponentwise) {
  // Two independent pairs: component-wise counting must equal the product
  // observed on whole-set enumeration.
  const StatePair state = test::make_static_1d({0.10, 0.14, 0.60, 0.64});
  const PartitionEnumerator enumerator(state, Params{.r = 0.04, .tau = 1});
  const auto whole = enumerator.enumerate_all();
  EXPECT_EQ(static_cast<std::uint64_t>(whole.size()), enumerator.count_partitions());
}

TEST(PartitionEnumeratorTest, LimitEnforced) {
  std::vector<double> xs(16);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = 0.1 + 0.001 * i;
  const StatePair state = test::make_static_1d(xs);
  const PartitionEnumerator enumerator(
      state, Params{.r = 0.1, .tau = 2},
      PartitionEnumerator::Limits{.max_component_size = 8,
                                  .max_partitions_per_component = 1000});
  EXPECT_THROW((void)enumerator.characterize_all(), EnumerationLimitError);
}

// ---------------------------------------------------------------------------
// Lemma 2 (existence): every random instance admits at least one anomaly
// partition; and every enumerated partition passes the validity checker.
// ---------------------------------------------------------------------------

class Lemma2Sweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Lemma2Sweep, ValidPartitionAlwaysExists) {
  Rng rng(GetParam());
  const std::size_t n = 6 + rng.uniform_int(std::uint64_t{6});
  std::vector<std::pair<double, double>> pc;
  for (std::size_t j = 0; j < n; ++j) {
    pc.emplace_back(rng.uniform(0.0, 0.35), rng.uniform(0.0, 0.35));
  }
  const StatePair state = test::make_state_1d(pc);
  const Params params{.r = 0.03 + 0.05 * rng.uniform(),
                      .tau = static_cast<std::uint32_t>(1 + rng.uniform_int(std::uint64_t{3}))};
  const PartitionEnumerator enumerator(state, params);
  const auto partitions = enumerator.enumerate_all();
  ASSERT_GE(partitions.size(), 1u) << "Lemma 2 violated at seed " << GetParam();
  for (const auto& p : partitions) {
    std::string why;
    EXPECT_TRUE(is_valid_anomaly_partition(state, params, p, &why)) << why;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Lemma2Sweep,
                         ::testing::Range(std::uint64_t{0}, std::uint64_t{48}));

}  // namespace
}  // namespace acn
