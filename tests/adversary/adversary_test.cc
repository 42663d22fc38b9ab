// The §VIII future-work attack surface: collusion can flip verdicts, and
// the clone filter claws the shadow-crowd attack back.
#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "adversary/adversary.hpp"
#include "adversary/defense.hpp"
#include "core/characterizer.hpp"
#include "shaped_interval.hpp"
#include "support/test_util.hpp"

namespace acn {
namespace {

const Params kModel{.r = 0.05, .tau = 3};
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Victim (device 0) suffers an isolated crash; devices 1..6 are healthy
/// bystanders scattered far away.
StatePair honest_scene() {
  return test::make_state_1d(
      {
          {0.90, 0.20},  // victim: genuine isolated anomaly
          {0.40, 0.40},
          {0.45, 0.45},
          {0.50, 0.50},
          {0.55, 0.55},
          {0.60, 0.60},
          {0.65, 0.65},
      },
      DeviceSet({0}));
}

/// Five devices genuinely crash together: a massive event.
StatePair massive_scene() {
  return test::make_state_1d(
      {
          {0.10, 0.60}, {0.12, 0.62}, {0.14, 0.64}, {0.16, 0.66}, {0.18, 0.68},
      },
      DeviceSet({0, 1, 2, 3, 4}));
}

TrajectoryShaper shadow_crowd(std::vector<DeviceId> colluders,
                              double claim_jitter = 0.35) {
  return TrajectoryShaper({.strategy = TrajectoryAttack::kShadowCrowd,
                           .colluders = std::move(colluders),
                           .model = kModel,
                           .claim_jitter = claim_jitter});
}

TEST(ShadowCrowdAttackTest, FlipsIsolatedVictimToMassive) {
  const StatePair honest = honest_scene();
  Characterizer before(honest, kModel);
  ASSERT_EQ(before.characterize(0).cls, AnomalyClass::kIsolated);

  TrajectoryShaper shaper = shadow_crowd({1, 2, 3});  // tau colluders + victim
  const bench::ShapedInterval attacked = bench::shape_interval(honest, shaper, 0);

  Characterizer after(attacked.observed, kModel);
  EXPECT_EQ(after.characterize(0).cls, AnomalyClass::kMassive)
      << "the paper's anticipated attack: the victim now believes the whole "
         "neighbourhood crashed and never calls support";
  EXPECT_EQ(attacked.fabricated, DeviceSet({1, 2, 3}));
}

TEST(ShadowCrowdAttackTest, TooFewColludersFail) {
  TrajectoryShaper shaper = shadow_crowd({1, 2});  // tau - 1: motion stays sparse
  const bench::ShapedInterval attacked = bench::shape_interval(honest_scene(), shaper, 0);
  Characterizer after(attacked.observed, kModel);
  EXPECT_EQ(after.characterize(0).cls, AnomalyClass::kIsolated);
}

TEST(CloneFilterTest, RecoversTheVictim) {
  // Tight collusion, as the attack needs.
  TrajectoryShaper shaper = shadow_crowd({1, 2, 3, 4}, 0.05);
  const bench::ShapedInterval attacked = bench::shape_interval(honest_scene(), shaper, 0);

  const CloneFilter filter({.suspicion_factor = 0.2, .min_group = 3});
  const DeviceSet dropped = filter.suspicious(attacked.observed, kModel);
  // The clone group is the victim + colluders; all but one member dropped.
  EXPECT_GE(dropped.size(), 3u);
  EXPECT_TRUE(dropped.is_subset_of(DeviceSet({0, 1, 2, 3, 4})));

  const StatePair cleaned = filter.filtered(attacked.observed, kModel);
  // After filtering, whoever survived of the clone group decides isolated.
  Characterizer after(cleaned, kModel);
  for (const DeviceId j : cleaned.abnormal()) {
    EXPECT_EQ(after.characterize(j).cls, AnomalyClass::kIsolated);
  }
}

TEST(CloneFilterTest, HonestTightGroupsBelowMinGroupSurvive) {
  // Two honestly co-moving devices are not a crowd; nothing is dropped.
  const StatePair state = test::make_state_1d(
      {{0.90, 0.20}, {0.901, 0.201}}, DeviceSet({0, 1}));
  const CloneFilter filter({.suspicion_factor = 0.2, .min_group = 3});
  EXPECT_TRUE(filter.suspicious(state, kModel).empty());
}

TEST(CloneFilterTest, HonestMassiveGroupSurvives) {
  // A genuine error group keeps its natural intra-ball spread (~r), well
  // above the suspicion radius: no honest device is dropped.
  const StatePair state = test::make_state_1d(
      {
          {0.10, 0.60}, {0.14, 0.64}, {0.18, 0.68}, {0.12, 0.62}, {0.16, 0.66},
      },
      DeviceSet({0, 1, 2, 3, 4}));
  const CloneFilter filter({.suspicion_factor = 0.2, .min_group = 3});
  EXPECT_TRUE(filter.suspicious(state, kModel).empty());
  Characterizer characterizer(state, kModel);
  EXPECT_EQ(characterizer.characterize(0).cls, AnomalyClass::kMassive);
}

TEST(ScatterChaffAttackTest, HidesAMassiveEvent) {
  // Three of the five crashed devices are colluders who scatter their
  // claims: the two honest victims lose their dense motion.
  const StatePair honest = massive_scene();
  Characterizer before(honest, kModel);
  ASSERT_EQ(before.characterize(0).cls, AnomalyClass::kMassive);

  TrajectoryShaper shaper({.strategy = TrajectoryAttack::kScatterChaff,
                           .colluders = {2, 3, 4},
                           .model = kModel});
  const bench::ShapedInterval attacked = bench::shape_interval(honest, shaper, std::nullopt);
  EXPECT_EQ(attacked.observed.abnormal(), honest.abnormal());
  Characterizer after(attacked.observed, kModel);
  EXPECT_EQ(after.characterize(0).cls, AnomalyClass::kIsolated)
      << "the honest victims now flood the support desk";
}

TEST(TrajectoryShaperTest, FabricatesTheColludersAscendingOnlyForAnAbnormalVictim) {
  for (const TrajectoryAttack strategy :
       {TrajectoryAttack::kShadowCrowd, TrajectoryAttack::kSuperpositionBomb}) {
    SCOPED_TRACE(to_string(strategy));
    TrajectoryShaper shaper({.strategy = strategy,
                             .colluders = {5, 1, 3},
                             .model = kModel});
    std::vector<Point> claimed = honest_scene().curr().positions();
    EXPECT_TRUE(shaper.shape(0, false, claimed).empty());
    EXPECT_EQ(shaper.shape(0, true, claimed), (std::vector<DeviceId>{1, 3, 5}));
    // No victim: the targeted strategies freeze their claims.
    const std::vector<Point> frozen = claimed;
    EXPECT_TRUE(shaper.shape(std::nullopt, true, claimed).empty());
    EXPECT_EQ(claimed, frozen);
  }
  // Untargeted chaff claims a_k = true every interval.
  TrajectoryShaper chaff({.strategy = TrajectoryAttack::kScatterChaff,
                          .colluders = {5, 1, 3},
                          .model = kModel});
  std::vector<Point> claimed = honest_scene().curr().positions();
  EXPECT_EQ(chaff.shape(std::nullopt, false, claimed), (std::vector<DeviceId>{1, 3, 5}));
}

TEST(TrajectoryShaperTest, RejectsBadIds) {
  std::vector<Point> claimed = honest_scene().curr().positions();
  TrajectoryShaper unknown_colluder = shadow_crowd({99});
  EXPECT_THROW((void)unknown_colluder.shape(0, true, claimed), std::invalid_argument);
  TrajectoryShaper shaper = shadow_crowd({1});
  EXPECT_THROW((void)shaper.shape(99, true, claimed), std::invalid_argument);
}

TEST(TrajectoryShaperTest, RejectsNaNAndOutOfRangeSettings) {
  const auto make = [](double claim_jitter, double chain_spacing) {
    return TrajectoryShaper({.colluders = {1},
                             .model = kModel,
                             .claim_jitter = claim_jitter,
                             .chain_spacing = chain_spacing});
  };
  EXPECT_NO_THROW(make(0.0, 1.0));
  EXPECT_THROW(make(kNaN, 0.75), std::invalid_argument);
  EXPECT_THROW(make(std::numeric_limits<double>::infinity(), 0.75),
               std::invalid_argument);
  EXPECT_THROW(make(-0.1, 0.75), std::invalid_argument);
  EXPECT_THROW(make(0.35, kNaN), std::invalid_argument);
  EXPECT_THROW(make(0.35, 0.0), std::invalid_argument);
  EXPECT_THROW(make(0.35, 1.5), std::invalid_argument);
}

TEST(CloneFilterTest, Validation) {
  EXPECT_THROW(CloneFilter({.suspicion_factor = 0.0}), std::invalid_argument);
  EXPECT_THROW(CloneFilter({.suspicion_factor = 1.0}), std::invalid_argument);
  EXPECT_THROW(CloneFilter({.suspicion_factor = kNaN}), std::invalid_argument);
  EXPECT_THROW(CloneFilter({.suspicion_factor = 0.2, .min_group = 1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace acn
