// The §VIII future-work attack surface: collusion can flip verdicts, and
// the clone filter claws the shadow-crowd attack back.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "adversary/adversary.hpp"
#include "adversary/defense.hpp"
#include "common/rng.hpp"
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

/// The clone groups by testing every pair of A_k: the reference the grid
/// components must match.
DeviceSet pairwise_suspicious(const StatePair& state, double radius,
                              std::size_t min_group) {
  const std::vector<DeviceId> abnormal(state.abnormal().begin(), state.abnormal().end());
  std::vector<std::size_t> parent(abnormal.size());
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x];
    return x;
  };
  for (std::size_t a = 0; a < abnormal.size(); ++a) {
    for (std::size_t b = a + 1; b < abnormal.size(); ++b) {
      if (state.joint_distance(abnormal[a], abnormal[b]) <= radius) {
        parent[find(a)] = find(b);
      }
    }
  }
  std::vector<std::size_t> group_size(abnormal.size(), 0);
  for (std::size_t a = 0; a < abnormal.size(); ++a) ++group_size[find(a)];
  std::vector<DeviceId> drops;
  std::vector<bool> keeper_chosen(abnormal.size(), false);
  for (std::size_t a = 0; a < abnormal.size(); ++a) {
    const std::size_t root = find(a);
    if (group_size[root] < min_group) continue;
    if (!keeper_chosen[root]) {
      keeper_chosen[root] = true;
      continue;
    }
    drops.push_back(abnormal[a]);
  }
  return DeviceSet(std::move(drops));
}

TEST(CloneFilterTest, GroupsMatchThePairwiseReference) {
  // Random claims in d = 1..3 with clone groups planted (jitter below the
  // suspicion radius, at both times), partners exactly one radius apart on
  // one axis, exact duplicates and normal devices in between.
  std::size_t cases = 0;
  std::size_t dropped_total = 0;
  for (const std::size_t dim : {1u, 2u, 3u}) {
    for (const double factor : {0.05, 0.2, 0.9}) {
      for (const std::size_t min_group : {2u, 3u}) {
        const CloneFilter filter({.suspicion_factor = factor, .min_group = min_group});
        const double radius = factor * kModel.r;
        for (std::uint64_t seed = 1; seed <= 67; ++seed) {
          Rng rng(seed * 1000 + dim * 10 + min_group);
          std::vector<std::vector<double>> at(2);  // [time][device * dim + t]
          const auto add = [&](const std::vector<double>& joint) {
            for (std::size_t t = 0; t < 2 * dim; ++t) at[t / dim].push_back(joint[t]);
          };
          const auto joint_of = [&](std::size_t j) {
            std::vector<double> joint;
            for (std::size_t h = 0; h < 2; ++h) {
              joint.insert(joint.end(), at[h].begin() + j * dim, at[h].begin() + (j + 1) * dim);
            }
            return joint;
          };
          const std::size_t m = 1 + rng.uniform_int(std::uint64_t{40});
          for (std::size_t i = 0; i < m; ++i) {
            std::vector<double> joint(2 * dim);
            for (double& x : joint) x = rng.uniform();
            add(joint);
            const std::size_t base = at[0].size() / dim - 1;
            if (rng.bernoulli(0.2)) {  // a clone group around it
              const std::size_t clones = 1 + rng.uniform_int(std::uint64_t{4});
              for (std::size_t c = 0; c < clones; ++c) {
                std::vector<double> clone = joint_of(base);
                for (double& x : clone) {
                  x = std::clamp(x + rng.uniform(-0.5, 0.5) * radius, 0.0, 1.0);
                }
                add(clone);
              }
            }
            if (rng.bernoulli(0.15)) {  // a partner exactly one radius away
              std::vector<double> partner = joint_of(base);
              const std::size_t axis = rng.uniform_int(std::uint64_t{2 * dim});
              partner[axis] += partner[axis] + radius <= 1.0 ? radius : -radius;
              add(partner);
            }
            if (rng.bernoulli(0.05)) add(joint_of(base));  // an exact duplicate
          }
          const std::size_t n = at[0].size() / dim;
          std::vector<DeviceId> abnormal;
          for (DeviceId j = 0; j < n; ++j) {
            if (rng.bernoulli(0.8)) abnormal.push_back(j);
          }
          std::vector<double> prev(dim * n);
          std::vector<double> curr(dim * n);
          for (std::size_t j = 0; j < n; ++j) {
            for (std::size_t t = 0; t < dim; ++t) {
              prev[t * n + j] = at[0][j * dim + t];
              curr[t * n + j] = at[1][j * dim + t];
            }
          }
          const StatePair state(Snapshot(dim, std::move(prev)), Snapshot(dim, std::move(curr)),
                                DeviceSet(std::move(abnormal)));
          const DeviceSet reference = pairwise_suspicious(state, radius, min_group);
          EXPECT_EQ(filter.suspicious(state, kModel), reference)
              << "d=" << dim << " factor=" << factor << " min_group=" << min_group
              << " seed=" << seed;
          ++cases;
          dropped_total += reference.size();
        }
      }
    }
  }
  EXPECT_EQ(cases, 1206u);
  EXPECT_GT(dropped_total, 0u);
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
