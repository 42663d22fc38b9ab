// Invariants of the §VII-A workload generator: groups honour R1/R2 (and R3
// when enforced), ground truth is consistent, positions stay in E, and the
// statistics land where the paper's setup expects them.
#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include "core/motion.hpp"
#include "core/motion_plane.hpp"

namespace acn {
namespace {

ScenarioParams base_params(std::uint64_t seed) {
  ScenarioParams params;
  params.n = 400;
  params.d = 2;
  params.model = {.r = 0.03, .tau = 3};
  params.errors_per_step = 10;
  params.isolated_probability = 0.4;
  params.seed = seed;
  return params;
}

TEST(ScenarioGeneratorTest, PositionsStayInUnitBox) {
  ScenarioGenerator generator(base_params(1));
  for (int k = 0; k < 20; ++k) {
    (void)generator.advance();
    for (const Point& p : generator.positions()) EXPECT_TRUE(p.in_unit_box());
  }
}

TEST(ScenarioGeneratorTest, AbnormalSetMatchesEvents) {
  ScenarioGenerator generator(base_params(2));
  const ScenarioStep step = generator.advance();
  DeviceSet from_events;
  for (const ErrorEvent& event : step.truth.events) {
    from_events = from_events.set_union(event.devices);
  }
  EXPECT_EQ(from_events, step.truth.abnormal);
  EXPECT_EQ(step.state.abnormal(), step.truth.abnormal);
  EXPECT_EQ(step.truth.truly_isolated.set_union(step.truth.truly_massive),
            step.truth.abnormal);
  EXPECT_TRUE(step.truth.truly_isolated.is_disjoint_from(step.truth.truly_massive));
}

TEST(ScenarioGeneratorTest, R1EventsAreDisjoint) {
  ScenarioGenerator generator(base_params(3));
  for (int k = 0; k < 10; ++k) {
    const ScenarioStep step = generator.advance();
    DeviceSet seen;
    for (const ErrorEvent& event : step.truth.events) {
      EXPECT_TRUE(seen.is_disjoint_from(event.devices));
      seen = seen.set_union(event.devices);
    }
  }
}

TEST(ScenarioGeneratorTest, R2GroupsKeepConsistentMotion) {
  // Every injected group sat in a ball of radius r at k-1 and moved with a
  // common displacement: it must form an r-consistent motion.
  auto params = base_params(4);
  ScenarioGenerator generator(params);
  for (int k = 0; k < 10; ++k) {
    const ScenarioStep step = generator.advance();
    for (const ErrorEvent& event : step.truth.events) {
      EXPECT_TRUE(has_consistent_motion(step.state, event.devices, params.model.r))
          << event.devices.to_string();
    }
  }
}

TEST(ScenarioGeneratorTest, TruthLabelsFollowGroupSize) {
  ScenarioGenerator generator(base_params(5));
  const ScenarioStep step = generator.advance();
  for (const ErrorEvent& event : step.truth.events) {
    EXPECT_EQ(event.massive, event.devices.size() > 3u);
    for (const DeviceId j : event.devices) {
      EXPECT_EQ(event.massive, step.truth.truly_massive.contains(j));
    }
  }
}

TEST(ScenarioGeneratorTest, OnlyImpactedDevicesMove) {
  auto params = base_params(6);
  ScenarioGenerator generator(params);
  const std::vector<Point> before = generator.positions();
  const ScenarioStep step = generator.advance();
  for (DeviceId j = 0; j < params.n; ++j) {
    if (!step.truth.abnormal.contains(j)) {
      EXPECT_EQ(generator.positions()[j], before[j]) << "device " << j;
    }
  }
}

TEST(ScenarioGeneratorTest, R3KeepsIsolatedGroupsOutOfDenseMotions) {
  auto params = base_params(7);
  params.enforce_r3 = true;
  params.errors_per_step = 20;
  ScenarioGenerator generator(params);
  for (int k = 0; k < 10; ++k) {
    const ScenarioStep step = generator.advance();
    if (step.truth.abnormal.empty()) continue;
    const MotionPlane plane(step.state, params.model);
    for (const DeviceId j : step.truth.truly_isolated) {
      EXPECT_TRUE(plane.dense(j).empty())
          << "R3 violated for device " << j << " at step " << k;
    }
  }
}

TEST(ScenarioGeneratorTest, DeterministicForSameSeed) {
  ScenarioGenerator a(base_params(8));
  ScenarioGenerator b(base_params(8));
  for (int k = 0; k < 5; ++k) {
    const ScenarioStep sa = a.advance();
    const ScenarioStep sb = b.advance();
    EXPECT_EQ(sa.truth.abnormal, sb.truth.abnormal);
    EXPECT_EQ(sa.state.curr().positions(), sb.state.curr().positions());
  }
}

TEST(ScenarioGeneratorTest, IsolatedOnlyWorkloadHasNoMassiveTruth) {
  auto params = base_params(9);
  params.isolated_probability = 1.0;
  ScenarioGenerator generator(params);
  for (int k = 0; k < 5; ++k) {
    EXPECT_TRUE(generator.advance().truth.truly_massive.empty());
  }
}

TEST(ScenarioGeneratorTest, MassiveAnchorRetriesRaiseMassiveShare) {
  auto sparse = base_params(10);
  sparse.n = 150;  // sparse space: balls frequently underfull
  sparse.isolated_probability = 0.0;
  auto retried = sparse;
  retried.massive_anchor_retries = 16;

  std::size_t massive_without = 0;
  std::size_t massive_with = 0;
  ScenarioGenerator g1(sparse);
  ScenarioGenerator g2(retried);
  for (int k = 0; k < 10; ++k) {
    massive_without += g1.advance().truth.truly_massive.size();
    massive_with += g2.advance().truth.truly_massive.size();
  }
  EXPECT_GT(massive_with, massive_without);
}

TEST(ScenarioGeneratorTest, CalibratedProfileValidates) {
  auto params = base_params(11);
  params.apply_calibrated_profile();
  EXPECT_NO_THROW(params.validate());
  ScenarioGenerator generator(params);
  EXPECT_NO_THROW((void)generator.advance());
}

TEST(ScenarioGeneratorTest, ValidationRejectsBadParameters) {
  auto params = base_params(12);
  params.isolated_probability = 1.5;
  EXPECT_THROW(ScenarioGenerator{params}, std::invalid_argument);
  params = base_params(12);
  params.errors_per_step = 0;
  EXPECT_THROW(ScenarioGenerator{params}, std::invalid_argument);
  params = base_params(12);
  params.concomitance = -0.1;
  EXPECT_THROW(ScenarioGenerator{params}, std::invalid_argument);
}

// Concomitance is the superposition dial: more concomitant errors must mean
// more unresolved configurations (measured through the characterizer in the
// metrics test); here we check the geometric precondition — concomitant
// steps produce more cross-error joint adjacency.
TEST(ScenarioGeneratorTest, ConcomitanceIncreasesCrossErrorAdjacency) {
  const auto adjacency = [](double q, std::uint64_t seed) {
    auto params = base_params(seed);
    params.n = 1000;
    params.errors_per_step = 20;
    params.isolated_probability = 0.0;
    params.concomitance = q;
    params.massive_anchor_retries = 16;
    ScenarioGenerator generator(params);
    std::size_t close_pairs = 0;
    for (int k = 0; k < 8; ++k) {
      const ScenarioStep step = generator.advance();
      const auto& events = step.truth.events;
      for (std::size_t a = 0; a < events.size(); ++a) {
        for (std::size_t b = a + 1; b < events.size(); ++b) {
          bool close = false;
          for (const DeviceId x : events[a].devices) {
            for (const DeviceId y : events[b].devices) {
              if (step.state.joint_distance(x, y) <= 2.0 * params.model.window()) {
                close = true;
              }
            }
          }
          close_pairs += close ? 1 : 0;
        }
      }
    }
    return close_pairs;
  };
  EXPECT_GT(adjacency(0.8, 13), adjacency(0.0, 13) * 2);
}

}  // namespace
}  // namespace acn
