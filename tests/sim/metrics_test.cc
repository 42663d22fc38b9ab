#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace acn {
namespace {

ScenarioParams small_params(std::uint64_t seed) {
  ScenarioParams params;
  params.n = 400;
  params.d = 2;
  params.model = {.r = 0.03, .tau = 3};
  params.errors_per_step = 8;
  params.isolated_probability = 0.5;
  params.seed = seed;
  params.massive_anchor_retries = 16;
  return params;
}

TEST(EvaluateStepTest, BucketsPartitionAbnormalSet) {
  const auto params = small_params(1);
  ScenarioGenerator generator(params);
  const ScenarioStep step = generator.advance();
  const StepMetrics m = evaluate_step(step, params.model);
  EXPECT_EQ(m.abnormal, step.truth.abnormal.size());
  EXPECT_EQ(m.isolated_thm5 + m.massive_thm6 + m.massive_thm7 + m.unresolved_cor8,
            m.abnormal);
  EXPECT_EQ(m.truly_isolated, step.truth.truly_isolated.size());
}

TEST(EvaluateStepTest, R3OnWorkloadHasNoMissedDetections) {
  // With R3 enforced, truly isolated devices never join dense motions, so
  // classifying them massive is impossible.
  auto params = small_params(2);
  params.enforce_r3 = true;
  ScenarioGenerator generator(params);
  for (int k = 0; k < 8; ++k) {
    const StepMetrics m = evaluate_step(generator.advance(), params.model);
    EXPECT_EQ(m.missed_detection, 0u);
  }
}

TEST(EvaluateStepTest, CostMetricsPopulatedPerBucket) {
  const auto params = small_params(3);
  ScenarioGenerator generator(params);
  StepMetrics m;
  for (int k = 0; k < 5; ++k) m = evaluate_step(generator.advance(), params.model);
  // Whenever a bucket is non-empty its cost accumulator has samples.
  EXPECT_EQ(m.motions_isolated.count(), m.isolated_thm5);
  EXPECT_EQ(m.dense_motions_massive6.count(), m.massive_thm6);
}

TEST(EvaluateStepTest, RatiosAreBounded) {
  const auto params = small_params(4);
  ScenarioGenerator generator(params);
  for (int k = 0; k < 5; ++k) {
    const StepMetrics m = evaluate_step(generator.advance(), params.model);
    EXPECT_GE(m.unresolved_ratio(), 0.0);
    EXPECT_LE(m.unresolved_ratio(), 1.0);
    EXPECT_GE(m.missed_detection_rate(), 0.0);
    EXPECT_LE(m.missed_detection_rate(), 1.0);
  }
}

TEST(EvaluateStepTest, EngineOverloadMatchesScratchAndRejectsMisalignedFeed) {
  const auto params = small_params(5);
  ScenarioGenerator generator(params);
  FrameEngine::Config config;
  config.model = params.model;
  FrameEngine engine(config);
  for (int k = 0; k < 4; ++k) {
    const ScenarioStep step = generator.advance();
    const StepMetrics scratch = evaluate_step(step, params.model);
    const StepMetrics rolled = evaluate_step(engine, step);
    EXPECT_EQ(rolled.abnormal, scratch.abnormal) << "step " << k;
    EXPECT_EQ(rolled.isolated_thm5, scratch.isolated_thm5) << "step " << k;
    EXPECT_EQ(rolled.massive_thm6, scratch.massive_thm6) << "step " << k;
    EXPECT_EQ(rolled.massive_thm7, scratch.massive_thm7) << "step " << k;
    EXPECT_EQ(rolled.unresolved_cor8, scratch.unresolved_cor8) << "step " << k;
  }
  // A skipped step leaves the engine's S_k behind the next step's S_{k-1}.
  (void)generator.advance();
  EXPECT_THROW((void)evaluate_step(engine, generator.advance()), std::invalid_argument);
}

TEST(RunMetricsTest, AggregatesShares) {
  const auto params = small_params(5);
  ScenarioGenerator generator(params);
  RunMetrics run;
  for (int k = 0; k < 6; ++k) {
    run.add(evaluate_step(generator.advance(), params.model));
  }
  EXPECT_EQ(run.abnormal.count(), 6u);
  // Shares are percentages of |A_k| and must sum to ~100 per step.
  EXPECT_NEAR(run.isolated_share.mean() + run.massive6_share.mean() +
                  run.massive7_share.mean() + run.unresolved_share.mean(),
              100.0, 1e-9);
}

TEST(RunMetricsTest, EmptyStepsDoNotPolluteShares) {
  RunMetrics run;
  StepMetrics empty;
  run.add(empty);
  EXPECT_EQ(run.isolated_share.count(), 0u);
  EXPECT_EQ(run.abnormal.count(), 1u);
}

}  // namespace
}  // namespace acn
