// The kernel layer's contract: (1) forcing the dispatch to scalar or AVX2
// yields byte-identical Decisions over whole scenario streams; (2) an
// adversarial arena blow-up surfaces as ArenaBudgetExceeded out of
// observe() with the engine still usable — a verdict-safe error, not an
// OOM kill.
#include <vector>

#include <gtest/gtest.h>

#include "core/characterizer.hpp"
#include "core/frame.hpp"
#include "core/kernels/kernels.hpp"
#include "core/motion_plane.hpp"
#include "sim/scenario.hpp"

namespace acn {
namespace {

// Restores automatic dispatch selection however a test exits.
struct DispatchGuard {
  ~DispatchGuard() { kernels::force("auto"); }
};

// Decisions over whole scenario streams are byte-identical whichever table
// the dispatcher picks — the end-to-end form of the per-kernel guarantee.
TEST(KernelDispatchTest, ForcedScalarAndAvx2DecisionsAreByteIdentical) {
  if (!kernels::avx2_available()) GTEST_SKIP() << "AVX2 unavailable";
  const DispatchGuard guard;
  ScenarioParams params;
  params.n = 3000;
  params.errors_per_step = 60;
  params.seed = 5;
  const Params model = params.model;

  const auto run = [&](const char* variant) {
    EXPECT_TRUE(kernels::force(variant));
    ScenarioGenerator generator(params);
    std::vector<std::vector<Decision>> all;
    for (int step = 0; step < 3; ++step) {
      const ScenarioStep s = generator.advance();
      Characterizer characterizer(s.state, model);
      std::vector<Decision> decisions;
      for (const DeviceId j : s.state.abnormal()) {
        decisions.push_back(characterizer.characterize(j));
      }
      all.push_back(std::move(decisions));
    }
    return all;
  };

  const auto scalar = run("scalar");
  const auto avx2 = run("avx2");
  ASSERT_EQ(scalar.size(), avx2.size());
  for (std::size_t k = 0; k < scalar.size(); ++k) {
    ASSERT_EQ(scalar[k].size(), avx2[k].size()) << "step " << k;
    for (std::size_t i = 0; i < scalar[k].size(); ++i) {
      const Decision& a = scalar[k][i];
      const Decision& b = avx2[k][i];
      EXPECT_EQ(a.cls, b.cls) << "step " << k << " device " << i;
      EXPECT_EQ(a.rule, b.rule) << "step " << k << " device " << i;
      EXPECT_EQ(a.exact, b.exact) << "step " << k << " device " << i;
      EXPECT_EQ(a.maximal_motion_count, b.maximal_motion_count)
          << "step " << k << " device " << i;
      EXPECT_EQ(a.dense_motion_count, b.dense_motion_count)
          << "step " << k << " device " << i;
      EXPECT_EQ(a.collections_tested, b.collections_tested)
          << "step " << k << " device " << i;
    }
  }
}

// An over-tight arena budget must surface as ArenaBudgetExceeded out of
// observe() — with the engine state untouched, so the stream continues.
TEST(ArenaBudgetTest, OverflowIsVerdictSafe) {
  ScenarioParams params;
  params.n = 1000;
  params.errors_per_step = 40;
  params.seed = 9;
  ScenarioGenerator generator(params);
  const ScenarioStep s1 = generator.advance();
  const ScenarioStep s2 = generator.advance();

  FrameEngine engine(FrameEngine::Config{.model = params.model,
                                         .plane_arena_budget = 64});
  EXPECT_FALSE(engine.observe(s1.state.prev(), DeviceSet{}).has_value());
  try {
    (void)engine.observe(s1.state.curr(), s1.state.abnormal());
    FAIL() << "expected ArenaBudgetExceeded";
  } catch (const ArenaBudgetExceeded& e) {
    EXPECT_GT(e.attempted_bytes(), e.limit_bytes());
    EXPECT_EQ(e.limit_bytes(), 64u);
  }
  // The engine survived: the next interval (nothing abnormal, so the plane
  // build parks nothing in its arenas) still characterizes cleanly.
  const auto result = engine.observe(s2.state.curr(), DeviceSet{});
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->decisions.empty());

  // The same stream under the default (ample) budget is unaffected.
  FrameEngine ample(FrameEngine::Config{.model = params.model});
  EXPECT_FALSE(ample.observe(s1.state.prev(), DeviceSet{}).has_value());
  const auto ok = ample.observe(s1.state.curr(), s1.state.abnormal());
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->decisions.size(), s1.state.abnormal().size());
}

}  // namespace
}  // namespace acn
