// The quantized kernel layer's contract: (1) the fixed-point map Q is
// monotone and the hybrid window test (quantized lane compare + exact
// double resolution of boundary ties) classifies EVERY input exactly like
// the double predicate — including coordinates sitting exactly on, or one
// ulp off, a window boundary, for representable and non-representable
// window widths alike; (2) forcing the dispatch to scalar or AVX2 yields
// byte-identical Decisions over whole scenario streams; (3) an adversarial
// arena blow-up surfaces as ArenaBudgetExceeded out of observe() with the
// engine still usable — a verdict-safe error, not an OOM kill.
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/characterizer.hpp"
#include "core/frame.hpp"
#include "core/kernels/kernels.hpp"
#include "core/kernels/quantize.hpp"
#include "core/motion_plane.hpp"
#include "sim/scenario.hpp"

namespace acn {
namespace {

// Restores automatic dispatch selection however a test exits.
struct DispatchGuard {
  ~DispatchGuard() { kernels::force("auto"); }
};

TEST(QuantizeTest, MonotoneOverAdversarialAndRandomInputs) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 4000; ++i) xs.push_back(rng.uniform());
  // Grid points, their neighbours one ulp away, and the box corners: the
  // inputs where floor(x * 2^30 + 0.5) is most likely to go wrong.
  for (int k = 0; k <= 32; ++k) {
    const double g = static_cast<double>(k) / 32.0;
    xs.push_back(g);
    xs.push_back(std::nextafter(g, 2.0));
    xs.push_back(std::nextafter(g, -1.0));
  }
  std::sort(xs.begin(), xs.end());
  for (std::size_t i = 1; i < xs.size(); ++i) {
    ASSERT_LE(kernels::quantize(xs[i - 1]), kernels::quantize(xs[i]))
        << "Q not monotone at x=" << xs[i];
  }
  // Q stays within 1 of the ideal scaling, so a quantized gap of k certifies
  // a real gap of (k - 2) * 2^-30 — the slop-band argument's premise.
  for (const double x : xs) {
    if (x < 0.0 || x > 1.0) continue;
    const double ideal = x * kernels::kScale;
    EXPECT_LT(std::fabs(static_cast<double>(kernels::quantize(x)) - ideal), 1.0);
  }
}

// The hybrid window filter must agree with the exact double predicate on
// every id — especially the boundary-tie lanes. Swept over a representable
// width (2r = 2^-4: bounds land exactly on the grid, every boundary value
// is a tie) and a non-representable one (2r = 0.06).
TEST(QuantizeTest, WindowFilterMatchesExactPredicate) {
  const DispatchGuard guard;
  struct Window {
    double lower;
    double width;
  };
  const Window windows[] = {{0.40625, 0.0625}, {0.37, 0.06}, {0.0, 0.03},
                            {0.97, 0.06}};
  Rng rng(23);
  for (const Window win : windows) {
    const kernels::WindowBoundsQ wb =
        kernels::window_bounds(win.lower, win.lower + win.width);
    std::vector<double> col;
    for (int i = 0; i < 2000; ++i) col.push_back(rng.uniform());
    for (const double b : {wb.lower, wb.upper}) {
      col.push_back(b);
      col.push_back(std::nextafter(b, 2.0));
      col.push_back(std::nextafter(b, -1.0));
      col.push_back(b + std::ldexp(1.0, -31));  // inside the tie band
      col.push_back(b - std::ldexp(1.0, -31));
    }
    std::vector<std::uint32_t> qcol(col.size());
    std::vector<std::uint32_t> ids(col.size());
    for (std::size_t i = 0; i < col.size(); ++i) {
      qcol[i] = kernels::quantize(std::clamp(col[i], 0.0, 1.0));
      col[i] = std::clamp(col[i], 0.0, 1.0);
      ids[i] = static_cast<std::uint32_t>(i);
    }
    std::vector<std::uint32_t> expected;
    for (std::size_t i = 0; i < col.size(); ++i) {
      if (kernels::in_window(col[i], wb)) {
        expected.push_back(static_cast<std::uint32_t>(i));
      }
    }
    for (const char* variant : {"scalar", "avx2"}) {
      if (!kernels::force(variant)) continue;
      SCOPED_TRACE(variant);
      std::vector<std::uint32_t> out(col.size());
      const std::size_t n = kernels::dispatch().filter_in_window(
          qcol.data(), col.data(), ids.data(), ids.size(), wb, out.data());
      ASSERT_EQ(n, expected.size()) << "lower=" << win.lower;
      EXPECT_EQ(0, std::memcmp(out.data(), expected.data(),
                               n * sizeof(std::uint32_t)));
    }
  }
}

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
