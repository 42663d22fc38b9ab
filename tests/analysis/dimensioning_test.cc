#include "analysis/dimensioning.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace acn {
namespace {

TEST(VicinityProbabilityTest, InteriorModel) {
  // d = 1: a 2r-vicinity spans 4r of the unit interval.
  EXPECT_NEAR(vicinity_probability(0.05, 1, VicinityModel::kInterior), 0.2, 1e-12);
  // d = 2: squared.
  EXPECT_NEAR(vicinity_probability(0.05, 2, VicinityModel::kInterior), 0.04, 1e-12);
}

TEST(VicinityProbabilityTest, UniformAverageAccountsForBoundary) {
  const double interior = vicinity_probability(0.05, 2, VicinityModel::kInterior);
  const double averaged = vicinity_probability(0.05, 2, VicinityModel::kUniformAverage);
  EXPECT_LT(averaged, interior);  // clipping can only shrink the window
  EXPECT_NEAR(averaged, (0.2 - 0.01) * (0.2 - 0.01), 1e-12);
}

TEST(VicinityProbabilityTest, ValidatesDomain) {
  EXPECT_THROW((void)vicinity_probability(0.3, 2, VicinityModel::kInterior),
               std::invalid_argument);
  EXPECT_THROW((void)vicinity_probability(-0.1, 2, VicinityModel::kInterior),
               std::invalid_argument);
  EXPECT_THROW((void)vicinity_probability(0.05, 0, VicinityModel::kInterior),
               std::invalid_argument);
  EXPECT_THROW((void)vicinity_probability(std::numeric_limits<double>::quiet_NaN(), 2,
                                          VicinityModel::kInterior),
               std::invalid_argument);
}

TEST(VicinityCdfTest, MonotoneInM) {
  double last = 0.0;
  for (std::uint64_t m = 0; m <= 100; m += 10) {
    const double c = vicinity_cdf(1000, 0.03, 2, m, VicinityModel::kUniformAverage);
    EXPECT_GE(c, last);
    last = c;
  }
  EXPECT_NEAR(vicinity_cdf(1000, 0.03, 2, 999, VicinityModel::kUniformAverage), 1.0,
              1e-12);
}

TEST(VicinityCdfTest, SmallerRadiusConcentratesLower) {
  // Figure 6(a)'s visual: smaller r pushes the CDF towards small m.
  const double tight = vicinity_cdf(1000, 0.02, 2, 10, VicinityModel::kUniformAverage);
  const double wide = vicinity_cdf(1000, 0.1, 2, 10, VicinityModel::kUniformAverage);
  EXPECT_GT(tight, wide);
}

TEST(VicinityCdfTest, ExactIntegrationMatchesMonteCarlo) {
  // The position-integrated CDF must match simulation tightly (the count is
  // a binomial *mixture*; the single-q formula is only an approximation).
  Rng rng(123);
  for (const double r : {0.03, 0.05}) {
    for (const std::uint64_t m : {std::uint64_t{5}, std::uint64_t{15}}) {
      const double exact = vicinity_cdf_exact(300, r, 2, m);
      const double mc = vicinity_cdf_monte_carlo(300, r, 2, m, 6000, rng);
      EXPECT_NEAR(exact, mc, 0.02) << "r=" << r << " m=" << m;
    }
  }
}

TEST(VicinityCdfTest, SingleQApproximationIsClose) {
  // The paper's closed form tracks the exact mixture within a few percent
  // at the Fig 6(a) operating points.
  for (const std::uint64_t m : {std::uint64_t{10}, std::uint64_t{20}}) {
    const double approx = vicinity_cdf(1000, 0.03, 2, m, VicinityModel::kUniformAverage);
    const double exact = vicinity_cdf_exact(1000, 0.03, 2, m);
    EXPECT_NEAR(approx, exact, 0.06) << "m=" << m;
  }
}

TEST(IsolatedOverloadTest, MatchesPaperRegime) {
  // Fig 6(b): with r=0.03, b=0.005, curves stay above 0.997 up to n=15000.
  // Only the consistency-window vicinity reproduces this — see the
  // VicinityModel doc comment and EXPERIMENTS.md.
  for (const std::size_t n : {1000, 5000, 15000}) {
    for (const std::uint32_t tau : {2u, 3u, 4u, 5u}) {
      const double p = isolated_overload_cdf(n, 0.03, 2, tau, 0.005,
                                             VicinityModel::kWindowAverage);
      EXPECT_GT(p, 0.997) << "n=" << n << " tau=" << tau;
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(IsolatedOverloadTest, Radius2rVicinityDipsBelowPaperAxis) {
  // The companion fact: with the paper's literal radius-2r vicinity the
  // tau = 2 curve falls well below the 0.997 figure floor at n = 15000.
  const double p = isolated_overload_cdf(15000, 0.03, 2, 2, 0.005,
                                         VicinityModel::kUniformAverage);
  EXPECT_LT(p, 0.95);
}

TEST(IsolatedOverloadTest, MonotoneInTauAndDecreasingInN) {
  const auto at = [](std::size_t n, std::uint32_t tau) {
    return isolated_overload_cdf(n, 0.03, 2, tau, 0.005,
                                 VicinityModel::kUniformAverage);
  };
  EXPECT_LT(at(5000, 2), at(5000, 3));
  EXPECT_LT(at(5000, 3), at(5000, 4));
  EXPECT_GT(at(1000, 3), at(15000, 3));  // larger n => denser vicinity => worse
}

TEST(IsolatedOverloadTest, DegenerateB) {
  EXPECT_NEAR(isolated_overload_cdf(1000, 0.03, 2, 3, 0.0,
                                    VicinityModel::kUniformAverage),
              1.0, 1e-12);
}

TEST(RecommendTauTest, MatchesCdfInversion) {
  const std::uint32_t tau = recommend_tau(1000, 0.03, 2, 0.005, 1e-3,
                                          VicinityModel::kUniformAverage);
  // The recommended tau must satisfy the epsilon bound ...
  EXPECT_GT(1.0 - isolated_overload_cdf(1000, 0.03, 2, tau, 0.005,
                                        VicinityModel::kUniformAverage),
            0.0);
  EXPECT_LT(1.0 - isolated_overload_cdf(1000, 0.03, 2, tau, 0.005,
                                        VicinityModel::kUniformAverage),
            1e-3);
  // ... and be minimal.
  if (tau > 1) {
    EXPECT_GE(1.0 - isolated_overload_cdf(1000, 0.03, 2, tau - 1, 0.005,
                                          VicinityModel::kUniformAverage),
              1e-3);
  }
}

TEST(RecommendTauTest, TighterEpsilonNeedsLargerTau) {
  const auto loose = recommend_tau(10000, 0.03, 2, 0.01, 1e-2,
                                   VicinityModel::kUniformAverage);
  const auto tight = recommend_tau(10000, 0.03, 2, 0.01, 1e-6,
                                   VicinityModel::kUniformAverage);
  EXPECT_LE(loose, tight);
}

}  // namespace
}  // namespace acn
