#include "analysis/dimensioning.hpp"

#include <cmath>
#include <stdexcept>

#include "common/math.hpp"

namespace acn {

double vicinity_probability(double r, std::size_t d, VicinityModel model) {
  if (!(r >= 0.0 && r < 0.25)) {  // NaN fails too
    throw std::invalid_argument("vicinity_probability: r must be in [0, 0.25)");
  }
  if (d == 0) throw std::invalid_argument("vicinity_probability: d must be >= 1");
  double per_dim = 0.0;
  switch (model) {
    case VicinityModel::kInterior:
      per_dim = 4.0 * r;
      break;
    case VicinityModel::kUniformAverage:
      // E[ |[x-2r, x+2r] ∩ [0,1]| ] over x ~ U[0,1] = 4r - 4r^2.
      per_dim = 4.0 * r - 4.0 * r * r;
      break;
    case VicinityModel::kWindowInterior:
      per_dim = 2.0 * r;
      break;
    case VicinityModel::kWindowAverage:
      // E[ |[x-r, x+r] ∩ [0,1]| ] over x ~ U[0,1] = 2r - r^2.
      per_dim = 2.0 * r - r * r;
      break;
  }
  per_dim = clamp(per_dim, 0.0, 1.0);
  return std::pow(per_dim, static_cast<double>(d));
}

double vicinity_cdf(std::size_t n, double r, std::size_t d, std::uint64_t m,
                    VicinityModel model) {
  if (n < 1) throw std::invalid_argument("vicinity_cdf: n must be >= 1");
  const double q = vicinity_probability(r, d, model);
  return binomial_cdf(n - 1, m, q);
}

double vicinity_cdf_exact(std::size_t n, double r, std::size_t d, std::uint64_t m,
                          std::size_t grid) {
  if (n < 1 || d == 0 || grid == 0) {
    throw std::invalid_argument("vicinity_cdf_exact: bad arguments");
  }
  // Midpoint rule over the device position x in [0,1]^d; for each cell the
  // vicinity measure factorizes per dimension.
  std::vector<std::size_t> index(d, 0);
  double total = 0.0;
  const double step = 1.0 / static_cast<double>(grid);
  for (;;) {
    double q = 1.0;
    for (std::size_t i = 0; i < d; ++i) {
      const double x = (static_cast<double>(index[i]) + 0.5) * step;
      const double lo = x - 2.0 * r < 0.0 ? 0.0 : x - 2.0 * r;
      const double hi = x + 2.0 * r > 1.0 ? 1.0 : x + 2.0 * r;
      q *= hi - lo;
    }
    total += binomial_cdf(n - 1, m, q);
    std::size_t i = 0;
    while (i < d && ++index[i] == grid) {
      index[i] = 0;
      ++i;
    }
    if (i == d) break;
  }
  double cells = 1.0;
  for (std::size_t i = 0; i < d; ++i) cells *= static_cast<double>(grid);
  return total / cells;
}

double isolated_overload_cdf(std::size_t n, double r, std::size_t d,
                             std::uint32_t tau, double b, VicinityModel model) {
  if (n < 2) throw std::invalid_argument("isolated_overload_cdf: n must be >= 2");
  if (b < 0.0 || b > 1.0) {
    throw std::invalid_argument("isolated_overload_cdf: b must be in [0, 1]");
  }
  const double q = vicinity_probability(r, d, model);
  // P{F <= tau} = sum_m P{N = m} * P{Bin(m, b) <= tau}. The direct double
  // sum is O(n * tau); terms become negligible fast, so truncate the m-sum
  // once the binomial tail mass is exhausted.
  double total = 0.0;
  for (std::uint64_t m = 0; m <= n - 1; ++m) {
    const double p_m = binomial_pmf(n - 1, m, q);
    if (p_m < 1e-18 && m > static_cast<std::uint64_t>(q * static_cast<double>(n))) {
      break;  // far right tail
    }
    total += p_m * binomial_cdf(m, tau, b);
  }
  return total > 1.0 ? 1.0 : total;
}

std::uint32_t recommend_tau(std::size_t n, double r, std::size_t d, double b,
                            double epsilon, VicinityModel model) {
  if (epsilon <= 0.0 || epsilon >= 1.0) {
    throw std::invalid_argument("recommend_tau: epsilon must be in (0, 1)");
  }
  for (std::uint32_t tau = 1; tau + 1 < n; ++tau) {
    if (1.0 - isolated_overload_cdf(n, r, d, tau, b, model) < epsilon) return tau;
  }
  return static_cast<std::uint32_t>(n - 1);
}

double vicinity_cdf_monte_carlo(std::size_t n, double r, std::size_t d,
                                std::uint64_t m, std::size_t trials, Rng& rng) {
  if (n < 1 || d == 0 || trials == 0) {
    throw std::invalid_argument("vicinity_cdf_monte_carlo: bad arguments");
  }
  std::size_t hits = 0;
  std::vector<double> centre(d);
  std::vector<double> other(d);
  for (std::size_t t = 0; t < trials; ++t) {
    for (auto& x : centre) x = rng.uniform();
    std::uint64_t close = 0;
    for (std::size_t j = 1; j < n; ++j) {
      bool inside = true;
      for (std::size_t i = 0; i < d; ++i) {
        other[i] = rng.uniform();
        if (std::fabs(other[i] - centre[i]) > 2.0 * r) {
          inside = false;
          // keep drawing remaining coords for stream stability
        }
      }
      if (inside) ++close;
    }
    if (close <= m) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(trials);
}

}  // namespace acn
