// Model parameters of the characterization (§III): the consistency impact
// radius r and the density threshold tau distinguishing isolated from
// massive anomalies.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace acn {

struct Params {
  /// Consistency impact radius; the paper requires r in [0, 1/4).
  double r = 0.03;
  /// Density threshold: |B| > tau means B is tau-dense (Definition 4).
  std::uint32_t tau = 3;

  /// Side of the consistency window: sets are r-consistent iff their
  /// Chebyshev diameter is <= 2r (Definition 1).
  [[nodiscard]] double window() const noexcept { return 2.0 * r; }

  /// Throws std::invalid_argument on out-of-domain parameters. The range
  /// test is written so a NaN r fails it too.
  void validate() const {
    if (!(r >= 0.0 && r < 0.25)) {
      throw std::invalid_argument("Params: r must be in [0, 0.25), got " +
                                  std::to_string(r));
    }
    if (tau < 1) {
      throw std::invalid_argument("Params: tau must be >= 1");
    }
  }
};

/// Classification of an abnormal device (Definitions 7 and 8).
enum class AnomalyClass : std::uint8_t {
  kIsolated,    ///< j in I_k: every anomaly partition puts j in a class <= tau.
  kMassive,     ///< j in M_k: every anomaly partition puts j in a class  > tau.
  kUnresolved,  ///< j in U_k: partitions disagree (Definition 8).
};

[[nodiscard]] constexpr const char* to_string(AnomalyClass c) noexcept {
  switch (c) {
    case AnomalyClass::kIsolated:
      return "Isolated";
    case AnomalyClass::kMassive:
      return "Massive";
    case AnomalyClass::kUnresolved:
      return "Unresolved";
  }
  return "?";
}

}  // namespace acn
