// Fixed-point quantization of the [0,1]^{2d} joint coordinates.
//
// Every hot predicate of the pipeline is a one-dimensional interval test
// ("is coordinate x inside the window [lower, lower + 2r]?") or a min/max
// reduction over a column. The SIMD kernels (core/kernels/kernels.hpp) run
// those tests over quantized uint32 mirrors of the double columns — 8 lanes
// per 256-bit compare instead of 4 — and must still return byte-identical
// verdicts to the double path. The scheme that makes that provable:
//
//   Q(x) = floor(x * 2^30 + 0.5)   (evaluated in double, round-to-nearest)
//
// Multiplying by 2^30 is a pure exponent shift (exact); the +0.5 and the
// floor may round, but the composite map stays MONOTONE NON-DECREASING —
// rounding a monotone function to nearest is monotone, and floor is
// monotone. Monotonicity is the only property the kernels rely on:
//
//   Q(x) > Q(lower)  =>  x > lower   (strictly above the lower bound)
//   Q(x) < Q(lower)  =>  x < lower   (strictly below it)
//   Q(x) == Q(lower) =>  undecidable at this resolution
//
// so an integer lane compare classifies every coordinate as definitely-in,
// definitely-out, or on-the-boundary-band; the (measure-2^-30-rare) band
// lanes are re-resolved against the original doubles with the exact scalar
// predicate. The verdict is therefore byte-identical to the double path on
// ALL inputs — no representability assumption on r is needed. When the
// window width IS a multiple of 2^-30 (e.g. r = 0.03125, 2r = 2^-4), every
// boundary lands exactly on the grid and the tie band resolves the ties the
// way the double compare does, which the quantization property test pins.
//
// The scale 2^30 keeps every quantized coordinate in [0, 2^30] and every
// clamped bound in [-1, 2^30 + 1] — comfortably inside a SIGNED 32-bit
// lane, which is what AVX2's epi32 compares operate on.
#pragma once

#include <cmath>
#include <cstdint>

namespace acn::kernels {

inline constexpr unsigned kScaleBits = 30;
inline constexpr double kScale = static_cast<double>(1u << kScaleBits);
/// Q(1.0): the largest quantized value a unit-box coordinate can take.
inline constexpr std::int32_t kQMax = std::int32_t{1} << kScaleBits;

/// Monotone quantization of a coordinate in [0, 1].
[[nodiscard]] inline std::uint32_t quantize(double x) noexcept {
  return static_cast<std::uint32_t>(std::floor(x * kScale + 0.5));
}

/// The same map on an arbitrary (possibly out-of-[0,1]) window bound,
/// clamped so the result fits a signed 32-bit lane while comparing
/// correctly against every quantized coordinate: a bound below every
/// coordinate clamps to -1, above every coordinate to kQMax + 1 — neither
/// sentinel collides with a real Q(x), so clamped bounds never produce a
/// spurious boundary tie.
[[nodiscard]] inline std::int32_t quantize_bound(double y) noexcept {
  const double t = std::floor(y * kScale + 0.5);
  if (t < -1.0) return -1;
  if (t > static_cast<double>(kQMax) + 1.0) return kQMax + 1;
  return static_cast<std::int32_t>(t);
}

/// One window test, precomputed: the exact double bounds (for boundary-band
/// resolution) plus their quantized images (for the lane compares).
struct WindowBoundsQ {
  double lower = 0.0;
  double upper = 0.0;
  std::int32_t ql = 0;
  std::int32_t qu = 0;
};

[[nodiscard]] inline WindowBoundsQ window_bounds(double lower, double upper) noexcept {
  return WindowBoundsQ{lower, upper, quantize_bound(lower), quantize_bound(upper)};
}

/// Scalar reference membership test over a WindowBoundsQ — the exact double
/// predicate every kernel must reproduce. (The quantized fields are unused
/// here on purpose: this IS the double path.)
[[nodiscard]] inline bool in_window(double x, const WindowBoundsQ& b) noexcept {
  return x >= b.lower && x <= b.upper;
}

}  // namespace acn::kernels
