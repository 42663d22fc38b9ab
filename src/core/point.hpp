// Points of the QoS space E = [0,1]^d under the uniform (Chebyshev) norm.
//
// The paper works in E with d = number of services per device (§III-A) and
// in the *joint space* E x E: a set of devices has an r-consistent motion in
// [k-1, k] iff its Chebyshev diameter is <= 2r at both instants, i.e. iff
// its 2d-dimensional joint bounding box has side <= 2r. Point supports both
// roles; capacity covers d <= 8 services (16 joint dimensions).
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>

namespace acn {

/// The per-coordinate QoS-space test shared by Point::in_unit_box and the
/// column Snapshot: written so that NaN fails (every comparison with NaN is
/// false), where `x < 0.0 || x > 1.0` would let it through.
[[nodiscard]] constexpr bool in_unit_interval(double x) noexcept {
  return x >= 0.0 && x <= 1.0;
}

class Point {
 public:
  static constexpr std::size_t kMaxDim = 16;

  Point() = default;
  /// Throws std::invalid_argument if coords.size() is 0 or > kMaxDim.
  explicit Point(std::span<const double> coords);
  Point(std::initializer_list<double> coords);

  /// Origin of the given dimension.
  [[nodiscard]] static Point zero(std::size_t dim);

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] double operator[](std::size_t i) const noexcept { return coords_[i]; }
  [[nodiscard]] double& operator[](std::size_t i) noexcept { return coords_[i]; }
  /// The dim() live coordinates.
  [[nodiscard]] std::span<const double> coords() const noexcept {
    return {coords_.data(), dim_};
  }

  /// True if every coordinate lies in [0, 1] (the QoS space proper). NaN
  /// lies nowhere, so a NaN coordinate fails (see in_unit_interval).
  [[nodiscard]] bool in_unit_box() const noexcept;

  /// Chebyshev (L-infinity) distance; requires equal dimensions.
  friend double chebyshev(const Point& a, const Point& b) noexcept;

  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Point& a, const Point& b) noexcept;

 private:
  std::array<double, kMaxDim> coords_{};
  std::size_t dim_ = 0;
};

}  // namespace acn
