#include "core/point.hpp"

#include <cmath>
#include <stdexcept>

namespace acn {

Point::Point(std::span<const double> coords) {
  if (coords.empty() || coords.size() > kMaxDim) {
    throw std::invalid_argument("Point: dimension must be in [1, " +
                                std::to_string(kMaxDim) + "], got " +
                                std::to_string(coords.size()));
  }
  dim_ = coords.size();
  for (std::size_t i = 0; i < dim_; ++i) coords_[i] = coords[i];
}

Point::Point(std::initializer_list<double> coords)
    : Point(std::span<const double>(coords.begin(), coords.size())) {}

Point Point::zero(std::size_t dim) {
  if (dim == 0 || dim > kMaxDim) {
    throw std::invalid_argument("Point::zero: bad dimension");
  }
  Point p;
  p.dim_ = dim;
  return p;
}

bool Point::in_unit_box() const noexcept {
  for (std::size_t i = 0; i < dim_; ++i) {
    if (!in_unit_interval(coords_[i])) return false;
  }
  return true;
}

double chebyshev(const Point& a, const Point& b) noexcept {
  double best = 0.0;
  for (std::size_t i = 0; i < a.dim_; ++i) {
    const double delta = std::fabs(a.coords_[i] - b.coords_[i]);
    if (delta > best) best = delta;
  }
  return best;
}

std::string Point::to_string() const {
  std::string s = "(";
  for (std::size_t i = 0; i < dim_; ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(coords_[i]);
  }
  s += ")";
  return s;
}

bool operator==(const Point& a, const Point& b) noexcept {
  if (a.dim_ != b.dim_) return false;
  for (std::size_t i = 0; i < a.dim_; ++i) {
    if (a.coords_[i] != b.coords_[i]) return false;
  }
  return true;
}

}  // namespace acn
