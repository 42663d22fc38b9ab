#include "core/point.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace acn {
namespace {

TEST(PointTest, ConstructionAndAccess) {
  const Point p{0.1, 0.2, 0.3};
  EXPECT_EQ(p.dim(), 3u);
  EXPECT_EQ(p[0], 0.1);
  EXPECT_EQ(p[2], 0.3);
}

TEST(PointTest, RejectsEmptyAndOversized) {
  EXPECT_THROW(Point(std::initializer_list<double>{}), std::invalid_argument);
  std::vector<double> too_big(Point::kMaxDim + 1, 0.0);
  EXPECT_THROW(Point(std::span<const double>(too_big)), std::invalid_argument);
}

TEST(PointTest, ZeroFactory) {
  const Point z = Point::zero(4);
  EXPECT_EQ(z.dim(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(z[i], 0.0);
  EXPECT_THROW((void)Point::zero(0), std::invalid_argument);
}

TEST(PointTest, InUnitBox) {
  EXPECT_TRUE((Point{0.0, 1.0, 0.5}).in_unit_box());
  EXPECT_FALSE((Point{-0.01, 0.5}).in_unit_box());
  EXPECT_FALSE((Point{0.5, 1.01}).in_unit_box());
}

TEST(PointTest, NaNIsOutsideTheUnitBox) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(in_unit_interval(nan));
  EXPECT_FALSE((Point{nan, 0.5}).in_unit_box());
  EXPECT_FALSE((Point{0.5, nan}).in_unit_box());
  EXPECT_FALSE((Point{0.5, -nan}).in_unit_box());
  EXPECT_TRUE(in_unit_interval(0.0));
  EXPECT_TRUE(in_unit_interval(1.0));
}

TEST(PointTest, ChebyshevDistance) {
  const Point a{0.0, 0.0};
  const Point b{0.3, -0.7};
  EXPECT_NEAR(chebyshev(a, b), 0.7, 1e-12);
  EXPECT_EQ(chebyshev(a, a), 0.0);
}

TEST(PointTest, ChebyshevIsSymmetricAndTriangular) {
  const Point a{0.1, 0.9};
  const Point b{0.4, 0.2};
  const Point c{0.8, 0.5};
  EXPECT_EQ(chebyshev(a, b), chebyshev(b, a));
  EXPECT_LE(chebyshev(a, c), chebyshev(a, b) + chebyshev(b, c));
}

TEST(PointTest, Equality) {
  EXPECT_EQ((Point{0.1, 0.2}), (Point{0.1, 0.2}));
  EXPECT_FALSE((Point{0.1, 0.2}) == (Point{0.1, 0.3}));
  EXPECT_FALSE((Point{0.1}) == (Point{0.1, 0.1}));
}

}  // namespace
}  // namespace acn
