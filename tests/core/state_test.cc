#include "core/state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "support/test_util.hpp"

namespace acn {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(SnapshotTest, ValidatesUnitBox) {
  EXPECT_THROW(Snapshot({Point{1.2}}), std::invalid_argument);
  EXPECT_THROW(Snapshot({Point{-0.1, 0.5}}), std::invalid_argument);
  EXPECT_THROW(Snapshot({Point{0.5, 0.5}, Point{kNaN, 0.5}}), std::invalid_argument);
  EXPECT_THROW(Snapshot({Point{0.5, kNaN}}), std::invalid_argument);
  EXPECT_NO_THROW(Snapshot({Point{0.0}, Point{1.0}}));
}

TEST(SnapshotTest, ColumnsRoundTripPositions) {
  // [dim][n]: column 0 holds every device's first coordinate.
  const Snapshot s(2, {0.1, 0.2, 0.3, 0.7, 0.8, 0.9});
  ASSERT_EQ(s.size(), 3u);
  ASSERT_EQ(s.dim(), 2u);
  EXPECT_EQ(s[1], (Point{0.2, 0.8}));
  EXPECT_EQ(s.col(1)[2], 0.9);
  const std::vector<Point> expected{Point{0.1, 0.7}, Point{0.2, 0.8}, Point{0.3, 0.9}};
  EXPECT_EQ(s.positions(), expected);
  const Snapshot from_points(expected);
  for (std::size_t t = 0; t < 2; ++t) {
    EXPECT_TRUE(std::equal(s.col(t), s.col(t) + 3, from_points.col(t))) << t;
  }
}

TEST(SnapshotTest, ColumnConstructorValidates) {
  EXPECT_THROW(Snapshot(2, {0.1, 0.2, kNaN, 0.4}), std::invalid_argument);
  EXPECT_THROW(Snapshot(2, {0.1, 0.2, 1.5, 0.4}), std::invalid_argument);
  EXPECT_THROW(Snapshot(2, {-0.1, 0.2, 0.3, 0.4}), std::invalid_argument);
  EXPECT_THROW(Snapshot(2, {0.1, 0.2, 0.3}), std::invalid_argument);  // ragged
  EXPECT_THROW(Snapshot(2, {}), std::invalid_argument);
  EXPECT_THROW(Snapshot(0, {0.1}), std::invalid_argument);
  EXPECT_THROW(Snapshot(Point::kMaxDim + 1,
                        std::vector<double>(Point::kMaxDim + 1, 0.5)),
               std::invalid_argument);
  EXPECT_NO_THROW(Snapshot(1, {0.0, 1.0}));
}

TEST(SnapshotTest, SetWritesOnlyValidPositions) {
  Snapshot s(2, {0.1, 0.2, 0.3, 0.7, 0.8, 0.9});
  const std::vector<double> pos{0.25, 0.75};
  s.set(1, pos);
  EXPECT_EQ(s[1], (Point{0.25, 0.75}));
  EXPECT_EQ(s[0], (Point{0.1, 0.7}));
  EXPECT_EQ(s[2], (Point{0.3, 0.9}));

  // Each refused write throws and leaves every column entry as it was.
  const std::vector<Point> before = s.positions();
  const std::vector<std::vector<double>> bad_positions{
      {kNaN, 0.5}, {0.5, kNaN}, {1.5, 0.5}, {0.5, -0.1}, {0.5}, {0.5, 0.5, 0.5}, {}};
  for (const std::vector<double>& bad : bad_positions) {
    SCOPED_TRACE(testing::Message() << bad.size() << " coordinates");
    EXPECT_THROW(s.set(0, bad), std::invalid_argument);
    EXPECT_EQ(s.positions(), before);
  }
  EXPECT_THROW(s.set(3, pos), std::invalid_argument);  // out-of-range id
  EXPECT_THROW(s.set(~DeviceId{0}, pos), std::invalid_argument);
  EXPECT_EQ(s.positions(), before);
}

TEST(SnapshotTest, ValidatesConsistentDimensions) {
  EXPECT_THROW(Snapshot({Point{0.1}, Point{0.1, 0.2}}), std::invalid_argument);
}

TEST(SnapshotTest, RejectsEmpty) {
  EXPECT_THROW(Snapshot({}), std::invalid_argument);
}

TEST(StatePairTest, ValidatesMatchingShapes) {
  Snapshot one({Point{0.1}});
  Snapshot two({Point{0.1}, Point{0.2}});
  EXPECT_THROW(StatePair(one, two, DeviceSet{}), std::invalid_argument);
}

TEST(StatePairTest, ValidatesJointDimension) {
  // Joint positions are Points of dimension 2d, so d is capped at kMaxDim / 2.
  const Snapshot wide(Point::kMaxDim / 2 + 1,
                      std::vector<double>(Point::kMaxDim / 2 + 1, 0.5));
  EXPECT_THROW(StatePair(wide, wide, DeviceSet{}), std::invalid_argument);
  const Snapshot widest(Point::kMaxDim / 2, std::vector<double>(Point::kMaxDim / 2, 0.5));
  EXPECT_EQ(StatePair(widest, widest, DeviceSet{}).joint(0).dim(), Point::kMaxDim);
}

TEST(StatePairTest, ValidatesAbnormalRange) {
  Snapshot s({Point{0.1}, Point{0.2}});
  EXPECT_THROW(StatePair(s, s, DeviceSet({5})), std::invalid_argument);
  EXPECT_NO_THROW(StatePair(s, s, DeviceSet({1})));
}

TEST(StatePairTest, JointPositionsConcatenatePrevAndCurr) {
  const StatePair state = test::make_state_1d({{0.1, 0.8}, {0.2, 0.9}});
  EXPECT_EQ(state.joint(0), (Point{0.1, 0.8}));
  EXPECT_EQ(state.joint(1), (Point{0.2, 0.9}));
  EXPECT_EQ(state.joint_dim(), 2u);
}

TEST(StatePairTest, JointDistanceIsMaxOverInstants) {
  // Devices close at k-1 (0.02 apart) but far at k (0.5 apart).
  const StatePair state = test::make_state_1d({{0.10, 0.2}, {0.12, 0.7}});
  EXPECT_NEAR(state.joint_distance(0, 1), 0.5, 1e-12);
}

TEST(StatePairTest, AbnormalMembership) {
  const StatePair state =
      test::make_state_1d({{0.1, 0.1}, {0.2, 0.2}, {0.3, 0.3}}, DeviceSet({0, 2}));
  EXPECT_TRUE(state.is_abnormal(0));
  EXPECT_FALSE(state.is_abnormal(1));
  EXPECT_TRUE(state.is_abnormal(2));
  EXPECT_EQ(state.abnormal(), DeviceSet({0, 2}));
}

TEST(StatePairTest, MultiDimensionalJointDistance) {
  const StatePair state = test::make_state({{0.1, 0.2}, {0.15, 0.6}},
                                           {{0.5, 0.5}, {0.55, 0.52}});
  // prev distance = max(.05, .4) = .4; curr distance = max(.05, .02) = .05.
  EXPECT_NEAR(state.joint_distance(0, 1), 0.4, 1e-12);
}

TEST(StatePairTest, AdvanceCountsMovesAndMatchesFreshState) {
  // Large enough for the pooled roll to split the id range into chunks. A
  // serial and a pooled pair roll through the same snapshots; each must
  // return the number of devices whose current position changed and hold
  // the same columns as a StatePair built fresh from the two snapshots.
  const std::size_t n = 40000;
  Rng rng(11);
  std::vector<Point> positions(n, Point{0.5, 0.5});
  const Snapshot first(positions);
  StatePair serial(first, first, DeviceSet{});
  StatePair pooled(first, first, DeviceSet{});
  WorkerPool pool(4);
  for (int k = 0; k < 3; ++k) {
    const Snapshot prev(positions);
    std::size_t moved = 0;
    for (std::size_t j = 0; j < n; j += 1 + k) {
      if (rng.bernoulli(0.1)) {
        positions[j] = Point{rng.uniform(), rng.uniform()};
        ++moved;
      }
    }
    const Snapshot next(positions);
    EXPECT_EQ(serial.advance(next, DeviceSet{}), moved) << "roll " << k;
    EXPECT_EQ(pooled.advance(next, DeviceSet{}, &pool), moved) << "roll " << k;
    const StatePair fresh(prev, next, DeviceSet{});
    const std::vector<Point> prev_points = prev.positions();
    const std::vector<Point> next_points = next.positions();
    for (const StatePair* rolled : {&serial, &pooled}) {
      for (std::size_t t = 0; t < fresh.joint_dim(); ++t) {
        ASSERT_TRUE(std::equal(fresh.joint_col(t), fresh.joint_col(t) + n,
                               rolled->joint_col(t)))
            << "roll " << k << " dim " << t;
      }
      // The Point-valued accessors gather from the columns; they must agree
      // with the snapshots that were fed in. Samples straddle the pooled
      // roll's chunk boundary (16384) and both ends of the id range.
      for (const DeviceId j : {0u, 1u, 16383u, 16384u, 32768u, 39999u, 12345u}) {
        SCOPED_TRACE(testing::Message() << "roll " << k << " device " << j);
        ASSERT_EQ(rolled->prev_pos(j), prev_points[j]);
        ASSERT_EQ(rolled->curr_pos(j), next_points[j]);
        const Point& p = prev_points[j];
        const Point& c = next_points[j];
        ASSERT_EQ(rolled->joint(j), (Point{p[0], p[1], c[0], c[1]}));
        const DeviceId other = (j + 7919) % n;
        ASSERT_EQ(rolled->joint_distance(j, other),
                  std::max(chebyshev(p, prev_points[other]),
                           chebyshev(c, next_points[other])));
      }
      ASSERT_EQ(rolled->prev().positions(), prev_points) << "roll " << k;
      ASSERT_EQ(rolled->curr().positions(), next_points) << "roll " << k;
    }
  }
}

TEST(StatePairTest, MovedListRollMatchesFreshStateAtEveryStep) {
  // advance() catches S_{k-1} up only at the ids the last roll moved (the
  // constructor seeds that list where its two snapshots differ). Walk a
  // serial and a pooled pair through the cases that list must survive and
  // compare both with a StatePair built fresh from the same two snapshots
  // after every roll. n spans three roll chunks of 16384 ids, and every
  // random step moves the ids on both sides of each chunk boundary, each
  // along one coordinate only (alternately the first and the second).
  const std::size_t n = 40000;
  const std::vector<DeviceId> edges{0u, 16383u, 16384u, 32767u, 32768u, 39999u};
  Rng rng(29);
  std::vector<Point> positions(n);
  for (Point& p : positions) p = Point{rng.uniform(), rng.uniform()};
  const auto move_some = [&](std::vector<Point> from) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.bernoulli(0.05)) from[j] = Point{rng.uniform(), rng.uniform()};
    }
    for (std::size_t e = 0; e < edges.size(); ++e) {
      Point& p = from[edges[e]];
      p = e % 2 == 0 ? Point{rng.uniform(), p[1]} : Point{p[0], rng.uniform()};
    }
    return from;
  };

  // The constructor's two snapshots already differ at random ids.
  std::vector<Point> prev = positions;
  std::vector<Point> curr = move_some(positions);
  StatePair serial{Snapshot(prev), Snapshot(curr), DeviceSet{}};
  StatePair pooled{Snapshot(prev), Snapshot(curr), DeviceSet{}};
  WorkerPool pool(4);

  std::vector<Point> before_last = prev;  // S_{k-2} once a roll has run
  const auto roll = [&](const char* step, std::vector<Point> next) {
    SCOPED_TRACE(step);
    std::size_t expected = 0;
    for (std::size_t j = 0; j < n; ++j) expected += next[j] == curr[j] ? 0 : 1;
    const Snapshot next_snapshot(next);
    EXPECT_EQ(serial.advance(next_snapshot, DeviceSet{}), expected);
    EXPECT_EQ(pooled.advance(next_snapshot, DeviceSet{}, &pool), expected);
    const StatePair fresh(Snapshot(curr), next_snapshot, DeviceSet{});
    for (const StatePair* rolled : {&serial, &pooled}) {
      for (std::size_t t = 0; t < fresh.joint_dim(); ++t) {
        ASSERT_TRUE(std::equal(fresh.joint_col(t), fresh.joint_col(t) + n,
                               rolled->joint_col(t)))
            << "dim " << t;
      }
    }
    before_last = std::move(curr);
    curr = std::move(next);
  };

  roll("random moves", move_some(curr));
  roll("nothing moves", curr);
  roll("random moves after a quiet roll", move_some(curr));
  roll("every device returns to its k-2 position", before_last);
  std::vector<Point> teleported(n);
  for (Point& p : teleported) p = Point{rng.uniform(), rng.uniform()};
  roll("every device teleports", teleported);
  roll("random moves after a teleport", move_some(curr));
}

}  // namespace
}  // namespace acn
