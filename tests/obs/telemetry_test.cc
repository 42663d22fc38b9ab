// TelemetryHub region tally: per-stripe device and verdict counts from the
// fleet's dim-0 column, against a hand count, the monitor's wiring of that
// column (S_k, not S_{k-1}), and the device counts kept across rolls.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/motion_plane.hpp"
#include "core/state.hpp"
#include "online/monitor.hpp"

namespace acn::obs {
namespace {

TEST(TelemetryHub, RegionOfClampsToTheStripes) {
  const TelemetryHub hub(TelemetryConfig{.regions = 4});
  EXPECT_EQ(hub.region_of(0.0), 0u);
  EXPECT_EQ(hub.region_of(0.2499), 0u);
  EXPECT_EQ(hub.region_of(0.25), 1u);
  EXPECT_EQ(hub.region_of(0.74), 2u);
  EXPECT_EQ(hub.region_of(0.75), 3u);
  EXPECT_EQ(hub.region_of(1.0), 3u);  // x0 = 1 closes the last stripe
}

TEST(TelemetryHub, TallyRegionsCountsTheDimZeroColumn) {
  const TelemetryHub hub(TelemetryConfig{.regions = 4});
  // A 2-d fleet as [dim][n] columns; only column 0 decides the stripe.
  //   device:   0    1    2     3    4    5     6     7    8
  //   stripe:   0    0    1     1    2    2     3     3    3
  const Snapshot fleet(2, {0.0, 0.1, 0.25, 0.3, 0.5, 0.74, 0.75, 1.0, 0.99,
                           0.9, 0.0, 0.5, 1.0, 0.2, 0.3, 0.4, 0.6, 0.7});
  const DeviceSet abnormal({0, 2, 4, 6, 7});
  const DeviceSet isolated({0, 7});
  const DeviceSet massive({2, 4});
  const DeviceSet unresolved({6});
  const std::vector<RegionStats> regions = hub.tally_regions(
      {fleet.col(0), fleet.size()}, abnormal, isolated, massive, unresolved);
  ASSERT_EQ(regions.size(), 4u);

  struct Expected {
    std::uint32_t devices, abnormal, isolated, massive, unresolved;
  };
  const Expected expected[] = {
      {2, 1, 1, 0, 0},  // devices 0, 1; abnormal 0 (isolated)
      {2, 1, 0, 1, 0},  // devices 2, 3; abnormal 2 (massive)
      {2, 1, 0, 1, 0},  // devices 4, 5; abnormal 4 (massive)
      {3, 2, 1, 0, 1},  // devices 6, 7, 8; 6 unresolved, 7 isolated at x0 = 1
  };
  for (std::size_t r = 0; r < regions.size(); ++r) {
    SCOPED_TRACE(testing::Message() << "region " << r);
    EXPECT_EQ(regions[r].devices, expected[r].devices);
    EXPECT_EQ(regions[r].abnormal, expected[r].abnormal);
    EXPECT_EQ(regions[r].isolated, expected[r].isolated);
    EXPECT_EQ(regions[r].massive, expected[r].massive);
    EXPECT_EQ(regions[r].unresolved, expected[r].unresolved);
  }
}

TEST(TelemetryHub, MonitorTalliesTheCurrentSnapshot) {
  // Every device crosses from stripe 0 to stripe 1 in interval 1; the
  // interval's record must count them where they are now, at S_k.
  OnlineMonitor::Config config;
  config.telemetry = TelemetryConfig{.regions = 2};
  OnlineMonitor monitor(config);
  (void)monitor.observe(Snapshot(1, {0.1, 0.2, 0.3}), DeviceSet{});
  (void)monitor.observe(Snapshot(1, {0.6, 0.7, 0.8}), DeviceSet({0}));
  const IntervalTelemetry& record = monitor.telemetry()->store().latest();
  ASSERT_EQ(record.interval, 1u);
  ASSERT_EQ(record.regions.size(), 2u);
  EXPECT_EQ(record.regions[0].devices, 0u);
  EXPECT_EQ(record.regions[1].devices, 3u);
  EXPECT_EQ(record.regions[1].abnormal, 1u);
  EXPECT_EQ(record.devices, 3u);
}

TEST(TelemetryHub, KeptRegionCountsEqualAFullTally) {
  // A roster-mode monitor whose devices wander across the stripes keeps
  // its per-region device counts from the moved lists; every record must
  // equal tally_regions over the whole S_k column. A 64-byte arena budget
  // makes the one interval that flags devices (interval 4) throw after its
  // roll, so interval 5's moved list is not all that changed since the
  // last count: it must count again.
  OnlineMonitor::Config config;
  config.model = {.r = 0.05, .tau = 2};
  config.roster_capacity = 200;
  config.roster_dim = 2;
  config.telemetry = TelemetryConfig{.regions = 5};
  config.plane_arena_budget = 64;
  OnlineMonitor monitor(config);
  Rng rng(7);
  for (GatewayKey key = 0; key < 200; ++key) {
    (void)monitor.admit(key, Point{rng.uniform(), rng.uniform()});
  }
  std::vector<GatewayKey> flagged(50);
  for (GatewayKey key = 0; key < flagged.size(); ++key) flagged[key] = key;
  std::size_t throws = 0;
  for (std::uint64_t k = 0; k <= 10; ++k) {
    SCOPED_TRACE(testing::Message() << "interval " << k);
    for (GatewayKey key = 0; key < 200 && k > 0; ++key) {
      if (rng.bernoulli(0.2)) monitor.report(key, Point{rng.uniform(), rng.uniform()});
    }
    IntervalReport report;
    try {
      report = monitor.close_interval(k == 4 ? flagged : std::vector<GatewayKey>{});
    } catch (const ArenaBudgetExceeded&) {
      ++throws;
      continue;
    }
    const StatePair& state = monitor.engine().state();
    const TelemetryHub& hub = *monitor.telemetry();
    const std::vector<RegionStats> want = hub.tally_regions(
        {state.joint_col(state.dim()), state.n()}, report.abnormal, report.isolated,
        report.massive, report.unresolved);
    const std::vector<RegionStats>& got = hub.store().latest().regions;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t r = 0; r < got.size(); ++r) {
      EXPECT_EQ(got[r].devices, want[r].devices) << "region " << r;
    }
  }
  EXPECT_EQ(throws, 1u);
}

TEST(TelemetryHub, TallyRolledMovesDevicesBetweenStripes) {
  TelemetryHub hub(TelemetryConfig{.regions = 2});
  const std::vector<double> before{0.1, 0.2, 0.7};
  const std::vector<double> after{0.6, 0.2, 0.7};  // device 0 crosses
  const std::vector<DeviceId> moved{0};
  const DeviceSet none;
  // First call counts the column whatever `recount` says.
  std::vector<RegionStats> regions =
      hub.tally_rolled(before, before, {}, false, none, none, none, none);
  EXPECT_EQ(regions[0].devices, 2u);
  EXPECT_EQ(regions[1].devices, 1u);
  regions = hub.tally_rolled(before, after, moved, false, DeviceSet({0}), none,
                             DeviceSet({0}), none);
  EXPECT_EQ(regions[0].devices, 1u);
  EXPECT_EQ(regions[1].devices, 2u);
  EXPECT_EQ(regions[1].abnormal, 1u);
  EXPECT_EQ(regions[1].massive, 1u);
  // A recount ignores the list: the column alone decides.
  regions = hub.tally_rolled(after, before, moved, true, none, none, none, none);
  EXPECT_EQ(regions[0].devices, 2u);
  EXPECT_EQ(regions[1].devices, 1u);
}

}  // namespace
}  // namespace acn::obs
