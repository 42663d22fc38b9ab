// Unit tests for the ingest building blocks: StagingFrame's commutative
// last-write-wins rule and its run loop, the LivenessTracker retry ladder,
// and the OverloadController's two verdict-safety-aware sheds.
#include <algorithm>
#include <array>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/liveness.hpp"
#include "ingest/overload.hpp"
#include "core/state.hpp"
#include "ingest/staging.hpp"

namespace acn {
namespace {

QosReport make_report(GatewayKey device, std::uint64_t interval, double x,
                      std::uint64_t seq, bool abnormal = false) {
  QosReport report;
  report.device = device;
  report.interval = interval;
  report.claim = Point{x, x};
  report.abnormal = abnormal;
  report.arrival_seq = seq;
  return report;
}

TEST(StagingFrame, LastWriteWinsBySeq) {
  StagingFrame frame;
  EXPECT_EQ(frame.apply(make_report(7, 3, 0.1, 3)), StagingFrame::Apply::kAccepted);
  // A correction with a higher seq replaces the claim.
  EXPECT_EQ(frame.apply(make_report(7, 3, 0.2, 5)), StagingFrame::Apply::kSuperseded);
  // An exact retransmission of the winner is a duplicate.
  EXPECT_EQ(frame.apply(make_report(7, 3, 0.2, 5)), StagingFrame::Apply::kDuplicate);
  // A straggler with an older seq loses, whatever its arrival order.
  EXPECT_EQ(frame.apply(make_report(7, 3, 0.9, 4)), StagingFrame::Apply::kStale);

  ASSERT_EQ(frame.device_count(), 1u);
  EXPECT_EQ(frame.volume(), 4u);
  const auto cell = frame.find(7);
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(cell->seq, 5u);
  EXPECT_DOUBLE_EQ(cell->claim[0], 0.2);
  EXPECT_FALSE(frame.find(8).has_value());
}

TEST(StagingFrame, StagedStateIsDeliveryOrderIndependent) {
  std::vector<QosReport> reports;
  for (GatewayKey d = 0; d < 10; ++d) {
    reports.push_back(make_report(d, 1, 0.01 * static_cast<double>(d), 1));
    reports.push_back(make_report(d, 1, 0.02 * static_cast<double>(d), 2,
                                  d % 3 == 0));
    reports.push_back(make_report(d, 1, 0.01 * static_cast<double>(d), 1));
  }
  StagingFrame forward;
  for (const QosReport& r : reports) (void)forward.apply(r);
  StagingFrame backward;
  for (auto it = reports.rbegin(); it != reports.rend(); ++it) {
    (void)backward.apply(*it);
  }
  const auto a = forward.sorted();
  const auto b = backward.sorted();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_EQ(a[i].second.seq, b[i].second.seq);
    EXPECT_EQ(a[i].second.flagged, b[i].second.flagged);
    EXPECT_TRUE(a[i].second.claim == b[i].second.claim);
  }
}

TEST(StagingFrame, SortedIsAscendingByKey) {
  StagingFrame frame;
  for (const GatewayKey d : {9ULL, 2ULL, 41ULL, 0ULL, 17ULL}) {
    (void)frame.apply(make_report(d, 1, 0.5, 1));
  }
  const auto entries = frame.sorted();
  ASSERT_EQ(entries.size(), 5u);
  EXPECT_TRUE(std::is_sorted(
      entries.begin(), entries.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
}

TEST(StagingFrame, DenseLaneSpillAndResetKeepSemantics) {
  StagingFrame frame;
  frame.configure(8, 2);  // keys < 8 take the flat lane; 41 and 100 spill
  (void)frame.apply(make_report(5, 1, 0.5, 1));
  (void)frame.apply(make_report(100, 1, 0.9, 1, true));
  (void)frame.apply(make_report(2, 1, 0.2, 1));
  (void)frame.apply(make_report(41, 1, 0.4, 1));
  EXPECT_EQ(frame.device_count(), 4u);

  // Seal order is ascending across both lanes.
  const auto entries = frame.sorted();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries[0].first, 2u);
  EXPECT_EQ(entries[1].first, 5u);
  EXPECT_EQ(entries[2].first, 41u);
  EXPECT_EQ(entries[3].first, 100u);
  EXPECT_TRUE(entries[3].second.flagged);

  // Last-write-wins works identically in the lane and the spill.
  EXPECT_EQ(frame.apply(make_report(5, 1, 0.7, 3)),
            StagingFrame::Apply::kSuperseded);
  EXPECT_EQ(frame.apply(make_report(100, 1, 0.9, 1)),
            StagingFrame::Apply::kDuplicate);
  ASSERT_TRUE(frame.find(5).has_value());
  EXPECT_EQ(frame.find(5)->seq, 3u);

  // reset() empties the frame but keeps the lane (the pipeline pools
  // sealed frames), so a reused frame behaves like a fresh one.
  frame.shed_engaged = true;
  frame.reset();
  EXPECT_EQ(frame.device_count(), 0u);
  EXPECT_EQ(frame.volume(), 0u);
  EXPECT_FALSE(frame.shed_engaged);
  EXPECT_FALSE(frame.find(5).has_value());
  EXPECT_FALSE(frame.find(100).has_value());
  EXPECT_EQ(frame.apply(make_report(5, 2, 0.1, 1)),
            StagingFrame::Apply::kAccepted);
  EXPECT_EQ(frame.device_count(), 1u);

  // A spike of spilled keys grows the spill map past the buckets reset()
  // keeps: the reset after the spike keeps them, the next one releases
  // them. Through both the frame behaves like a fresh one.
  const GatewayKey spike = 2 * StagingFrame::kKeptBuckets;
  for (GatewayKey key = 8; key < 8 + spike; ++key) {
    (void)frame.apply(make_report(key, 3, 0.3, 1));
  }
  EXPECT_EQ(frame.device_count(), 1u + spike);
  for (std::uint64_t interval = 4; interval <= 5; ++interval) {
    SCOPED_TRACE(testing::Message() << "interval " << interval);
    frame.reset();
    EXPECT_EQ(frame.device_count(), 0u);
    EXPECT_EQ(frame.volume(), 0u);
    EXPECT_FALSE(frame.find(8).has_value());
    EXPECT_FALSE(frame.find(7 + spike).has_value());
    EXPECT_EQ(frame.apply(make_report(41, interval, 0.4, 2)),
              StagingFrame::Apply::kAccepted);
    EXPECT_EQ(frame.apply(make_report(41, interval, 0.4, 2)),
              StagingFrame::Apply::kDuplicate);
    EXPECT_EQ(frame.apply(make_report(2, interval, 0.2, 1)),
              StagingFrame::Apply::kAccepted);
    const auto after = frame.sorted();
    ASSERT_EQ(after.size(), 2u);
    EXPECT_EQ(after[0].first, 2u);
    EXPECT_EQ(after[1].first, 41u);
  }
}

TEST(StagingFrame, StageRunMatchesApplyAndStopsAtTheFirstSlowReport) {
  // Interval 4's run: a first report, a duplicate, a correction, a stale
  // straggler and a flagged one, then the reports that end the run.
  std::vector<QosReport> reports{
      make_report(1, 4, 0.1, 4),       make_report(6, 4, 0.6, 4),
      make_report(1, 4, 0.1, 4),       make_report(6, 4, 0.7, 5),
      make_report(6, 4, 0.5, 3),       make_report(2, 4, 0.2, 4, true),
  };
  QosReport wide = make_report(3, 4, 0.3, 4);
  wide.claim = Point{0.3, 0.3, 0.3};
  QosReport outside = make_report(3, 4, 0.3, 4);
  outside.claim = Point{0.3, 1.5};
  QosReport not_a_number = make_report(3, 4, 0.3, 4);
  not_a_number.claim = Point{std::numeric_limits<double>::quiet_NaN(), 0.3};
  const std::vector<QosReport> stoppers{
      make_report(0, 5, 0.0, 5),  // another interval
      make_report(9, 4, 0.9, 4),  // a spill key
      wide,                       // a claim of another dimension
      outside,                    // a coordinate outside [0, 1]
      not_a_number,               // a NaN coordinate
  };
  for (const QosReport& stopper : stoppers) {
    SCOPED_TRACE(testing::Message() << "stopper key " << stopper.device);
    std::vector<QosReport> batch = reports;
    batch.push_back(stopper);
    batch.push_back(make_report(4, 4, 0.4, 4));

    StagingFrame by_run;
    by_run.configure(8, 2);
    const StagingFrame::RunTally tally = by_run.stage_run(batch, 4);
    EXPECT_EQ(tally.staged, reports.size());
    EXPECT_EQ(tally.outcomes, (std::array<std::size_t, 4>{3, 1, 1, 1}));

    StagingFrame by_apply;
    by_apply.configure(8, 2);
    for (const QosReport& report : reports) (void)by_apply.apply(report);
    EXPECT_EQ(by_run.volume(), by_apply.volume());
    EXPECT_EQ(by_run.device_count(), by_apply.device_count());
    const auto a = by_run.sorted();
    const auto b = by_apply.sorted();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].first, b[i].first);
      EXPECT_EQ(a[i].second.seq, b[i].second.seq);
      EXPECT_EQ(a[i].second.flagged, b[i].second.flagged);
      EXPECT_TRUE(a[i].second.claim == b[i].second.claim);
    }
  }

}

TEST(Claim, HoldsUpToTheRosterDimensionLimit) {
  std::vector<double> coords;
  for (std::size_t d = 1; d <= Claim::kMaxDim; ++d) {
    coords.push_back(1.0 / static_cast<double>(d + 2));
    const Point point(coords);
    const Claim claim = point;
    ASSERT_EQ(claim.dim(), d);
    EXPECT_TRUE(std::ranges::equal(claim.coords(), point.coords()));
    EXPECT_EQ(claim[d - 1], coords.back());
    EXPECT_TRUE(claim == Claim(std::span<const double>(coords)));
    EXPECT_FALSE(claim == Claim(std::span<const double>(coords).first(d - 1)));
  }
  // A ninth coordinate fits a Point but no roster: the conversion refuses it.
  coords.push_back(0.5);
  const Point nine(coords);
  EXPECT_THROW((void)Claim(nine), std::invalid_argument);
  QosReport report;
  EXPECT_THROW(report.claim = nine, std::invalid_argument);
  EXPECT_EQ(report.claim.dim(), 0u);
}

TEST(StagingFrame, ApplyRefusesALaneClaimOfAnotherDimension) {
  StagingFrame frame;
  frame.configure(8, 2);
  QosReport wide = make_report(3, 1, 0.3, 1);
  wide.claim = Point{0.3, 0.3, 0.3};
  EXPECT_THROW((void)frame.apply(wide), std::invalid_argument);
  EXPECT_EQ(frame.volume(), 0u);
  EXPECT_EQ(frame.device_count(), 0u);
  wide.device = 20;  // a spill key holds any claim; the pipeline checks it
  EXPECT_EQ(frame.apply(wide), StagingFrame::Apply::kAccepted);
}

TEST(Claim, FitsExactlyWhatTheRosterAccepts) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(Claim(Point{0.0, 1.0}).fits(2));
  EXPECT_TRUE(Claim(Point{-0.0, 0.5}).fits(2));
  EXPECT_FALSE(Claim(Point{0.5, 0.5}).fits(3));
  EXPECT_FALSE(Claim(Point{0.5, 0.5, 0.5}).fits(2));
  EXPECT_FALSE(Claim().fits(2));
  for (const double x : {-1e-300, 1.0000000000000002, 1.5, nan, inf, -inf}) {
    SCOPED_TRACE(testing::Message() << "coordinate " << x);
    const Claim claim(Point{0.5, x});
    EXPECT_FALSE(claim.fits(2));
    // The roster's own check, Snapshot::set, refuses the same claims.
    Snapshot roster(2, {0.5, 0.5});
    EXPECT_THROW((void)roster.set(0, claim.coords()), std::invalid_argument);
  }
}

TEST(LivenessTracker, DisabledTracksNothing) {
  LivenessTracker tracker(LivenessConfig{});  // silent_intervals = 0: off
  tracker.admitted(1, 0);
  EXPECT_FALSE(tracker.enabled());
  EXPECT_EQ(tracker.tracked_count(), 0u);
  EXPECT_TRUE(tracker.sealed(5).empty());
}

TEST(LivenessTracker, RetryLadderThenExpiry) {
  LivenessTracker tracker(LivenessConfig{
      .silent_intervals = 1, .retry_backoff = 2, .max_retries = 3});
  tracker.admitted(42, 0);

  // Seal 1: first threshold crossing -> suspect, probe scheduled at 3.
  EXPECT_TRUE(tracker.sealed(1).empty());
  EXPECT_EQ(tracker.suspect_count(), 1u);
  // Seal 2: probe not due yet.
  EXPECT_TRUE(tracker.sealed(2).empty());
  // Seal 3: retry 1 consumed, next probe at 3 + 4.
  EXPECT_TRUE(tracker.sealed(3).empty());
  for (std::uint64_t k = 4; k <= 6; ++k) EXPECT_TRUE(tracker.sealed(k).empty());
  // Seal 7: retry 2 consumed, next probe at 7 + 8.
  EXPECT_TRUE(tracker.sealed(7).empty());
  for (std::uint64_t k = 8; k <= 14; ++k) {
    EXPECT_TRUE(tracker.sealed(k).empty()) << "interval " << k;
  }
  // Seal 15: ladder exhausted.
  const std::vector<GatewayKey> expired = tracker.sealed(15);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired.front(), 42u);
  // The tracker never retires on its own; the caller forgets explicitly.
  tracker.forget(42);
  EXPECT_EQ(tracker.tracked_count(), 0u);
  EXPECT_EQ(tracker.suspect_count(), 0u);
}

TEST(LivenessTracker, ReportRevivesSuspect) {
  LivenessTracker tracker(LivenessConfig{
      .silent_intervals = 1, .retry_backoff = 1, .max_retries = 1});
  tracker.admitted(9, 0);
  EXPECT_TRUE(tracker.sealed(1).empty());  // suspect now
  EXPECT_EQ(tracker.suspect_count(), 1u);
  EXPECT_TRUE(tracker.reported(9, 2));  // revived
  EXPECT_EQ(tracker.suspect_count(), 0u);
  // The ladder restarts from scratch after a revival.
  EXPECT_TRUE(tracker.sealed(3).empty());  // suspect again, probe at 4
  const std::vector<GatewayKey> expired = tracker.sealed(4);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired.front(), 9u);
}

TEST(OverloadController, ShedEngagesOnlyPastThreshold) {
  OverloadController controller(OverloadConfig{
      .shed_claim_threshold = 100, .shed_sample_stride = 4});
  // Below the threshold nothing is shed.
  for (GatewayKey d = 0; d < 50; ++d) {
    EXPECT_FALSE(controller.shed_claim(d, 1, 99));
  }
  // Past it, roughly 1 in stride survives and the decision is a pure
  // function of (device, interval) — delivery order cannot matter.
  std::size_t kept = 0;
  for (GatewayKey d = 0; d < 1000; ++d) {
    const bool shed = controller.shed_claim(d, 7, 100);
    EXPECT_EQ(shed, controller.shed_claim(d, 7, 5000));
    if (!shed) ++kept;
  }
  EXPECT_GT(kept, 150u);
  EXPECT_LT(kept, 350u);
}

TEST(OverloadController, DeferSelectsExactlyTheIsolatedFlagged) {
  OverloadController controller(OverloadConfig{.defer_abnormal_cap = 3});
  const double window = 0.06;  // 2r with r = 0.03
  // Two clusters within the window, two loners far from everything.
  const std::vector<Point> claims = {
      Point{0.10, 0.10}, Point{0.12, 0.10},  // cluster A (indices 0, 1)
      Point{0.90, 0.90},                     // loner (index 2)
      Point{0.50, 0.50}, Point{0.50, 0.54},  // cluster B (indices 3, 4)
      Point{0.10, 0.90},                     // loner (index 5)
  };
  const std::vector<std::size_t> deferred =
      controller.defer_candidates(claims, window);
  EXPECT_EQ(deferred, (std::vector<std::size_t>{2, 5}));
}

TEST(OverloadController, DeferDisengagedAtOrBelowCap) {
  OverloadController controller(OverloadConfig{.defer_abnormal_cap = 6});
  const std::vector<Point> claims = {Point{0.1, 0.1}, Point{0.9, 0.9}};
  EXPECT_TRUE(controller.defer_candidates(claims, 0.06).empty());
}

}  // namespace
}  // namespace acn
