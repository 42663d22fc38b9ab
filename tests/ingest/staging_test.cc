// Unit tests for the ingest building blocks: StagingFrame's commutative
// last-write-wins rule and its one run loop, the LivenessTracker retry ladder,
// and the OverloadController's two verdict-safety-aware sheds.
#include <algorithm>
#include <array>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/state.hpp"
#include "ingest/liveness.hpp"
#include "ingest/overload.hpp"
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

/// One staged entry as the seal sees it.
struct Entry {
  GatewayKey key = 0;
  std::vector<double> claim;
  bool flagged = false;
  friend bool operator==(const Entry&, const Entry&) = default;
};

std::vector<Entry> entries(const StagingFrame& frame) {
  std::vector<Entry> out;
  frame.for_each_sorted<2>([&](GatewayKey key, std::span<const double, 2> claim,
                               bool flagged) {
    out.push_back({key, {claim.begin(), claim.end()}, flagged});
  });
  return out;
}

std::vector<GatewayKey> keys_of(const std::vector<Entry>& staged) {
  std::vector<GatewayKey> keys;
  for (const Entry& entry : staged) keys.push_back(entry.key);
  return keys;
}

/// Stages one report and names its outcome.
const char* stage_one(StagingFrame& frame, const QosReport& report) {
  const StagingFrame::Tally tally = frame.stage({&report, 1}, report.interval);
  if (tally.staged != 1) return "stopped";
  if (tally.accepted == 1) return "accepted";
  if (tally.superseded == 1) return "superseded";
  return tally.duplicates == 1 ? "duplicate" : "uncounted";
}

TEST(StagingFrame, LastWriteWinsBySeqForALaneKeyAndASpillKeyAlike) {
  // Key 7 takes the lane, key 70 the spill map; each gets a first report,
  // a correction with a higher seq, an exact retransmission of the
  // correction and a straggler with an older seq, interleaved.
  const std::pair<double, std::uint64_t> steps[] = {{0.1, 3}, {0.2, 5}, {0.2, 5}, {0.9, 4}};
  std::vector<QosReport> run;
  for (const auto& [x, seq] : steps) {
    run.push_back(make_report(7, 3, x, seq));
    run.push_back(make_report(70, 3, x, seq));
  }
  const std::vector<Entry> want{{7, {0.2, 0.2}, false}, {70, {0.2, 0.2}, false}};

  StagingFrame by_one;
  by_one.configure(8, 2);
  const char* const outcomes[] = {"accepted", "superseded", "duplicate", "superseded"};
  for (std::size_t i = 0; i < run.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "report " << i << " key " << run[i].device);
    EXPECT_STREQ(stage_one(by_one, run[i]), outcomes[i / 2]);
  }
  EXPECT_EQ(by_one.device_count(), 2u);
  EXPECT_EQ(by_one.volume(), 8u);
  EXPECT_EQ(entries(by_one), want);

  StagingFrame by_run;
  by_run.configure(8, 2);
  const StagingFrame::Tally tally = by_run.stage(run, 3);
  EXPECT_EQ(tally.staged, 8u);
  EXPECT_EQ(tally.accepted, 2u);
  EXPECT_EQ(tally.superseded, 4u);  // the corrections and the stragglers
  EXPECT_EQ(tally.duplicates, 2u);
  EXPECT_EQ(by_run.device_count(), 2u);
  EXPECT_EQ(by_run.volume(), 8u);
  EXPECT_EQ(entries(by_run), want);
}

TEST(StagingFrame, StagedStateIsDeliveryOrderIndependent) {
  // Keys 0-5 take the lane; 6-9 and 1000 + d spill.
  std::vector<QosReport> reports;
  for (GatewayKey d = 0; d < 10; ++d) {
    for (const GatewayKey key : {d, 1000 + d}) {
      reports.push_back(make_report(key, 1, 0.01 * static_cast<double>(d), 1));
      reports.push_back(make_report(key, 1, 0.02 * static_cast<double>(d), 2, d % 3 == 0));
      reports.push_back(make_report(key, 1, 0.01 * static_cast<double>(d), 1));
    }
  }
  std::vector<QosReport> backward(reports.rbegin(), reports.rend());
  StagingFrame forward;
  forward.configure(6, 2);
  EXPECT_EQ(forward.stage(reports, 1).staged, reports.size());
  StagingFrame reversed;
  reversed.configure(6, 2);
  EXPECT_EQ(reversed.stage(backward, 1).staged, backward.size());
  StagingFrame one_by_one;
  one_by_one.configure(6, 2);
  for (const QosReport& report : backward) (void)stage_one(one_by_one, report);

  const std::vector<Entry> staged = entries(forward);
  ASSERT_EQ(staged.size(), 20u);
  EXPECT_EQ(staged, entries(reversed));
  EXPECT_EQ(staged, entries(one_by_one));
  for (const Entry& entry : staged) {
    const GatewayKey d = entry.key % 1000;
    EXPECT_EQ(entry.claim[0], 0.02 * static_cast<double>(d)) << "key " << entry.key;
    EXPECT_EQ(entry.flagged, d % 3 == 0) << "key " << entry.key;
  }
}

TEST(StagingFrame, SealOrderIsAscendingAcrossTheLaneAndTheSpillMap) {
  StagingFrame frame;
  frame.configure(8, 2);  // keys < 8 take the lane; 9, 17, 41 and 100 spill
  std::vector<QosReport> run;
  for (const GatewayKey d : {9ULL, 2ULL, 41ULL, 0ULL, 17ULL, 5ULL, 100ULL, 7ULL}) {
    run.push_back(make_report(d, 1, 0.5, 1, d == 100));
  }
  EXPECT_EQ(frame.stage(run, 1).staged, run.size());
  const std::vector<Entry> staged = entries(frame);
  EXPECT_EQ(keys_of(staged), (std::vector<GatewayKey>{0, 2, 5, 7, 9, 17, 41, 100}));
  ASSERT_EQ(staged.size(), 8u);
  EXPECT_TRUE(staged[7].flagged);
  EXPECT_EQ(frame.device_count(), 8u);
}

TEST(StagingFrame, ResetKeepsTheLaneAndReleasesASpillSpike) {
  StagingFrame frame;
  frame.configure(8, 2);
  const std::vector<QosReport> first{make_report(5, 1, 0.5, 1), make_report(100, 1, 0.9, 1)};
  EXPECT_EQ(frame.stage(first, 1).staged, 2u);

  // reset() empties the frame but keeps the lane (the pipeline pools
  // sealed frames), so a reused frame behaves like a fresh one.
  frame.shed_engaged = true;
  frame.first_seen_tick = 9;
  frame.reset();
  EXPECT_EQ(frame.device_count(), 0u);
  EXPECT_EQ(frame.volume(), 0u);
  EXPECT_FALSE(frame.shed_engaged);
  EXPECT_EQ(frame.first_seen_tick, 0u);
  EXPECT_TRUE(entries(frame).empty());
  EXPECT_STREQ(stage_one(frame, make_report(5, 2, 0.1, 1)), "accepted");
  EXPECT_EQ(entries(frame), (std::vector<Entry>{{5, {0.1, 0.1}, false}}));

  // A spike of spilled keys grows the spill map past the buckets reset()
  // keeps: the reset after the spike keeps them, the next one releases
  // them. Through both the frame behaves like a fresh one.
  const GatewayKey spike = 2 * StagingFrame::kKeptBuckets;
  std::vector<QosReport> spiked;
  for (GatewayKey key = 8; key < 8 + spike; ++key) spiked.push_back(make_report(key, 3, 0.3, 1));
  EXPECT_EQ(frame.stage(spiked, 3).accepted, spike);
  EXPECT_EQ(frame.device_count(), 1u + spike);
  for (std::uint64_t interval = 4; interval <= 5; ++interval) {
    SCOPED_TRACE(testing::Message() << "interval " << interval);
    frame.reset();
    EXPECT_EQ(frame.device_count(), 0u);
    EXPECT_EQ(frame.volume(), 0u);
    EXPECT_TRUE(entries(frame).empty());
    EXPECT_STREQ(stage_one(frame, make_report(41, interval, 0.4, 2)), "accepted");
    EXPECT_STREQ(stage_one(frame, make_report(41, interval, 0.4, 2)), "duplicate");
    EXPECT_STREQ(stage_one(frame, make_report(2, interval, 0.2, 1)), "accepted");
    EXPECT_EQ(keys_of(entries(frame)), (std::vector<GatewayKey>{2, 41}));
    EXPECT_EQ(frame.device_count(), 2u);
  }
}

TEST(StagingFrame, StageStopsOnlyAtAnotherIntervalOrAMalformedClaim) {
  // Interval 4's run: a first report, a spill key, a duplicate, a
  // correction, a stale straggler and a flagged one, then the report that
  // ends the run.
  const std::vector<QosReport> reports{
      make_report(1, 4, 0.1, 4),       make_report(9, 4, 0.9, 4),
      make_report(6, 4, 0.6, 4),       make_report(1, 4, 0.1, 4),
      make_report(6, 4, 0.7, 5),       make_report(6, 4, 0.5, 3),
      make_report(2, 4, 0.2, 4, true),
  };
  const auto with_claim = [](GatewayKey key, const Point& claim) {
    QosReport report = make_report(key, 4, 0.3, 4);
    report.claim = claim;
    return report;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    const char* name;
    QosReport report;
  } stoppers[] = {
      {"another interval", make_report(0, 5, 0.0, 5)},
      {"another dimension", with_claim(3, Point{0.3, 0.3, 0.3})},
      {"fewer coordinates", with_claim(3, Point{0.3})},
      {"a coordinate outside [0, 1]", with_claim(3, Point{0.3, 1.5})},
      {"a negative coordinate", with_claim(3, Point{-0.25, 0.3})},
      {"NaN", with_claim(3, Point{nan, 0.3})},
      {"a spill key's malformed claim", with_claim(20, Point{0.3, 0.3, 0.3})},
  };
  for (const auto& stopper : stoppers) {
    SCOPED_TRACE(stopper.name);
    std::vector<QosReport> batch = reports;
    batch.push_back(stopper.report);
    batch.push_back(make_report(4, 4, 0.4, 4));

    StagingFrame by_run;
    by_run.configure(8, 2);
    const StagingFrame::Tally tally = by_run.stage(batch, 4);
    EXPECT_EQ(tally.staged, reports.size());
    EXPECT_EQ(tally.accepted, 4u);
    EXPECT_EQ(tally.superseded, 2u);
    EXPECT_EQ(tally.duplicates, 1u);
    EXPECT_EQ(by_run.volume(), reports.size());
    EXPECT_EQ(by_run.device_count(), 4u);
    EXPECT_EQ(by_run.stage(std::span(batch).subspan(reports.size()), 4).staged, 0u);

    StagingFrame by_one;
    by_one.configure(8, 2);
    for (const QosReport& report : reports) (void)stage_one(by_one, report);
    EXPECT_EQ(entries(by_run), entries(by_one));
    EXPECT_EQ(keys_of(entries(by_run)), (std::vector<GatewayKey>{1, 2, 6, 9}));
  }
}

TEST(StagingFrame, ASpillKeyInMidRunDoesNotStopTheRun) {
  StagingFrame frame;
  frame.configure(4, 2);
  const std::vector<QosReport> run{make_report(0, 1, 0.1, 1), make_report(977, 1, 0.9, 1),
                                   make_report(3, 1, 0.3, 1), make_report(4, 1, 0.4, 1),
                                   make_report(1, 1, 0.2, 1)};
  const StagingFrame::Tally tally = frame.stage(run, 1);
  EXPECT_EQ(tally.staged, run.size());
  EXPECT_EQ(tally.accepted, run.size());
  EXPECT_EQ(keys_of(entries(frame)), (std::vector<GatewayKey>{0, 1, 3, 4, 977}));
}

TEST(StagingFrame, ConfigureRefusesADimensionNoRosterHas) {
  StagingFrame frame;
  EXPECT_THROW(frame.configure(8, 0), std::invalid_argument);
  EXPECT_THROW(frame.configure(8, Claim::kMaxDim + 1), std::invalid_argument);
  const QosReport report = make_report(3, 1, 0.3, 1);
  const std::span<const QosReport> run(&report, 1);
  EXPECT_THROW((void)frame.stage(run, 1), std::logic_error);  // still unconfigured

  // A dense limit of 0 means no lane: every key spills.
  frame.configure(0, 2);
  EXPECT_STREQ(stage_one(frame, report), "accepted");
  EXPECT_EQ(entries(frame), (std::vector<Entry>{{3, {0.3, 0.3}, false}}));
  // The seal's walk reads claims at its own dimension's stride, so a walk
  // of another dimension than the frame's is refused.
  EXPECT_THROW(frame.for_each_sorted<3>([](GatewayKey, std::span<const double, 3>, bool) {}),
               std::logic_error);
}

TEST(StagingFrame, StageOnAFrameNeverConfiguredThrows) {
  StagingFrame frame;
  const std::vector<QosReport> run{make_report(3, 1, 0.3, 1)};
  EXPECT_THROW((void)frame.stage(run, 1), std::logic_error);
  EXPECT_EQ(frame.volume(), 0u);
  EXPECT_EQ(frame.device_count(), 0u);
  EXPECT_THROW((void)frame.stage({}, 1), std::logic_error);
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
      controller.defer_candidates(Snapshot(claims), window);
  EXPECT_EQ(deferred, (std::vector<std::size_t>{2, 5}));
}

TEST(OverloadController, DeferMatchesAPairwiseReference) {
  // Random claims, partners exactly `window` apart on one axis, and exact
  // duplicates, against an O(m^2) Chebyshev loop: a claim defers iff no
  // other claim lies within `window` of it.
  OverloadController controller(OverloadConfig{.defer_abnormal_cap = 0});
  std::size_t cases = 0;
  std::size_t deferred_total = 0;
  std::size_t kept_total = 0;
  for (const std::size_t dim : {1u, 2u, 3u}) {
    for (const double window : {0.0, 0.02, 0.06, 0.25}) {
      for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed * 100 + dim);
        std::vector<Point> claims;
        const std::size_t m = 1 + rng.uniform_int(40);
        for (std::size_t i = 0; i < m; ++i) {
          std::array<double, 3> x{};
          for (std::size_t t = 0; t < dim; ++t) x[t] = rng.uniform();
          claims.emplace_back(std::span<const double>(x.data(), dim));
          if (rng.bernoulli(0.3)) {
            Point partner = claims.back();
            const std::size_t axis = rng.uniform_int(dim);
            partner[axis] += partner[axis] + window <= 1.0 ? window : -window;
            claims.push_back(partner);
          }
          if (rng.bernoulli(0.1)) claims.push_back(claims.back());
        }
        std::vector<std::size_t> reference;
        for (std::size_t i = 0; i < claims.size(); ++i) {
          bool adjacent = false;
          for (std::size_t k = 0; k < claims.size() && !adjacent; ++k) {
            adjacent = k != i && chebyshev(claims[i], claims[k]) <= window;
          }
          if (!adjacent) reference.push_back(i);
        }
        EXPECT_EQ(controller.defer_candidates(Snapshot(claims), window), reference)
            << "d=" << dim << " window=" << window << " seed=" << seed;
        ++cases;
        deferred_total += reference.size();
        kept_total += claims.size() - reference.size();
      }
    }
  }
  EXPECT_EQ(cases, 240u);
  EXPECT_GT(deferred_total, 0u);
  EXPECT_GT(kept_total, 0u);
}

TEST(OverloadController, DeferKeepsEveryClaimOfAClusteredFlood) {
  // 2,000 claims inside one Chebyshev ball of radius r, so every pair lies
  // within the 2r window, and three loners: one far off, one in a corner,
  // one a cell beyond the cluster but just over 2r from every claim in it.
  OverloadController controller(OverloadConfig{.defer_abnormal_cap = 0});
  const double r = 0.03;
  Rng rng(11);
  std::vector<Point> claims = {Point{0.05, 0.95}};
  for (int i = 0; i < 2000; ++i) {
    const double x = 0.5 + rng.uniform(-r, r);
    claims.push_back(Point{x, 0.5 + rng.uniform(-r, r)});
  }
  claims.push_back(Point{1.0, 0.0});
  claims.push_back(Point{0.5, 0.5 + 3.0 * r + 0.001});
  EXPECT_EQ(controller.defer_candidates(Snapshot(claims), 2.0 * r),
            (std::vector<std::size_t>{0, 2001, 2002}));
}

TEST(OverloadController, DeferDisengagedAtOrBelowCap) {
  // At the cap, two isolated claims stay; a third engages deferral.
  OverloadController controller(OverloadConfig{.defer_abnormal_cap = 2});
  std::vector<Point> claims = {Point{0.1, 0.1}, Point{0.9, 0.9}};
  EXPECT_FALSE(controller.defers(claims.size()));
  EXPECT_TRUE(controller.defer_candidates(Snapshot(claims), 0.06).empty());
  claims.push_back(Point{0.5, 0.5});
  EXPECT_TRUE(controller.defers(claims.size()));
  EXPECT_EQ(controller.defer_candidates(Snapshot(claims), 0.06),
            (std::vector<std::size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace acn
