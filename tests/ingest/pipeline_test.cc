// IngestPipeline behaviour: watermark seal timing, late/duplicate/future
// handling, stall timeout, interval-flood marking, overload sheds, the
// liveness retire path, and alignment with the monitor it feeds.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/pipeline.hpp"

namespace acn {
namespace {

// Eight well-separated devices in [0,1]^2 (pairwise chebyshev >> 2r).
std::vector<Point> fleet_positions() {
  return {Point{0.10, 0.10}, Point{0.30, 0.10}, Point{0.50, 0.10},
          Point{0.70, 0.10}, Point{0.10, 0.50}, Point{0.30, 0.50},
          Point{0.50, 0.50}, Point{0.70, 0.50}};
}

IngestPipeline::Config base_config(std::size_t capacity = 8) {
  IngestPipeline::Config config;
  config.capacity = capacity;
  config.dim = 2;
  return config;
}

QosReport make_report(GatewayKey device, std::uint64_t interval,
                      const Point& claim, bool abnormal = false,
                      std::uint64_t seq = 0) {
  QosReport report;
  report.device = device;
  report.interval = interval;
  report.claim = claim;
  report.abnormal = abnormal;
  report.arrival_seq = seq == 0 ? interval : seq;
  return report;
}

/// Pushes one in-place report per device for interval k.
void push_interval(IngestPipeline& pipeline, std::uint64_t k) {
  const std::vector<Point> fleet = fleet_positions();
  for (GatewayKey d = 0; d < fleet.size(); ++d) {
    pipeline.push(make_report(d, k, fleet[d]));
  }
}

TEST(IngestPipeline, ConfigAndPrimeGuards) {
  EXPECT_THROW(IngestPipeline(base_config(0)), std::invalid_argument);
  {
    IngestPipeline::Config config = base_config();
    config.watermark.allowed_lag = 0;
    EXPECT_THROW(IngestPipeline{config}, std::invalid_argument);
  }
  {
    IngestPipeline::Config config = base_config();
    config.watermark.max_watermark_jump = 0;
    EXPECT_THROW(IngestPipeline{config}, std::invalid_argument);
  }
  IngestPipeline pipeline(base_config());
  EXPECT_THROW(pipeline.push(make_report(0, 1, Point{0.1, 0.1})),
               std::logic_error);
  pipeline.prime(Snapshot(fleet_positions()));
  EXPECT_THROW(pipeline.prime(Snapshot(fleet_positions())), std::logic_error);
}

TEST(IngestPipeline, NaNClaimIsRefusedLikeAnOutOfBoxClaim) {
  // A claim outside [0,1]^d throws when its interval seals and never reaches
  // the roster or the engine. A NaN coordinate lies outside too, through
  // both roster paths: the report of an active device and the admission of
  // a first-seen key.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const GatewayKey key : {GatewayKey{3}, GatewayKey{100}}) {
    for (const Point& bad : {Point{1.5, 0.5}, Point{nan, 0.5}, Point{0.5, nan}}) {
      SCOPED_TRACE(testing::Message() << "key " << key << " claim " << bad.to_string());
      IngestPipeline pipeline(base_config(9));
      pipeline.prime(Snapshot(fleet_positions()));
      push_interval(pipeline, 1);
      pipeline.push(make_report(key, 1, bad, /*abnormal=*/true, /*seq=*/2));
      EXPECT_THROW(pipeline.finish(), std::invalid_argument);  // seals interval 1
      EXPECT_EQ(pipeline.monitor().intervals_seen(), 1u);  // only the prime
      EXPECT_FALSE(pipeline.monitor().roster().active(100));
      EXPECT_EQ(pipeline.monitor().roster().snapshot()[3], fleet_positions()[3]);
    }
  }
}

TEST(IngestPipeline, ClaimsOfEveryRosterDimensionRoundTripBitExact) {
  // Awkward doubles: both ends of [0, 1], the smallest subnormal, the
  // neighbours of 1 and 1/2, and values with no short decimal form.
  const std::vector<double> awkward{
      0.0, 1.0, std::numeric_limits<double>::denorm_min(),
      std::nextafter(1.0, 0.0), std::nextafter(0.5, 1.0), 1.0 / 3.0, 0.1, 0.7};
  const auto bits_equal = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  for (std::size_t d = 1; d <= Claim::kMaxDim; ++d) {
    SCOPED_TRACE(testing::Message() << "d = " << d);
    // Claim c of device j: coordinate t is awkward[(j + t + c) % 8].
    const auto claim_of = [&](GatewayKey j, std::size_t c) {
      std::vector<double> coords(d);
      for (std::size_t t = 0; t < d; ++t) {
        coords[t] = awkward[(static_cast<std::size_t>(j) + t + c) % awkward.size()];
      }
      return Point(coords);
    };
    IngestPipeline::Config config = base_config(4);
    config.dim = d;
    IngestPipeline pipeline(config);
    std::vector<Point> primed;
    for (GatewayKey j = 0; j < 3; ++j) primed.push_back(claim_of(j, 0));
    pipeline.prime(Snapshot(primed));
    const FleetRoster& roster = pipeline.monitor().roster();
    for (GatewayKey j = 0; j < 3; ++j) {
      for (std::size_t t = 0; t < d; ++t) {
        ASSERT_TRUE(bits_equal(roster.snapshot().col(t)[j], primed[j][t]));
      }
    }
    // Interval 1: the dense keys report, and a spill key is admitted.
    const std::vector<GatewayKey> keys{0, 1, 2, 1000};
    for (const GatewayKey key : keys) pipeline.push(make_report(key, 1, claim_of(key, 3)));
    pipeline.finish();
    ASSERT_EQ(pipeline.monitor().intervals_seen(), 2u);
    for (const GatewayKey key : keys) {
      const DeviceId slot = *roster.slot_of(key);
      const Point sent = claim_of(key, 3);
      for (std::size_t t = 0; t < d; ++t) {
        EXPECT_TRUE(bits_equal(roster.snapshot().col(t)[slot], sent[t]))
            << "key " << key << " coordinate " << t;
      }
    }
  }
}

TEST(IngestPipeline, OddDimensionDenseClaimThrowsAtTheRoster) {
  // A dense key's claim of the wrong dimension parks beside the staging
  // lane, then seals in key order: keys before it are applied, and the
  // roster refuses it without touching its slot.
  IngestPipeline pipeline(base_config());
  pipeline.prime(Snapshot(fleet_positions()));
  const Point moved{0.15, 0.15};
  pipeline.push(make_report(2, 1, moved));
  pipeline.push(make_report(3, 1, Point{0.5, 0.5, 0.5}, /*abnormal=*/true));
  EXPECT_THROW(pipeline.finish(), std::invalid_argument);
  EXPECT_EQ(pipeline.monitor().intervals_seen(), 1u);  // only the prime
  EXPECT_EQ(pipeline.monitor().roster().snapshot()[2], moved);
  EXPECT_EQ(pipeline.monitor().roster().snapshot()[3], fleet_positions()[3]);
}

TEST(IngestPipeline, WatermarkSealsAtAllowedLag) {
  IngestPipeline::Config config = base_config();
  config.watermark.allowed_lag = 2;
  IngestPipeline pipeline(config);
  pipeline.prime(Snapshot(fleet_positions()));

  push_interval(pipeline, 1);
  push_interval(pipeline, 2);
  EXPECT_TRUE(pipeline.drain_ready().empty());  // watermark at 2: 1 still open
  EXPECT_EQ(pipeline.open_intervals(), 2u);

  pipeline.push(make_report(0, 3, fleet_positions()[0]));
  const std::vector<ClosedInterval> closed = pipeline.drain_ready();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed.front().interval, 1u);
  EXPECT_FALSE(closed.front().forced);
  EXPECT_FALSE(closed.front().degraded);
  EXPECT_EQ(closed.front().reported, 8u);
  EXPECT_EQ(closed.front().replayed, 0u);
  // Monitor intervals align with event intervals (prime sealed interval 0).
  EXPECT_EQ(closed.front().report.interval, 1u);
  EXPECT_EQ(pipeline.next_to_seal(), 2u);
}

TEST(IngestPipeline, LateToSealedIsCountedAndDropped) {
  IngestPipeline::Config config = base_config();
  config.watermark.allowed_lag = 1;
  IngestPipeline pipeline(config);
  pipeline.prime(Snapshot(fleet_positions()));
  push_interval(pipeline, 1);
  push_interval(pipeline, 2);  // seals 1
  ASSERT_EQ(pipeline.next_to_seal(), 2u);
  pipeline.push(make_report(3, 1, Point{0.99, 0.99}));
  EXPECT_EQ(pipeline.counters().late_sealed, 1u);
  // The straggler's claim never reaches the roster.
  EXPECT_TRUE(pipeline.monitor().roster().snapshot()[3] ==
              fleet_positions()[3]);
}

TEST(IngestPipeline, GapIntervalsSealEmptyAndReplay) {
  IngestPipeline::Config config = base_config();
  config.watermark.allowed_lag = 2;
  IngestPipeline pipeline(config);
  pipeline.prime(Snapshot(fleet_positions()));
  push_interval(pipeline, 1);
  pipeline.push(make_report(0, 5, fleet_positions()[0]));  // watermark jumps
  const std::vector<ClosedInterval> closed = pipeline.drain_ready();
  ASSERT_EQ(closed.size(), 3u);  // 1, 2, 3 sealed; 4 and 5 within the lag
  EXPECT_EQ(closed[0].reported, 8u);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(closed[i].interval, i + 1);
    EXPECT_EQ(closed[i].reported, 0u);
    EXPECT_EQ(closed[i].replayed, 8u);  // every device replays its last claim
  }
  EXPECT_EQ(pipeline.counters().replayed_claims, 16u);
}

TEST(IngestPipeline, FutureEventTimesAreRejected) {
  IngestPipeline::Config config = base_config();
  config.watermark.max_future_skip = 10;
  IngestPipeline pipeline(config);
  pipeline.prime(Snapshot(fleet_positions()));
  push_interval(pipeline, 1);
  pipeline.push(make_report(0, 12, fleet_positions()[0]));  // 1 + 10 = 11 max
  EXPECT_EQ(pipeline.counters().future_rejected, 1u);
  EXPECT_EQ(pipeline.max_seen_interval(), 1u);  // the watermark never moved
  pipeline.push(make_report(0, 11, fleet_positions()[0]));  // plausible
  EXPECT_EQ(pipeline.counters().future_rejected, 1u);
  EXPECT_EQ(pipeline.max_seen_interval(), 11u);
}

TEST(IngestPipeline, StallTimeoutForceSealsOldestInterval) {
  IngestPipeline::Config config = base_config();
  config.watermark.allowed_lag = 100;  // the watermark alone would never seal
  config.watermark.timeout_ticks = 3;
  IngestPipeline pipeline(config);
  pipeline.prime(Snapshot(fleet_positions()));
  push_interval(pipeline, 1);
  pipeline.tick();
  pipeline.tick();
  EXPECT_TRUE(pipeline.drain_ready().empty());
  pipeline.tick();  // age 3 >= timeout
  const std::vector<ClosedInterval> closed = pipeline.drain_ready();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_TRUE(closed.front().forced);
  EXPECT_TRUE(closed.front().degraded);
  EXPECT_TRUE(closed.front().report.degraded);
  EXPECT_EQ(pipeline.counters().forced_closes, 1u);
}

TEST(IngestPipeline, WatermarkJumpFloodMarksExcessSealsForced) {
  IngestPipeline::Config config = base_config();
  config.watermark.allowed_lag = 2;
  config.watermark.max_watermark_jump = 2;
  IngestPipeline pipeline(config);
  pipeline.prime(Snapshot(fleet_positions()));
  push_interval(pipeline, 1);
  pipeline.push(make_report(0, 9, fleet_positions()[0]));  // flood: seals 1..7
  const std::vector<ClosedInterval> closed = pipeline.drain_ready();
  ASSERT_EQ(closed.size(), 7u);
  // Sealing k with the watermark at 9 leaves 8 - k still pending; the
  // excess (pending > jump) seals are the forced ones.
  for (const ClosedInterval& c : closed) {
    const bool expect_forced = (8 - c.interval) > 2;
    EXPECT_EQ(c.forced, expect_forced) << "interval " << c.interval;
    EXPECT_EQ(c.degraded, expect_forced) << "interval " << c.interval;
  }
  EXPECT_EQ(pipeline.counters().forced_closes, 5u);
}

TEST(IngestPipeline, DuplicatesAndSupersessionsResolveBySeq) {
  IngestPipeline::Config config = base_config();
  config.watermark.allowed_lag = 1;
  IngestPipeline pipeline(config);
  pipeline.prime(Snapshot(fleet_positions()));
  const Point original{0.11, 0.11};
  const Point corrected{0.12, 0.12};
  pipeline.push(make_report(0, 1, original, false, 10));
  pipeline.push(make_report(0, 1, original, false, 10));     // retransmission
  pipeline.push(make_report(0, 1, corrected, false, 11));    // correction
  pipeline.push(make_report(0, 1, original, false, 9));      // stale straggler
  EXPECT_EQ(pipeline.counters().duplicates, 1u);
  EXPECT_EQ(pipeline.counters().superseded, 2u);
  push_interval(pipeline, 2);  // seals 1
  ASSERT_EQ(pipeline.next_to_seal(), 2u);
  EXPECT_TRUE(pipeline.monitor().roster().snapshot()[0] == corrected);
}

TEST(IngestPipeline, FirstSeenKeysAutoAdmitUntilCapacity) {
  IngestPipeline::Config config = base_config(/*capacity=*/9);
  config.watermark.allowed_lag = 1;
  IngestPipeline pipeline(config);
  pipeline.prime(Snapshot(fleet_positions()));
  push_interval(pipeline, 1);
  pipeline.push(make_report(100, 1, Point{0.9, 0.9}));  // never primed
  push_interval(pipeline, 2);                           // seals 1
  EXPECT_EQ(pipeline.counters().admitted_devices, 1u);
  EXPECT_TRUE(pipeline.monitor().roster().active(100));

  // The tenth key finds no free slot: refused, interval marked degraded.
  pipeline.push(make_report(200, 2, Point{0.8, 0.8}));
  pipeline.push(make_report(0, 3, fleet_positions()[0]));  // seals 2
  const std::vector<ClosedInterval> closed = pipeline.drain_ready();
  ASSERT_EQ(closed.size(), 2u);
  EXPECT_EQ(pipeline.counters().admit_rejected, 1u);
  EXPECT_TRUE(closed.back().degraded);
  EXPECT_FALSE(pipeline.monitor().roster().active(200));
}

TEST(IngestPipeline, ShedEngagesAndMarksDegraded) {
  IngestPipeline::Config config = base_config();
  config.watermark.allowed_lag = 1;
  config.overload.shed_claim_threshold = 0;  // shed from the first report
  config.overload.shed_sample_stride = 2;
  IngestPipeline pipeline(config);
  pipeline.prime(Snapshot(fleet_positions()));
  for (GatewayKey d = 0; d < 8; ++d) {
    pipeline.push(make_report(d, 1, Point{0.25, 0.25}));
  }
  // Advance the watermark with an abnormal report (never shed), so the
  // shed counter below reflects interval 1 alone.
  pipeline.push(make_report(0, 2, fleet_positions()[0], /*abnormal=*/true));
  const std::vector<ClosedInterval> closed = pipeline.drain_ready();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_TRUE(closed.front().degraded);
  EXPECT_TRUE(closed.front().report.degraded);
  EXPECT_GT(pipeline.counters().shed_claims, 0u);
  EXPECT_LT(pipeline.counters().shed_claims, 8u);  // 1-in-2 sampling keeps some
  // A shed device replays its prime claim; a kept one moved to 0.25.
  const Snapshot snapshot = pipeline.monitor().roster().snapshot();
  std::size_t moved = 0;
  for (DeviceId d = 0; d < 8; ++d) {
    if (snapshot[d] == Point{0.25, 0.25}) ++moved;
  }
  EXPECT_EQ(moved + pipeline.counters().shed_claims, 8u);
}

TEST(IngestPipeline, AbnormalReportsAreNeverShed) {
  IngestPipeline::Config config = base_config();
  config.watermark.allowed_lag = 1;
  config.overload.shed_claim_threshold = 0;
  config.overload.shed_sample_stride = 1000;  // shed everything sheddable
  IngestPipeline pipeline(config);
  pipeline.prime(Snapshot(fleet_positions()));
  for (GatewayKey d = 0; d < 8; ++d) {
    pipeline.push(make_report(d, 1, Point{0.25, 0.25}, /*abnormal=*/true));
  }
  push_interval(pipeline, 2);
  const std::vector<ClosedInterval> closed = pipeline.drain_ready();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed.front().reported, 8u);  // every flagged report landed
  EXPECT_EQ(closed.front().report.abnormal.size(), 8u);
}

TEST(IngestPipeline, DeferralDropsOnlyIsolatedFlaggedAndPreservesVerdicts) {
  const std::vector<Point> fleet = fleet_positions();
  // Interval 1: devices 0 and 1 converge within 2r of each other (a
  // 2-member motion, <= tau -> isolated); device 7 crashes alone far away.
  std::vector<std::pair<GatewayKey, Point>> moves = {
      {0, Point{0.20, 0.10}}, {1, Point{0.21, 0.10}}, {7, Point{0.95, 0.95}}};

  auto run = [&](std::size_t cap) {
    IngestPipeline::Config config = base_config();
    config.watermark.allowed_lag = 1;
    config.overload.defer_abnormal_cap = cap;
    IngestPipeline pipeline(config);
  pipeline.prime(Snapshot(fleet_positions()));
    for (GatewayKey d = 0; d < fleet.size(); ++d) {
      Point claim = fleet[d];
      bool abnormal = false;
      for (const auto& [key, to] : moves) {
        if (key == d) {
          claim = to;
          abnormal = true;
        }
      }
      pipeline.push(make_report(d, 1, claim, abnormal));
    }
    push_interval(pipeline, 2);  // seals 1
    std::vector<ClosedInterval> closed = pipeline.drain_ready();
    EXPECT_EQ(closed.size(), 1u);
    return std::move(closed.front());
  };

  const ClosedInterval baseline = run(/*cap=*/SIZE_MAX);
  EXPECT_FALSE(baseline.degraded);
  EXPECT_TRUE(baseline.deferred.empty());
  ASSERT_EQ(baseline.report.decisions.size(), 3u);

  const ClosedInterval capped = run(/*cap=*/2);
  EXPECT_TRUE(capped.degraded);
  ASSERT_EQ(capped.deferred.size(), 1u);
  EXPECT_EQ(capped.deferred.front(), 7u);  // the loner, never the cluster
  ASSERT_EQ(capped.report.decisions.size(), 2u);
  for (const auto& [device, decision] : capped.report.decisions) {
    const Decision& want = baseline.report.decisions.at(device);
    EXPECT_TRUE(decision.cls == want.cls && decision.rule == want.rule &&
                decision.exact == want.exact &&
                decision.maximal_motion_count == want.maximal_motion_count &&
                decision.dense_motion_count == want.dense_motion_count &&
                decision.collections_tested == want.collections_tested)
        << "device " << device;
  }
}

TEST(IngestPipeline, LivenessRetiresSilentDeviceAndReadmitsOnReturn) {
  IngestPipeline::Config config = base_config();
  config.watermark.allowed_lag = 1;
  config.liveness = LivenessConfig{
      .silent_intervals = 1, .retry_backoff = 1, .max_retries = 1};
  IngestPipeline pipeline(config);
  pipeline.prime(Snapshot(fleet_positions()));
  const std::vector<Point> fleet = fleet_positions();

  // Device 0 reports only interval 1, then goes dark until interval 5.
  for (std::uint64_t k = 1; k <= 6; ++k) {
    for (GatewayKey d = 0; d < fleet.size(); ++d) {
      if (d == 0 && k > 1 && k != 5) continue;
      pipeline.push(make_report(d, k, fleet[d]));
    }
  }
  pipeline.finish();
  const std::vector<ClosedInterval> closed = pipeline.drain_ready();
  ASSERT_EQ(closed.size(), 6u);

  // Suspect after seal 2, probe exhausted at seal 3 -> retired there.
  EXPECT_TRUE(closed[1].retired.empty());
  ASSERT_EQ(closed[2].retired.size(), 1u);
  EXPECT_EQ(closed[2].retired.front(), 0u);
  EXPECT_EQ(pipeline.counters().retired_devices, 1u);
  // Its interval-5 report auto-admits it back into the parked slot.
  EXPECT_EQ(pipeline.counters().admitted_devices, 1u);
  EXPECT_TRUE(pipeline.monitor().roster().active(0));
}

TEST(IngestPipeline, FinishSealsEveryOpenInterval) {
  IngestPipeline::Config config = base_config();
  config.watermark.allowed_lag = 5;
  IngestPipeline pipeline(config);
  pipeline.prime(Snapshot(fleet_positions()));
  for (std::uint64_t k = 1; k <= 3; ++k) push_interval(pipeline, k);
  EXPECT_TRUE(pipeline.drain_ready().empty());
  pipeline.finish();
  const std::vector<ClosedInterval> closed = pipeline.drain_ready();
  ASSERT_EQ(closed.size(), 3u);
  for (const ClosedInterval& c : closed) {
    EXPECT_FALSE(c.forced);  // end of stream is a complete close
    EXPECT_FALSE(c.degraded);
    EXPECT_EQ(c.reported, 8u);
  }
}

}  // namespace
}  // namespace acn
