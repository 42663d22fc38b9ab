// IngestPipeline behaviour: watermark seal timing, late/duplicate/future
// handling, stall timeout, interval-flood marking, overload sheds, the
// liveness retire path, alignment with the monitor it feeds, push_all()
// bursts cut at different points against each other on the same schedules,
// and against a last-write-wins reference written in the test.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ingest/pipeline.hpp"
#include "obs/telemetry.hpp"

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
  // A claim outside [0,1]^d is counted and dropped when it is pushed, and
  // never reaches the roster or the engine. A NaN coordinate lies outside
  // too, for the key of an active device and for a first-seen key.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const GatewayKey key : {GatewayKey{3}, GatewayKey{100}}) {
    for (const Point& bad : {Point{1.5, 0.5}, Point{nan, 0.5}, Point{0.5, nan}}) {
      SCOPED_TRACE(testing::Message() << "key " << key << " claim " << bad.to_string());
      IngestPipeline pipeline(base_config(9));
      pipeline.prime(Snapshot(fleet_positions()));
      push_interval(pipeline, 1);
      pipeline.push(make_report(key, 1, bad, /*abnormal=*/true, /*seq=*/2));
      EXPECT_EQ(pipeline.counters().malformed_rejected, 1u);
      pipeline.finish();  // seals interval 1
      const std::vector<ClosedInterval> closed = pipeline.drain_ready();
      ASSERT_EQ(closed.size(), 1u);
      EXPECT_EQ(closed[0].reported, 8u);
      EXPECT_TRUE(closed[0].report.abnormal.empty());
      EXPECT_EQ(pipeline.monitor().intervals_seen(), 2u);
      EXPECT_FALSE(pipeline.monitor().roster().active(100));
      EXPECT_EQ(pipeline.monitor().roster().snapshot()[3], fleet_positions()[3]);
    }
  }
}

TEST(IngestPipeline, ClaimsOfEveryRosterDimensionRoundTripBitExact) {
  // The seal hands claims to the roster in one walk per claim dimension, so
  // every case below runs at every roster dimension. Lane keys 0..6, of
  // which 0, 1, 3, 4 and 6 are primed; then, in interval 1:
  //   0  flagged, moves           3  silent, then revived in interval 2
  //   1  -0.0 over 0.0, no move   4  unchanged
  //   2  first seen, mid-lane     5  never reports
  //   6  the last lane key, moves
  // and spill keys 1000 (admitted, filling the roster) and 1001 (refused).
  // Awkward doubles: both ends of [0, 1], the smallest subnormal, the
  // neighbours of 1 and 1/2, and values with no short decimal form.
  const std::vector<double> awkward{
      0.0, 1.0, std::numeric_limits<double>::denorm_min(),
      std::nextafter(1.0, 0.0), std::nextafter(0.5, 1.0), 1.0 / 3.0, 0.1, 0.7};
  const auto bits_equal = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  constexpr std::size_t kCapacity = 7;
  const std::vector<GatewayKey> primed_keys{0, 1, 3, 4, 6};
  for (std::size_t d = 1; d <= Claim::kMaxDim; ++d) {
    SCOPED_TRACE(testing::Message() << "d = " << d);
    // Claim c of key j: coordinate t is awkward[(j + t + c) % 8]. Primed
    // claims are c = 8 - j, whose coordinate 0 is awkward[0] = 0.0.
    const auto claim_of = [&](GatewayKey j, std::size_t c) {
      std::vector<double> coords(d);
      for (std::size_t t = 0; t < d; ++t) {
        coords[t] = awkward[(static_cast<std::size_t>(j) + t + c) % awkward.size()];
      }
      return Point(coords);
    };
    const auto primed_claim = [&](GatewayKey j) {
      return claim_of(j, awkward.size() - static_cast<std::size_t>(j) % awkward.size());
    };

    // prime(Snapshot) admits key j from entry j of each of the d columns.
    {
      IngestPipeline::Config config = base_config(kCapacity);
      config.dim = d;
      IngestPipeline pipeline(config);
      std::vector<Point> primed;
      for (GatewayKey j = 0; j < kCapacity; ++j) primed.push_back(claim_of(j, 0));
      pipeline.prime(Snapshot(primed));
      const FleetRoster& roster = pipeline.monitor().roster();
      for (GatewayKey j = 0; j < kCapacity; ++j) {
        const DeviceId slot = roster.slot_of(j).value();
        for (std::size_t t = 0; t < d; ++t) {
          EXPECT_TRUE(bits_equal(roster.snapshot().col(t)[slot], primed[j][t]))
              << "primed key " << j << " coordinate " << t;
        }
      }
    }

    Point negative_zero = primed_claim(1);
    negative_zero[0] = -0.0;
    const std::map<GatewayKey, Point> sent{
        {0, claim_of(0, 3)},  {1, negative_zero},    {2, claim_of(2, 3)},
        {4, primed_claim(4)}, {6, claim_of(6, 3)}, {1000, claim_of(1000, 3)}};

    const auto run = [&](std::uint64_t arena_budget) {
      IngestPipeline::Config config = base_config(kCapacity);
      config.dim = d;
      config.watermark.allowed_lag = 1;
      config.liveness.silent_intervals = 1;
      config.monitor.plane_arena_budget = arena_budget;
      auto pipeline = std::make_unique<IngestPipeline>(config);
      std::vector<std::pair<GatewayKey, Point>> fleet;
      for (const GatewayKey key : primed_keys) fleet.emplace_back(key, primed_claim(key));
      pipeline->prime(fleet);
      for (const auto& [key, claim] : sent) {
        pipeline->push(make_report(key, 1, claim, /*abnormal=*/key == 0));
      }
      pipeline->push(make_report(1001, 1, claim_of(1001, 3)));
      return pipeline;
    };

    // A close that throws after the roll leaves the hand-off's change marks
    // in place: only moved slots and admitted ones carry one.
    {
      const std::unique_ptr<IngestPipeline> pipeline = run(/*arena_budget=*/1);
      EXPECT_THROW(pipeline->push(make_report(3, 2, primed_claim(3))), ArenaBudgetExceeded);
      const FleetRoster& roster = pipeline->monitor().roster();
      for (const GatewayKey key : {0, 1, 2, 3, 4, 6, 1000}) {
        const bool marked = roster.changes()[roster.slot_of(key).value()] != 0;
        EXPECT_EQ(marked, key != 1 && key != 3 && key != 4) << "key " << key;
      }
    }

    const std::unique_ptr<IngestPipeline> pipeline = run(FrameEngine::Config{}.plane_arena_budget);
    const FleetRoster& roster = pipeline->monitor().roster();
    pipeline->push(make_report(3, 2, primed_claim(3)));  // seals interval 1
    const std::vector<ClosedInterval> first = pipeline->drain_ready();
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].reported, sent.size());
    EXPECT_TRUE(first[0].degraded);
    EXPECT_EQ(pipeline->counters().admitted_devices, 2u);
    EXPECT_EQ(pipeline->counters().admit_rejected, 1u);
    EXPECT_TRUE(roster.active(2));
    EXPECT_FALSE(roster.active(1001));
    for (const auto& [key, claim] : sent) {
      const DeviceId slot = roster.slot_of(key).value();
      for (std::size_t t = 0; t < d; ++t) {
        EXPECT_TRUE(bits_equal(roster.snapshot().col(t)[slot], claim[t]))
            << "key " << key << " coordinate " << t;
      }
    }
    EXPECT_EQ(first[0].report.abnormal, DeviceSet::singleton(roster.slot_of(0).value()));
    // The roll moved the movers and the admitted slots (parked at the
    // origin before); -0.0 over 0.0 and the unchanged claim are no move.
    const std::span<const DeviceId> moved = pipeline->monitor().engine().state().moved();
    std::vector<DeviceId> movers;
    for (const GatewayKey key : {0, 2, 6, 1000}) movers.push_back(roster.slot_of(key).value());
    EXPECT_EQ(DeviceSet(moved), DeviceSet(movers));

    pipeline->finish();  // seals interval 2: key 3 was suspect since seal 1
    EXPECT_EQ(pipeline->counters().revived_devices, 1u);
    EXPECT_EQ(pipeline->counters().retired_devices, 0u);
  }
}

TEST(IngestPipeline, OddDimensionClaimIsRefusedAtPush) {
  // A dense key's claim of another dimension than the roster's cannot be
  // staged: it is counted and dropped at push, and its interval seals with
  // every other claim.
  IngestPipeline pipeline(base_config());
  pipeline.prime(Snapshot(fleet_positions()));
  const Point moved{0.15, 0.15};
  pipeline.push(make_report(2, 1, moved));
  pipeline.push(make_report(3, 1, Point{0.5, 0.5, 0.5}, /*abnormal=*/true));
  pipeline.push(make_report(4, 1, Point{0.5}, /*abnormal=*/true));
  EXPECT_EQ(pipeline.counters().malformed_rejected, 2u);
  EXPECT_EQ(pipeline.counters().accepted, 1u);
  pipeline.finish();
  const std::vector<ClosedInterval> closed = pipeline.drain_ready();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].reported, 1u);
  EXPECT_TRUE(closed[0].report.abnormal.empty());
  EXPECT_EQ(pipeline.monitor().roster().snapshot()[2], moved);
  EXPECT_EQ(pipeline.monitor().roster().snapshot()[3], fleet_positions()[3]);
  EXPECT_EQ(pipeline.monitor().roster().snapshot()[4], fleet_positions()[4]);
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
  for (std::size_t i = 0; i < capped.report.decisions.size(); ++i) {
    const DeviceId device = capped.report.abnormal[i];
    const Decision& decision = capped.report.decisions[i];
    // The baseline's A_k is the capped one's plus the deferred loner.
    const std::span<const DeviceId> all = baseline.report.abnormal.ids();
    const auto at = std::find(all.begin(), all.end(), device);
    ASSERT_NE(at, all.end()) << "device " << device;
    const Decision& want = baseline.report.decisions[static_cast<std::size_t>(at - all.begin())];
    EXPECT_TRUE(decision.cls == want.cls && decision.rule == want.rule &&
                decision.exact == want.exact &&
                decision.maximal_motion_count == want.maximal_motion_count &&
                decision.dense_motion_count == want.dense_motion_count &&
                decision.collections_tested == want.collections_tested)
        << "device " << device;
  }
}

TEST(IngestPipeline, DeferralReadsEachFlaggedClaimAtItsOwnSlot) {
  // Deferral reads the flagged claims back from the roster at each flagged
  // key's slot. Priming the keys in reverse puts key k at slot 7 - k, so
  // neither a key nor its rank among the flagged is its slot. Keys 2 and 5
  // converge within 2r and key 6 crashes alone; key 100 is first seen and
  // flagged, and the full roster refuses it, so it is neither in A_k nor
  // among the claims deferral reads.
  const std::vector<Point> positions = fleet_positions();
  std::vector<std::pair<GatewayKey, Point>> fleet;
  for (GatewayKey key = positions.size(); key-- > 0;) fleet.emplace_back(key, positions[key]);
  IngestPipeline::Config config = base_config();
  config.watermark.allowed_lag = 1;
  config.overload.defer_abnormal_cap = 2;
  IngestPipeline pipeline(config);
  pipeline.prime(fleet);
  const std::map<GatewayKey, Point> moves{
      {2, Point{0.20, 0.10}}, {5, Point{0.21, 0.10}}, {6, Point{0.95, 0.95}}};
  for (GatewayKey key = 0; key < positions.size(); ++key) {
    const auto move = moves.find(key);
    const bool moved = move != moves.end();
    pipeline.push(make_report(key, 1, moved ? move->second : positions[key], moved));
  }
  pipeline.push(make_report(100, 1, Point{0.5, 0.9}, /*abnormal=*/true));
  push_interval(pipeline, 2);  // seals 1
  const std::vector<ClosedInterval> closed = pipeline.drain_ready();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(pipeline.counters().admit_rejected, 1u);
  EXPECT_EQ(closed[0].deferred, (std::vector<GatewayKey>{6}));
  const FleetRoster& roster = pipeline.monitor().roster();
  EXPECT_EQ(closed[0].report.abnormal, (DeviceSet{*roster.slot_of(2), *roster.slot_of(5)}));
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

TEST(IngestPipeline, FutureSkipOfUint64MaxRejectsNothing) {
  // max_future_skip near UINT64_MAX must not wrap max_seen + skip.
  IngestPipeline::Config config = base_config();
  config.watermark.max_future_skip = std::numeric_limits<std::uint64_t>::max();
  IngestPipeline pipeline(config);
  pipeline.prime(Snapshot(fleet_positions()));
  for (GatewayKey d = 0; d < 4; ++d) {
    pipeline.push(make_report(d, 1, fleet_positions()[d]));
  }
  EXPECT_EQ(pipeline.counters().future_rejected, 0u);
  EXPECT_EQ(pipeline.counters().accepted, 4u);
  EXPECT_EQ(pipeline.max_seen_interval(), 1u);
}

TEST(IngestPipeline, AllowedLagOfUint64MaxNeverSealsOnTheWatermark) {
  // next_to_seal + allowed_lag must not wrap either.
  IngestPipeline::Config config = base_config();
  config.watermark.allowed_lag = std::numeric_limits<std::uint64_t>::max();
  IngestPipeline pipeline(config);
  pipeline.prime(Snapshot(fleet_positions()));
  pipeline.push(make_report(0, 1, fleet_positions()[0]));
  EXPECT_TRUE(pipeline.drain_ready().empty());
  EXPECT_EQ(pipeline.next_to_seal(), 1u);
  EXPECT_EQ(pipeline.open_intervals(), 1u);
  pipeline.finish();
  const std::vector<ClosedInterval> closed = pipeline.drain_ready();
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed.front().reported, 1u);
  EXPECT_FALSE(closed.front().forced);
}

TEST(IngestPipeline, MalformedClaimIsCountedAndItsIntervalSealsTheRest) {
  // A malformed claim — out of the box, NaN, or of another dimension — is
  // counted and dropped at push, at the head of a run and in its middle,
  // through push() and through push_all(). Its event time moves no
  // watermark, the stream goes on, and its interval seals with every other
  // claim.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const bool burst : {false, true}) {
    for (const Point& bad : {Point{1.5, 0.5}, Point{nan, 0.5}, Point{0.5, 0.5, 0.5}}) {
      SCOPED_TRACE(testing::Message() << (burst ? "push_all " : "push ") << bad.to_string());
      IngestPipeline::Config config = base_config();
      config.watermark.allowed_lag = 1;
      IngestPipeline pipeline(config);
      pipeline.prime(Snapshot(fleet_positions()));

      // A malformed head whose event time would seal intervals 1 to 4,
      // then interval 1 with every device moved and a malformed, flagged
      // correction of device 3 in the middle of the run.
      std::vector<QosReport> schedule{make_report(0, 6, bad)};
      std::vector<Point> moved = fleet_positions();
      for (GatewayKey d = 0; d < moved.size(); ++d) {
        moved[d] = Point{moved[d][0] + 0.01, moved[d][1]};
        schedule.push_back(make_report(d, 1, moved[d]));
        if (d == 3) schedule.push_back(make_report(3, 1, bad, /*abnormal=*/true, 2));
      }
      if (burst) {
        pipeline.push_all(schedule);
      } else {
        for (const QosReport& report : schedule) pipeline.push(report);
      }
      EXPECT_EQ(pipeline.counters().malformed_rejected, 2u);
      EXPECT_EQ(pipeline.counters().accepted, 8u);
      EXPECT_EQ(pipeline.counters().superseded, 0u);
      EXPECT_EQ(pipeline.max_seen_interval(), 1u);
      EXPECT_EQ(pipeline.next_to_seal(), 1u);
      EXPECT_EQ(pipeline.open_intervals(), 1u);

      push_interval(pipeline, 2);  // seals interval 1
      const std::vector<ClosedInterval> closed = pipeline.drain_ready();
      ASSERT_EQ(closed.size(), 1u);
      EXPECT_EQ(closed[0].interval, 1u);
      EXPECT_EQ(closed[0].reported, 8u);
      EXPECT_EQ(closed[0].replayed, 0u);
      EXPECT_TRUE(closed[0].report.abnormal.empty());
      for (GatewayKey d = 0; d < moved.size(); ++d) {
        EXPECT_EQ(pipeline.monitor().roster().snapshot()[static_cast<DeviceId>(d)], moved[d])
            << "device " << d;
      }
    }
  }
}

TEST(IngestPipeline, SealSampleCountsTheTriggeringIntervalOpen) {
  // The report that triggers a seal stages after it, but the seal's
  // telemetry sample counts its interval among the open ones.
  IngestPipeline::Config config = base_config();
  config.watermark.allowed_lag = 2;
  config.monitor.telemetry = obs::TelemetryConfig{.history = 8, .regions = 2};
  IngestPipeline pipeline(config);
  pipeline.prime(Snapshot(fleet_positions()));
  push_interval(pipeline, 1);
  push_interval(pipeline, 2);
  pipeline.push(make_report(0, 3, fleet_positions()[0]));  // seals 1
  pipeline.finish();                                       // seals 2, 3
  ASSERT_EQ(pipeline.drain_ready().size(), 3u);
  obs::TelemetryStore& store = pipeline.monitor().telemetry()->store();
  const std::uint64_t open_after[] = {2, 1, 0};  // {2, 3}, {3}, {}
  for (std::uint64_t k = 1; k <= 3; ++k) {
    const obs::IntervalTelemetry* record = store.find(k);
    ASSERT_NE(record, nullptr);
    ASSERT_TRUE(record->ingest.has_value());
    EXPECT_EQ(record->ingest->open_intervals, open_after[k - 1]) << "interval " << k;
  }
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

// --- push() and push_all() on the same schedules ---------------------------

/// What a schedule throws at the staging path besides reorder, duplicates,
/// corrections and stale stragglers, which every schedule carries.
struct Hazards {
  bool shedding = false;       ///< claim sampling engaged past 6 per frame
  bool spill_keys = false;     ///< keys past the dense lane, auto-admitted
  bool malformed = false;      ///< claims off [0,1]^2, then corrected
  bool late_and_future = false;
  bool flood = false;          ///< a watermark jump past max_watermark_jump
};

constexpr std::size_t kDevices = 24;
constexpr std::uint64_t kIntervals = 9;

IngestPipeline::Config equivalence_config(const Hazards& hazards) {
  IngestPipeline::Config config = base_config(/*capacity=*/32);
  config.watermark.allowed_lag = 2;
  config.watermark.max_future_skip = 40;
  config.watermark.max_watermark_jump = 3;
  config.monitor.model = Params{.r = 0.05, .tau = 2};
  config.monitor.telemetry = obs::TelemetryConfig{.history = 256, .regions = 2};
  config.liveness = LivenessConfig{
      .silent_intervals = 2, .retry_backoff = 1, .max_retries = 1};
  if (hazards.shedding) {
    config.overload.shed_claim_threshold = 6;
    config.overload.shed_sample_stride = 3;
  }
  return config;
}

std::vector<Point> random_fleet(Rng& rng) {
  std::vector<Point> fleet;
  for (std::size_t d = 0; d < kDevices; ++d) {
    fleet.push_back(Point{rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8)});
  }
  return fleet;
}

/// kIntervals intervals of reports from kDevices keys. Devices drift, a
/// few jump together (so verdicts are not all trivial), and each interval's
/// reports are shuffled within windows of six and interleaved with the next
/// interval's head, so runs of every length occur.
std::vector<QosReport> hazard_schedule(const Hazards& hazards,
                                       const std::vector<Point>& fleet,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> at = fleet;
  std::vector<QosReport> schedule;
  std::vector<QosReport> carry;  // the previous interval's tail
  for (std::uint64_t k = 1; k <= kIntervals; ++k) {
    std::vector<QosReport> interval;
    const double dx = rng.uniform(-0.1, 0.1);
    for (GatewayKey d = 0; d < kDevices; ++d) {
      if (rng.bernoulli(0.1)) continue;  // silent this interval
      const bool jumps = d % 6 == k % 6 || d % 6 == (k + 1) % 6;
      if (jumps) {
        at[d] = Point{std::clamp(at[d][0] + dx, 0.0, 1.0), at[d][1]};
      } else {
        at[d] = Point{std::clamp(at[d][0] + rng.uniform(-0.002, 0.002), 0.0, 1.0),
                      at[d][1]};
      }
      QosReport report = make_report(d, k, at[d], jumps, 10 * k);
      interval.push_back(report);
      if (rng.bernoulli(0.3)) interval.push_back(report);  // retransmission
      if (rng.bernoulli(0.1)) {                            // stale straggler
        QosReport stale = report;
        stale.arrival_seq = 10 * k - 1;
        stale.claim = Point{0.5, 0.5};
        interval.push_back(stale);
      }
      if (rng.bernoulli(0.1)) {  // correction
        QosReport correction = report;
        correction.arrival_seq = 10 * k + 1;
        interval.push_back(correction);
      }
    }
    if (hazards.spill_keys) {
      // Each spill key also gets a retransmission and a stale straggler
      // with another claim, so the spill map's dedup shows in the roster.
      for (const GatewayKey key : {GatewayKey{40}, GatewayKey{41}, GatewayKey{977}}) {
        const QosReport report = make_report(key, k, Point{0.9, 0.1}, false, 10 * k);
        QosReport stale = report;
        stale.arrival_seq = 10 * k - 1;
        stale.claim = Point{0.8, 0.2};
        interval.insert(interval.end(), {report, report, stale});
      }
    }
    if (hazards.malformed) {
      // Keys 5 and 7 get a claim the roster would refuse (3-d, out of the
      // box, NaN) before their well-formed one, key 7 also a stale 3-d
      // claim: every delivery order puts some at the head of a run and
      // some in its middle, and none reaches a seal.
      const Point bad[] = {Point{0.5, 0.5, 0.5}, Point{0.5, 1.5},
                           Point{std::numeric_limits<double>::quiet_NaN(), 0.5}};
      interval.push_back(make_report(5, k, bad[k % 3], false, 10 * k + 2));
      interval.push_back(make_report(5, k, at[5], false, 10 * k + 3));
      interval.push_back(make_report(7, k, bad[(k + 1) % 3], true, 10 * k + 2));
      interval.push_back(make_report(7, k, at[7], false, 10 * k + 3));
      interval.push_back(make_report(7, k, bad[0], false, 1));
    }
    for (std::size_t i = 0; i + 1 < interval.size(); ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng.uniform_int(
                  std::min<std::uint64_t>(6, interval.size() - i)));
      std::swap(interval[i], interval[j]);
    }
    // The first third of this interval goes out ahead of the previous
    // interval's tail: reorder across one boundary, within allowed_lag.
    const std::size_t head = interval.size() / 3;
    schedule.insert(schedule.end(), interval.begin(), interval.begin() + head);
    schedule.insert(schedule.end(), carry.begin(), carry.end());
    carry.assign(interval.begin() + head, interval.end());
    if (hazards.late_and_future && k >= 4) {
      schedule.push_back(make_report(2, k - 3, fleet[2], false, 10 * k));  // late
      schedule.push_back(make_report(3, k + 100, fleet[3]));               // future
    }
  }
  schedule.insert(schedule.end(), carry.begin(), carry.end());
  if (hazards.flood) {
    // Jump the watermark past max_watermark_jump, then trail a few reports.
    schedule.push_back(make_report(4, kIntervals + 9, fleet[4]));
    for (GatewayKey d = 0; d < 6; ++d) {
      schedule.push_back(make_report(d, kIntervals + 9, fleet[d], false, 2));
    }
  }
  return schedule;
}

void expect_same_counters(const IngestCounters& a, const IngestCounters& b) {
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.superseded, b.superseded);
  EXPECT_EQ(a.late_sealed, b.late_sealed);
  EXPECT_EQ(a.future_rejected, b.future_rejected);
  EXPECT_EQ(a.malformed_rejected, b.malformed_rejected);
  EXPECT_EQ(a.shed_claims, b.shed_claims);
  EXPECT_EQ(a.deferred_devices, b.deferred_devices);
  EXPECT_EQ(a.forced_closes, b.forced_closes);
  EXPECT_EQ(a.replayed_claims, b.replayed_claims);
  EXPECT_EQ(a.retired_devices, b.retired_devices);
  EXPECT_EQ(a.revived_devices, b.revived_devices);
  EXPECT_EQ(a.admitted_devices, b.admitted_devices);
  EXPECT_EQ(a.admit_rejected, b.admit_rejected);
}

void expect_same_state(const IngestPipeline& a, const IngestPipeline& b) {
  expect_same_counters(a.counters(), b.counters());
  EXPECT_EQ(a.open_intervals(), b.open_intervals());
  EXPECT_EQ(a.next_to_seal(), b.next_to_seal());
  EXPECT_EQ(a.max_seen_interval(), b.max_seen_interval());
}

void expect_same_closed(const ClosedInterval& a, const ClosedInterval& b) {
  SCOPED_TRACE(testing::Message() << "interval " << a.interval);
  EXPECT_EQ(a.interval, b.interval);
  EXPECT_EQ(a.forced, b.forced);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.reported, b.reported);
  EXPECT_EQ(a.replayed, b.replayed);
  EXPECT_EQ(a.deferred, b.deferred);
  EXPECT_EQ(a.retired, b.retired);
  EXPECT_EQ(a.report.interval, b.report.interval);
  EXPECT_EQ(a.report.degraded, b.report.degraded);
  EXPECT_TRUE(a.report.abnormal == b.report.abnormal);
  EXPECT_TRUE(a.report.isolated == b.report.isolated);
  EXPECT_TRUE(a.report.massive == b.report.massive);
  EXPECT_TRUE(a.report.unresolved == b.report.unresolved);
  ASSERT_EQ(a.report.decisions.size(), b.report.decisions.size());
  for (std::size_t i = 0; i < a.report.decisions.size(); ++i) {
    const Decision& x = a.report.decisions[i];
    const Decision& y = b.report.decisions[i];
    EXPECT_TRUE(x.cls == y.cls && x.rule == y.rule && x.exact == y.exact &&
                x.maximal_motion_count == y.maximal_motion_count &&
                x.dense_motion_count == y.dense_motion_count &&
                x.collections_tested == y.collections_tested)
        << "device " << a.report.abnormal[i];
  }
}

void expect_same_samples(IngestPipeline& a, IngestPipeline& b,
                         std::uint64_t intervals) {
  obs::TelemetryStore& sa = a.monitor().telemetry()->store();
  obs::TelemetryStore& sb = b.monitor().telemetry()->store();
  for (std::uint64_t k = 1; k <= intervals; ++k) {
    SCOPED_TRACE(testing::Message() << "sample of interval " << k);
    const obs::IntervalTelemetry* ra = sa.find(k);
    const obs::IntervalTelemetry* rb = sb.find(k);
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    ASSERT_TRUE(ra->ingest.has_value());
    ASSERT_TRUE(rb->ingest.has_value());
    const obs::IngestSample& x = *ra->ingest;
    const obs::IngestSample& y = *rb->ingest;
    EXPECT_EQ(x.seal_lag, y.seal_lag);
    EXPECT_EQ(x.forced, y.forced);
    EXPECT_EQ(x.reported, y.reported);
    EXPECT_EQ(x.replayed, y.replayed);
    EXPECT_EQ(x.deferred, y.deferred);
    EXPECT_EQ(x.retired, y.retired);
    EXPECT_EQ(x.late_sealed, y.late_sealed);
    EXPECT_EQ(x.duplicates, y.duplicates);
    EXPECT_EQ(x.shed_claims, y.shed_claims);
    EXPECT_EQ(x.open_intervals, y.open_intervals);
  }
}

/// Feeds `schedule` report by report to one pipeline and as push_all()
/// bursts ending at `cuts` to another, comparing them at every cut, every
/// sealed interval and every telemetry sample. push() is push_all() of one
/// report, so this compares one staging loop cut at different points; the
/// reference below pins what that loop computes. Returns the counters.
IngestCounters expect_push_all_matches_push(const Hazards& hazards,
                                            const std::vector<Point>& fleet,
                                            const std::vector<QosReport>& schedule,
                                            const std::vector<std::size_t>& cuts) {
  IngestPipeline by_report(equivalence_config(hazards));
  IngestPipeline by_burst(equivalence_config(hazards));
  by_report.prime(Snapshot(fleet));
  by_burst.prime(Snapshot(fleet));
  std::vector<ClosedInterval> sealed_by_report;
  std::vector<ClosedInterval> sealed_by_burst;
  std::size_t begin = 0;
  for (const std::size_t end : cuts) {
    for (std::size_t i = begin; i < end; ++i) by_report.push(schedule[i]);
    by_burst.push_all(std::span(schedule).subspan(begin, end - begin));
    SCOPED_TRACE(testing::Message() << "after the burst ending at " << end);
    expect_same_state(by_report, by_burst);
    for (ClosedInterval& c : by_report.drain_ready()) sealed_by_report.push_back(std::move(c));
    for (ClosedInterval& c : by_burst.drain_ready()) sealed_by_burst.push_back(std::move(c));
    begin = end;
  }
  by_report.finish();
  by_burst.finish();
  for (ClosedInterval& c : by_report.drain_ready()) sealed_by_report.push_back(std::move(c));
  for (ClosedInterval& c : by_burst.drain_ready()) sealed_by_burst.push_back(std::move(c));
  expect_same_state(by_report, by_burst);
  EXPECT_EQ(sealed_by_report.size(), by_report.next_to_seal() - 1);
  EXPECT_EQ(sealed_by_report.size(), sealed_by_burst.size());
  for (std::size_t i = 0; i < sealed_by_report.size() && i < sealed_by_burst.size(); ++i) {
    expect_same_closed(sealed_by_report[i], sealed_by_burst[i]);
  }
  expect_same_samples(by_report, by_burst, by_report.next_to_seal() - 1);
  return by_report.counters();
}

TEST(IngestPipeline, PushAllMatchesPushOnEverySchedule) {
  const struct {
    const char* name;
    Hazards hazards;
  } cases[] = {
      {"dedup-reorder", {}},
      {"shedding", {.shedding = true}},
      {"spill-keys", {.spill_keys = true}},
      {"malformed", {.malformed = true}},
      {"late-and-future", {.late_and_future = true}},
      {"flood", {.flood = true}},
      {"all", {true, true, true, true, true}},
  };
  for (const auto& c : cases) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(testing::Message() << c.name << " seed " << seed);
      Rng rng(seed);
      const std::vector<Point> fleet = random_fleet(rng);
      const std::vector<QosReport> schedule = hazard_schedule(c.hazards, fleet, seed);
      // The whole schedule as one burst, then random cuts of 1 to 40.
      const IngestCounters counters =
          expect_push_all_matches_push(c.hazards, fleet, schedule, {schedule.size()});
      if (HasFatalFailure()) return;
      std::vector<std::size_t> cuts;
      for (std::size_t at = 0; at < schedule.size();) {
        at = std::min(schedule.size(), at + 1 + rng.uniform_int(std::uint64_t{40}));
        cuts.push_back(at);
      }
      (void)expect_push_all_matches_push(c.hazards, fleet, schedule, cuts);
      if (HasFatalFailure()) return;

      // Each hazard fired.
      EXPECT_GT(counters.duplicates, 0u);
      EXPECT_GT(counters.superseded, 0u);
      EXPECT_EQ(counters.shed_claims > 0, c.hazards.shedding);
      if (c.hazards.spill_keys) {
        EXPECT_GE(counters.admitted_devices, 3u);
      }
      EXPECT_EQ(counters.late_sealed > 0, c.hazards.late_and_future);
      EXPECT_EQ(counters.future_rejected > 0, c.hazards.late_and_future);
      EXPECT_EQ(counters.forced_closes > 0, c.hazards.flood);
      EXPECT_EQ(counters.malformed_rejected > 0, c.hazards.malformed);
    }
  }
}

// --- push_all() against a reference written here --------------------------

/// What the pipeline must make of a schedule with no late, future or flood
/// report, computed from the schedule alone: each (interval, key) cell
/// resolves to its highest-seq claim, and every report is counted once.
struct Reference {
  struct Cell {
    std::uint64_t seq = 0;
    Point claim;
  };
  std::map<std::pair<std::uint64_t, GatewayKey>, Cell> cells;
  std::uint64_t accepted = 0;
  std::uint64_t superseded = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t malformed = 0;
};

Reference reference_of(const std::vector<QosReport>& schedule) {
  Reference want;
  for (const QosReport& report : schedule) {
    const std::span<const double> claim = report.claim.coords();
    if (claim.size() != 2 ||
        !std::ranges::all_of(claim, [](double x) { return x >= 0.0 && x <= 1.0; })) {
      ++want.malformed;
      continue;
    }
    const auto [it, fresh] = want.cells.try_emplace({report.interval, report.device});
    Reference::Cell& cell = it->second;
    if (!fresh) {
      if (report.arrival_seq == cell.seq) {
        ++want.duplicates;
        continue;
      }
      ++want.superseded;
      if (report.arrival_seq < cell.seq) continue;
    } else {
      ++want.accepted;
    }
    cell = {report.arrival_seq, Point(claim)};
  }
  return want;
}

/// The roster once intervals up to next_to_seal() - 1 have sealed: every
/// active key sits at its latest winning claim (its primed position if it
/// never reported), and every key that reported in the last sealed
/// interval is active.
void expect_roster_matches(const IngestPipeline& pipeline, const Reference& want,
                           const std::vector<Point>& fleet) {
  const std::uint64_t sealed = pipeline.next_to_seal() - 1;
  SCOPED_TRACE(testing::Message() << "after sealing interval " << sealed);
  std::map<GatewayKey, Point> latest;
  for (GatewayKey d = 0; d < fleet.size(); ++d) latest[d] = fleet[d];
  for (const auto& [cell, staged] : want.cells) {
    if (cell.first > sealed) break;  // cells are ordered by interval first
    latest[cell.second] = staged.claim;
  }
  const FleetRoster& roster = pipeline.monitor().roster();
  for (const auto& [key, position] : latest) {
    const std::optional<DeviceId> slot = roster.slot_of(key);
    if (!slot.has_value()) continue;  // retired by the liveness ladder
    EXPECT_EQ(roster.snapshot()[*slot], position) << "key " << key;
  }
  for (auto it = want.cells.lower_bound({sealed, 0});
       it != want.cells.end() && it->first.first == sealed; ++it) {
    EXPECT_TRUE(roster.active(it->first.second)) << "key " << it->first.second;
  }
}

TEST(IngestPipeline, PushAllMatchesAReferenceOnEveryCut) {
  const struct {
    const char* name;
    Hazards hazards;
  } cases[] = {
      {"dedup-reorder", {}},
      {"spill-keys", {.spill_keys = true}},
      {"malformed", {.malformed = true}},
      {"spill-keys-and-malformed", {.spill_keys = true, .malformed = true}},
  };
  for (const auto& c : cases) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed);
      const std::vector<Point> fleet = random_fleet(rng);
      const std::vector<QosReport> schedule = hazard_schedule(c.hazards, fleet, seed);
      const Reference want = reference_of(schedule);
      ASSERT_GT(want.duplicates, 0u);
      ASSERT_GT(want.superseded, 0u);
      ASSERT_EQ(want.malformed > 0, c.hazards.malformed);

      // One burst, random cuts of 1 to 40, and one report at a time.
      std::vector<std::size_t> random_cuts;
      for (std::size_t at = 0; at < schedule.size();) {
        at = std::min(schedule.size(), at + 1 + rng.uniform_int(std::uint64_t{40}));
        random_cuts.push_back(at);
      }
      std::vector<std::size_t> every_report(schedule.size());
      for (std::size_t i = 0; i < schedule.size(); ++i) every_report[i] = i + 1;
      const struct {
        const char* name;
        std::vector<std::size_t> cuts;
      } feeds[] = {{"one burst", {schedule.size()}},
                   {"random cuts", random_cuts},
                   {"report by report", every_report}};
      for (const auto& feed : feeds) {
        SCOPED_TRACE(testing::Message() << c.name << " seed " << seed << ", " << feed.name);
        IngestPipeline pipeline(equivalence_config(c.hazards));
        pipeline.prime(Snapshot(fleet));
        std::vector<ClosedInterval> sealed;
        std::size_t begin = 0;
        for (const std::size_t end : feed.cuts) {
          pipeline.push_all(std::span(schedule).subspan(begin, end - begin));
          begin = end;
          expect_roster_matches(pipeline, want, fleet);
          for (ClosedInterval& closed : pipeline.drain_ready()) sealed.push_back(std::move(closed));
        }
        pipeline.finish();
        expect_roster_matches(pipeline, want, fleet);
        for (ClosedInterval& closed : pipeline.drain_ready()) sealed.push_back(std::move(closed));

        const IngestCounters& got = pipeline.counters();
        EXPECT_EQ(got.accepted, want.accepted);
        EXPECT_EQ(got.superseded, want.superseded);
        EXPECT_EQ(got.duplicates, want.duplicates);
        EXPECT_EQ(got.malformed_rejected, want.malformed);
        EXPECT_EQ(got.late_sealed, 0u);
        EXPECT_EQ(got.future_rejected, 0u);
        ASSERT_EQ(sealed.size(), kIntervals);
        for (std::uint64_t k = 1; k <= kIntervals; ++k) {
          const ClosedInterval& closed = sealed[k - 1];
          EXPECT_EQ(closed.interval, k);
          const auto first = want.cells.lower_bound({k, 0});
          const auto last = want.cells.lower_bound({k + 1, 0});
          EXPECT_EQ(closed.reported, static_cast<std::size_t>(std::distance(first, last)))
              << "interval " << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace acn
