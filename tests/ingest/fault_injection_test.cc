// Fault injection: hostile delivery schedules (stall, kill, duplicate
// flood, interval flood, overload) driven through the pipeline — including
// through the bounded queue from real producer threads. The suite asserts
// the robustness contract: the pipeline always completes (no deadlock, no
// crash), every pushed report lands in exactly one counter, degradation is
// explicitly marked, and silent sources retire through the roster path.
#include <cstdint>
#include <limits>
#include <thread>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/pipeline.hpp"
#include "ingest/queue.hpp"
#include "sim/hostile.hpp"
#include "sim/report_source.hpp"

namespace acn {
namespace {

struct Materialized {
  Snapshot initial;
  std::vector<ObservedInterval> intervals;
};

Materialized materialize(std::size_t n, std::uint64_t seed, int intervals) {
  // The combined-stress family exercises every hostile layer at once.
  const std::vector<HostileSpec> suite = standard_hostile_suite(n, seed);
  HostileScenario scenario(suite.back().params);
  Materialized m{scenario.initial(), {}};
  for (int k = 0; k < intervals; ++k) {
    HostileStep step = scenario.advance();
    m.intervals.push_back(
        ObservedInterval{std::move(step.observed), std::move(step.abnormal)});
  }
  return m;
}

IngestPipeline::Config pipeline_config(const Materialized& m) {
  IngestPipeline::Config config;
  config.monitor.characterize = CharacterizeOptions{.parallel_grain = 1};
  config.capacity = m.initial.size();
  config.dim = m.initial[0].dim();
  config.watermark.allowed_lag = 2;
  return config;
}

std::uint64_t counted_total(const IngestCounters& c) {
  return c.accepted + c.duplicates + c.superseded + c.late_sealed +
         c.future_rejected + c.malformed_rejected + c.shed_claims;
}

/// Copies of every `stride`-th report with a claim no roster accepts
/// (another dimension, out of the box, NaN), spliced in after the
/// original; returns how many.
std::size_t splice_malformed(std::vector<QosReport>& schedule, std::size_t stride) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<QosReport> out;
  std::size_t spliced = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    out.push_back(schedule[i]);
    if (i % stride != 0) continue;
    QosReport bad = schedule[i];
    bad.claim = spliced % 3 == 0   ? Claim(Point{0.5, 0.5, 0.5})
                : spliced % 3 == 1 ? Claim(Point{1.5, 0.5})
                                   : Claim(Point{nan, 0.5});
    ++bad.arrival_seq;  // would supersede the original if it were staged
    out.push_back(bad);
    ++spliced;
  }
  schedule = std::move(out);
  return spliced;
}

TEST(FaultInjection, SourceStallsAreAbsorbedWithoutDeadlock) {
  const Materialized m = materialize(60, 77, 20);
  DeliveryFaults faults;
  faults.stall_rate = 0.15;
  faults.stall_intervals = 4;  // stalls outlast the lateness budget
  faults.seed = 5;
  std::vector<QosReport> schedule = delivery_schedule(m.intervals, faults);
  const std::size_t malformed = splice_malformed(schedule, 37);

  IngestPipeline::Config config = pipeline_config(m);
  config.watermark.timeout_ticks = 5;
  IngestPipeline pipeline(config);
  pipeline.prime(m.initial);
  std::size_t pushed = 0;
  for (const QosReport& report : schedule) {
    pipeline.push(report);
    if (++pushed % m.initial.size() == 0) pipeline.tick();
  }
  pipeline.finish();

  const std::vector<ClosedInterval> closed = pipeline.drain_ready();
  EXPECT_EQ(closed.size(), m.intervals.size());
  const IngestCounters& counters = pipeline.counters();
  // Every push landed in exactly one bucket.
  EXPECT_EQ(counted_total(counters), schedule.size());
  EXPECT_EQ(counters.malformed_rejected, malformed);
  // A 4-interval stall against a 2-interval budget: some reports burst out
  // after their interval sealed, and those seals replayed the last claim.
  EXPECT_GT(counters.late_sealed, 0u);
  EXPECT_GT(counters.replayed_claims, 0u);
}

TEST(FaultInjection, KilledSourcesRetireThroughLiveness) {
  const int kIntervals = 24;
  const Materialized m = materialize(40, 99, kIntervals);
  DeliveryFaults faults;
  faults.kill_rate = 0.05;
  faults.seed = 11;
  std::vector<std::uint64_t> killed_from;
  const std::vector<QosReport> schedule =
      delivery_schedule(m.intervals, faults, &killed_from);

  IngestPipeline::Config config = pipeline_config(m);
  config.watermark.allowed_lag = 1;
  config.liveness = LivenessConfig{
      .silent_intervals = 2, .retry_backoff = 1, .max_retries = 1};
  IngestPipeline pipeline(config);
  pipeline.prime(m.initial);
  for (const QosReport& report : schedule) pipeline.push(report);
  pipeline.finish();

  const std::vector<ClosedInterval> closed = pipeline.drain_ready();
  ASSERT_EQ(closed.size(), m.intervals.size());
  constexpr std::uint64_t kAlive = static_cast<std::uint64_t>(-1);
  std::unordered_set<GatewayKey> retired;
  for (const ClosedInterval& c : closed) {
    for (const GatewayKey key : c.retired) {
      // Only genuinely dead sources walk the retire path.
      EXPECT_TRUE(retired.insert(key).second) << "double retire of " << key;
      ASSERT_LT(key, killed_from.size());
      EXPECT_NE(killed_from[key], kAlive) << "retired a live device " << key;
    }
  }
  EXPECT_GT(pipeline.counters().retired_devices, 0u);
  EXPECT_EQ(pipeline.counters().retired_devices, retired.size());
  // Every device killed early enough to exhaust the ladder is retired and
  // its slot parked (suspect at kill+2, probe exhausted at kill+3).
  for (GatewayKey key = 0; key < killed_from.size(); ++key) {
    if (killed_from[key] != kAlive &&
        killed_from[key] + 4 <= static_cast<std::uint64_t>(kIntervals)) {
      EXPECT_TRUE(retired.contains(key)) << "device " << key;
      EXPECT_FALSE(pipeline.monitor().roster().active(key));
    }
  }
}

TEST(FaultInjection, DuplicateFloodIsAbsorbedByteIdentically) {
  const Materialized m = materialize(40, 123, 8);

  auto run = [&](const DeliveryFaults& faults,
                 std::vector<ClosedInterval>& out) {
    IngestPipeline pipeline(pipeline_config(m));
    pipeline.prime(m.initial);
    for (const QosReport& report : delivery_schedule(m.intervals, faults)) {
      pipeline.push(report);
    }
    pipeline.finish();
    out = pipeline.drain_ready();
    ASSERT_EQ(out.size(), m.intervals.size());
    EXPECT_EQ(pipeline.counters().duplicates,
              3u * pipeline.counters().accepted);
  };

  std::vector<ClosedInterval> clean;
  {
    IngestPipeline pipeline(pipeline_config(m));
    pipeline.prime(m.initial);
    for (const QosReport& r : delivery_schedule(m.intervals, {})) {
      pipeline.push(r);
    }
    pipeline.finish();
    clean = pipeline.drain_ready();
  }

  DeliveryFaults flood;
  flood.duplicate_rate = 1.0;  // every report retransmitted...
  flood.duplicate_copies = 3;  // ...three more times
  flood.seed = 17;
  std::vector<ClosedInterval> flooded;
  run(flood, flooded);
  if (HasFatalFailure()) return;

  for (std::size_t k = 0; k < clean.size(); ++k) {
    EXPECT_FALSE(flooded[k].degraded);
    ASSERT_EQ(flooded[k].report.abnormal, clean[k].report.abnormal)
        << "interval " << k + 1;
    ASSERT_EQ(flooded[k].report.decisions.size(),
              clean[k].report.decisions.size())
        << "interval " << k + 1;
    for (std::size_t i = 0; i < clean[k].report.decisions.size(); ++i) {
      const Decision& a = flooded[k].report.decisions[i];
      const Decision& b = clean[k].report.decisions[i];
      EXPECT_TRUE(a.cls == b.cls && a.rule == b.rule && a.exact == b.exact &&
                  a.maximal_motion_count == b.maximal_motion_count &&
                  a.dense_motion_count == b.dense_motion_count &&
                  a.collections_tested == b.collections_tested)
          << "interval " << k + 1 << " device " << clean[k].report.abnormal[i];
    }
  }
}

TEST(FaultInjection, IntervalFloodIsBoundedRejectedAndMarked) {
  const std::vector<Point> fleet = {
      Point{0.10, 0.10}, Point{0.30, 0.10}, Point{0.50, 0.10},
      Point{0.70, 0.10}, Point{0.10, 0.50}, Point{0.30, 0.50},
      Point{0.50, 0.50}, Point{0.70, 0.50}};
  IngestPipeline::Config config;
  config.capacity = fleet.size();
  config.dim = 2;
  config.watermark.allowed_lag = 2;
  config.watermark.max_watermark_jump = 4;
  config.watermark.max_future_skip = 100;
  IngestPipeline pipeline(config);
  pipeline.prime(Snapshot(fleet));

  QosReport report;
  report.claim = fleet[0];
  for (GatewayKey d = 0; d < fleet.size(); ++d) {
    report.device = d;
    report.interval = 1;
    report.arrival_seq = 1;
    pipeline.push(report);
  }
  // An absurd event time must not move the watermark at all.
  report.device = 0;
  report.interval = 5000;
  pipeline.push(report);
  EXPECT_EQ(pipeline.counters().future_rejected, 1u);
  EXPECT_EQ(pipeline.max_seen_interval(), 1u);

  // A plausible-but-violent jump seals everything it flushes, marking the
  // seals that never had their lateness window as forced/degraded.
  report.interval = 90;
  pipeline.push(report);
  const std::vector<ClosedInterval> closed = pipeline.drain_ready();
  ASSERT_EQ(closed.size(), 88u);
  for (const ClosedInterval& c : closed) {
    const bool expect_forced = (89 - c.interval) > 4;
    EXPECT_EQ(c.forced, expect_forced) << "interval " << c.interval;
    EXPECT_EQ(c.degraded, expect_forced) << "interval " << c.interval;
    EXPECT_EQ(c.report.degraded, expect_forced) << "interval " << c.interval;
  }
  EXPECT_EQ(pipeline.counters().forced_closes, 84u);
  // Staging stays bounded by construction: the open span never exceeds the
  // lateness budget.
  EXPECT_LE(pipeline.open_intervals(),
            static_cast<std::size_t>(config.watermark.allowed_lag));
}

TEST(FaultInjection, OverloadRunEmitsMarkedDegradedIntervals) {
  const Materialized m = materialize(60, 31, 10);
  DeliveryFaults flood;
  flood.duplicate_rate = 1.0;
  flood.duplicate_copies = 2;
  flood.seed = 23;

  IngestPipeline::Config config = pipeline_config(m);
  config.overload.shed_claim_threshold = m.initial.size() / 2;
  config.overload.shed_sample_stride = 4;
  IngestPipeline pipeline(config);
  pipeline.prime(m.initial);
  for (const QosReport& report : delivery_schedule(m.intervals, flood)) {
    pipeline.push(report);
  }
  pipeline.finish();

  const std::vector<ClosedInterval> closed = pipeline.drain_ready();
  ASSERT_EQ(closed.size(), m.intervals.size());
  EXPECT_GT(pipeline.counters().shed_claims, 0u);
  std::size_t degraded = 0;
  for (const ClosedInterval& c : closed) {
    if (c.degraded) {
      ++degraded;
      EXPECT_TRUE(c.report.degraded) << "interval " << c.interval;
    }
  }
  // Degradation is explicit, never silent: the overloaded intervals say so.
  EXPECT_GT(degraded, 0u);
}

TEST(FaultInjection, ThreadedSourcesThroughBoundedQueue) {
  const Materialized m = materialize(60, 55, 12);
  DeliveryFaults faults;
  faults.reorder_window = m.initial.size() / 3;
  faults.duplicate_rate = 0.5;
  faults.duplicate_copies = 2;
  faults.stall_rate = 0.1;
  faults.stall_intervals = 3;
  faults.seed = 41;
  std::vector<QosReport> schedule = delivery_schedule(m.intervals, faults);
  const std::size_t malformed = splice_malformed(schedule, 29);

  BoundedReportQueue queue(32, BoundedReportQueue::Policy::kBlock);
  constexpr std::size_t kProducers = 3;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Contiguous slices: within a slice order is preserved; across
      // slices delivery interleaves arbitrarily — more hostility, not less.
      const std::size_t begin = schedule.size() * p / kProducers;
      const std::size_t end = schedule.size() * (p + 1) / kProducers;
      for (std::size_t i = begin; i < end; ++i) {
        ASSERT_TRUE(queue.push(schedule[i]));
      }
    });
  }

  IngestPipeline::Config config = pipeline_config(m);
  config.watermark.timeout_ticks = 50;
  IngestPipeline pipeline(config);
  pipeline.prime(m.initial);
  std::uint64_t pumped = 0;
  std::thread pump([&] {
    while (const std::optional<QosReport> report = queue.pop()) {
      pipeline.push(*report);
      if (++pumped % 64 == 0) pipeline.tick();
    }
  });
  for (std::thread& t : producers) t.join();
  queue.close();
  pump.join();
  pipeline.finish();

  const std::vector<ClosedInterval> closed = pipeline.drain_ready();
  EXPECT_EQ(closed.size(), m.intervals.size());
  EXPECT_EQ(pumped, schedule.size());
  EXPECT_EQ(counted_total(pipeline.counters()), schedule.size());
  EXPECT_EQ(pipeline.counters().malformed_rejected, malformed);
  EXPECT_EQ(queue.rejected(), 0u);
  EXPECT_LE(queue.peak_depth(), 32u);
}

}  // namespace
}  // namespace acn
