// Telemetry is observation-only: with the hub on or off, every verdict of
// every interval must be byte-identical (all six Decision fields, all four
// verdict sets, the degraded flag) across the whole hostile suite — both
// through the fixed-fleet OnlineMonitor front door and through the full
// IngestPipeline (watermark seals, roster churn, ingest annotation). The
// hub reads only interval OUTPUTS, so this holds by construction; the test
// pins it so a future telemetry hook cannot silently reach into the
// decision path.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/pipeline.hpp"
#include "obs/telemetry.hpp"
#include "online/monitor.hpp"
#include "sim/hostile.hpp"
#include "sim/report_source.hpp"

namespace acn {
namespace {

constexpr std::size_t kFleet = 160;
constexpr std::uint64_t kSuiteSeed = 2014;
constexpr int kIntervals = 6;

struct Stream {
  Snapshot initial;
  std::vector<ObservedInterval> intervals;
};

Stream materialize(const HostileSpec& spec, int intervals) {
  HostileScenario scenario(spec.params);
  Stream stream{scenario.initial(), {}};
  for (int k = 0; k < intervals; ++k) {
    HostileStep step = scenario.advance();
    stream.intervals.push_back(
        ObservedInterval{std::move(step.observed), std::move(step.abnormal)});
  }
  return stream;
}

void expect_same_report(const IntervalReport& got, const IntervalReport& want,
                        const HostileSpec& spec, std::size_t interval,
                        const char* path) {
  EXPECT_EQ(got.interval, want.interval);
  EXPECT_EQ(got.degraded, want.degraded);
  EXPECT_TRUE(got.abnormal == want.abnormal && got.isolated == want.isolated &&
              got.massive == want.massive && got.unresolved == want.unresolved)
      << "REPRO: family=" << spec.name << " suite-seed=" << kSuiteSeed
      << " interval=" << interval << " path=" << path;
  ASSERT_EQ(got.decisions.size(), want.decisions.size())
      << "REPRO: family=" << spec.name << " interval=" << interval;
  ASSERT_EQ(got.abnormal, want.abnormal);
  for (std::size_t i = 0; i < got.decisions.size(); ++i) {
    const Decision& a = got.decisions[i];
    const Decision& b = want.decisions[i];
    EXPECT_TRUE(a.cls == b.cls && a.rule == b.rule && a.exact == b.exact &&
                a.maximal_motion_count == b.maximal_motion_count &&
                a.dense_motion_count == b.dense_motion_count &&
                a.collections_tested == b.collections_tested)
        << "REPRO: family=" << spec.name << " suite-seed=" << kSuiteSeed
        << " interval=" << interval << " path=" << path
        << " device=" << got.abnormal[i];
  }
}

std::vector<IntervalReport> run_monitor(const HostileSpec& spec,
                                        const Stream& stream, bool telemetry) {
  OnlineMonitor::Config config;
  config.model = spec.params.base.model;
  config.characterize = CharacterizeOptions{.parallel_grain = 1};
  if (telemetry) {
    config.telemetry = obs::TelemetryConfig{.history = 16, .regions = 4};
  }
  OnlineMonitor monitor(config);
  (void)monitor.observe(stream.initial, DeviceSet{});
  std::vector<IntervalReport> reports;
  for (const ObservedInterval& interval : stream.intervals) {
    reports.push_back(monitor.observe(interval.positions, interval.abnormal));
  }
  // Query sanity on the live hub before the monitor dies.
  if (telemetry) {
    const obs::TelemetryHub* hub = monitor.telemetry();
    EXPECT_NE(hub, nullptr);
    // Priming interval + every observed interval, clamped by history.
    EXPECT_EQ(hub->store().size(),
              std::min<std::size_t>(stream.intervals.size() + 1, 16));
    const double rate = hub->store().anomaly_rate(0);
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
    EXPECT_EQ(hub->store().region_totals(0).size(), 4u);
    for (std::uint32_t r = 0; r < hub->regions(); ++r) {
      const double region_rate = hub->store().region_anomaly_rate(r, 0);
      EXPECT_GE(region_rate, 0.0);
      EXPECT_LE(region_rate, 1.0);
    }
  } else {
    EXPECT_EQ(monitor.telemetry(), nullptr);
  }
  return reports;
}

TEST(TelemetryConformance, MonitorVerdictsIdenticalOnOrOff) {
  for (const HostileSpec& spec : standard_hostile_suite(kFleet, kSuiteSeed)) {
    const Stream stream = materialize(spec, kIntervals);
    const std::vector<IntervalReport> off = run_monitor(spec, stream, false);
    const std::vector<IntervalReport> on = run_monitor(spec, stream, true);
    ASSERT_EQ(off.size(), on.size());
    for (std::size_t k = 0; k < off.size(); ++k) {
      expect_same_report(on[k], off[k], spec, k, "monitor");
    }
  }
}

std::vector<ClosedInterval> run_pipeline(const HostileSpec& spec,
                                         const Stream& stream,
                                         bool telemetry) {
  IngestPipeline::Config config;
  config.monitor.model = spec.params.base.model;
  config.monitor.characterize = CharacterizeOptions{.parallel_grain = 1};
  if (telemetry) {
    config.monitor.telemetry = obs::TelemetryConfig{.history = 16, .regions = 4};
  }
  config.capacity = stream.initial.size();
  config.dim = stream.initial[0].dim();
  config.watermark.allowed_lag = 2;
  IngestPipeline pipeline(config);
  pipeline.prime(stream.initial);
  // Mild reorder within the lateness budget: telemetry must be inert even
  // on the degraded-tolerant path, not just in-order exactly-once.
  DeliveryFaults faults;
  faults.reorder_window = 3;
  faults.duplicate_rate = 0.05;
  for (const QosReport& report : delivery_schedule(stream.intervals, faults)) {
    pipeline.push(report);
  }
  pipeline.finish();
  std::vector<ClosedInterval> closed = pipeline.drain_ready();
  if (telemetry) {
    const obs::TelemetryHub* hub = pipeline.monitor().telemetry();
    EXPECT_NE(hub, nullptr);
    // Every sealed interval got its ingest annotation (the latest is the
    // cheapest to reach; eviction would only drop older ones).
    EXPECT_FALSE(hub->store().empty());
    if (!hub->store().empty()) {
      EXPECT_TRUE(hub->store().latest().ingest.has_value());
    }
  }
  return closed;
}

TEST(TelemetryConformance, PipelineVerdictsIdenticalOnOrOff) {
  for (const HostileSpec& spec : standard_hostile_suite(kFleet, kSuiteSeed)) {
    const Stream stream = materialize(spec, kIntervals);
    const std::vector<ClosedInterval> off = run_pipeline(spec, stream, false);
    const std::vector<ClosedInterval> on = run_pipeline(spec, stream, true);
    ASSERT_EQ(off.size(), on.size());
    for (std::size_t k = 0; k < off.size(); ++k) {
      EXPECT_EQ(on[k].interval, off[k].interval);
      EXPECT_EQ(on[k].forced, off[k].forced);
      EXPECT_EQ(on[k].degraded, off[k].degraded);
      expect_same_report(on[k].report, off[k].report, spec, k, "pipeline");
    }
  }
}

}  // namespace
}  // namespace acn
