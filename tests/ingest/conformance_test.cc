// Differential ingest conformance: for every hostile family, a delivery
// schedule with reorder and duplication WITHIN the lateness budget must
// leave every interval's verdicts byte-identical (all six Decision fields)
// to in-order exactly-once delivery — serial and pooled characterization
// alike — and no interval may be marked degraded. The in-order pipeline is
// itself pinned against the fixed-fleet monitor fed the observed snapshots
// directly, so the roster path cannot silently diverge from the engine.
// The schedules go in report by report through push(), and as push_all()
// bursts: the whole schedule at once, and cut at random points.
//
// Failures print a REPRO line naming the family, suite seed, interval, and
// path. ACN_CONFORMANCE_SEED_BUDGET / ACN_CONFORMANCE_BASE_SEED work as in
// tests/conformance.
#include <algorithm>
#include <cstdlib>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ingest/pipeline.hpp"
#include "sim/hostile.hpp"
#include "sim/report_source.hpp"

namespace acn {
namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* value = std::getenv(name)) {
    const long parsed = std::atol(value);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

struct Materialized {
  Snapshot initial;
  std::vector<ObservedInterval> intervals;
};

Materialized materialize(const HostileSpec& spec, int intervals) {
  HostileScenario scenario(spec.params);
  Materialized m{scenario.initial(), {}};
  for (int k = 0; k < intervals; ++k) {
    HostileStep step = scenario.advance();
    m.intervals.push_back(
        ObservedInterval{std::move(step.observed), std::move(step.abnormal)});
  }
  return m;
}

/// How a schedule enters the pipeline.
enum class Feed {
  kPerReport,  ///< push(), one report at a time
  kWhole,      ///< one push_all() of the whole schedule
  kBursts,     ///< push_all() of bursts cut at random, 1 to 2n reports
};

void run_pipeline(const Params& model, const Materialized& m,
                  const DeliveryFaults& faults, unsigned threads, Feed feed,
                  std::uint64_t seed, std::vector<IntervalReport>& out) {
  IngestPipeline::Config config;
  config.monitor.model = model;
  config.monitor.characterize = CharacterizeOptions{.parallel_grain = 1};
  config.monitor.characterize_threads = threads;
  config.capacity = m.initial.size();
  config.dim = m.initial[0].dim();
  config.watermark.allowed_lag = 2;
  IngestPipeline pipeline(config);
  pipeline.prime(m.initial);
  const std::vector<QosReport> schedule = delivery_schedule(m.intervals, faults);
  switch (feed) {
    case Feed::kPerReport:
      for (const QosReport& report : schedule) pipeline.push(report);
      break;
    case Feed::kWhole:
      pipeline.push_all(schedule);
      break;
    case Feed::kBursts: {
      Rng rng(seed);
      for (std::size_t begin = 0; begin < schedule.size();) {
        const std::size_t size = std::min<std::size_t>(
            schedule.size() - begin, 1 + rng.uniform_int(2 * m.initial.size()));
        pipeline.push_all(std::span(schedule).subspan(begin, size));
        begin += size;
      }
      break;
    }
  }
  pipeline.finish();
  const std::vector<ClosedInterval> closed = pipeline.drain_ready();
  ASSERT_EQ(closed.size(), m.intervals.size());
  out.clear();
  for (const ClosedInterval& c : closed) {
    // Within the budget nothing is forced, shed, deferred, or refused.
    EXPECT_FALSE(c.degraded) << "interval " << c.interval;
    EXPECT_FALSE(c.forced) << "interval " << c.interval;
    out.push_back(c.report);
  }
}

void expect_identical(const IntervalReport& got, const IntervalReport& want,
                      const char* path, const HostileSpec& spec,
                      std::uint64_t seed, std::size_t interval) {
  ASSERT_EQ(got.decisions.size(), want.decisions.size())
      << "REPRO: family=" << spec.name << " suite-seed=" << seed
      << " interval=" << interval << " path=" << path;
  ASSERT_EQ(got.abnormal, want.abnormal)
      << "REPRO: family=" << spec.name << " suite-seed=" << seed
      << " interval=" << interval << " path=" << path;
  for (std::size_t i = 0; i < got.decisions.size(); ++i) {
    const DeviceId device = got.abnormal[i];
    const Decision& a = got.decisions[i];
    const Decision& b = want.decisions[i];
    EXPECT_TRUE(a.cls == b.cls && a.rule == b.rule && a.exact == b.exact &&
                a.maximal_motion_count == b.maximal_motion_count &&
                a.dense_motion_count == b.dense_motion_count &&
                a.collections_tested == b.collections_tested)
        << "REPRO: family=" << spec.name << " suite-seed=" << seed
        << " interval=" << interval << " path=" << path << " device=" << device
        << " (got cls=" << static_cast<int>(a.cls) << " rule="
        << to_string(a.rule) << " exact=" << a.exact
        << ", want cls=" << static_cast<int>(b.cls)
        << " rule=" << to_string(b.rule) << " exact=" << b.exact << ")";
  }
}

void run_family(const HostileSpec& spec, std::uint64_t seed, int intervals,
                std::size_t& decisions_seen) {
  const Materialized m = materialize(spec, intervals);
  const Params model = spec.params.base.model;
  const std::size_t n = m.initial.size();

  // In-order exactly-once through the pipeline, serial: the reference.
  std::vector<IntervalReport> reference;
  run_pipeline(model, m, DeliveryFaults{}, /*threads=*/1, Feed::kPerReport,
               seed, reference);
  if (testing::Test::HasFatalFailure()) return;
  for (const IntervalReport& report : reference) {
    decisions_seen += report.decisions.size();
  }

  // Pin the reference against the fixed-fleet monitor fed directly.
  {
    OnlineMonitor::Config config;
    config.model = model;
    config.characterize = CharacterizeOptions{.parallel_grain = 1};
    OnlineMonitor direct(config);
    (void)direct.observe(m.initial, DeviceSet{});
    for (std::size_t k = 0; k < m.intervals.size(); ++k) {
      const IntervalReport want =
          direct.observe(m.intervals[k].positions, m.intervals[k].abnormal);
      expect_identical(reference[k], want, "direct-feed",
                       spec, seed, k + 1);
      if (testing::Test::HasFatalFailure()) return;
    }
  }

  // Faulted deliveries within the lateness budget: displacement under a
  // stable sort is at most reorder_window slots, and with allowed_lag = 2
  // anything under (lag - 1) * n + 1 slots cannot cross a sealing boundary.
  DeliveryFaults reorder;
  reorder.reorder_window = n / 2;
  reorder.seed = seed + 1;
  DeliveryFaults reorder_dup = reorder;
  reorder_dup.duplicate_rate = 0.3;
  reorder_dup.duplicate_copies = 2;
  reorder_dup.seed = seed + 2;

  const struct {
    const char* name;
    const DeliveryFaults* faults;
    unsigned threads;
    Feed feed;
  } paths[] = {
      {"reorder-serial", &reorder, 1, Feed::kPerReport},
      {"reorder-dup-serial", &reorder_dup, 1, Feed::kPerReport},
      {"in-order-pooled", nullptr, 4, Feed::kPerReport},
      {"reorder-dup-pooled", &reorder_dup, 4, Feed::kPerReport},
      {"in-order-push-all", nullptr, 1, Feed::kWhole},
      {"reorder-dup-push-all", &reorder_dup, 1, Feed::kWhole},
      {"reorder-dup-bursts", &reorder_dup, 1, Feed::kBursts},
  };
  for (const auto& path : paths) {
    std::vector<IntervalReport> got;
    run_pipeline(model, m, path.faults ? *path.faults : DeliveryFaults{},
                 path.threads, path.feed, seed + 3, got);
    if (testing::Test::HasFatalFailure()) return;
    for (std::size_t k = 0; k < reference.size(); ++k) {
      expect_identical(got[k], reference[k], path.name,
                       spec, seed, k + 1);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(IngestConformance, FaultedDeliveryWithinBudgetIsByteIdentical) {
  const std::size_t budget = env_size("ACN_CONFORMANCE_SEED_BUDGET", 1);
  const std::uint64_t base_seed = env_size("ACN_CONFORMANCE_BASE_SEED", 2000);
  std::size_t decisions_seen = 0;
  for (std::size_t s = 0; s < budget; ++s) {
    const std::uint64_t seed = base_seed + 7919 * s;
    for (const HostileSpec& spec : standard_hostile_suite(200, seed)) {
      run_family(spec, seed, 6, decisions_seen);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
  // Guard against a vacuous pass: the suite must actually produce verdicts
  // for the byte-identity comparison to mean anything.
  EXPECT_GT(decisions_seen, 100u);
}

}  // namespace
}  // namespace acn
