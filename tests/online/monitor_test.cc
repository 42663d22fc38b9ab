#include "online/monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/motion_plane.hpp"
#include "sim/hostile.hpp"
#include "sim/scenario.hpp"

namespace acn {
namespace {

OnlineMonitor::Config monitor_config() {
  OnlineMonitor::Config config;
  config.model = {.r = 0.03, .tau = 3};
  return config;
}

TEST(OnlineMonitorTest, FirstIntervalYieldsNoVerdicts) {
  OnlineMonitor monitor(monitor_config());
  const Snapshot s({Point{0.1}, Point{0.2}});
  const IntervalReport report = monitor.observe(s, DeviceSet({0}));
  EXPECT_TRUE(report.decisions.empty());
  EXPECT_EQ(report.abnormal, DeviceSet({0}));
}

TEST(OnlineMonitorTest, CharacterizesFromSecondIntervalOn) {
  OnlineMonitor monitor(monitor_config());
  const Snapshot before({Point{0.90}, Point{0.91}, Point{0.92}, Point{0.93},
                         Point{0.94}, Point{0.50}});
  const Snapshot after({Point{0.30}, Point{0.31}, Point{0.32}, Point{0.33},
                        Point{0.34}, Point{0.10}});
  (void)monitor.observe(before, DeviceSet{});
  const IntervalReport report =
      monitor.observe(after, DeviceSet({0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(report.massive, DeviceSet({0, 1, 2, 3, 4}));
  EXPECT_EQ(report.isolated, DeviceSet({5}));
  EXPECT_TRUE(report.unresolved.empty());
}

TEST(OnlineMonitorTest, RejectsShapeChanges) {
  OnlineMonitor monitor(monitor_config());
  (void)monitor.observe(Snapshot({Point{0.1}, Point{0.2}}), DeviceSet{});
  EXPECT_THROW((void)monitor.observe(Snapshot({Point{0.1}}), DeviceSet{}),
               std::invalid_argument);
}

TEST(OnlineMonitorTest, EpisodesAccumulateAcrossIntervals) {
  auto config = monitor_config();
  config.episode_quiet_intervals = 1;
  OnlineMonitor monitor(config);
  const Snapshot a({Point{0.90}, Point{0.91}, Point{0.92}, Point{0.93}, Point{0.94}});
  const Snapshot b({Point{0.40}, Point{0.41}, Point{0.42}, Point{0.43}, Point{0.44}});
  const Snapshot c({Point{0.40}, Point{0.41}, Point{0.42}, Point{0.43}, Point{0.44}});
  (void)monitor.observe(a, DeviceSet{});
  (void)monitor.observe(b, DeviceSet({0, 1, 2, 3, 4}));  // massive episode
  (void)monitor.observe(c, DeviceSet{});                 // quiet: closes
  monitor.finish();
  EXPECT_EQ(monitor.episodes().closed().size(), 5u);
  for (const Episode& episode : monitor.episodes().closed()) {
    EXPECT_EQ(episode.final_verdict(), AnomalyClass::kMassive);
    EXPECT_EQ(episode.duration(), 1u);
  }
}

TEST(OnlineMonitorTest, AdaptiveSamplerReactsToAnomalies) {
  auto config = monitor_config();
  config.adaptive = AdaptiveSampler::Config{.min_interval = 1,
                                            .max_interval = 32,
                                            .initial_interval = 8,
                                            .decrease = 0.5,
                                            .increase = 2.0};
  OnlineMonitor monitor(config);
  const Snapshot a({Point{0.9}, Point{0.8}});
  (void)monitor.observe(a, DeviceSet{});
  EXPECT_EQ(monitor.next_sampling_interval(), 16u);  // quiet: grew
  const Snapshot b({Point{0.2}, Point{0.8}});
  (void)monitor.observe(b, DeviceSet({0}));
  EXPECT_EQ(monitor.next_sampling_interval(), 8u);  // anomaly: shrank
}

TEST(OnlineMonitorTest, DrivesGeneratedWorkload) {
  ScenarioParams params;
  params.n = 300;
  params.d = 2;
  params.model = {.r = 0.03, .tau = 3};
  params.errors_per_step = 6;
  params.isolated_probability = 0.5;
  params.seed = 77;
  params.massive_anchor_retries = 8;
  ScenarioGenerator generator(params);

  OnlineMonitor::Config config;
  config.model = params.model;
  OnlineMonitor monitor(config);

  // Prime with the initial state, then stream generated intervals.
  (void)monitor.observe(Snapshot(generator.positions()), DeviceSet{});
  std::size_t verdicts = 0;
  for (int k = 0; k < 6; ++k) {
    const ScenarioStep step = generator.advance();
    const IntervalReport report =
        monitor.observe(step.state.curr(), step.truth.abnormal);
    verdicts += report.decisions.size();
    // Certainty verdicts must respect ground truth (R3 on by default).
    EXPECT_TRUE(report.massive.is_subset_of(step.truth.truly_massive));
    EXPECT_TRUE(report.isolated.is_subset_of(step.truth.truly_isolated));
  }
  EXPECT_GT(verdicts, 0u);
  monitor.finish();
  EXPECT_GT(monitor.episodes().closed().size(), 0u);
}

TEST(OnlineMonitorTest, RosterChurnFrontDoor) {
  auto config = monitor_config();
  config.roster_capacity = 6;
  config.roster_dim = 1;
  OnlineMonitor monitor(config);

  // Interval 0 (prime): five clustered gateways plus one loner join.
  for (GatewayKey g = 1; g <= 5; ++g) {
    (void)monitor.admit(g, Point{0.90 + 0.01 * static_cast<double>(g - 1)});
  }
  (void)monitor.admit(6, Point{0.50});
  const IntervalReport r0 = monitor.close_interval({});
  EXPECT_TRUE(r0.decisions.empty());

  // Interval 1: the cluster crashes together, the loner crashes alone.
  for (GatewayKey g = 1; g <= 5; ++g) {
    monitor.report(g, Point{0.30 + 0.01 * static_cast<double>(g - 1)});
  }
  monitor.report(6, Point{0.10});
  const std::vector<GatewayKey> all_abnormal = {1, 2, 3, 4, 5, 6};
  const IntervalReport r1 = monitor.close_interval(all_abnormal);
  EXPECT_EQ(r1.massive, DeviceSet({0, 1, 2, 3, 4}));
  EXPECT_EQ(r1.isolated, DeviceSet({5}));

  // Interval 2: gateway 6 leaves (its open episode force-closes) and
  // gateway 7 recycles slot 5. The recruit is flagged abnormal but has no
  // trajectory yet, so the splice never reaches the characterizer.
  monitor.retire(6);
  ASSERT_EQ(monitor.episodes().closed().size(), 1u);
  EXPECT_EQ(monitor.episodes().closed()[0].device, 5u);
  EXPECT_EQ(monitor.episodes().closed()[0].final_verdict(),
            AnomalyClass::kIsolated);
  EXPECT_EQ(monitor.admit(7, Point{0.80}), 5u);
  const std::vector<GatewayKey> recruit = {7};
  const IntervalReport r2 = monitor.close_interval(recruit);
  EXPECT_TRUE(r2.decisions.empty());

  // Interval 3: the recruit now has a trajectory and crashes alone.
  monitor.report(7, Point{0.20});
  const IntervalReport r3 = monitor.close_interval(recruit);
  EXPECT_EQ(r3.isolated, DeviceSet({5}));
  EXPECT_TRUE(r3.massive.empty());

  // The recycled slot carries TWO independent episodes: the departed
  // gateway's and the recruit's.
  monitor.finish();
  std::size_t slot5_episodes = 0;
  for (const Episode& episode : monitor.episodes().closed()) {
    if (episode.device == 5) ++slot5_episodes;
  }
  EXPECT_EQ(slot5_episodes, 2u);
  EXPECT_EQ(monitor.roster().active_count(), 6u);
}

// Regression: an explicit retirement followed by a late force-close of the
// same gateway (operator removal racing the ingestion layer's liveness
// expiry) must be idempotent — one parked slot, one closed episode, no
// throw. A recycled slot's new occupant must be untouched by the replay.
TEST(OnlineMonitorTest, RetireIsIdempotentUnderLateForceClose) {
  auto config = monitor_config();
  config.roster_capacity = 3;
  config.roster_dim = 1;
  OnlineMonitor monitor(config);
  (void)monitor.admit(1, Point{0.90});
  (void)monitor.admit(2, Point{0.91});
  (void)monitor.admit(3, Point{0.50});
  (void)monitor.close_interval({});
  monitor.report(3, Point{0.10});
  const std::vector<GatewayKey> abnormal = {3};
  (void)monitor.close_interval(abnormal);  // gateway 3 opens an episode

  monitor.retire(3);
  ASSERT_EQ(monitor.episodes().closed().size(), 1u);
  monitor.retire(3);  // late force-close replays: no-op
  monitor.retire(99);  // never admitted: equally a no-op
  EXPECT_EQ(monitor.episodes().closed().size(), 1u);
  EXPECT_EQ(monitor.roster().active_count(), 2u);

  // The slot recycles; the departed gateway's late force-close must not
  // close the NEW occupant's episode or evict it.
  (void)monitor.admit(4, Point{0.80});
  monitor.retire(3);
  EXPECT_TRUE(monitor.roster().active(4));
  EXPECT_EQ(monitor.episodes().closed().size(), 1u);
  EXPECT_EQ(monitor.roster().active_count(), 3u);
}

TEST(OnlineMonitorTest, RosterCallsThrowInFixedFleetMode) {
  OnlineMonitor monitor(monitor_config());
  EXPECT_THROW((void)monitor.admit(1, Point{0.1}), std::logic_error);
  EXPECT_THROW(monitor.retire(1), std::logic_error);
  EXPECT_THROW(monitor.report(1, Point{0.1}), std::logic_error);
  EXPECT_THROW((void)monitor.close_interval({}), std::logic_error);
  EXPECT_THROW((void)monitor.roster(), std::logic_error);
}

// --- change marks against the full roll ------------------------------------

/// Every bit of two rolled states: both halves of the joint columns, the
/// last roll's moved ids, and A_k.
void expect_same_state(const StatePair& got, const StatePair& want) {
  ASSERT_EQ(got.n(), want.n());
  ASSERT_EQ(got.dim(), want.dim());
  for (std::size_t t = 0; t < got.joint_dim(); ++t) {
    EXPECT_EQ(std::memcmp(got.joint_col(t), want.joint_col(t), got.n() * sizeof(double)), 0)
        << (t < got.dim() ? "S_{k-1}" : "S_k") << " column " << t % got.dim();
  }
  EXPECT_TRUE(std::ranges::equal(got.moved(), want.moved()));
  EXPECT_EQ(got.abnormal(), want.abnormal());
}

void expect_same_verdicts(const IntervalReport& got, const FrameEngine::Result& want,
                          const DeviceSet& abnormal) {
  ASSERT_EQ(got.abnormal, abnormal);
  ASSERT_EQ(got.decisions.size(), want.decisions.size());
  for (std::size_t i = 0; i < got.decisions.size(); ++i) {
    const Decision& a = got.decisions[i];
    const Decision& b = want.decisions[i];
    EXPECT_TRUE(a.cls == b.cls && a.rule == b.rule && a.exact == b.exact &&
                a.maximal_motion_count == b.maximal_motion_count &&
                a.dense_motion_count == b.dense_motion_count &&
                a.collections_tested == b.collections_tested)
        << "device " << abnormal[i];
  }
}

/// The kept region counts of the latest record against a full tally of S_k.
void expect_regions_of_current_state(const OnlineMonitor& monitor,
                                     const IntervalReport& report) {
  const obs::TelemetryHub& hub = *monitor.telemetry();
  const StatePair& state = monitor.engine().state();
  const std::vector<obs::RegionStats> want = hub.tally_regions(
      {state.joint_col(state.dim()), state.n()}, report.abnormal, report.isolated,
      report.massive, report.unresolved);
  const std::vector<obs::RegionStats>& got = hub.store().latest().regions;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(got[r].devices, want[r].devices) << "region " << r;
    EXPECT_EQ(got[r].abnormal, want[r].abnormal) << "region " << r;
    EXPECT_EQ(got[r].isolated, want[r].isolated) << "region " << r;
    EXPECT_EQ(got[r].massive, want[r].massive) << "region " << r;
    EXPECT_EQ(got[r].unresolved, want[r].unresolved) << "region " << r;
  }
}

struct MarksRun {
  std::vector<std::uint64_t> arena_bytes;  ///< per interval; 0 where it threw
  std::size_t throws = 0;
  std::size_t compared_after_throw = 0;
};

/// One hostile family through a roster-mode monitor (try_report per key,
/// then close_interval, so the roll reads the roster's change marks) and
/// through a FrameEngine fed a copy of the roster's snapshot (the full
/// compare), comparing FrameStats::moved, the moved ids, both state halves,
/// the verdict bytes and the kept region counts at every interval. Along
/// the way: a retired slot re-admitted in the same interval, a device that
/// moves and moves back before the seal, a -0.0 claim over 0.0, and a
/// direct observe() followed by close_interval(). `budget` caps the
/// monitor's plane arenas; an interval that throws is rolled by the
/// reference anyway, and the next one must match it.
void run_marks_against_full_roll(const HostileSpec& spec, std::uint64_t budget,
                                 MarksRun& run) {
  constexpr std::size_t kIntervals = 8;
  HostileScenario scenario(spec.params);
  const Snapshot initial = scenario.initial();
  const std::size_t n = initial.size();
  const std::size_t dim = initial.dim();
  OnlineMonitor::Config config;
  config.model = spec.params.base.model;
  config.roster_capacity = n;
  config.roster_dim = dim;
  config.telemetry = obs::TelemetryConfig{.regions = 8};
  config.plane_arena_budget = budget;
  OnlineMonitor monitor(config);
  FrameEngine::Config reference_config;
  reference_config.model = config.model;
  FrameEngine reference(reference_config);
  for (GatewayKey key = 0; key < n; ++key) {
    (void)monitor.admit(key, initial[static_cast<DeviceId>(key)]);
  }
  (void)monitor.close_interval({});
  (void)reference.observe(initial, DeviceSet{});

  run = MarksRun{};
  run.arena_bytes.assign(kIntervals + 1, 0);
  const GatewayKey recycled = 5;  // retired and re-admitted in interval 2
  const GatewayKey round_trip = 6;  // moves and moves back in interval 3
  const GatewayKey zero = 7;  // 0.0 in interval 4, -0.0 in interval 5
  bool threw_last = false;
  for (std::size_t k = 1; k <= kIntervals; ++k) {
    SCOPED_TRACE(testing::Message() << "interval " << k);
    const HostileStep step = scenario.advance();
    const Point before = monitor.roster().snapshot()[round_trip];
    const std::vector<double> round_trip_at(before.coords().begin(), before.coords().end());
    for (GatewayKey key = 0; key < n; ++key) {
      if (key == zero && k >= 4) continue;  // its claims are written below
      ASSERT_TRUE(monitor.try_report(key, step.observed[static_cast<DeviceId>(key)]));
    }
    std::vector<double> corner(dim, 0.5);
    switch (k) {
      case 2: {
        monitor.retire(recycled);
        std::vector<double> rejoin(dim, 0.25);
        EXPECT_EQ(monitor.admit(recycled, rejoin), recycled);
        break;
      }
      case 3: {
        std::vector<double> away(dim, 0.95);
        ASSERT_TRUE(monitor.try_report(round_trip, away));
        ASSERT_TRUE(monitor.try_report(round_trip, round_trip_at));
        break;
      }
      case 4:
        corner[0] = 0.0;
        ASSERT_TRUE(monitor.try_report(zero, corner));
        break;
      case 5:
        corner[0] = -0.0;
        ASSERT_TRUE(monitor.try_report(zero, corner));
        if (!threw_last) {
          EXPECT_EQ(monitor.roster().changes()[zero], 0u);  // no move under !=
        }
        break;
      case 6: {
        // A direct observe() of a snapshot that differs from the roster's
        // at a slot the roster has not marked.
        const auto unmarked = std::ranges::find(monitor.roster().changes(), 0);
        ASSERT_NE(unmarked, monitor.roster().changes().end());
        const auto w = static_cast<DeviceId>(unmarked - monitor.roster().changes().begin());
        std::vector<double> cols(monitor.roster().snapshot().col(0),
                                 monitor.roster().snapshot().col(0) + n * dim);
        cols[w] = cols[w] > 0.5 ? 0.01 : 0.99;
        const Snapshot direct(dim, std::move(cols));
        try {
          (void)monitor.observe(direct, DeviceSet{});
        } catch (const ArenaBudgetExceeded&) {
          ADD_FAILURE() << "an empty A_k threw";
        }
        (void)reference.observe(direct, DeviceSet{});
        expect_same_state(monitor.engine().state(), reference.state());
        EXPECT_EQ(monitor.last_stats().moved, reference.last_stats().moved);
        break;
      }
      default:
        break;
    }

    std::vector<GatewayKey> keys(step.abnormal.ids().begin(), step.abnormal.ids().end());
    const DeviceSet abnormal = monitor.roster().abnormal_slots(keys);
    if (k == 2) {
      EXPECT_FALSE(abnormal.contains(recycled));
    }
    const Snapshot copy = monitor.roster().snapshot();
    std::optional<IntervalReport> report;
    try {
      report = monitor.close_interval(keys);
    } catch (const ArenaBudgetExceeded&) {
      ++run.throws;
    }
    const std::optional<FrameEngine::Result> result = reference.observe(copy, abnormal);
    EXPECT_TRUE(result.has_value());
    expect_same_state(monitor.engine().state(), reference.state());
    if (report.has_value()) {
      EXPECT_EQ(monitor.last_stats().moved, reference.last_stats().moved);
      EXPECT_EQ(report->abnormal, abnormal);
      if (result.has_value()) expect_same_verdicts(*report, *result, abnormal);
      expect_regions_of_current_state(monitor, *report);
      run.arena_bytes[k] = monitor.engine().plane()->arena_bytes();
      if (threw_last) ++run.compared_after_throw;
    }
    if (k == 3) {
      EXPECT_FALSE(std::ranges::binary_search(reference.state().moved(),
                                              static_cast<DeviceId>(round_trip)));
    }
    threw_last = !report.has_value();
  }
}

TEST(OnlineMonitorTest, ChangeMarksRollEqualsTheFullRollOnTheHostileSuite) {
  std::size_t throws = 0;
  std::size_t compared_after_throw = 0;
  for (const HostileSpec& spec : standard_hostile_suite(300, 2024)) {
    SCOPED_TRACE(spec.name);
    MarksRun ample;
    run_marks_against_full_roll(spec, 0, ample);
    if (HasFatalFailure()) return;
    ASSERT_EQ(ample.throws, 0u);
    // A budget that the heaviest interval followed by a lighter one
    // straddles: the heavy one throws after its roll, the next one passes.
    const std::vector<std::uint64_t>& arena = ample.arena_bytes;
    std::size_t heavy = 0;
    for (std::size_t k = 1; k + 1 < arena.size(); ++k) {
      if (arena[k] > arena[k + 1] && (heavy == 0 || arena[k] > arena[heavy])) heavy = k;
    }
    if (heavy == 0) continue;
    const std::uint64_t budget = std::max<std::uint64_t>(arena[heavy + 1], 1);
    SCOPED_TRACE(testing::Message() << "plane_arena_budget " << budget);
    MarksRun tight;
    run_marks_against_full_roll(spec, budget, tight);
    if (HasFatalFailure()) return;
    throws += tight.throws;
    compared_after_throw += tight.compared_after_throw;
  }
  EXPECT_GT(throws, 0u);
  EXPECT_GT(compared_after_throw, 0u);
}

}  // namespace
}  // namespace acn
