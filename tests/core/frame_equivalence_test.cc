// The incremental engine's contract: a FrameEngine fed one snapshot per
// interval — rolling StatePair, per-interval A_k index, 4r-closure plane,
// pooled fan-outs — produces verdicts byte-identical to a from-scratch
// rebuild (fresh StatePair + GridIndex + MotionPlane + Characterizer) of
// every interval, at every thread count. Swept over randomized
// multi-interval scenarios, a device-teleport stream, an all-abnormal
// stream, a grid-cell boundary straddle, and a churning roster.
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/characterizer.hpp"
#include "core/frame.hpp"
#include "online/monitor.hpp"
#include "sim/scenario.hpp"

namespace acn {
namespace {

void expect_identical_decisions(const std::vector<Decision>& incremental,
                                const std::vector<Decision>& scratch,
                                const DeviceSet& abnormal, std::uint64_t interval) {
  ASSERT_EQ(incremental.size(), scratch.size()) << "interval " << interval;
  for (std::size_t i = 0; i < incremental.size(); ++i) {
    const Decision& a = incremental[i];
    const Decision& b = scratch[i];
    const DeviceId j = abnormal[i];
    EXPECT_EQ(a.cls, b.cls) << "interval " << interval << " device " << j;
    EXPECT_EQ(a.rule, b.rule) << "interval " << interval << " device " << j;
    EXPECT_EQ(a.exact, b.exact) << "interval " << interval << " device " << j;
    EXPECT_EQ(a.maximal_motion_count, b.maximal_motion_count)
        << "interval " << interval << " device " << j;
    EXPECT_EQ(a.dense_motion_count, b.dense_motion_count)
        << "interval " << interval << " device " << j;
    EXPECT_EQ(a.collections_tested, b.collections_tested)
        << "interval " << interval << " device " << j;
  }
}

/// Feeds `snapshots[k]` with abnormal sets `abnormal[k]` (k >= 1; snapshot 0
/// primes) through engines at several pool sizes and checks each interval
/// against the from-scratch rebuild. 7 lanes is deliberately odd and more
/// than a small machine's cores, so work items land on lanes unevenly.
void sweep_stream(const std::vector<Snapshot>& snapshots,
                  const std::vector<DeviceSet>& abnormal, Params model) {
  for (const unsigned threads : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    FrameEngine engine(
        FrameEngine::Config{.model = model,
                            .characterize = {.parallel_grain = 1},
                            .threads = threads,
                            .component_fanout = 1});
    (void)engine.observe(snapshots[0], DeviceSet{});
    for (std::size_t k = 1; k < snapshots.size(); ++k) {
      const std::optional<FrameEngine::Result> result =
          engine.observe(snapshots[k], abnormal[k]);
      ASSERT_TRUE(result.has_value());

      const StatePair scratch_state(snapshots[k - 1], snapshots[k], abnormal[k]);
      const std::vector<Decision> expected =
          Characterizer(scratch_state, model).decide();
      expect_identical_decisions(result->decisions, expected, abnormal[k], k);

      // The bucketed sets follow the decisions deterministically.
      const CharacterizationSets sets = [&] {
        Characterizer again(scratch_state, model);
        return again.characterize_all();
      }();
      EXPECT_EQ(result->sets.isolated, sets.isolated) << "interval " << k;
      EXPECT_EQ(result->sets.massive, sets.massive) << "interval " << k;
      EXPECT_EQ(result->sets.unresolved, sets.unresolved) << "interval " << k;
    }
  }
}

TEST(FrameEquivalence, RandomizedScenarioSweep) {
  for (const std::uint64_t seed : {3ull, 17ull, 91ull}) {
    for (const bool r3 : {true, false}) {
      ScenarioParams params;
      params.n = 400;
      params.errors_per_step = 24;
      params.seed = seed;
      params.enforce_r3 = r3;

      ScenarioGenerator generator(params);
      std::vector<Snapshot> snapshots;
      std::vector<DeviceSet> abnormal;
      snapshots.emplace_back(generator.positions());
      abnormal.emplace_back();
      for (int k = 0; k < 6; ++k) {
        const ScenarioStep step = generator.advance();
        snapshots.push_back(step.state.curr());
        abnormal.push_back(step.truth.abnormal);
      }
      sweep_stream(snapshots, abnormal, params.model);
    }
  }
}

TEST(FrameEquivalence, DeviceTeleportAcrossTheSpace) {
  // Device 0 teleports corner to corner every interval (the largest
  // possible jump across grid cells) while a small cluster drifts
  // coherently; every affected device is abnormal each round.
  const Params model{.r = 0.05, .tau = 2};
  std::vector<Snapshot> snapshots;
  std::vector<DeviceSet> abnormal;
  const auto build = [](double teleport_x, double drift) {
    std::vector<Point> positions;
    positions.push_back(Point{teleport_x, teleport_x});
    for (int c = 0; c < 4; ++c) {
      positions.push_back(
          Point{0.40 + 0.01 * static_cast<double>(c) + drift, 0.50 + drift});
    }
    for (int q = 0; q < 3; ++q) {
      positions.push_back(Point{0.90, 0.05 + 0.3 * static_cast<double>(q)});
    }
    return Snapshot(positions);
  };
  snapshots.push_back(build(0.02, 0.0));
  abnormal.emplace_back();
  const double hops[] = {0.95, 0.03, 0.55, 0.97};
  for (int k = 0; k < 4; ++k) {
    snapshots.push_back(build(hops[k], 0.02 * static_cast<double>(k + 1)));
    abnormal.push_back(DeviceSet({0, 1, 2, 3, 4}));
  }
  sweep_stream(snapshots, abnormal, model);
}

TEST(FrameEquivalence, AllAbnormalEveryInterval) {
  // Every device abnormal every interval: the plane covers the whole fleet
  // and the A_k index holds every device.
  const Params model{.r = 0.03, .tau = 3};
  Rng rng(7);
  const std::size_t n = 60;
  std::vector<Point> positions;
  positions.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    positions.push_back(Point{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
  }
  std::vector<DeviceId> everyone;
  for (std::size_t j = 0; j < n; ++j) everyone.push_back(static_cast<DeviceId>(j));

  std::vector<Snapshot> snapshots;
  std::vector<DeviceSet> abnormal;
  snapshots.emplace_back(positions);
  abnormal.emplace_back();
  for (int k = 0; k < 5; ++k) {
    // A third of the fleet jumps somewhere uniform, the rest stays put.
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.uniform(0.0, 1.0) < 0.33) {
        positions[j] = Point{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
      }
    }
    snapshots.emplace_back(positions);
    abnormal.push_back(DeviceSet::from_sorted(everyone));
  }
  sweep_stream(snapshots, abnormal, model);
}

TEST(FrameEquivalence, GridCellBoundaryStraddle) {
  // With r=0.05 the grid cell is 0.1, so cell boundaries fall on dim-0
  // multiples of 0.1. Two clusters sit astride x=0.3 and x=0.7 with members
  // on both sides at distances within the 2r joint window, and every
  // interval each cluster's members hop across their boundary (swap sides)
  // while a courier walks the full axis one cell per interval. Any scan
  // mistake — a neighbour cell skipped, a device bucketed by its previous
  // position, a collided bucket scanned twice — changes a dense ball
  // population and with it a verdict.
  const Params model{.r = 0.05, .tau = 2};
  const auto build = [](bool flipped, double courier_x) {
    std::vector<Point> positions;
    for (const double centre : {0.3, 0.7}) {
      const double side = flipped ? -0.02 : 0.02;
      positions.push_back(Point{centre - side, 0.5});
      positions.push_back(Point{centre + side, 0.5});
      positions.push_back(Point{centre - side, 0.53});
      positions.push_back(Point{centre + side, 0.53});
    }
    positions.push_back(Point{courier_x, 0.5});
    return Snapshot(positions);
  };
  std::vector<DeviceId> everyone;
  for (DeviceId j = 0; j < 9; ++j) everyone.push_back(j);

  std::vector<Snapshot> snapshots;
  std::vector<DeviceSet> abnormal;
  snapshots.push_back(build(false, 0.05));
  abnormal.emplace_back();
  for (int k = 1; k <= 6; ++k) {
    snapshots.push_back(build(k % 2 != 0, 0.05 + 0.1 * static_cast<double>(k)));
    abnormal.push_back(DeviceSet::from_sorted(everyone));
  }
  sweep_stream(snapshots, abnormal, model);
}

TEST(FrameEquivalence, RosterChurnPooledMatchesSerial) {
  // Churn under a pooled engine: gateways join and leave mid-stream while
  // others report fresh positions, so slots are recycled and parked slots
  // sit in the snapshot without ever entering the A_k index. A 4-lane
  // monitor must produce byte-identical interval reports to the serial one.
  const auto make_monitor = [](unsigned threads) {
    return OnlineMonitor(OnlineMonitor::Config{
        .model = Params{.r = 0.05, .tau = 2},
        .characterize = {.parallel_grain = 1},
        .characterize_threads = threads,
        .roster_capacity = 32,
        .roster_dim = 2});
  };
  OnlineMonitor reference = make_monitor(1);
  OnlineMonitor pooled = make_monitor(4);

  Rng rng(29);
  std::vector<GatewayKey> active;
  GatewayKey next_key = 1;
  const auto random_point = [&rng] {
    return Point{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
  };
  // Seed roster.
  for (int i = 0; i < 12; ++i) {
    const Point p = random_point();
    (void)reference.admit(next_key, p);
    (void)pooled.admit(next_key, p);
    active.push_back(next_key++);
  }
  for (int k = 0; k < 8; ++k) {
    // A few departures (never below 6 gateways) and a few arrivals.
    for (int d = 0; d < 2 && active.size() > 6; ++d) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform(0.0, static_cast<double>(active.size()) - 0.001));
      reference.retire(active[pick]);
      pooled.retire(active[pick]);
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    for (int a = 0; a < 3; ++a) {
      const Point p = random_point();
      (void)reference.admit(next_key, p);
      (void)pooled.admit(next_key, p);
      active.push_back(next_key++);
    }
    // Half the survivors move, some far enough to change grid cell.
    for (const GatewayKey key : active) {
      if (rng.uniform(0.0, 1.0) < 0.5) {
        const Point p = random_point();
        reference.report(key, p);
        pooled.report(key, p);
      }
    }
    // A random third of the active gateways are flagged abnormal.
    std::vector<GatewayKey> flagged;
    for (const GatewayKey key : active) {
      if (rng.uniform(0.0, 1.0) < 0.33) flagged.push_back(key);
    }
    const IntervalReport want = reference.close_interval(flagged);
    const IntervalReport got = pooled.close_interval(flagged);
    EXPECT_EQ(got.abnormal, want.abnormal) << "interval " << k;
    EXPECT_EQ(got.isolated, want.isolated) << "interval " << k;
    EXPECT_EQ(got.massive, want.massive) << "interval " << k;
    EXPECT_EQ(got.unresolved, want.unresolved) << "interval " << k;
    ASSERT_EQ(got.decisions.size(), want.decisions.size()) << "interval " << k;
    for (const auto& [device, decision] : want.decisions) {
      const auto it = got.decisions.find(device);
      ASSERT_NE(it, got.decisions.end()) << "interval " << k << " device " << device;
      EXPECT_TRUE(it->second.cls == decision.cls &&
                  it->second.rule == decision.rule &&
                  it->second.exact == decision.exact &&
                  it->second.maximal_motion_count == decision.maximal_motion_count &&
                  it->second.dense_motion_count == decision.dense_motion_count &&
                  it->second.collections_tested == decision.collections_tested)
          << "interval " << k << " device " << device;
    }
  }
}

TEST(FrameEquivalence, RejectsNaNRadius) {
  // Caught at construction, before any grid build casts a coordinate.
  EXPECT_THROW(FrameEngine(FrameEngine::Config{
                   .model = Params{.r = std::numeric_limits<double>::quiet_NaN()}}),
               std::invalid_argument);
}

TEST(FrameEquivalence, RejectsFleetShapeChanges) {
  FrameEngine engine(FrameEngine::Config{.model = Params{}});
  (void)engine.observe(Snapshot({Point{0.1, 0.1}, Point{0.2, 0.2}}), DeviceSet{});
  EXPECT_THROW(
      (void)engine.observe(Snapshot({Point{0.1, 0.1}}), DeviceSet{}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)engine.observe(Snapshot({Point{0.1}, Point{0.2}}), DeviceSet{}),
      std::invalid_argument);
}

}  // namespace
}  // namespace acn
