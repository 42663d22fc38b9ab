// Microbenchmarks (google-benchmark) for the core primitives: neighbourhood
// queries, maximal-motion enumeration (Algorithm 2), full characterization
// (Algorithms 3-5), greedy partition construction (Algorithm 1), overload
// deferral, the clone filter and the baselines, across system sizes and
// densities.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "adversary/defense.hpp"
#include "baseline/central_kmeans.hpp"
#include "baseline/tessellation.hpp"
#include "core/characterizer.hpp"
#include "core/grid_index.hpp"
#include "core/motion_plane.hpp"
#include "core/partition.hpp"
#include "ingest/overload.hpp"
#include "online/roster.hpp"
#include "sim/scenario.hpp"

namespace {

acn::ScenarioStep make_step(std::size_t n, std::uint32_t errors, double g,
                            std::uint64_t seed) {
  acn::ScenarioParams params;
  params.n = n;
  params.d = 2;
  params.model = {.r = 0.03, .tau = 3};
  params.errors_per_step = errors;
  params.isolated_probability = g;
  params.seed = seed;
  acn::ScenarioGenerator generator(params);
  return generator.advance();
}

void BM_NeighbourhoodQuery(benchmark::State& state) {
  const auto step = make_step(static_cast<std::size_t>(state.range(0)), 20, 0.3, 1);
  const acn::Params model{.r = 0.03, .tau = 3};
  const acn::GridIndex grid(step.state, step.state.abnormal(),
                            std::max(model.window(), acn::kMinGridCell));
  for (auto _ : state) {
    for (const acn::DeviceId j : step.state.abnormal()) {
      benchmark::DoNotOptimize(grid.within(j, model.window()));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(step.state.abnormal().size()));
}
BENCHMARK(BM_NeighbourhoodQuery)->Arg(500)->Arg(1000)->Arg(2000)->Arg(4000);

// Overload deferral as a seal pays it once the abnormal cap is passed: the
// gather of 10,000 flagged 2-d claims from a 20,000-device roster (the
// even keys) and the deferral over them. Arg 0: a clustered flood, every
// flagged claim inside one Chebyshev ball of radius r = 0.03 (all pairs
// within the 2r window); 1: uniform claims at r = 0.03 (nearly all kept);
// 2: uniform claims at r = 0.001 (most deferred).
void BM_DeferCandidates(benchmark::State& state) {
  const double r = state.range(0) == 2 ? 0.001 : 0.03;
  constexpr acn::GatewayKey kFleet = 20000;
  acn::Rng rng(7);
  const auto coord = [&](bool flagged) {
    return flagged && state.range(0) == 0 ? 0.5 + rng.uniform(-r, r) : rng.uniform();
  };
  acn::FleetRoster roster(kFleet, 2);
  std::vector<acn::GatewayKey> flagged;
  for (acn::GatewayKey key = 0; key < kFleet; ++key) {
    const bool is_flagged = key % 2 == 0;
    const double x = coord(is_flagged);
    (void)roster.admit(key, acn::Point{x, coord(is_flagged)});
    if (is_flagged) flagged.push_back(key);
  }
  const acn::OverloadController controller({.defer_abnormal_cap = 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        controller.defer_candidates(roster.positions_of(flagged), 2.0 * r));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(flagged.size()));
}
BENCHMARK(BM_DeferCandidates)->Arg(0)->Arg(1)->Arg(2);

// The clone filter over |A_k| = Arg uniform 2-d claims at both times,
// r = 0.03, suspicion factor 0.2: its groups are the components of one
// GridIndex at the suspicion radius.
void BM_CloneFilter(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  acn::Rng rng(5);
  std::vector<double> prev(2 * m);
  std::vector<double> curr(2 * m);
  for (std::size_t i = 0; i < 2 * m; ++i) {
    prev[i] = rng.uniform();
    curr[i] = rng.uniform();
  }
  std::vector<acn::DeviceId> all(m);
  for (std::size_t i = 0; i < m; ++i) all[i] = static_cast<acn::DeviceId>(i);
  const acn::StatePair pair(acn::Snapshot(2, std::move(prev)), acn::Snapshot(2, std::move(curr)),
                            acn::DeviceSet::from_sorted(std::move(all)));
  const acn::CloneFilter filter({.suspicion_factor = 0.2, .min_group = 3});
  const acn::Params model{.r = 0.03, .tau = 3};
  for (auto _ : state) benchmark::DoNotOptimize(filter.suspicious(pair, model));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m));
}
BENCHMARK(BM_CloneFilter)->Arg(1500)->Arg(6000)->Unit(benchmark::kMillisecond);

void BM_MaximalMotionEnumeration(benchmark::State& state) {
  const auto step = make_step(1000, static_cast<std::uint32_t>(state.range(0)), 0.2, 2);
  const acn::Params model{.r = 0.03, .tau = 3};
  for (auto _ : state) {
    const acn::MotionPlane plane(step.state, model);
    benchmark::DoNotOptimize(plane.motion_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(step.state.abnormal().size()));
}
BENCHMARK(BM_MaximalMotionEnumeration)->Arg(10)->Arg(20)->Arg(40)->Arg(80);

void BM_CharacterizeAll(benchmark::State& state) {
  const auto step = make_step(1000, static_cast<std::uint32_t>(state.range(0)), 0.2, 3);
  const acn::Params model{.r = 0.03, .tau = 3};
  for (auto _ : state) {
    acn::Characterizer characterizer(step.state, model);
    benchmark::DoNotOptimize(characterizer.characterize_all());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(step.state.abnormal().size()));
}
BENCHMARK(BM_CharacterizeAll)->Arg(10)->Arg(20)->Arg(40)->Arg(80)->Unit(benchmark::kMillisecond);

void BM_GreedyPartition(benchmark::State& state) {
  const auto step = make_step(1000, 20, 0.2, 4);
  const acn::Params model{.r = 0.03, .tau = 3};
  acn::Rng rng(99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(acn::build_anomaly_partition(step.state, model, rng));
  }
}
BENCHMARK(BM_GreedyPartition)->Unit(benchmark::kMillisecond);

void BM_TessellationBaseline(benchmark::State& state) {
  const auto step = make_step(1000, 20, 0.2, 5);
  const acn::TessellationBaseline baseline(0.06, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baseline.classify(step.state));
  }
}
BENCHMARK(BM_TessellationBaseline);

void BM_CentralKmeansBaseline(benchmark::State& state) {
  const auto step = make_step(1000, 20, 0.2, 6);
  const acn::CentralKmeansBaseline baseline({.tau = 3, .cluster_divisor = 6});
  for (auto _ : state) {
    benchmark::DoNotOptimize(baseline.classify(step.state));
  }
}
BENCHMARK(BM_CentralKmeansBaseline);

}  // namespace

BENCHMARK_MAIN();
