// Microbenchmarks (google-benchmark) for the core primitives: neighbourhood
// queries, maximal-motion enumeration (Algorithm 2), full characterization
// (Algorithms 3-5), greedy partition construction (Algorithm 1), overload
// deferral and the baselines, across system sizes and densities.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "baseline/central_kmeans.hpp"
#include "baseline/tessellation.hpp"
#include "core/characterizer.hpp"
#include "core/grid_index.hpp"
#include "core/motion_plane.hpp"
#include "core/partition.hpp"
#include "ingest/overload.hpp"
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

// Overload deferral over 10,000 flagged 2-d claims. Arg 0: a clustered
// flood, every claim inside one Chebyshev ball of radius r = 0.03 (all
// pairs within the 2r window); 1: uniform claims at r = 0.03 (nearly all
// kept); 2: uniform claims at r = 0.001 (most deferred).
void BM_DeferCandidates(benchmark::State& state) {
  const double r = state.range(0) == 2 ? 0.001 : 0.03;
  acn::Rng rng(7);
  const auto coord = [&] {
    return state.range(0) == 0 ? 0.5 + rng.uniform(-r, r) : rng.uniform();
  };
  std::vector<acn::Point> claims;
  for (int i = 0; i < 10000; ++i) {
    const double x = coord();
    claims.push_back(acn::Point{x, coord()});
  }
  const acn::OverloadController controller({.defer_abnormal_cap = 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.defer_candidates(claims, 2.0 * r));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(claims.size()));
}
BENCHMARK(BM_DeferCandidates)->Arg(0)->Arg(1)->Arg(2);

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
