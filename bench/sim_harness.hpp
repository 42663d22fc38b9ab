// Shared driver for the simulation-backed benches (Tables II/III, Figures
// 7-9): runs the §VII-A generator for a number of intervals and aggregates
// the characterization metrics.
#pragma once

#include <cstdio>

#include "obs/telemetry.hpp"
#include "sim/metrics.hpp"
#include "sim/scenario.hpp"

namespace acn::bench {

struct HarnessResult {
  RunMetrics metrics;
  std::uint64_t steps = 0;
  std::uint64_t dropped_errors = 0;
};

inline HarnessResult run_scenario(const ScenarioParams& params, std::uint64_t steps,
                                  const CharacterizeOptions& options = {},
                                  unsigned threads = 1,
                                  obs::TelemetryHub* hub = nullptr) {
  HarnessResult result;
  ScenarioGenerator generator(params);
  // One incremental engine per run: the generator's stream is contiguous,
  // so each step is a locality-bounded roll (verdicts are byte-identical
  // to the per-step from-scratch rebuild this harness used to pay).
  FrameEngine engine(FrameEngine::Config{.model = params.model,
                                         .characterize = options,
                                         .threads = threads});
  for (std::uint64_t k = 0; k < steps; ++k) {
    const ScenarioStep step = generator.advance();
    result.metrics.add(evaluate_step(engine, step));
    result.dropped_errors += step.truth.dropped_errors;
    if (hub != nullptr) {
      // Engine-side telemetry for the bench runs: the per-step spans and
      // interval shape (verdict mix lives in result.metrics here — the full
      // record is the OnlineMonitor's job).
      const FrameStats& stats = engine.last_stats();
      obs::IntervalTelemetry record =
          obs::frame_record(k, stats.total_ms(), stats);
      record.devices = static_cast<std::uint32_t>(params.n);
      record.abnormal = static_cast<std::uint32_t>(stats.abnormal);
      hub->record(std::move(record));
    }
  }
  result.steps = steps;
  return result;
}

inline void print_seed_banner(const char* name, const ScenarioParams& params,
                              std::uint64_t steps) {
  std::printf("# %s  n=%zu d=%zu r=%.3f tau=%u A=%u G=%.2f seed=%llu steps=%llu%s\n",
              name, params.n, params.d, params.model.r, params.model.tau,
              params.errors_per_step, params.isolated_probability,
              static_cast<unsigned long long>(params.seed),
              static_cast<unsigned long long>(steps),
              params.enforce_r3 ? "" : "  (R3 relaxed)");
}

}  // namespace acn::bench
