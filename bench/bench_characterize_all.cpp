// End-to-end per-interval pipeline timings over the §VII-A workload — the
// perf trajectory anchor for the snapshot-level motion plane and the
// locality-bounded incremental engine.
//
// For every (n, A) cell the bench generates `steps` scenario intervals and
// streams them through a FrameEngine exactly like the online monitor does:
// per interval the engine rolls its StatePair in place, indexes A_k,
// builds the motion plane over the 4r-closure of A_k, and characterizes
// every abnormal device. Timings are per observe() call and broken down by
// phase from the engine's FrameStats. Scenario generation is excluded. A
// `scratch ms` column times the seed-style from-scratch rebuild (fresh
// Characterizer per interval) whose verdicts every engine run is checked
// against — the incremental path must match it byte for byte, for every
// thread count.
//
// A second table reports the pooled engine's per-phase lane skew: max vs
// mean busy ms across worker lanes for each fan-out phase — the load-balance
// health check. (On a single-core runner the pool collapses to one lane, so
// max == mean there; the columns carry information on multi-core hosts.)
// A third reports, per cell, the worst interval's plane arena bytes and the
// distinct dense families per step (the units characterize decides in).
// Both keep fewer columns than the main table, whose rows alone
// tools/record_bench.sh keys for its regression gate.
//
// The full grid ends with n=1,000,000 scale rows: the same pipeline at one
// million devices, the engine's per-interval cost staying a function of the
// 4r-closure, not n.
//
// `--smoke` runs a single small cell (CI-sized, 4-lane pool) and exits
// non-zero if the engine (serial or pooled) ever disagrees with the
// from-scratch rebuild.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "core/characterizer.hpp"
#include "core/frame.hpp"
#include "online/monitor.hpp"
#include "sim/scenario.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct CellResult {
  double grid_ms_per_step = 0.0;   // state roll + A_k index build
  double plane_ms_per_step = 0.0;  // motion-plane build (4r-closure)
  double characterize_ms_per_step = 0.0;
  double serial_ms_per_step = 0.0;    // engine, threads=1
  double parallel_ms_per_step = 0.0;  // engine, pooled
  double scratch_ms_per_step = 0.0;   // from-scratch rebuild (reference)
  double abnormal_mean = 0.0;
  std::uint64_t arena_bytes_max = 0;  // worst-interval plane arena, serial engine
  double families_mean = 0.0;         // distinct dense families per step
  bool ok = true;
};

/// Per-phase lane skew of the pooled engine, averaged over the steps.
struct LaneTiming {
  double state_max = 0.0, state_mean = 0.0;
  double plane_max = 0.0, plane_mean = 0.0;  // enumeration fan-out
  double char_max = 0.0, char_mean = 0.0;
};

/// Streams the generated intervals through one engine; returns per-step
/// verdicts, accumulating phase timings into `cell` and lane skew into
/// `skew` when given.
std::vector<acn::CharacterizationSets> run_engine(
    const std::vector<acn::ScenarioStep>& generated, const acn::ScenarioParams& params,
    unsigned threads, bool force_fanout, CellResult* phases, LaneTiming* skew,
    double* total_ms) {
  // force_fanout drops the serial-fallback thresholds to 1 so the pool
  // machinery genuinely runs in the smoke cell (whose |A_k| sits below the
  // production grain) even on single-core CI.
  acn::CharacterizeOptions options;
  if (force_fanout) options.parallel_grain = 1;
  acn::FrameEngine engine(acn::FrameEngine::Config{
      .model = params.model,
      .characterize = options,
      .threads = threads,
      .component_fanout = force_fanout ? 1u : 2u});
  (void)engine.observe(generated.front().state.prev(), acn::DeviceSet{});

  std::vector<acn::CharacterizationSets> sets;
  sets.reserve(generated.size());
  const auto start = Clock::now();
  for (const acn::ScenarioStep& step : generated) {
    auto result = engine.observe(step.state.curr(), step.state.abnormal());
    sets.push_back(std::move(result->sets));
    const acn::FrameStats& stats = engine.last_stats();
    if (phases != nullptr) {
      phases->grid_ms_per_step += stats.state_ms + stats.grid_ms;
      phases->plane_ms_per_step += stats.plane_ms;
      phases->characterize_ms_per_step += stats.characterize_ms;
      phases->arena_bytes_max =
          std::max(phases->arena_bytes_max, engine.plane()->arena_bytes());
      phases->families_mean += static_cast<double>(engine.plane()->family_count());
    }
    if (skew != nullptr) {
      skew->state_max += stats.state_lanes.max_ms;
      skew->state_mean += stats.state_lanes.mean_ms;
      skew->plane_max += stats.plane_enum_lanes.max_ms;
      skew->plane_mean += stats.plane_enum_lanes.mean_ms;
      skew->char_max += stats.characterize_lanes.max_ms;
      skew->char_mean += stats.characterize_lanes.mean_ms;
    }
  }
  *total_ms = ms_since(start);
  return sets;
}

CellResult run_cell(std::size_t n, std::uint32_t errors, std::uint64_t steps,
                    bool smoke, LaneTiming* skew) {
  acn::ScenarioParams params;
  params.n = n;
  params.errors_per_step = errors;
  params.seed = 42;

  std::vector<acn::ScenarioStep> generated;
  generated.reserve(steps);
  acn::ScenarioGenerator generator(params);
  for (std::uint64_t k = 0; k < steps; ++k) generated.push_back(generator.advance());

  CellResult result;
  for (const acn::ScenarioStep& step : generated) {
    result.abnormal_mean += static_cast<double>(step.state.abnormal().size());
  }
  result.abnormal_mean /= static_cast<double>(steps);

  // Warm-up pass (page in the state, stabilize the allocator), untimed.
  {
    acn::Characterizer warm(generated[0].state, params.model);
    (void)warm.characterize_all();
  }

  // From-scratch reference: fresh Characterizer per interval — what every
  // consumer paid before the engine, and the verdict ground truth.
  std::vector<acn::CharacterizationSets> scratch_sets;
  scratch_sets.reserve(steps);
  const auto scratch_start = Clock::now();
  for (const acn::ScenarioStep& step : generated) {
    acn::Characterizer characterizer(step.state, params.model);
    scratch_sets.push_back(characterizer.characterize_all());
  }
  result.scratch_ms_per_step = ms_since(scratch_start) / static_cast<double>(steps);

  double serial_ms = 0.0;
  const std::vector<acn::CharacterizationSets> serial_sets =
      run_engine(generated, params, 1, false, &result, nullptr, &serial_ms);
  result.serial_ms_per_step = serial_ms / static_cast<double>(steps);
  result.grid_ms_per_step /= static_cast<double>(steps);
  result.plane_ms_per_step /= static_cast<double>(steps);
  result.characterize_ms_per_step /= static_cast<double>(steps);
  result.families_mean /= static_cast<double>(steps);

  // Pooled path: hardware concurrency; in smoke mode an explicit 4-lane
  // pool, so the pool machinery is exercised even on single-core CI.
  double parallel_ms = 0.0;
  const std::vector<acn::CharacterizationSets> parallel_sets = run_engine(
      generated, params, smoke ? 4 : 0, smoke, nullptr, skew, &parallel_ms);
  result.parallel_ms_per_step = parallel_ms / static_cast<double>(steps);
  if (skew != nullptr) {
    const auto divisor = static_cast<double>(steps);
    skew->state_max /= divisor;
    skew->state_mean /= divisor;
    skew->plane_max /= divisor;
    skew->plane_mean /= divisor;
    skew->char_max /= divisor;
    skew->char_mean /= divisor;
  }

  for (std::size_t k = 0; k < generated.size(); ++k) {
    const auto& truth = scratch_sets[k];
    if (truth.isolated.size() + truth.massive.size() + truth.unresolved.size() !=
        generated[k].state.abnormal().size()) {
      result.ok = false;
    }
    // Byte-identical verdicts: incremental engine (any pool size) vs the
    // from-scratch rebuild — the pipeline's core guarantee.
    for (const auto* sets : {&serial_sets[k], &parallel_sets[k]}) {
      if (sets->isolated != truth.isolated || sets->massive != truth.massive ||
          sets->unresolved != truth.unresolved) {
        result.ok = false;
      }
    }
  }
  return result;
}

// --- telemetry on/off overhead -------------------------------------------

struct TelemetryOverhead {
  double off_ms_per_step = 0.0;  ///< min over reps
  double on_ms_per_step = 0.0;
  bool identical = true;  ///< every Decision field byte-identical on vs off
};

bool same_decision(const acn::Decision& a, const acn::Decision& b) {
  return a.cls == b.cls && a.rule == b.rule && a.exact == b.exact &&
         a.maximal_motion_count == b.maximal_motion_count &&
         a.dense_motion_count == b.dense_motion_count &&
         a.collections_tested == b.collections_tested;
}

/// Streams one generated scenario through two OnlineMonitors back to back —
/// telemetry off, then on — and times both. The telemetry layer only reads
/// interval outputs, so the verdict streams must match field for field;
/// a mismatch fails the bench (exit code), same as the scratch-vs-engine
/// conformance above.
TelemetryOverhead run_telemetry_overhead(std::size_t n, std::uint32_t errors,
                                         std::uint64_t steps, int reps) {
  acn::ScenarioParams params;
  params.n = n;
  params.errors_per_step = errors;
  params.seed = 42;
  std::vector<acn::ScenarioStep> generated;
  generated.reserve(steps);
  acn::ScenarioGenerator generator(params);
  for (std::uint64_t k = 0; k < steps; ++k) generated.push_back(generator.advance());

  const auto run = [&](bool telemetry,
                       std::vector<acn::IntervalReport>* reports) {
    acn::OnlineMonitor::Config config;
    config.model = params.model;
    if (telemetry) {
      config.telemetry = acn::obs::TelemetryConfig{.history = 64, .regions = 8};
    }
    acn::OnlineMonitor monitor(config);
    (void)monitor.observe(generated.front().state.prev(), acn::DeviceSet{});
    const auto start = Clock::now();
    for (const acn::ScenarioStep& step : generated) {
      acn::IntervalReport report =
          monitor.observe(step.state.curr(), step.state.abnormal());
      if (reports != nullptr) reports->push_back(std::move(report));
    }
    return ms_since(start) / static_cast<double>(generated.size());
  };

  TelemetryOverhead result;
  std::vector<acn::IntervalReport> off_reports;
  std::vector<acn::IntervalReport> on_reports;
  result.off_ms_per_step = run(false, &off_reports);
  result.on_ms_per_step = run(true, &on_reports);
  for (int rep = 1; rep < reps; ++rep) {
    result.off_ms_per_step = std::min(result.off_ms_per_step, run(false, nullptr));
    result.on_ms_per_step = std::min(result.on_ms_per_step, run(true, nullptr));
  }

  for (std::size_t k = 0; k < off_reports.size(); ++k) {
    const acn::IntervalReport& off = off_reports[k];
    const acn::IntervalReport& on = on_reports[k];
    if (off.abnormal != on.abnormal || off.isolated != on.isolated ||
        off.massive != on.massive || off.unresolved != on.unresolved ||
        off.decisions.size() != on.decisions.size()) {
      result.identical = false;
      continue;
    }
    for (std::size_t i = 0; i < off.decisions.size(); ++i) {
      if (!same_decision(off.decisions[i], on.decisions[i])) result.identical = false;
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  std::printf("# bench_characterize_all  d=2 r=0.03 tau=3 G=0.5 seed=42%s\n",
              smoke ? "  (smoke)" : "");
  std::printf(
      "| n | A | mean |A_k| | grid ms | plane ms | char ms | serial ms/step "
      "| parallel ms/step | scratch ms/step | ok |\n");
  std::printf("|---|---|---|---|---|---|---|---|---|---|\n");

  struct Cell {
    std::size_t n;
    std::uint32_t a;
    std::uint64_t steps;
  };
  // Device density (and so ball population and family sizes) grows with n;
  // fewer repetitions keep the large cells recordable quickly. The scale
  // row runs the identical pipeline at one million devices. A=80 at n=1M
  // is deliberately absent: at 20x the n=50000 ambient density the
  // 4r-closure components' motion-family arenas exceed a 128 GB machine
  // (std::bad_alloc) — streaming the per-component arenas is future work.
  const Cell cells_full[] = {
      {1000, 10, 5},   {1000, 40, 5},   {1000, 80, 5},
      {5000, 10, 3},   {5000, 40, 3},   {5000, 80, 3},
      {20000, 10, 2},  {20000, 40, 2},  {20000, 80, 2},
      {50000, 10, 2},  {50000, 40, 2},  {50000, 80, 2},
      {1000000, 10, 2},
  };
  const Cell cells_smoke[] = {{1000, 10, 2}};
  const Cell* cells = smoke ? cells_smoke : cells_full;
  const std::size_t cell_count =
      smoke ? sizeof(cells_smoke) / sizeof(Cell) : sizeof(cells_full) / sizeof(Cell);

  std::vector<LaneTiming> skew_rows(cell_count);
  std::vector<CellResult> cell_rows(cell_count);
  bool all_ok = true;
  for (std::size_t i = 0; i < cell_count; ++i) {
    cell_rows[i] = run_cell(cells[i].n, cells[i].a, cells[i].steps, smoke, &skew_rows[i]);
    const CellResult& cell = cell_rows[i];
    all_ok = all_ok && cell.ok;
    std::printf(
        "| %zu | %u | %.1f | %.3f | %.3f | %.3f | %.3f | %.3f | %.3f | %s |\n",
        cells[i].n, cells[i].a, cell.abnormal_mean, cell.grid_ms_per_step,
        cell.plane_ms_per_step, cell.characterize_ms_per_step,
        cell.serial_ms_per_step, cell.parallel_ms_per_step,
        cell.scratch_ms_per_step, cell.ok ? "yes" : "NO");
    std::fflush(stdout);
  }

  // Lane-skew table for the pooled engine: per phase, max vs mean busy ms
  // across the lanes that ran (max/mean gap = load imbalance the LPT
  // dispatch is there to close).
  std::printf("\n# phase skew (pooled engine, per-step lane busy ms, "
              "max/mean)\n");
  std::printf("| n | A | state | plane | characterize |\n");
  std::printf("|---|---|---|---|---|\n");
  for (std::size_t i = 0; i < cell_count; ++i) {
    const LaneTiming& row = skew_rows[i];
    std::printf("| %zu | %u | %.3f/%.3f | %.3f/%.3f | %.3f/%.3f |\n",
                cells[i].n, cells[i].a, row.state_max, row.state_mean,
                row.plane_max, row.plane_mean, row.char_max, row.char_mean);
  }
  // Plane arena table: the serial engine's worst-interval arena bytes and
  // the dense families characterize decided per step.
  std::printf("\n# plane arena (serial engine: worst-interval "
              "MotionPlane::arena_bytes(), distinct dense families per step)\n");
  std::printf("| n | A | arena max MB | families/step |\n");
  std::printf("|---|---|---|---|\n");
  for (std::size_t i = 0; i < cell_count; ++i) {
    std::printf("| %zu | %u | %.3f | %.1f |\n", cells[i].n, cells[i].a,
                static_cast<double>(cell_rows[i].arena_bytes_max) / (1024.0 * 1024.0),
                cell_rows[i].families_mean);
  }
  // Telemetry overhead: the same stream through the OnlineMonitor with the
  // telemetry layer off, then on, back to back (min over reps). The rows
  // are embedded JSON so record_bench.sh's regression gate joins them by
  // "name" like the hostile bench's rows.
  const std::size_t tel_n = smoke ? 1000 : 20000;
  const std::uint32_t tel_a = smoke ? 10 : 80;
  const std::uint64_t tel_steps = smoke ? 2 : 4;
  const int tel_reps = smoke ? 2 : 3;
  const TelemetryOverhead tel =
      run_telemetry_overhead(tel_n, tel_a, tel_steps, tel_reps);
  const double overhead_pct =
      tel.off_ms_per_step == 0.0
          ? 0.0
          : 100.0 * (tel.on_ms_per_step - tel.off_ms_per_step) /
                tel.off_ms_per_step;
  std::printf(
      "\n# telemetry overhead (OnlineMonitor, n=%zu A=%u, back-to-back, min "
      "of %d reps; verdicts must match field for field)\n",
      tel_n, tel_a, tel_reps);
  std::printf("{\"name\":\"telemetry-off\",\"ms_per_step\":%.3f}\n",
              tel.off_ms_per_step);
  std::printf(
      "{\"name\":\"telemetry-on\",\"ms_per_step\":%.3f,\"overhead_pct\":%.2f,"
      "\"identical\":%s}\n",
      tel.on_ms_per_step, overhead_pct, tel.identical ? "true" : "false");
  all_ok = all_ok && tel.identical;

  std::fflush(stdout);
  return all_ok ? 0 : 1;
}
