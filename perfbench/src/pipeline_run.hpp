// The end-to-end measurement: the generated schedule streamed through an
// IngestPipeline, as a closed loop from one synchronous source.
//
// One pass constructs a pipeline (telemetry on, one lane), primes it with
// S_0, then runs one cycle per burst — push_all(burst) + drain_ready() —
// and a last cycle for the end-of-stream finish() + drain_ready(). A cycle
// includes the seals, monitor, engine and telemetry work the burst
// triggers. Passes repeat over the same inputs until the run's time is
// spent; every pass is checked against the verdict oracle.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "ingest/pipeline.hpp"
#include "measure.hpp"
#include "verdicts.hpp"
#include "workloads.hpp"

namespace perfbench {

/// The pipeline configuration every pass uses.
acn::IngestPipeline::Config pipeline_config(const Inputs& inputs);

/// Reused buffers of a run, allocated and touched before any RSS baseline.
struct PassBuffers {
  std::vector<std::pair<acn::GatewayKey, acn::Point>> fleet;
  std::vector<acn::QosReport> burst;

  explicit PassBuffers(const Inputs& inputs);
};

struct Cycle {
  double start_ms = 0.0;  ///< since the pass started
  double ms = 0.0;
  std::vector<std::uint64_t> sealed;  ///< intervals this cycle sealed
};

struct PassResult {
  double setup_s = 0.0;
  std::vector<Cycle> cycles;
  double rss_mb = 0.0;  ///< highest RSS after a cycle minus the pre-setup RSS
  bool threw = false;
  acn::IngestCounters counters;  ///< the pipeline's own tallies at the end
  std::uint64_t degraded = 0;    ///< intervals sealed degraded
  std::uint64_t open_intervals_max = 0;  ///< from the telemetry ingest samples
  /// Index 1..K: the wall time of the monitor's observe() on that interval
  /// (the engine plus episode bookkeeping), as the pipeline's own telemetry
  /// recorded it during this pass.
  std::vector<double> observe_ms;
  std::uint64_t verdict_hash = 0;
};

/// One pass over the whole schedule. `sample_rss` reads the RSS before the
/// pipeline is built and after each cycle.
PassResult run_pass(const Inputs& inputs, PassBuffers& buffers,
                    VerdictLedger& ledger, bool sample_rss);

/// End-to-end figures of a set of passes.
struct EndToEnd {
  std::vector<double> cycle_ms;  ///< every cycle of every pass
  std::vector<double> setup_s;   ///< every setup of the run
  double rss_mb = 0.0;           ///< from the first pass
  std::uint64_t deliveries = 0;  ///< reports pushed, duplicates included
  std::size_t passes = 0;
  std::uint64_t verdict_hash = 0;  ///< of the first pass

  [[nodiscard]] double interval_ms_p50() const { return median(cycle_ms); }
  [[nodiscard]] Tail interval_ms_tail() const { return tail_of(cycle_ms); }
  [[nodiscard]] double reports_per_s() const;
  [[nodiscard]] double setup_median_s() const { return median(setup_s); }

  /// Folds one pass in.
  void add(const Inputs& inputs, const PassResult& pass);
};

/// Runs passes until `seconds` have elapsed (at least one), then tops the
/// setup samples up to a minimum with extra construct + prime rounds.
EndToEnd run_end_to_end(const Inputs& inputs, double seconds,
                        VerdictLedger& ledger);

}  // namespace perfbench
