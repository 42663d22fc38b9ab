// The traced run: each interval's wall time split across the modules.
//
// The traced run replays the workload's intervals through a stack of
// public entry points, one layer lower at each step, and times every
// interval in every stack:
//   1. the pipeline cycle (ingest -> online -> obs -> core);
//   2. a roster-mode OnlineMonitor fed through try_report + close_interval,
//      the pipeline's own front door, with telemetry on and then off;
//   3. FrameEngine::observe;
//   4. the from-scratch MotionPlane(state, params) followed by
//      Characterizer(plane).characterize_all().
// A layer's self time on an interval is the stack that includes it minus
// the stack below it, on the same interval (per-interval medians over the
// replays). Counters the program already exposes (IngestCounters,
// FrameStats, MotionPlane counters, Decision rules) are reported as
// program-reported counts. Spans are kept in memory and written out at the
// end, one JSON object per line; the interval id is the trace id.
#pragma once

#include <string>
#include <vector>

#include "measure.hpp"
#include "pipeline_run.hpp"
#include "verdicts.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Runs the layer stacks for about `seconds` (every stack at least once),
/// plus one pooled engine replay at hardware-concurrency lanes. `untraced`
/// is the same run's untraced end-to-end measurement, for the traced-phase
/// interference. Writes spans to `spans_path` unless it is empty.
std::vector<Metric> run_layers(const Inputs& inputs, double seconds,
                               const EndToEnd& untraced, VerdictLedger& ledger,
                               const std::string& spans_path);

}  // namespace perfbench
