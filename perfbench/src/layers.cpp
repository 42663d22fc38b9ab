#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/characterizer.hpp"
#include "core/frame.hpp"
#include "core/motion_plane.hpp"
#include "online/monitor.hpp"

namespace perfbench {

namespace {

/// Per-interval milliseconds, index 1..K (index 0 unused).
using Series = std::vector<double>;

class SpanLog {
 public:
  struct Span {
    const char* name;
    const char* parent;
    std::uint64_t trace;  ///< the interval id
    unsigned replay;
    double start_ms;  ///< since the traced run started
    double ms;
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  [[nodiscard]] double since_origin(Clock::time_point t) const {
    return ms_between(origin_, t);
  }
  void add(const char* name, const char* parent, std::uint64_t trace,
           unsigned replay, double start_ms, double ms) {
    spans_.push_back(Span{name, parent, trace, replay, start_ms, ms});
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::printf("# spans: cannot write %s\n", path.c_str());
      return;
    }
    for (const Span& s : spans_) {
      std::fprintf(file,
                   "{\"trace\":%llu,\"replay\":%u,\"name\":\"%s\","
                   "\"parent\":\"%s\",\"start_ms\":%.6f,\"ms\":%.6f}\n",
                   static_cast<unsigned long long>(s.trace), s.replay, s.name,
                   s.parent, s.start_ms, s.ms);
    }
    std::fclose(file);
    std::printf("# spans: %zu written to %s\n", spans_.size(), path.c_str());
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Stack 1: one pipeline pass. Each cycle's time goes to the intervals it
/// sealed, split evenly; a cycle that sealed nothing (the first burst only
/// stages) carries its time to the next seal, so the series sums to the
/// pass's total cycle time.
Series pipeline_stack(const Inputs& inputs, PassBuffers& buffers,
                      VerdictLedger& ledger, SpanLog& spans, unsigned replay,
                      PassResult& pass) {
  const Clock::time_point start = Clock::now();
  pass = run_pass(inputs, buffers, ledger, /*sample_rss=*/false);
  const double offset = spans.since_origin(start);
  Series series(inputs.intervals() + 1, 0.0);
  double carried = 0.0;
  for (const Cycle& cycle : pass.cycles) {
    const std::uint64_t trace = cycle.sealed.empty() ? 0 : cycle.sealed.front();
    spans.add("ingest.pipeline.cycle", "", trace, replay,
              offset + cycle.start_ms, cycle.ms);
    carried += cycle.ms;
    if (cycle.sealed.empty()) continue;
    const double share = carried / static_cast<double>(cycle.sealed.size());
    for (const std::uint64_t k : cycle.sealed) {
      if (k < series.size()) series[k] += share;
    }
    carried = 0.0;
  }
  return series;
}

/// Stack 2: a roster-mode OnlineMonitor driven the way the pipeline drives
/// it on seal — try_report per device in key order, then close_interval.
Series monitor_stack(const Inputs& inputs, const PassBuffers& buffers,
                     VerdictLedger& ledger, SpanLog& spans, unsigned replay,
                     bool telemetry) {
  acn::OnlineMonitor::Config config;
  config.model = inputs.spec.model;
  config.roster_capacity = inputs.n();
  config.roster_dim = inputs.dim;
  if (telemetry) config.telemetry = acn::obs::TelemetryConfig{};
  const char* name = telemetry ? "online.monitor.telemetry_on"
                               : "online.monitor.telemetry_off";
  StreamCheck check(inputs, ledger, name);
  Series series(inputs.intervals() + 1, 0.0);
  std::vector<acn::Point> claims;
  try {
    acn::OnlineMonitor monitor(config);
    for (const auto& [key, position] : buffers.fleet) monitor.admit(key, position);
    (void)monitor.close_interval({});
    for (std::size_t k = 1; k <= inputs.intervals(); ++k) {
      inputs.claims_into(k, claims);
      const std::vector<acn::GatewayKey> flagged(inputs.abnormal[k].begin(),
                                                 inputs.abnormal[k].end());
      const Clock::time_point start = Clock::now();
      for (std::size_t j = 0; j < claims.size(); ++j) {
        (void)monitor.try_report(static_cast<acn::GatewayKey>(j), claims[j]);
      }
      const acn::IntervalReport report = monitor.close_interval(flagged);
      series[k] = ms_between(start, Clock::now());
      spans.add(name, "ingest.pipeline.cycle", k, replay,
                spans.since_origin(start), series[k]);
      check.sealed(k, report.isolated, report.massive, report.unresolved);
    }
  } catch (const std::exception& error) {
    check.threw(error);
  }
  check.finish();
  return series;
}

/// Stack 3: FrameEngine::observe, with everything the engine reports.
struct EngineReplay {
  Series observe_ms;
  Series untimed_ms;  ///< observe wall time minus the FrameStats phases
  double state_ms = 0.0;
  double grid_ms = 0.0;
  double plane_ms = 0.0;
  double characterize_ms = 0.0;
  std::uint64_t moved = 0;
  std::uint64_t abnormal = 0;
  std::uint64_t components = 0;
  std::uint64_t motions = 0;
  std::uint64_t arena_bytes_max = 0;
  acn::OracleCounters plane;  ///< summed over intervals
  /// Decisions per DecisionRule (kBudgetExhausted is the last enumerator).
  std::uint64_t rules[static_cast<std::size_t>(acn::DecisionRule::kBudgetExhausted) + 1] = {};
  std::uint64_t t7_nodes = 0;
  // Lane skew of the fan-out phases (sums over intervals that fanned out).
  double enum_max_ms = 0.0;
  double enum_mean_ms = 0.0;
  double char_max_ms = 0.0;
  double char_mean_ms = 0.0;
  std::size_t fanned_out = 0;
};

EngineReplay engine_stack(const Inputs& inputs, VerdictLedger& ledger,
                          SpanLog& spans, unsigned replay, unsigned threads) {
  const char* name = threads == 1 ? "core.engine.observe" : "core.engine.observe.pooled";
  StreamCheck check(inputs, ledger, name);
  EngineReplay out;
  out.observe_ms.assign(inputs.intervals() + 1, 0.0);
  out.untimed_ms.assign(inputs.intervals() + 1, 0.0);
  acn::FrameEngine::Config config;
  config.model = inputs.spec.model;
  config.threads = threads;
  try {
    acn::FrameEngine engine(config);
    (void)engine.observe(inputs.snapshot(0), acn::DeviceSet{});
    for (std::size_t k = 1; k <= inputs.intervals(); ++k) {
      acn::Snapshot snapshot = inputs.snapshot(k);
      acn::DeviceSet abnormal = inputs.abnormal[k];
      const Clock::time_point start = Clock::now();
      const std::optional<acn::FrameEngine::Result> result =
          engine.observe(std::move(snapshot), std::move(abnormal));
      const double ms = ms_between(start, Clock::now());
      const acn::FrameStats& stats = engine.last_stats();
      out.observe_ms[k] = ms;
      out.untimed_ms[k] = ms - stats.total_ms();
      out.state_ms += stats.state_ms;
      out.grid_ms += stats.grid_ms;
      out.plane_ms += stats.plane_ms;
      out.characterize_ms += stats.characterize_ms;
      out.moved += stats.moved;
      out.abnormal += stats.abnormal;
      out.components += stats.components;
      out.motions += stats.motions;
      if (stats.plane_enum_lanes.lanes > 1 || stats.characterize_lanes.lanes > 1) {
        ++out.fanned_out;
        out.enum_max_ms += stats.plane_enum_lanes.max_ms;
        out.enum_mean_ms += stats.plane_enum_lanes.mean_ms;
        out.char_max_ms += stats.characterize_lanes.max_ms;
        out.char_mean_ms += stats.characterize_lanes.mean_ms;
      }
      if (const acn::MotionPlane* plane = engine.plane()) {
        const acn::OracleCounters& c = plane->counters();
        out.plane.neighbourhood_queries += c.neighbourhood_queries;
        out.plane.windows_explored += c.windows_explored;
        out.plane.covers_generated += c.covers_generated;
        out.plane.motions_stored += c.motions_stored;
        out.arena_bytes_max = std::max(out.arena_bytes_max, plane->arena_bytes());
      }
      const double at = spans.since_origin(start);
      spans.add(name, "online.monitor.telemetry_off", k, replay, at, ms);
      // The engine's phases run in this order; their starts are laid end
      // to end from the observe() start.
      double phase_at = at;
      const std::pair<const char*, double> phases[] = {
          {"core.engine.state", stats.state_ms},
          {"core.engine.grid", stats.grid_ms},
          {"core.engine.plane", stats.plane_ms},
          {"core.engine.characterize", stats.characterize_ms}};
      for (const auto& [phase, phase_ms] : phases) {
        spans.add(phase, name, k, replay, phase_at, phase_ms);
        phase_at += phase_ms;
      }
      if (!result.has_value()) {
        check.threw(std::runtime_error("observe returned no verdicts"));
        break;
      }
      for (const acn::Decision& d : result->decisions) {
        ++out.rules[static_cast<std::size_t>(d.rule)];
        out.t7_nodes += d.collections_tested;
      }
      check.sealed(k, result->sets.isolated, result->sets.massive,
                   result->sets.unresolved);
    }
  } catch (const std::exception& error) {
    check.threw(error);
  }
  check.finish();
  return out;
}

/// Stack 4: the from-scratch reference path, plane and characterization
/// timed apart. The StatePair is built outside the timed region.
void scratch_stack(const Inputs& inputs, VerdictLedger& ledger, SpanLog& spans,
                   unsigned replay, Series& plane_ms, Series& characterize_ms) {
  StreamCheck check(inputs, ledger, "core.scratch");
  plane_ms.assign(inputs.intervals() + 1, 0.0);
  characterize_ms.assign(inputs.intervals() + 1, 0.0);
  try {
    for (std::size_t k = 1; k <= inputs.intervals(); ++k) {
      const acn::StatePair state(inputs.snapshot(k - 1), inputs.snapshot(k),
                                 inputs.abnormal[k]);
      const Clock::time_point start = Clock::now();
      const acn::MotionPlane plane(state, inputs.spec.model);
      const Clock::time_point built = Clock::now();
      acn::Characterizer characterizer(plane);
      const acn::CharacterizationSets sets = characterizer.characterize_all();
      const Clock::time_point end = Clock::now();
      plane_ms[k] = ms_between(start, built);
      characterize_ms[k] = ms_between(built, end);
      spans.add("core.scratch.plane", "", k, replay, spans.since_origin(start),
                plane_ms[k]);
      spans.add("core.scratch.characterize", "", k, replay,
                spans.since_origin(built), characterize_ms[k]);
      check.sealed(k, sets.isolated, sets.massive, sets.unresolved);
    }
  } catch (const std::exception& error) {
    check.threw(error);
  }
  check.finish();
}

/// Per-interval median over replays.
Series median_series(const std::vector<Series>& replays) {
  Series out(replays.front().size(), 0.0);
  std::vector<double> samples;
  for (std::size_t k = 1; k < out.size(); ++k) {
    samples.clear();
    for (const Series& s : replays) samples.push_back(s[k]);
    out[k] = median(samples);
  }
  return out;
}

Series difference(const Series& upper, const Series& lower) {
  Series out(upper.size(), 0.0);
  for (std::size_t k = 1; k < out.size(); ++k) out[k] = upper[k] - lower[k];
  return out;
}

/// The K per-interval values (drops the unused index 0).
std::vector<double> values(const Series& s) {
  return std::vector<double>(s.begin() + 1, s.end());
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace

std::vector<Metric> run_layers(const Inputs& inputs, double seconds,
                               const EndToEnd& untraced, VerdictLedger& ledger,
                               const std::string& spans_path) {
  const Clock::time_point origin = Clock::now();
  const Clock::time_point deadline =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
  SpanLog spans(origin);
  PassBuffers buffers(inputs);

  std::vector<Series> pipeline, pipeline_observe, monitor_on, monitor_off, engine, untimed;
  std::vector<Series> scratch_plane, scratch_characterize;
  std::vector<double> state_ms, grid_ms, plane_ms, characterize_ms;
  EndToEnd traced;
  PassResult first_pass;
  EngineReplay first_engine;
  unsigned replay = 0;
  do {
    PassResult pass;
    pipeline.push_back(pipeline_stack(inputs, buffers, ledger, spans, replay, pass));
    traced.add(inputs, pass);
    pipeline_observe.push_back(pass.observe_ms);
    monitor_on.push_back(monitor_stack(inputs, buffers, ledger, spans, replay, true));
    monitor_off.push_back(monitor_stack(inputs, buffers, ledger, spans, replay, false));
    EngineReplay e = engine_stack(inputs, ledger, spans, replay, 1);
    engine.push_back(e.observe_ms);
    untimed.push_back(e.untimed_ms);
    state_ms.push_back(e.state_ms);
    grid_ms.push_back(e.grid_ms);
    plane_ms.push_back(e.plane_ms);
    characterize_ms.push_back(e.characterize_ms);
    Series sp, sc;
    scratch_stack(inputs, ledger, spans, replay, sp, sc);
    scratch_plane.push_back(std::move(sp));
    scratch_characterize.push_back(std::move(sc));
    if (replay == 0) {
      first_pass = std::move(pass);
      first_engine = std::move(e);
    }
    ++replay;
  } while (Clock::now() < deadline);
  const EngineReplay pooled = engine_stack(inputs, ledger, spans, replay, 0);
  spans.write(spans_path);

  const Series pipe = median_series(pipeline);
  const Series piped_observe = median_series(pipeline_observe);
  const Series on = median_series(monitor_on);
  const Series off = median_series(monitor_off);
  const Series eng = median_series(engine);
  const Series eng_untimed = median_series(untimed);
  const Series s_plane = median_series(scratch_plane);
  const Series s_char = median_series(scratch_characterize);
  const Series ingest_self = difference(pipe, on);
  const Series obs_self = difference(on, off);
  const Series online_self = difference(off, eng);

  std::printf("# traced run: %u replays of every stack, %zu intervals each\n",
              replay, inputs.intervals());
  std::printf("# per interval (ms, medians over replays): k | pipeline | "
              "ingest.self | obs.telemetry | online.self | engine.observe | "
              "engine.untimed | monitor.observe in the pipeline (its telemetry) | "
              "scratch.plane+characterize\n");
  std::size_t negative = 0;
  for (std::size_t k = 1; k <= inputs.intervals(); ++k) {
    for (const Series* s : {&ingest_self, &obs_self, &online_self}) {
      if ((*s)[k] < 0.0) ++negative;
    }
    std::printf("#   %zu | %.3f | %.3f | %.3f | %.3f | %.3f | %.3f | %.3f | %.3f\n", k,
                pipe[k], ingest_self[k], obs_self[k], online_self[k], eng[k],
                eng_untimed[k], piped_observe[k], s_plane[k] + s_char[k]);
  }

  const acn::IngestCounters& c = first_pass.counters;
  const std::uint64_t deliveries = c.accepted + c.duplicates + c.superseded +
                                   c.late_sealed + c.future_rejected +
                                   c.shed_claims;
  const EngineReplay& e = first_engine;
  const double engine_sum = sum_of(values(eng));
  const double scratch_sum = sum_of(values(s_plane)) + sum_of(values(s_char));
  const double pipe_sum = sum_of(values(pipe));
  // The stack differences above the engine telescope to the pipeline minus
  // the standalone engine replay, so the engine's share of the sum is taken
  // from a measurement of its own: the monitor's observe() time that the
  // pipeline's telemetry recorded in the same passes. The gap is then the
  // replayed engine minus the engine as it ran inside the pipeline, and
  // engine time the split puts in the wrong layer shows in it.
  const double gap = pipe_sum - (sum_of(values(ingest_self)) + sum_of(values(obs_self)) +
                                 sum_of(values(online_self)) +
                                 sum_of(values(piped_observe)));
  const Tail untraced_tail = untraced.interval_ms_tail();
  const std::string program = "program-reported";

  std::vector<Metric> m;
  const auto add = [&](std::string name, double value, std::string unit,
                       std::string note = "") {
    m.push_back(Metric{std::move(name), value, std::move(unit), std::move(note)});
  };
  const auto count = [&](std::string name, std::uint64_t value, std::string note) {
    add(std::move(name), static_cast<double>(value), "count", std::move(note));
  };

  add("ingest.self_ms_p50", median(values(ingest_self)), "ms",
      "pipeline cycle minus monitor with telemetry, per interval");
  add("ingest.self_ms_sum", sum_of(values(ingest_self)), "ms");
  count("ingest.deliveries", deliveries, program + " IngestCounters, every push outcome");
  count("ingest.duplicates", c.duplicates, program + " IngestCounters");
  // Every listed workload stays inside its lateness budget, so these read 0
  // on a correct run; they are printed, not reported as metrics.
  std::printf("# ingest (program-reported): late_sealed=%llu replayed_claims=%llu "
              "degraded_intervals=%llu\n",
              static_cast<unsigned long long>(c.late_sealed),
              static_cast<unsigned long long>(c.replayed_claims),
              static_cast<unsigned long long>(first_pass.degraded));
  count("ingest.open_intervals_max", first_pass.open_intervals_max,
        program + " telemetry IngestSample::open_intervals");
  add("online.self_ms_p50", median(values(online_self)), "ms",
      "monitor without telemetry minus FrameEngine::observe, per interval");
  add("online.self_ms_sum", sum_of(values(online_self)), "ms");
  add("obs.telemetry_ms_p50", median(values(obs_self)), "ms",
      "monitor with telemetry minus without, per interval");
  add("obs.telemetry_ms_sum", sum_of(values(obs_self)), "ms");
  add("core.engine.observe_ms_p50", median(values(eng)), "ms");
  add("core.engine.observe_ms_max",
      *std::max_element(eng.begin() + 1, eng.end()), "ms");
  add("core.engine.observe_ms_sum", engine_sum, "ms");
  add("core.engine.state_ms", median(state_ms), "ms", program + " FrameStats, summed");
  add("core.engine.grid_ms", median(grid_ms), "ms", program + " FrameStats, summed");
  add("core.engine.plane_ms", median(plane_ms), "ms", program + " FrameStats, summed");
  add("core.engine.characterize_ms", median(characterize_ms), "ms",
      program + " FrameStats, summed");
  count("core.engine.moved", e.moved, program + " FrameStats, summed");
  count("core.engine.abnormal", e.abnormal, program + " FrameStats, summed");
  count("core.engine.components", e.components, program + " FrameStats, summed");
  count("core.engine.motions", e.motions, program + " FrameStats, summed");
  add("core.engine.untimed_ms_p50", median(values(eng_untimed)), "ms",
      "observe wall time minus the FrameStats phases, per interval");
  add("core.engine.untimed_ms_sum", sum_of(values(eng_untimed)), "ms");
  add("core.plane.arena_bytes_max", static_cast<double>(e.arena_bytes_max), "bytes",
      program + " MotionPlane::arena_bytes, worst interval");
  count("core.plane.neighbourhood_queries", e.plane.neighbourhood_queries,
        program + " MotionPlane::counters, summed");
  count("core.plane.windows_explored", e.plane.windows_explored,
        program + " MotionPlane::counters, summed");
  count("core.plane.covers_generated", e.plane.covers_generated,
        program + " MotionPlane::counters, summed");
  count("core.plane.motions_stored", e.plane.motions_stored,
        program + " MotionPlane::counters, summed");
  add("core.plane.covers_per_motion",
      ratio(static_cast<double>(e.plane.covers_generated),
            static_cast<double>(e.plane.motions_stored)),
      "ratio", "base: covers_generated / motions_stored, summed over intervals");
  const std::pair<const char*, acn::DecisionRule> rules[] = {
      {"core.characterize.rule.theorem5", acn::DecisionRule::kTheorem5},
      {"core.characterize.rule.theorem6", acn::DecisionRule::kTheorem6},
      {"core.characterize.rule.corollary8", acn::DecisionRule::kCorollary8}};
  for (const auto& [name, rule] : rules) {
    count(name, e.rules[static_cast<std::size_t>(rule)], program + " Decision::rule");
  }
  // No listed workload decides a device by Theorem 7 or runs out of search
  // budget, so these two read 0; they are printed, not reported as metrics.
  std::printf("# characterize (program-reported Decision::rule): theorem7=%llu "
              "budget_exhausted=%llu\n",
              static_cast<unsigned long long>(
                  e.rules[static_cast<std::size_t>(acn::DecisionRule::kTheorem7)]),
              static_cast<unsigned long long>(
                  e.rules[static_cast<std::size_t>(acn::DecisionRule::kBudgetExhausted)]));
  count("core.characterize.t7_nodes", e.t7_nodes,
        program + " Decision::collections_tested, summed");
  add("core.scratch.plane_ms", sum_of(values(s_plane)), "ms",
      "from-scratch MotionPlane(state, params), summed");
  add("core.scratch.characterize_ms", sum_of(values(s_char)), "ms",
      "Characterizer(plane).characterize_all(), summed");
  add("core.engine_vs_scratch", ratio(engine_sum, scratch_sum), "ratio",
      "base: engine observe ms / scratch plane + characterize ms, summed");
  add("common.pool.speedup", ratio(engine_sum, sum_of(values(pooled.observe_ms))),
      "ratio",
      "base: 1-lane observe ms / " + std::to_string(std::thread::hardware_concurrency()) +
          "-lane observe ms, summed (one pooled replay)");
  const std::string skew_base =
      pooled.fanned_out == 0
          ? "no interval fanned out; 1 by definition"
          : "base: max lane ms / mean lane ms, summed over " +
                std::to_string(pooled.fanned_out) + " fanned-out intervals";
  add("common.pool.plane_enum_skew",
      pooled.enum_mean_ms > 0.0 ? pooled.enum_max_ms / pooled.enum_mean_ms : 1.0,
      "ratio", skew_base);
  add("common.pool.characterize_skew",
      pooled.char_mean_ms > 0.0 ? pooled.char_max_ms / pooled.char_mean_ms : 1.0,
      "ratio", skew_base);
  // The traced pipeline stack times the same run_pass code as the untraced
  // run and records its spans after the pass returns, so these differences
  // hold no span-recording cost: they measure how the interleaved layer
  // replays (heap and cache state) disturb the pipeline, traced-phase
  // interference rather than tracing overhead.
  const std::string interference = "traced-phase interference, not span cost: ";
  add("trace.overhead.interval_ms_p50",
      traced.interval_ms_p50() - untraced.interval_ms_p50(), "ms",
      interference + "traced pipeline stack minus the untraced run");
  add("trace.overhead.interval_ms_tail",
      percentile_of(traced.cycle_ms, untraced_tail.percentile) - untraced_tail.value,
      "ms", interference + "traced minus untraced, at the untraced tail percentile");
  add("trace.overhead.reports_per_s",
      traced.reports_per_s() - untraced.reports_per_s(), "reports/s",
      interference + "traced minus untraced");
  add("trace.overhead.setup_s", traced.setup_median_s() - untraced.setup_median_s(),
      "s", interference + "traced minus untraced");
  add("trace.attribution_gap_ms", gap, "ms",
      "summed pipeline cycles minus the summed self times of ingest, obs and "
      "online and the monitor observe() time the pipeline's telemetry recorded");
  add("trace.attribution_gap_share", ratio(gap, pipe_sum), "ratio",
      "base: attribution gap / summed pipeline cycles");
  count("trace.negative_self_intervals", negative,
        "interval-layer pairs whose self time came out below zero");
  return m;
}

}  // namespace perfbench
