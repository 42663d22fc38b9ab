#include "pipeline_run.hpp"

#include <algorithm>
#include <exception>
#include <optional>

#include "obs/telemetry.hpp"

namespace perfbench {

namespace {

/// Setups measured per run at the least, for a steady setup_s median.
constexpr std::size_t kMinSetups = 5;

std::size_t largest_burst(const Inputs& inputs) {
  std::size_t largest = 0;
  for (std::size_t b = 0; b < inputs.bursts(); ++b) {
    largest = std::max(largest, inputs.burst_begin[b + 1] - inputs.burst_begin[b]);
  }
  return largest;
}

}  // namespace

acn::IngestPipeline::Config pipeline_config(const Inputs& inputs) {
  acn::IngestPipeline::Config config;
  config.monitor.model = inputs.spec.model;
  config.monitor.characterize_threads = 1;
  config.monitor.telemetry = acn::obs::TelemetryConfig{};
  config.capacity = inputs.n();
  config.dim = inputs.dim;
  config.watermark.allowed_lag = inputs.spec.allowed_lag;
  return config;
}

PassBuffers::PassBuffers(const Inputs& inputs)
    : fleet(inputs.fleet()), burst(largest_burst(inputs)) {}

PassResult run_pass(const Inputs& inputs, PassBuffers& buffers,
                    VerdictLedger& ledger, bool sample_rss) {
  PassResult result;
  result.observe_ms.assign(inputs.intervals() + 1, 0.0);
  StreamCheck check(inputs, ledger, "pipeline");
  double baseline_mb = 0.0;
  if (sample_rss) {
    release_free_memory();
    baseline_mb = rss_mb();
  }

  const Clock::time_point pass_start = Clock::now();
  std::optional<acn::IngestPipeline> pipeline;
  const auto on_sealed = [&](const std::vector<acn::ClosedInterval>& closed,
                             Cycle& cycle) {
    for (const acn::ClosedInterval& c : closed) {
      cycle.sealed.push_back(c.interval);
      if (c.degraded) ++result.degraded;
      check.sealed(c.interval, c.report.isolated, c.report.massive,
                   c.report.unresolved, c.degraded, c.forced);
    }
  };
  try {
    pipeline.emplace(pipeline_config(inputs));
    pipeline->prime(buffers.fleet);
    result.setup_s = ms_between(pass_start, Clock::now()) / 1000.0;

    // bursts() cycles of push_all, then the end-of-stream cycle.
    for (std::size_t b = 0; b <= inputs.bursts(); ++b) {
      const bool last = b == inputs.bursts();
      if (!last) inputs.materialize(b, buffers.burst);
      Cycle cycle;
      const Clock::time_point start = Clock::now();
      if (last) {
        pipeline->finish();
      } else {
        pipeline->push_all(buffers.burst);
      }
      const std::vector<acn::ClosedInterval> closed = pipeline->drain_ready();
      const Clock::time_point end = Clock::now();
      cycle.start_ms = ms_between(pass_start, start);
      cycle.ms = ms_between(start, end);
      if (sample_rss) result.rss_mb = std::max(result.rss_mb, rss_mb() - baseline_mb);
      on_sealed(closed, cycle);
      result.cycles.push_back(std::move(cycle));
    }
  } catch (const std::exception& error) {
    check.threw(error);
    result.threw = true;
  }
  check.finish();
  result.verdict_hash = check.hash();

  if (pipeline.has_value()) {
    result.counters = pipeline->counters();
    if (const acn::obs::TelemetryHub* hub = pipeline->monitor().telemetry()) {
      const acn::obs::TelemetryStore& store = hub->store();
      for (std::size_t i = 0; i < store.size(); ++i) {
        const acn::obs::IntervalTelemetry& record = store.from_latest(i);
        if (record.interval < result.observe_ms.size()) {
          result.observe_ms[record.interval] = record.total_ms;
        }
        if (record.ingest.has_value()) {
          result.open_intervals_max =
              std::max(result.open_intervals_max, record.ingest->open_intervals);
        }
      }
    }
  }
  return result;
}

double EndToEnd::reports_per_s() const {
  const double seconds = sum_of(cycle_ms) / 1000.0;
  return seconds > 0.0 ? static_cast<double>(deliveries) / seconds : 0.0;
}

void EndToEnd::add(const Inputs& inputs, const PassResult& pass) {
  if (passes == 0) {
    rss_mb = pass.rss_mb;
    verdict_hash = pass.verdict_hash;
  }
  ++passes;
  setup_s.push_back(pass.setup_s);
  for (const Cycle& cycle : pass.cycles) cycle_ms.push_back(cycle.ms);
  // A pass that threw pushed only part of the schedule; count what it did.
  const std::size_t bursts_pushed =
      std::min(pass.cycles.size(), inputs.bursts());
  deliveries += inputs.burst_begin[bursts_pushed];
}

EndToEnd run_end_to_end(const Inputs& inputs, double seconds,
                        VerdictLedger& ledger) {
  PassBuffers buffers(inputs);
  EndToEnd e2e;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  bool threw = false;
  do {
    const PassResult pass = run_pass(inputs, buffers, ledger, e2e.passes == 0);
    e2e.add(inputs, pass);
    threw = pass.threw;
  } while (!threw && Clock::now() < deadline);

  while (!threw && e2e.setup_s.size() < kMinSetups) {
    const Clock::time_point start = Clock::now();
    acn::IngestPipeline pipeline(pipeline_config(inputs));
    pipeline.prime(buffers.fleet);
    e2e.setup_s.push_back(ms_between(start, Clock::now()) / 1000.0);
  }
  return e2e;
}

}  // namespace perfbench
