// perfbench_e2e: QoS reports in, verdicts out, through IngestPipeline.
//
// Usage:
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 [--tiny] [--spans FILE] [--commit SHA]
//
// Generates the workload's inputs from the seed, then streams them through
// the pipeline for S seconds (closed loop, one synchronous source, one
// lane, telemetry on) and checks every sealed interval against the
// from-scratch Characterizer. --trace 0 reports the end-to-end metrics;
// --trace 1 spends half the time on the same untraced measurement and half
// on the layer stacks (see layers.hpp) and reports the per-layer metrics.
// Every figure is printed as "metric NAME = VALUE UNIT"; the last line of
// standard output is one JSON object {correct, attempted, failed, metrics}.
// --tiny shrinks every workload to the self-test size.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "core/kernels/kernels.hpp"
#include "layers.hpp"
#include "measure.hpp"
#include "obs/telemetry.hpp"
#include "pipeline_run.hpp"
#include "verdicts.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool tiny = false;
  std::string spans;
  std::string commit = "unavailable";
};

[[noreturn]] void usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_e2e --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--spans FILE] [--commit SHA]\n"
               "workloads:",
               error);
  for (const std::string& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') args.seconds = 0.0;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") == 0) args.trace = 0;
      if (std::strcmp(value, "1") == 0) args.trace = 1;
    } else if (flag == "--spans") {
      args.spans = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed must be a whole number");
  if (!(args.seconds > 0.0) || !std::isfinite(args.seconds)) {
    usage("--seconds must be a positive number");
  }
  if (args.trace < 0) usage("--trace must be 0 or 1");
  return args;
}

void print_metric(const perfbench::Metric& m) {
  std::printf("metric %s = %.6g %s%s%s%s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.empty() ? "" : "  (", m.note.c_str(),
              m.note.empty() ? "" : ")");
}

void print_result(bool correct, const perfbench::VerdictLedger& ledger,
                  const std::vector<perfbench::Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ledger.attempted),
              static_cast<unsigned long long>(ledger.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const perfbench::Metric& m = metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  perfbench::WorkloadSpec spec;
  try {
    spec = perfbench::workload_spec(args.workload, args.tiny);
  } catch (const std::exception& error) {
    usage(error.what());
  }

  std::printf(
      "# run: workload=%s seed=%llu seconds=%g trace=%d nproc=%u kernels=%s "
      "build=%s commit=%s%s\n",
      spec.name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace, std::thread::hardware_concurrency(), acn::kernels::dispatch_name(),
      PERFBENCH_BUILD_TYPE, args.commit.c_str(), args.tiny ? " size=tiny" : "");
  std::printf(
      "# workload: n=%zu A=%u r=%.6g tau=%u (%s) intervals=%zu delivery=%s\n",
      spec.n, spec.errors, spec.model.r, spec.model.tau, spec.regime.c_str(),
      spec.intervals,
      spec.hostile ? "combined-stress, reorder n/2, 30% duplicates"
                   : "in order, exactly once");
  std::fflush(stdout);

  const perfbench::Inputs inputs = perfbench::generate(spec, args.seed);
  std::printf(
      "# inputs: deliveries=%zu bursts=%zu fingerprint=%016llx generated in "
      "%.2f s (oracle %.2f s)\n",
      inputs.schedule.size(), inputs.bursts(),
      static_cast<unsigned long long>(inputs.fingerprint), inputs.generate_s,
      inputs.oracle_s);
  const acn::IngestPipeline::Config config = perfbench::pipeline_config(inputs);
  const acn::obs::TelemetryConfig& telemetry = *config.monitor.telemetry;
  std::printf(
      "# pipeline: lanes=%u telemetry=history:%zu,regions:%u,lanes:%u "
      "allowed_lag=%llu\n",
      config.monitor.characterize_threads, telemetry.history, telemetry.regions,
      telemetry.lanes, static_cast<unsigned long long>(config.watermark.allowed_lag));
  std::fflush(stdout);

  perfbench::VerdictLedger ledger;
  const double e2e_seconds = args.trace == 1 ? args.seconds / 2.0 : args.seconds;
  const perfbench::EndToEnd e2e =
      perfbench::run_end_to_end(inputs, e2e_seconds, ledger);
  const perfbench::Tail tail = e2e.interval_ms_tail();
  const std::vector<perfbench::Metric> end_to_end = {
      {"interval_ms_p50", e2e.interval_ms_p50(), "ms",
       std::to_string(e2e.cycle_ms.size()) + " cycles, " +
           std::to_string(e2e.passes) + " passes"},
      {"interval_ms_tail", tail.value, "ms",
       "p" + std::to_string(tail.percentile).substr(0, 5) + " of " +
           std::to_string(tail.samples) + " cycles"},
      {"reports_per_s", e2e.reports_per_s(), "reports/s",
       std::to_string(e2e.deliveries) + " deliveries over the summed cycle time"},
      {"setup_s", e2e.setup_median_s(), "s",
       "median of " + std::to_string(e2e.setup_s.size()) + " construct + prime"},
      {"pipeline_rss_mb", e2e.rss_mb, "MB", "first pass, over the pre-setup RSS"},
  };
  for (const perfbench::Metric& m : end_to_end) print_metric(m);
  // Per-pass medians show how much of the spread is the machine, not the
  // pipeline: the inputs of every pass are identical.
  const std::size_t per_pass = inputs.bursts() + 1;
  std::printf("# pass medians (ms):");
  for (std::size_t p = 0; p + per_pass <= e2e.cycle_ms.size(); p += per_pass) {
    std::printf(" %.1f", perfbench::median(std::vector<double>(
                             e2e.cycle_ms.begin() + p,
                             e2e.cycle_ms.begin() + p + per_pass)));
  }
  std::printf("\n");

  std::vector<perfbench::Metric> layers;
  if (args.trace == 1) {
    layers = perfbench::run_layers(inputs, args.seconds / 2.0, e2e, ledger, args.spans);
    for (const perfbench::Metric& m : layers) print_metric(m);
  }

  print_metric({"failed_interval_ratio", ledger.failed_ratio(), "ratio",
                std::to_string(ledger.failed) + " of " +
                    std::to_string(ledger.attempted) + " intervals"});
  const std::uint64_t want = perfbench::expected_hash(inputs);
  std::printf("# verdict stream hash=%016llx (from-scratch reference %016llx)\n",
              static_cast<unsigned long long>(e2e.verdict_hash),
              static_cast<unsigned long long>(want));
  for (const std::string& note : ledger.notes) {
    std::printf("# failure: %s\n", note.c_str());
  }

  const bool correct = ledger.attempted > 0 && ledger.failed == 0;
  print_result(correct, ledger, args.trace == 1 ? layers : end_to_end);
  return 0;
}
