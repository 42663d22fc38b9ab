// acn_cli — characterize anomalies from CSV snapshots.
//
// Usage:
//   acn_cli characterize <snapshots.csv> --r 0.03 --tau 3 [--csv]
//   acn_cli demo [--n 500] [--errors 10] [--seed 1] [--r 0.03] [--tau 3]
//   acn_cli telemetry [--family F|list] [--n N] [--seed S] [--intervals K]
//                     [--regions G] [--window W] [--format prom|json]
//                     [--query anomaly-rate|verdict-mix|ms-percentiles|
//                      degraded-rate [--region I]] [--watch]
//
// Input format for `characterize` (one row per device):
//   device_id, prev_1..prev_d, curr_1..curr_d, abnormal(0|1)
// The dimension d is inferred from the column count (columns = 2 + 2d).
//
// `demo` generates one interval of the paper's §VII-A workload and
// characterizes it — a no-input way to see the library run.
//
// `telemetry` streams a hostile family through a telemetry-enabled
// OnlineMonitor and then either dumps the whole hub (--format prom|json),
// answers one trailing-window query (--query, optionally per --region), or
// tails one line per interval while streaming (--watch). This is the
// operator's view of the telemetry layer: the same store and exporters a
// deployment would scrape.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "core/report.hpp"
#include "obs/export.hpp"
#include "online/monitor.hpp"
#include "sim/hostile.hpp"
#include "sim/scenario.hpp"

namespace {

struct Options {
  double r = 0.03;
  std::uint32_t tau = 3;
  bool csv_output = false;
  std::size_t n = 500;
  std::uint32_t errors = 10;
  std::uint64_t seed = 1;
};

void usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  acn_cli characterize <snapshots.csv> [--r R] [--tau T] [--csv]\n"
      "  acn_cli demo [--n N] [--errors A] [--seed S] [--r R] [--tau T]\n"
      "  acn_cli telemetry [--family F|list] [--n N] [--seed S]\n"
      "                    [--intervals K] [--regions G] [--window W]\n"
      "                    [--format prom|json] [--query Q [--region I]]\n"
      "                    [--watch]\n"
      "    Q: anomaly-rate | verdict-mix | ms-percentiles | degraded-rate\n");
}

Options parse_flags(int argc, char** argv, int first) {
  Options options;
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto need_value = [&](const char* name) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        std::exit(2);
      }
      return std::string(argv[++i]);
    };
    if (flag == "--r") {
      options.r = std::atof(need_value("--r").c_str());
    } else if (flag == "--tau") {
      options.tau = static_cast<std::uint32_t>(std::atoi(need_value("--tau").c_str()));
    } else if (flag == "--csv") {
      options.csv_output = true;
    } else if (flag == "--n") {
      options.n = static_cast<std::size_t>(std::atoll(need_value("--n").c_str()));
    } else if (flag == "--errors") {
      options.errors =
          static_cast<std::uint32_t>(std::atoi(need_value("--errors").c_str()));
    } else if (flag == "--seed") {
      options.seed =
          static_cast<std::uint64_t>(std::atoll(need_value("--seed").c_str()));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      std::exit(2);
    }
  }
  return options;
}

acn::StatePair load_state(const std::string& path) {
  const auto rows = acn::read_csv_file(path);
  if (rows.empty()) throw std::runtime_error("empty CSV");
  std::size_t start = 0;
  // Skip a header row if the first cell is not numeric.
  if (!rows[0].empty() && rows[0][0].find_first_not_of("0123456789") !=
                              std::string::npos) {
    start = 1;
  }
  const std::size_t columns = rows[start].size();
  if (columns < 4 || (columns - 2) % 2 != 0) {
    throw std::runtime_error("expected columns: id, prev_1..d, curr_1..d, abnormal");
  }
  const std::size_t d = (columns - 2) / 2;

  std::vector<acn::Point> prev;
  std::vector<acn::Point> curr;
  std::vector<acn::DeviceId> abnormal;
  for (std::size_t rix = start; rix < rows.size(); ++rix) {
    const auto& row = rows[rix];
    if (row.size() != columns) {
      throw std::runtime_error("ragged CSV row " + std::to_string(rix));
    }
    std::vector<double> p(d);
    std::vector<double> c(d);
    for (std::size_t i = 0; i < d; ++i) {
      p[i] = std::atof(row[1 + i].c_str());
      c[i] = std::atof(row[1 + d + i].c_str());
    }
    prev.emplace_back(std::span<const double>(p));
    curr.emplace_back(std::span<const double>(c));
    if (std::atoi(row[1 + 2 * d].c_str()) != 0) {
      abnormal.push_back(static_cast<acn::DeviceId>(prev.size() - 1));
    }
  }
  return acn::StatePair(acn::Snapshot(std::move(prev)),
                        acn::Snapshot(std::move(curr)),
                        acn::DeviceSet(std::move(abnormal)));
}

int run_characterize(const std::string& path, const Options& options) {
  const acn::StatePair state = load_state(path);
  const acn::Params params{.r = options.r, .tau = options.tau};
  const acn::CharacterizationReport report = acn::make_report(state, params);
  std::fputs(options.csv_output ? report.to_csv().c_str()
                                : report.to_text().c_str(),
             stdout);
  return 0;
}

int run_demo(const Options& options) {
  acn::ScenarioParams params;
  params.n = options.n;
  params.d = 2;
  params.model = {.r = options.r, .tau = options.tau};
  params.errors_per_step = options.errors;
  params.isolated_probability = 0.4;
  params.seed = options.seed;
  params.apply_calibrated_profile();
  acn::ScenarioGenerator generator(params);
  const acn::ScenarioStep step = generator.advance();

  const acn::CharacterizationReport report =
      acn::make_report(step.state, params.model);
  if (options.csv_output) {
    std::fputs(report.to_csv().c_str(), stdout);
    return 0;
  }
  std::printf("generated interval: n=%zu errors=%u |A_k|=%zu (seed %llu)\n\n",
              params.n, options.errors, step.truth.abnormal.size(),
              static_cast<unsigned long long>(options.seed));
  std::fputs(report.to_text().c_str(), stdout);

  // Score against the generator's ground truth.
  std::size_t correct = 0;
  std::size_t decided = 0;
  for (std::size_t i = 0; i < report.decisions.size(); ++i) {
    const acn::Decision& decision = report.decisions[i];
    if (decision.cls == acn::AnomalyClass::kUnresolved) continue;
    ++decided;
    const bool truly_massive = step.truth.truly_massive.contains(report.abnormal[i]);
    if ((decision.cls == acn::AnomalyClass::kMassive) == truly_massive) ++correct;
  }
  std::printf("\nground truth: %zu/%zu decided verdicts correct\n", correct, decided);
  return 0;
}

// --- telemetry subcommand ------------------------------------------------

struct TelemetryOptions {
  std::string family = "regional-outage";
  std::size_t n = 400;
  std::uint64_t seed = 2014;
  int intervals = 24;
  std::uint32_t regions = 8;
  std::size_t window = 8;
  std::string format = "json";  ///< prom | json
  std::string query;            ///< empty = full dump
  int region = -1;              ///< -1 = fleet-wide
  bool watch = false;
};

TelemetryOptions parse_telemetry_flags(int argc, char** argv, int first) {
  TelemetryOptions options;
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto need_value = [&](const char* name) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        std::exit(2);
      }
      return std::string(argv[++i]);
    };
    if (flag == "--family") options.family = need_value("--family");
    else if (flag == "--n") {
      options.n = static_cast<std::size_t>(std::atoll(need_value("--n").c_str()));
    } else if (flag == "--seed") {
      options.seed =
          static_cast<std::uint64_t>(std::atoll(need_value("--seed").c_str()));
    } else if (flag == "--intervals") {
      options.intervals = std::atoi(need_value("--intervals").c_str());
    } else if (flag == "--regions") {
      options.regions =
          static_cast<std::uint32_t>(std::atoi(need_value("--regions").c_str()));
    } else if (flag == "--window") {
      options.window =
          static_cast<std::size_t>(std::atoll(need_value("--window").c_str()));
    } else if (flag == "--format") options.format = need_value("--format");
    else if (flag == "--query") options.query = need_value("--query");
    else if (flag == "--region") {
      options.region = std::atoi(need_value("--region").c_str());
    } else if (flag == "--watch") options.watch = true;
    else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      std::exit(2);
    }
  }
  return options;
}

int run_telemetry(const TelemetryOptions& options) {
  const std::vector<acn::HostileSpec> suite =
      acn::standard_hostile_suite(options.n, options.seed);
  if (options.family == "list") {
    for (const acn::HostileSpec& spec : suite) {
      std::printf("%-20s %s\n", spec.name.c_str(), spec.violates.c_str());
    }
    return 0;
  }
  const acn::HostileSpec* spec = nullptr;
  for (const acn::HostileSpec& candidate : suite) {
    if (candidate.name == options.family) spec = &candidate;
  }
  if (spec == nullptr) {
    std::fprintf(stderr,
                 "unknown family '%s' (acn_cli telemetry --family list)\n",
                 options.family.c_str());
    return 2;
  }

  acn::HostileScenario scenario(spec->params);
  acn::OnlineMonitor::Config config;
  config.model = spec->params.base.model;
  config.telemetry = acn::obs::TelemetryConfig{
      .history = static_cast<std::size_t>(options.intervals) + 1,
      .regions = options.regions};
  acn::OnlineMonitor monitor(config);
  (void)monitor.observe(scenario.initial(), acn::DeviceSet{});
  const acn::obs::TelemetryHub& hub = *monitor.telemetry();
  for (int k = 0; k < options.intervals; ++k) {
    acn::HostileStep step = scenario.advance();
    (void)monitor.observe(std::move(step.observed), step.abnormal);
    if (options.watch) {
      const acn::obs::IntervalTelemetry& last = hub.store().latest();
      std::printf(
          "k=%llu ms=%.3f abnormal=%u isolated=%u massive=%u unresolved=%u "
          "episodes_open=%llu\n",
          static_cast<unsigned long long>(last.interval), last.total_ms,
          last.abnormal, last.isolated, last.massive, last.unresolved,
          static_cast<unsigned long long>(last.episodes_open));
    }
  }

  const acn::obs::TelemetryStore& store = hub.store();
  if (options.query == "anomaly-rate") {
    if (options.region >= 0) {
      std::printf(
          "{\"query\":\"anomaly-rate\",\"family\":\"%s\",\"window\":%zu,"
          "\"region\":%d,\"value\":%.6f}\n",
          spec->name.c_str(), options.window, options.region,
          store.region_anomaly_rate(static_cast<std::uint32_t>(options.region),
                                    options.window));
    } else {
      std::printf(
          "{\"query\":\"anomaly-rate\",\"family\":\"%s\",\"window\":%zu,"
          "\"value\":%.6f}\n",
          spec->name.c_str(), options.window, store.anomaly_rate(options.window));
    }
    return 0;
  }
  if (options.query == "verdict-mix") {
    const auto mix = store.verdict_mix(options.window);
    std::printf(
        "{\"query\":\"verdict-mix\",\"family\":\"%s\",\"window\":%zu,"
        "\"intervals\":%llu,\"abnormal\":%llu,\"isolated\":%llu,"
        "\"massive\":%llu,\"unresolved\":%llu,\"budget_exhausted\":%llu}\n",
        spec->name.c_str(), options.window,
        static_cast<unsigned long long>(mix.intervals),
        static_cast<unsigned long long>(mix.abnormal),
        static_cast<unsigned long long>(mix.isolated),
        static_cast<unsigned long long>(mix.massive),
        static_cast<unsigned long long>(mix.unresolved),
        static_cast<unsigned long long>(mix.budget_exhausted));
    return 0;
  }
  if (options.query == "ms-percentiles") {
    const auto pct = store.step_ms_percentiles(options.window);
    std::printf(
        "{\"query\":\"ms-percentiles\",\"family\":\"%s\",\"window\":%zu,"
        "\"p50\":%.4f,\"p90\":%.4f,\"p99\":%.4f,\"max\":%.4f}\n",
        spec->name.c_str(), options.window, pct.p50, pct.p90, pct.p99, pct.max);
    return 0;
  }
  if (options.query == "degraded-rate") {
    std::printf(
        "{\"query\":\"degraded-rate\",\"family\":\"%s\",\"window\":%zu,"
        "\"value\":%.6f}\n",
        spec->name.c_str(), options.window, store.degraded_rate(options.window));
    return 0;
  }
  if (!options.query.empty()) {
    std::fprintf(stderr, "unknown query '%s'\n", options.query.c_str());
    return 2;
  }

  if (options.format == "prom") {
    std::fputs(acn::obs::to_prometheus(hub, options.window).c_str(), stdout);
  } else if (options.format == "json") {
    std::printf("%s\n", acn::obs::to_json(hub, options.window).c_str());
  } else {
    std::fprintf(stderr, "unknown format '%s' (prom|json)\n",
                 options.format.c_str());
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  try {
    if (command == "characterize") {
      if (argc < 3) {
        usage();
        return 2;
      }
      return run_characterize(argv[2], parse_flags(argc, argv, 3));
    }
    if (command == "demo") {
      return run_demo(parse_flags(argc, argv, 2));
    }
    if (command == "telemetry") {
      return run_telemetry(parse_telemetry_flags(argc, argv, 2));
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  usage();
  return 2;
}
