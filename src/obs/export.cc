#include "obs/export.hpp"

#include <cinttypes>
#include <cstdio>

namespace acn::obs {

namespace {

void append_num(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  out += buf;
}

void append_num(std::string& out, std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, value);
  out += buf;
}

void append_kv(std::string& out, const char* key, std::uint64_t value,
               bool comma = true) {
  out += '"';
  out += key;
  out += "\":";
  append_num(out, value);
  if (comma) out += ',';
}

void append_kv(std::string& out, const char* key, double value,
               bool comma = true) {
  out += '"';
  out += key;
  out += "\":";
  append_num(out, value);
  if (comma) out += ',';
}

void append_kv(std::string& out, const char* key, bool value,
               bool comma = true) {
  out += '"';
  out += key;
  out += "\":";
  out += value ? "true" : "false";
  if (comma) out += ',';
}

}  // namespace

std::string to_prometheus(const TelemetryHub& hub, std::size_t window) {
  const MetricsRegistry& registry = hub.registry();
  const std::vector<MetricsRegistry::Value> values = registry.snapshot();
  std::string out;
  out.reserve(4096);

  for (std::size_t id = 0; id < registry.metrics().size(); ++id) {
    const MetricsRegistry::Metric& meta = registry.metrics()[id];
    const MetricsRegistry::Value& value = values[id];
    out += "# HELP " + meta.name + " " + meta.help + "\n";
    switch (meta.kind) {
      case MetricKind::kCounter:
        out += "# TYPE " + meta.name + " counter\n" + meta.name + " ";
        append_num(out, value.count);
        out += '\n';
        break;
      case MetricKind::kGauge:
        out += "# TYPE " + meta.name + " gauge\n" + meta.name + " ";
        append_num(out, value.value);
        out += '\n';
        break;
      case MetricKind::kHistogram: {
        out += "# TYPE " + meta.name + " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < value.buckets.size(); ++b) {
          cumulative += value.buckets[b];
          out += meta.name + "_bucket{le=\"";
          if (b < meta.bounds.size()) {
            append_num(out, meta.bounds[b]);
          } else {
            out += "+Inf";
          }
          out += "\"} ";
          append_num(out, cumulative);
          out += '\n';
        }
        out += meta.name + "_sum ";
        append_num(out, value.value);
        out += '\n' + meta.name + "_count ";
        append_num(out, value.count);
        out += '\n';
        break;
      }
    }
  }

  // Window-derived gauges from the rolling store (netdata-style trailing
  // questions as scrapeable samples).
  const TelemetryStore& store = hub.store();
  std::string w = "window=\"";
  append_num(w, static_cast<std::uint64_t>(window));
  w += "\"";
  const auto derived = [&](const char* name, const char* help, double value,
                           const std::string& labels) {
    out += "# HELP ";
    out += name;
    out += " ";
    out += help;
    out += "\n# TYPE ";
    out += name;
    out += " gauge\n";
    out += name;
    out += "{" + labels + "} ";
    append_num(out, value);
    out += '\n';
  };
  derived("acn_anomaly_rate",
          "Abnormal device-intervals per device-interval over the window",
          store.anomaly_rate(window), w);
  derived("acn_degraded_rate", "Share of degraded intervals over the window",
          store.degraded_rate(window), w);
  derived("acn_budget_exhausted_rate",
          "BudgetExhausted decisions per abnormal device over the window",
          store.budget_exhausted_rate(window), w);
  const std::vector<RegionStats> regions = store.region_totals(window);
  for (std::size_t g = 0; g < regions.size(); ++g) {
    std::string labels = "region=\"";
    append_num(labels, static_cast<std::uint64_t>(g));
    labels += "\"," + w;
    derived("acn_region_anomaly_rate",
            "Per-region abnormal device-intervals per device-interval",
            store.region_anomaly_rate(static_cast<std::uint32_t>(g), window),
            labels);
  }
  const TelemetryStore::Percentiles pct = store.step_ms_percentiles(window);
  derived("acn_step_ms_quantile", "Interval latency percentile (ms)", pct.p50,
          "q=\"0.5\"," + w);
  derived("acn_step_ms_quantile", "Interval latency percentile (ms)", pct.p90,
          "q=\"0.9\"," + w);
  derived("acn_step_ms_quantile", "Interval latency percentile (ms)", pct.p99,
          "q=\"0.99\"," + w);
  derived("acn_step_ms_quantile", "Interval latency percentile (ms)", pct.max,
          "q=\"1\"," + w);
  return out;
}

std::string to_json(const TelemetryHub& hub, std::size_t window) {
  const TelemetryStore& store = hub.store();
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":\"acn.telemetry.v2\",";
  append_kv(out, "window", static_cast<std::uint64_t>(window));

  out += "\"intervals\":{";
  append_kv(out, "retained", static_cast<std::uint64_t>(store.size()));
  append_kv(out, "capacity", static_cast<std::uint64_t>(store.capacity()));
  if (store.empty()) {
    append_kv(out, "first", std::uint64_t{0});
    append_kv(out, "last", std::uint64_t{0}, false);
  } else {
    append_kv(out, "first", store.from_latest(store.size() - 1).interval);
    append_kv(out, "last", store.latest().interval, false);
  }
  out += "},";

  out += "\"rates\":{";
  append_kv(out, "anomaly", store.anomaly_rate(window));
  append_kv(out, "degraded", store.degraded_rate(window));
  append_kv(out, "budget_exhausted", store.budget_exhausted_rate(window),
            false);
  out += "},";

  const TelemetryStore::VerdictMix mix = store.verdict_mix(window);
  out += "\"verdict_mix\":{";
  append_kv(out, "intervals", mix.intervals);
  append_kv(out, "abnormal", mix.abnormal);
  append_kv(out, "isolated", mix.isolated);
  append_kv(out, "massive", mix.massive);
  append_kv(out, "unresolved", mix.unresolved);
  append_kv(out, "budget_exhausted", mix.budget_exhausted, false);
  out += "},";

  const TelemetryStore::Percentiles pct = store.step_ms_percentiles(window);
  out += "\"step_ms\":{";
  append_kv(out, "p50", pct.p50);
  append_kv(out, "p90", pct.p90);
  append_kv(out, "p99", pct.p99);
  append_kv(out, "max", pct.max, false);
  out += "},";

  out += "\"regions\":[";
  const std::vector<RegionStats> regions = store.region_totals(window);
  for (std::size_t g = 0; g < regions.size(); ++g) {
    if (g > 0) out += ',';
    out += '{';
    append_kv(out, "region", static_cast<std::uint64_t>(g));
    append_kv(out, "devices", std::uint64_t{regions[g].devices});
    append_kv(out, "abnormal", std::uint64_t{regions[g].abnormal});
    append_kv(out, "isolated", std::uint64_t{regions[g].isolated});
    append_kv(out, "massive", std::uint64_t{regions[g].massive});
    append_kv(out, "unresolved", std::uint64_t{regions[g].unresolved});
    append_kv(out, "anomaly_rate",
              store.region_anomaly_rate(static_cast<std::uint32_t>(g), window),
              false);
    out += '}';
  }
  out += "],";

  out += "\"last_interval\":";
  if (store.empty()) {
    out += "null,";
  } else {
    const IntervalTelemetry& last = store.latest();
    out += '{';
    append_kv(out, "interval", last.interval);
    append_kv(out, "ms", last.total_ms);
    append_kv(out, "degraded", last.degraded);
    append_kv(out, "devices", std::uint64_t{last.devices});
    append_kv(out, "abnormal", std::uint64_t{last.abnormal});
    append_kv(out, "isolated", std::uint64_t{last.isolated});
    append_kv(out, "massive", std::uint64_t{last.massive});
    append_kv(out, "unresolved", std::uint64_t{last.unresolved});
    append_kv(out, "budget_exhausted", std::uint64_t{last.budget_exhausted});
    append_kv(out, "moved", last.moved);
    append_kv(out, "components", last.components);
    append_kv(out, "motions", last.motions);
    out += "\"spans\":[";
    for (std::size_t s = 0; s < last.spans.size(); ++s) {
      const TraceSpan& span = last.spans[s];
      if (s > 0) out += ',';
      out += "{\"name\":\"";
      out += span.name;
      out += "\",";
      append_kv(out, "ms", span.ms);
      append_kv(out, "lane_max_ms", span.lane_max_ms);
      append_kv(out, "lane_mean_ms", span.lane_mean_ms);
      append_kv(out, "lanes", std::uint64_t{span.lanes}, false);
      out += '}';
    }
    out += "],";
    out += "\"episodes\":{";
    append_kv(out, "opened", std::uint64_t{last.episodes_opened});
    append_kv(out, "closed", std::uint64_t{last.episodes_closed});
    append_kv(out, "open", last.episodes_open, false);
    out += "},";
    out += "\"ingest\":";
    if (!last.ingest.has_value()) {
      out += "null";
    } else {
      const IngestSample& ingest = *last.ingest;
      out += '{';
      append_kv(out, "seal_lag", ingest.seal_lag);
      append_kv(out, "forced", ingest.forced);
      append_kv(out, "reported", ingest.reported);
      append_kv(out, "replayed", ingest.replayed);
      append_kv(out, "deferred", ingest.deferred);
      append_kv(out, "retired", ingest.retired);
      append_kv(out, "late_sealed", ingest.late_sealed);
      append_kv(out, "duplicates", ingest.duplicates);
      append_kv(out, "shed_claims", ingest.shed_claims);
      append_kv(out, "open_intervals", ingest.open_intervals, false);
      out += '}';
    }
    out += "},";
  }

  out += "\"metrics\":[";
  const MetricsRegistry& registry = hub.registry();
  const std::vector<MetricsRegistry::Value> values = registry.snapshot();
  for (std::size_t id = 0; id < registry.metrics().size(); ++id) {
    const MetricsRegistry::Metric& meta = registry.metrics()[id];
    const MetricsRegistry::Value& value = values[id];
    if (id > 0) out += ',';
    out += "{\"name\":\"" + meta.name + "\",\"kind\":\"";
    switch (meta.kind) {
      case MetricKind::kCounter:
        out += "counter\",";
        append_kv(out, "value", value.count, false);
        break;
      case MetricKind::kGauge:
        out += "gauge\",";
        append_kv(out, "value", value.value, false);
        break;
      case MetricKind::kHistogram:
        out += "histogram\",";
        append_kv(out, "count", value.count);
        append_kv(out, "sum", value.value);
        out += "\"buckets\":[";
        for (std::size_t b = 0; b < value.buckets.size(); ++b) {
          if (b > 0) out += ',';
          out += "{\"le\":";
          if (b < meta.bounds.size()) {
            append_num(out, meta.bounds[b]);
          } else {
            out += "\"inf\"";
          }
          out += ",\"count\":";
          append_num(out, value.buckets[b]);
          out += '}';
        }
        out += ']';
        break;
    }
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace acn::obs
