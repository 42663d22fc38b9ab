// Export schema goldens: the Prometheus exposition text and the versioned
// "acn.telemetry.v2" JSON document for a fixed two-interval hub must match
// byte-for-byte. Any intentional schema change must update these strings
// (and bump the JSON schema version if the shape changes).
#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <utility>

namespace acn::obs {
namespace {

TelemetryHub make_hub() {
  TelemetryHub hub(TelemetryConfig{.history = 4, .regions = 2, .lanes = 1});

  IntervalTelemetry one;
  one.interval = 1;
  one.total_ms = 2.5;
  one.spans = {TraceSpan{"advance", 1.0, 0.0, 0.0, 0},
               TraceSpan{"characterize", 1.5, 0.75, 0.5, 2}};
  one.moved = 10;
  one.components = 3;
  one.motions = 4;
  one.devices = 100;
  one.abnormal = 4;
  one.isolated = 2;
  one.massive = 1;
  one.unresolved = 1;
  one.budget_exhausted = 1;
  one.degraded = false;
  one.episodes_opened = 2;
  one.episodes_closed = 0;
  one.episodes_open = 2;
  one.regions = {RegionStats{60, 3, 2, 1, 0}, RegionStats{40, 1, 0, 0, 1}};
  hub.record(std::move(one));

  IntervalTelemetry two;
  two.interval = 2;
  two.total_ms = 4.0;
  two.spans = {TraceSpan{"advance", 1.75, 0.0, 0.0, 0},
               TraceSpan{"characterize", 2.25, 1.25, 1.0, 2}};
  two.moved = 12;
  two.components = 2;
  two.motions = 3;
  two.devices = 100;
  two.abnormal = 2;
  two.isolated = 1;
  two.massive = 1;
  two.unresolved = 0;
  two.budget_exhausted = 0;
  two.degraded = true;
  two.episodes_opened = 0;
  two.episodes_closed = 1;
  two.episodes_open = 1;
  two.regions = {RegionStats{60, 1, 1, 0, 0}, RegionStats{40, 1, 0, 1, 0}};
  hub.record(std::move(two));

  IngestSample sample;
  sample.seal_lag = 2;
  sample.forced = true;
  sample.reported = 98;
  sample.replayed = 2;
  sample.deferred = 1;
  sample.retired = 0;
  sample.late_sealed = 3;
  sample.duplicates = 5;
  sample.shed_claims = 7;
  sample.open_intervals = 2;
  hub.annotate_ingest(2, sample);
  return hub;
}

constexpr const char* kGoldenProm =
    R"GOLD(# HELP acn_intervals_total Intervals observed
# TYPE acn_intervals_total counter
acn_intervals_total 2
# HELP acn_degraded_intervals_total Intervals sealed degraded (shed, deferred, or forced close)
# TYPE acn_degraded_intervals_total counter
acn_degraded_intervals_total 1
# HELP acn_abnormal_devices_total Abnormal device-intervals (|A_k|)
# TYPE acn_abnormal_devices_total counter
acn_abnormal_devices_total 6
# HELP acn_verdict_isolated_total Isolated verdicts
# TYPE acn_verdict_isolated_total counter
acn_verdict_isolated_total 3
# HELP acn_verdict_massive_total Massive verdicts
# TYPE acn_verdict_massive_total counter
acn_verdict_massive_total 2
# HELP acn_verdict_unresolved_total Unresolved verdicts
# TYPE acn_verdict_unresolved_total counter
acn_verdict_unresolved_total 1
# HELP acn_budget_exhausted_total Decisions that exhausted the Theorem-7 search budget (safe-side)
# TYPE acn_budget_exhausted_total counter
acn_budget_exhausted_total 1
# HELP acn_episodes_opened_total Episodes opened
# TYPE acn_episodes_opened_total counter
acn_episodes_opened_total 2
# HELP acn_episodes_closed_total Episodes closed
# TYPE acn_episodes_closed_total counter
acn_episodes_closed_total 1
# HELP acn_step_ms Wall-clock milliseconds per observed interval
# TYPE acn_step_ms histogram
acn_step_ms_bucket{le="0.5"} 0
acn_step_ms_bucket{le="1"} 0
acn_step_ms_bucket{le="2"} 0
acn_step_ms_bucket{le="5"} 2
acn_step_ms_bucket{le="10"} 2
acn_step_ms_bucket{le="20"} 2
acn_step_ms_bucket{le="50"} 2
acn_step_ms_bucket{le="100"} 2
acn_step_ms_bucket{le="200"} 2
acn_step_ms_bucket{le="500"} 2
acn_step_ms_bucket{le="1000"} 2
acn_step_ms_bucket{le="+Inf"} 2
acn_step_ms_sum 6.5
acn_step_ms_count 2
# HELP acn_fleet_devices Devices in the observed fleet
# TYPE acn_fleet_devices gauge
acn_fleet_devices 100
# HELP acn_open_episodes Episodes currently open
# TYPE acn_open_episodes gauge
acn_open_episodes 1
# HELP acn_last_abnormal |A_k| of the latest interval
# TYPE acn_last_abnormal gauge
acn_last_abnormal 2
# HELP acn_ingest_late_sealed_total Reports for already-sealed intervals (claim replayed)
# TYPE acn_ingest_late_sealed_total counter
acn_ingest_late_sealed_total 3
# HELP acn_ingest_duplicates_total Duplicate report deliveries absorbed
# TYPE acn_ingest_duplicates_total counter
acn_ingest_duplicates_total 5
# HELP acn_ingest_shed_claims_total Claim updates shed under overload
# TYPE acn_ingest_shed_claims_total counter
acn_ingest_shed_claims_total 7
# HELP acn_ingest_replayed_claims_total Active devices sealed without a report (last claim replayed)
# TYPE acn_ingest_replayed_claims_total counter
acn_ingest_replayed_claims_total 2
# HELP acn_ingest_forced_closes_total Timeout/flood forced seals
# TYPE acn_ingest_forced_closes_total counter
acn_ingest_forced_closes_total 1
# HELP acn_ingest_open_intervals Staging frames currently open
# TYPE acn_ingest_open_intervals gauge
acn_ingest_open_intervals 2
# HELP acn_anomaly_rate Abnormal device-intervals per device-interval over the window
# TYPE acn_anomaly_rate gauge
acn_anomaly_rate{window="2"} 0.03
# HELP acn_degraded_rate Share of degraded intervals over the window
# TYPE acn_degraded_rate gauge
acn_degraded_rate{window="2"} 0.5
# HELP acn_budget_exhausted_rate BudgetExhausted decisions per abnormal device over the window
# TYPE acn_budget_exhausted_rate gauge
acn_budget_exhausted_rate{window="2"} 0.166667
# HELP acn_region_anomaly_rate Per-region abnormal device-intervals per device-interval
# TYPE acn_region_anomaly_rate gauge
acn_region_anomaly_rate{region="0",window="2"} 0.0333333
# HELP acn_region_anomaly_rate Per-region abnormal device-intervals per device-interval
# TYPE acn_region_anomaly_rate gauge
acn_region_anomaly_rate{region="1",window="2"} 0.025
# HELP acn_step_ms_quantile Interval latency percentile (ms)
# TYPE acn_step_ms_quantile gauge
acn_step_ms_quantile{q="0.5",window="2"} 3.25
# HELP acn_step_ms_quantile Interval latency percentile (ms)
# TYPE acn_step_ms_quantile gauge
acn_step_ms_quantile{q="0.9",window="2"} 3.85
# HELP acn_step_ms_quantile Interval latency percentile (ms)
# TYPE acn_step_ms_quantile gauge
acn_step_ms_quantile{q="0.99",window="2"} 3.985
# HELP acn_step_ms_quantile Interval latency percentile (ms)
# TYPE acn_step_ms_quantile gauge
acn_step_ms_quantile{q="1",window="2"} 4
)GOLD";

constexpr const char* kGoldenJson =
    R"GOLD({"schema":"acn.telemetry.v2","window":2,"intervals":{"retained":2,"capacity":4,"first":1,"last":2},"rates":{"anomaly":0.03,"degraded":0.5,"budget_exhausted":0.166667},"verdict_mix":{"intervals":2,"abnormal":6,"isolated":3,"massive":2,"unresolved":1,"budget_exhausted":1},"step_ms":{"p50":3.25,"p90":3.85,"p99":3.985,"max":4},"regions":[{"region":0,"devices":120,"abnormal":4,"isolated":3,"massive":1,"unresolved":0,"anomaly_rate":0.0333333},{"region":1,"devices":80,"abnormal":2,"isolated":0,"massive":1,"unresolved":1,"anomaly_rate":0.025}],"last_interval":{"interval":2,"ms":4,"degraded":true,"devices":100,"abnormal":2,"isolated":1,"massive":1,"unresolved":0,"budget_exhausted":0,"moved":12,"components":2,"motions":3,"spans":[{"name":"advance","ms":1.75,"lane_max_ms":0,"lane_mean_ms":0,"lanes":0},{"name":"characterize","ms":2.25,"lane_max_ms":1.25,"lane_mean_ms":1,"lanes":2}],"episodes":{"opened":0,"closed":1,"open":1},"ingest":{"seal_lag":2,"forced":true,"reported":98,"replayed":2,"deferred":1,"retired":0,"late_sealed":3,"duplicates":5,"shed_claims":7,"open_intervals":2}},"metrics":[{"name":"acn_intervals_total","kind":"counter","value":2},{"name":"acn_degraded_intervals_total","kind":"counter","value":1},{"name":"acn_abnormal_devices_total","kind":"counter","value":6},{"name":"acn_verdict_isolated_total","kind":"counter","value":3},{"name":"acn_verdict_massive_total","kind":"counter","value":2},{"name":"acn_verdict_unresolved_total","kind":"counter","value":1},{"name":"acn_budget_exhausted_total","kind":"counter","value":1},{"name":"acn_episodes_opened_total","kind":"counter","value":2},{"name":"acn_episodes_closed_total","kind":"counter","value":1},{"name":"acn_step_ms","kind":"histogram","count":2,"sum":6.5,"buckets":[{"le":0.5,"count":0},{"le":1,"count":0},{"le":2,"count":0},{"le":5,"count":2},{"le":10,"count":0},{"le":20,"count":0},{"le":50,"count":0},{"le":100,"count":0},{"le":200,"count":0},{"le":500,"count":0},{"le":1000,"count":0},{"le":"inf","count":0}]},{"name":"acn_fleet_devices","kind":"gauge","value":100},{"name":"acn_open_episodes","kind":"gauge","value":1},{"name":"acn_last_abnormal","kind":"gauge","value":2},{"name":"acn_ingest_late_sealed_total","kind":"counter","value":3},{"name":"acn_ingest_duplicates_total","kind":"counter","value":5},{"name":"acn_ingest_shed_claims_total","kind":"counter","value":7},{"name":"acn_ingest_replayed_claims_total","kind":"counter","value":2},{"name":"acn_ingest_forced_closes_total","kind":"counter","value":1},{"name":"acn_ingest_open_intervals","kind":"gauge","value":2}]})GOLD";

TEST(TelemetryExport, PrometheusGolden) {
  const TelemetryHub hub = make_hub();
  EXPECT_EQ(to_prometheus(hub, 2), kGoldenProm);
}

TEST(TelemetryExport, JsonGolden) {
  const TelemetryHub hub = make_hub();
  EXPECT_EQ(to_json(hub, 2), kGoldenJson);
}

// The JSON document must stay parseable in the trivial sense: balanced
// braces/brackets and no trailing garbage. A real parser lives in the sim
// harness' consumers; here we guard the invariants a schema bump would break.
TEST(TelemetryExport, JsonStructurallyBalanced) {
  const TelemetryHub hub = make_hub();
  const std::string json = to_json(hub, 2);
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// An empty hub still exports a valid document (null last_interval, zero rates).
TEST(TelemetryExport, EmptyHubExports) {
  const TelemetryHub hub(TelemetryConfig{.history = 2, .regions = 1, .lanes = 1});
  const std::string json = to_json(hub, 0);
  EXPECT_NE(json.find("\"schema\":\"acn.telemetry.v2\""), std::string::npos);
  EXPECT_NE(json.find("\"last_interval\":null"), std::string::npos);
  const std::string prom = to_prometheus(hub, 0);
  EXPECT_NE(prom.find("acn_intervals_total 0"), std::string::npos);
}

}  // namespace
}  // namespace acn::obs
