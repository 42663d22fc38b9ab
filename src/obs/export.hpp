// Exporters over the telemetry hub: Prometheus text exposition and a
// stable JSON schema.
//
// Both render the same two sources — the registry's cumulative metrics and
// the store's trailing-window queries — into strings a scraper or an
// operator tool can consume. The JSON document is versioned
// ("acn.telemetry.v2") and its shape is pinned by the golden tests in
// tests/obs/export_test.cc: adding fields is a schema bump, silently
// renaming or dropping them is a test failure. Doubles are rendered with
// %.6g, integers verbatim, so identical inputs serialize identically on
// every platform.
#pragma once

#include <cstddef>
#include <string>

#include "obs/telemetry.hpp"

namespace acn::obs {

/// Prometheus text exposition format (HELP/TYPE + samples): every registry
/// metric, then the store's window-derived gauges (anomaly/degraded rates,
/// per-region anomaly rates, step-latency quantiles) labelled with the
/// window they were computed over (in intervals; 0 = everything retained).
[[nodiscard]] std::string to_prometheus(const TelemetryHub& hub,
                                        std::size_t window = 0);

/// The versioned JSON document: retention header, trailing-window rates and
/// verdict mix, step-ms percentiles, per-region totals, the latest
/// interval's full record (spans, ingest sample, episode transitions), and
/// the registry dump.
[[nodiscard]] std::string to_json(const TelemetryHub& hub,
                                  std::size_t window = 0);

}  // namespace acn::obs
