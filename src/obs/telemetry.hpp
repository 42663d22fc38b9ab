// TelemetryHub: the one object a deployment wires in to observe the whole
// pipeline.
//
// The hub owns the two halves of the telemetry layer — the lock-cheap
// MetricsRegistry (cumulative counters/gauges/histograms, scrape-shaped)
// and the rolling TelemetryStore (per-interval records, query-shaped) —
// plus the region partition every per-region query is asked against
// (uniform dim-0 stripes of the QoS space [0,1]^d). Producers build one
// IntervalTelemetry per interval and call record(); the ingestion layer
// annotates the already recorded interval with its IngestSample after the
// seal. Everything here reads pipeline OUTPUTS (FrameStats, verdict sets,
// episode tallies) — by construction telemetry cannot change a Decision
// byte, and tests/obs/telemetry_conformance_test.cc pins that end to end.
// The per-region device counts are kept between intervals and moved with
// each state roll's moved list (tally_rolled()), so a record costs
// O(|moved| + |A_k|), not a pass over the fleet.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/device_set.hpp"
#include "core/frame.hpp"
#include "obs/metrics.hpp"
#include "obs/store.hpp"

namespace acn::obs {

struct TelemetryConfig {
  /// Intervals the rolling store retains.
  std::size_t history = 512;
  /// Region partition granularity: dim-0 of [0,1]^d split into this many
  /// equal stripes (>= 1 enforced).
  std::uint32_t regions = 16;
  /// Lane shards of the metrics registry (see MetricsRegistry).
  unsigned lanes = 1;
};

/// The four engine phases of one observe() call as trace spans: advance
/// (state roll), grid (A_k index build), plane (4r-closure build),
/// characterize (Theorems 5-7 fan-out) — ms and lane skew lifted from
/// FrameStats, the same timers perfbench prints as core.engine.*.
[[nodiscard]] std::vector<TraceSpan> spans_of(const FrameStats& stats);

/// The engine-side half of a record: spans and the interval shape from one
/// observe() call. The caller fills the verdict mix, episodes, and regions
/// before handing it to TelemetryHub::record().
[[nodiscard]] IntervalTelemetry frame_record(std::uint64_t interval,
                                             double total_ms,
                                             const FrameStats& stats);

class TelemetryHub {
 public:
  explicit TelemetryHub(TelemetryConfig config);

  [[nodiscard]] MetricsRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] const MetricsRegistry& registry() const noexcept {
    return registry_;
  }
  [[nodiscard]] TelemetryStore& store() noexcept { return store_; }
  [[nodiscard]] const TelemetryStore& store() const noexcept { return store_; }

  [[nodiscard]] std::uint32_t regions() const noexcept {
    return config_.regions;
  }
  /// Region of a QoS position with dim-0 coordinate x0: its stripe.
  [[nodiscard]] std::uint32_t region_of(double x0) const noexcept;

  /// Tallies one interval's fleet and verdict sets into per-region stats
  /// (sized to regions()). `x0` is the fleet's dim-0 coordinate column,
  /// x0[j] for device j — StatePair::joint_col(dim()) for S_k.
  [[nodiscard]] std::vector<RegionStats> tally_regions(
      std::span<const double> x0, const DeviceSet& abnormal,
      const DeviceSet& isolated, const DeviceSet& massive,
      const DeviceSet& unresolved) const;

  /// tally_regions() of a rolled state, with the per-region device counts
  /// kept from the previous call: each id of `moved` leaves the region of
  /// prev_x0[id] and joins the region of x0[id]. That is exact when the
  /// kept counts were taken on the column prev_x0 now holds — the state
  /// rolled once since the last call, and `moved` is that roll's list
  /// (StatePair::moved(), with prev_x0 the S_{k-1} half's dim-0 column).
  /// Otherwise pass `recount`: the whole column x0 is counted again, as it
  /// is on the first call. O(|moved| + |A_k|) without a recount.
  [[nodiscard]] std::vector<RegionStats> tally_rolled(
      std::span<const double> prev_x0, std::span<const double> x0,
      std::span<const DeviceId> moved, bool recount, const DeviceSet& abnormal,
      const DeviceSet& isolated, const DeviceSet& massive,
      const DeviceSet& unresolved);

  /// Stores the record and folds it into the registry's standard metric
  /// set (intervals/decisions/degraded counters, the step-latency
  /// histogram, level gauges).
  void record(IntervalTelemetry record);

  /// Attaches the ingestion layer's per-seal sample to the already
  /// recorded interval (no-op when the interval has been evicted) and
  /// bumps the ingest counters of the registry.
  void annotate_ingest(std::uint64_t interval, const IngestSample& sample);

 private:
  /// Per-region device counts and verdict sets of one interval, given the
  /// column the sets are placed by.
  [[nodiscard]] std::vector<RegionStats> regions_with(
      std::span<const std::uint32_t> devices, std::span<const double> x0,
      const DeviceSet& abnormal, const DeviceSet& isolated,
      const DeviceSet& massive, const DeviceSet& unresolved) const;

  TelemetryConfig config_;
  MetricsRegistry registry_;
  TelemetryStore store_;
  /// tally_rolled()'s kept device count per region; empty until its first
  /// call.
  std::vector<std::uint32_t> devices_in_region_;

  struct StandardIds {
    MetricId intervals_total;
    MetricId degraded_total;
    MetricId abnormal_total;
    MetricId isolated_total;
    MetricId massive_total;
    MetricId unresolved_total;
    MetricId budget_exhausted_total;
    MetricId episodes_opened_total;
    MetricId episodes_closed_total;
    MetricId step_ms;
    MetricId fleet_devices;
    MetricId open_episodes;
    MetricId last_abnormal;
    MetricId ingest_late_total;
    MetricId ingest_duplicates_total;
    MetricId ingest_shed_total;
    MetricId ingest_replayed_total;
    MetricId ingest_forced_total;
    MetricId ingest_open_intervals;
  } ids_;
};

}  // namespace acn::obs
