// TelemetryStore: the rolling per-interval history behind the query API.
//
// One IntervalTelemetry record per observed interval — the trace spans of
// the engine's phases, the verdict mix, the per-region tallies, and (when
// the interval came through the ingestion layer) what ingestion did to it —
// kept in a bounded ring of the last N intervals. Queries are netdata-shaped:
// every question is asked over a trailing window of intervals ("the last 60
// intervals", "everything retained") and answers in rates, mixes, series
// points, or latency percentiles. The store is single-writer (the thread
// that seals intervals) and read from the same thread; cross-thread export
// is snapshot-by-serialization (obs/export.hpp), not shared mutable state.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

namespace acn::obs {

/// One timed phase of an interval, with the lane-skew of its fan-out (lanes
/// == 0 when the phase ran serially). Names are static literals — the four
/// engine phases are "advance", "grid", "plane", "characterize".
struct TraceSpan {
  const char* name = "";
  double ms = 0.0;
  double lane_max_ms = 0.0;
  double lane_mean_ms = 0.0;
  unsigned lanes = 0;
};

/// Verdict tallies of one region (a dim-0 stripe of the QoS space) in one
/// interval. devices counts every fleet member currently in the region.
struct RegionStats {
  std::uint32_t devices = 0;
  std::uint32_t abnormal = 0;
  std::uint32_t isolated = 0;
  std::uint32_t massive = 0;
  std::uint32_t unresolved = 0;
};

/// What the ingestion layer did to one interval, attached to the record by
/// IngestPipeline after the seal (absent on direct-fed intervals). Counter
/// fields are per-interval deltas of the pipeline's cumulative tallies.
struct IngestSample {
  std::uint64_t seal_lag = 0;  ///< watermark distance when the seal fired
  bool forced = false;         ///< sealed by timeout/flood, not the watermark
  std::uint64_t reported = 0;
  std::uint64_t replayed = 0;
  std::uint64_t deferred = 0;
  std::uint64_t retired = 0;
  std::uint64_t late_sealed = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t shed_claims = 0;
  std::uint64_t open_intervals = 0;  ///< staging queue depth after the seal
};

/// Everything the telemetry layer retains about one interval.
struct IntervalTelemetry {
  std::uint64_t interval = 0;
  double total_ms = 0.0;  ///< wall clock of the whole observe() call
  std::vector<TraceSpan> spans;

  // Engine shape.
  std::uint64_t moved = 0;
  std::uint64_t components = 0;
  std::uint64_t motions = 0;

  // Verdict mix.
  std::uint32_t devices = 0;  ///< fleet size (roster capacity in roster mode)
  std::uint32_t abnormal = 0;
  std::uint32_t isolated = 0;
  std::uint32_t massive = 0;
  std::uint32_t unresolved = 0;
  std::uint32_t budget_exhausted = 0;
  bool degraded = false;

  // Episode transitions at this interval.
  std::uint32_t episodes_opened = 0;
  std::uint32_t episodes_closed = 0;
  std::uint64_t episodes_open = 0;

  std::vector<RegionStats> regions;  ///< one entry per configured region
  std::optional<IngestSample> ingest;
};

class TelemetryStore {
 public:
  /// Retains the last `capacity` intervals (>= 1 enforced).
  explicit TelemetryStore(std::size_t capacity);

  void push(IntervalTelemetry record);
  /// The record of `interval` if still retained (ingest annotation path).
  [[nodiscard]] IntervalTelemetry* find(std::uint64_t interval) noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return ring_.empty(); }
  /// Most recent record (requires !empty()).
  [[nodiscard]] const IntervalTelemetry& latest() const noexcept;
  /// i-th record counting back from the latest (0 = latest; i < size()).
  [[nodiscard]] const IntervalTelemetry& from_latest(std::size_t i) const noexcept;

  // --- trailing-window queries (window = number of most recent intervals;
  //     0 = everything retained; clamped to size()) ---

  struct VerdictMix {
    std::uint64_t intervals = 0;
    std::uint64_t abnormal = 0;
    std::uint64_t isolated = 0;
    std::uint64_t massive = 0;
    std::uint64_t unresolved = 0;
    std::uint64_t budget_exhausted = 0;
  };
  [[nodiscard]] VerdictMix verdict_mix(std::size_t window = 0) const;

  /// Fleet-wide abnormal device-intervals / device-intervals.
  [[nodiscard]] double anomaly_rate(std::size_t window = 0) const;
  /// Same, restricted to one region (0 when the region never had devices).
  [[nodiscard]] double region_anomaly_rate(std::uint32_t region,
                                           std::size_t window = 0) const;
  /// Per-region tallies summed over the window (indexed by region).
  [[nodiscard]] std::vector<RegionStats> region_totals(
      std::size_t window = 0) const;

  /// Share of intervals sealed degraded.
  [[nodiscard]] double degraded_rate(std::size_t window = 0) const;
  /// BudgetExhausted decisions / all decisions (0 when no decisions).
  [[nodiscard]] double budget_exhausted_rate(std::size_t window = 0) const;

  struct Percentiles {
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
  };
  /// Exact percentiles of total_ms over the window.
  [[nodiscard]] Percentiles step_ms_percentiles(std::size_t window = 0) const;

  /// Netdata-shaped series: (interval, value) points over the trailing
  /// window, oldest first. Dimensions: "ms", "abnormal", "isolated",
  /// "massive", "unresolved", "anomaly_rate", "degraded", "moved",
  /// "components", "episodes_open". Throws std::invalid_argument on an
  /// unknown dimension.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, double>> series(
      std::string_view dimension, std::size_t window = 0) const;

 private:
  /// Window clamp: records to visit, newest `count` of them.
  [[nodiscard]] std::size_t clamp(std::size_t window) const noexcept {
    return window == 0 || window > ring_.size() ? ring_.size() : window;
  }

  std::size_t capacity_;
  std::size_t head_ = 0;  ///< next write position once the ring is full
  std::vector<IntervalTelemetry> ring_;
};

}  // namespace acn::obs
