// IngestPipeline: watermark-based interval closing between report sources
// and the OnlineMonitor.
//
// The paper assumes every device's report for interval k arrives exactly
// once, in order, before the snapshot closes (§III-A). This pipeline is the
// component that makes the engine behave AS IF that were true, over a
// stream where it is not:
//
//   * Out-of-order and late delivery — reports carry their event time
//     (QosReport::interval); each open interval buffers in a StagingFrame,
//     and interval k seals only when the event-time watermark passes it:
//     max_seen_interval - k >= allowed_lag. Anything that arrives within
//     the lateness budget is merged no matter the order; a report for an
//     already-sealed interval is counted (late_sealed) and dropped — the
//     sealed snapshot already replayed the device's last claim, which is
//     exactly the hostile layer's self-consistency rule (the published
//     S_{k-1} of interval k is what interval k-1 actually published).
//   * Duplicates — last-write-wins by source-assigned arrival_seq,
//     counted; commutative, so any delivery permutation within the budget
//     seals a byte-identical frame (tests/ingest asserts the decisions
//     are byte-identical too, per hostile family, serial and pooled).
//   * Stalls — a wall-clock surrogate tick() force-closes the oldest
//     interval once it has been open for timeout_ticks, so one silent
//     source cannot dam the stream; forced seals are marked.
//   * Silent devices — per-device liveness with retry/backoff
//     (LivenessTracker) feeds the roster's retire path: the slot parks at
//     its last claim and the device's episode closes, instead of the
//     pipeline replaying a dead gateway's claim forever.
//   * Interval floods — event times further than max_future_skip past the
//     watermark are rejected outright, and a watermark jump that would
//     flush more than max_watermark_jump intervals in one advance marks
//     the excess seals forced/degraded: those intervals never had their
//     lateness window, and the verdict stream says so. (Staging memory is
//     bounded by construction: open intervals never span more than
//     allowed_lag, because the watermark seals eagerly.)
//   * Overload — the OverloadController's two verdict-safety-aware sheds:
//     claim sampling past a volume threshold, and characterization
//     deferral of non-adjacent flagged devices past an abnormal cap.
//     Degraded intervals are explicitly marked, never silently wrong and
//     never a stall.
//
//   * Malformed claims — a claim that is not a point of [0,1]^dim (another
//     dimension, a coordinate outside [0, 1], NaN) is counted
//     (malformed_rejected) and dropped when it is pushed, before its event
//     time moves the watermark. Nothing staged can then make the roster
//     throw at the seal, so one bad report never costs its interval the
//     other claims.
//
// Within one report the seals come first: the seals its event time
// triggers run, and only then does it stage. A sealed interval's lane is
// reset and pooled before the report picks a frame, so a stream keeps one
// lane per open interval (one in all for an in-order lag-1 stream), and a
// report whose triggered seal throws is not staged. push_all() stages each
// same-interval run, head included, in one loop (see push_all()).
//
// Sources on other threads hand reports over through a BoundedReportQueue
// (block = lossless backpressure, reject = shed at the edge); the pipeline
// itself is single-threaded — sealing order is the stream's order.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "ingest/liveness.hpp"
#include "ingest/overload.hpp"
#include "ingest/report.hpp"
#include "ingest/staging.hpp"
#include "online/monitor.hpp"

namespace acn {

struct WatermarkConfig {
  /// Event-time lateness budget: interval k seals once a report for
  /// interval >= k + allowed_lag has been seen. Must be >= 1 (a budget of
  /// 1 already tolerates arbitrary reorder within one interval boundary).
  std::uint64_t allowed_lag = 2;
  /// Ticks an interval may stay open before the stall timeout force-closes
  /// it (0 = no timeout; rely on the watermark alone). tick() is the
  /// caller's wall-clock surrogate, so tests and replays stay
  /// deterministic.
  std::uint64_t timeout_ticks = 0;
  /// Interval-flood guard: the most intervals one watermark advance may
  /// seal *cleanly*. Staging memory is already bounded (open intervals
  /// never span more than allowed_lag — the watermark seals eagerly), so
  /// the flood hazard is the opposite one: a burst of far-future event
  /// times slams the watermark forward and flushes intervals that never
  /// had their lateness window. When one advance would seal more than
  /// this many intervals, the excess seals are marked forced/degraded.
  std::uint64_t max_watermark_jump = 64;
  /// Reports claiming an event time further than this past the highest
  /// interval seen are rejected (counted): one absurd event time must not
  /// slam the watermark forward and flush every open interval.
  std::uint64_t max_future_skip = 1024;

  void validate() const;
};

/// One sealed interval, with everything the ingestion layer did to it.
struct ClosedInterval {
  std::uint64_t interval = 0;
  bool forced = false;    ///< sealed by timeout/flood, not the watermark
  bool degraded = false;  ///< shed, deferred, forced, or admit-rejected
  std::size_t reported = 0;          ///< devices whose report arrived
  std::size_t replayed = 0;          ///< active devices replaying last claim
  std::vector<GatewayKey> deferred;  ///< flagged, characterization deferred
  std::vector<GatewayKey> retired;   ///< liveness retirements at this seal
  IntervalReport report;             ///< the monitor's verdicts
};

class IngestPipeline {
 public:
  struct Config {
    /// Monitor settings (model, characterize options, threads, episodes,
    /// adaptive). roster_capacity/roster_dim are overwritten from
    /// `capacity`/`dim` below — the pipeline always drives the monitor
    /// through its roster front door.
    OnlineMonitor::Config monitor;
    std::size_t capacity = 0;  ///< fleet slot capacity (> 0)
    std::size_t dim = 2;       ///< services per device
    WatermarkConfig watermark;
    OverloadConfig overload;
    LivenessConfig liveness;
  };

  explicit IngestPipeline(Config config);

  /// Installs the pre-stream fleet: admits every (key, position) pair and
  /// seals interval 0 as the priming snapshot (no verdicts — there is no
  /// motion yet). Event-time intervals in reports start at 1. Throws if
  /// called twice or if the fleet exceeds capacity.
  void prime(std::span<const std::pair<GatewayKey, Point>> fleet);
  /// Convenience: devices 0..n-1 at the snapshot's positions.
  void prime(const Snapshot& initial);

  /// Ingests one report. A malformed claim (not a point of [0,1]^dim) is
  /// counted and dropped first. Otherwise the report runs the seals its
  /// event time triggers (every interval the watermark or the flood bound
  /// passed), then stages into its interval's frame under the dedup rule.
  /// Sealed results accumulate for drain_ready(). Requires prime().
  ///
  /// A staged claim cannot make a seal throw; the engine still can (its
  /// plane arena budget, memory). Then the exception propagates and this
  /// report is not staged; its event time has already moved the
  /// watermark. The interval that threw stays next to seal, without the
  /// reports it had staged, and the next seal — on a watermark advance, a
  /// stall timeout or finish() — retries it.
  void push(const QosReport& report);

  /// push() for a delivery burst: the same counters, seals and frames as
  /// pushing each report in order (push() is push_all() of one report).
  /// Only the head of each same-interval run takes the claim, late, future,
  /// watermark and frame checks; the rest of the run can move neither the
  /// watermark nor the frame, so the whole run, head included, stages in
  /// one StagingFrame::stage() loop, which checks each claim and stops at a
  /// malformed one (spill keys included). When shedding can engage, each
  /// report is a head and stages alone, after the shed test. A throwing
  /// seal aborts the burst at the report that triggered it, which stays
  /// unstaged.
  void push_all(std::span<const QosReport> reports);

  /// Advances the stall clock by one tick; may force-close the oldest
  /// interval(s) when timeout_ticks is configured.
  void tick();

  /// End of stream: seals every still-open interval up to the highest
  /// event time seen (nothing further can arrive, so these are complete —
  /// not marked forced).
  void finish();

  /// Intervals sealed since the last call, in stream order.
  [[nodiscard]] std::vector<ClosedInterval> drain_ready();

  [[nodiscard]] const IngestCounters& counters() const noexcept {
    return counters_;
  }
  /// Lowest interval that is still open (everything below is sealed).
  [[nodiscard]] std::uint64_t next_to_seal() const noexcept {
    return next_to_seal_;
  }
  /// Highest event time seen in any accepted report.
  [[nodiscard]] std::uint64_t max_seen_interval() const noexcept {
    return max_seen_;
  }
  [[nodiscard]] std::size_t open_intervals() const noexcept {
    return frames_.size();
  }
  [[nodiscard]] bool primed() const noexcept { return primed_; }

  [[nodiscard]] OnlineMonitor& monitor() noexcept { return monitor_; }
  [[nodiscard]] const OnlineMonitor& monitor() const noexcept {
    return monitor_;
  }

 private:
  /// The head-of-run code: the late and future checks, the seals the
  /// report's event time triggers, then its frame. Returns nullptr for a
  /// dropped report (counted).
  StagingFrame* open_frame(const QosReport& report);
  /// Seals `interval`. `opening` is 1 when a report waits on this seal to
  /// stage into an interval with no frame yet: the telemetry sample counts
  /// that interval open.
  void seal(std::uint64_t interval, bool forced, std::size_t opening);
  /// Seals every interval the watermark or the flood bound has passed.
  void seal_ready(std::size_t opening);

  Config config_;
  OnlineMonitor monitor_;
  OverloadController overload_;
  LivenessTracker liveness_;
  std::map<std::uint64_t, StagingFrame> frames_;  ///< open intervals, ordered
  /// Sealed frames, reset and reused: frame storage (the dense staging
  /// lane is capacity-sized) is allocated at most open-span times, not
  /// once per interval. A seal pools its lane before the report that
  /// triggered it picks one, so an in-order lag-1 stream cycles one lane.
  std::vector<StagingFrame> frame_pool_;
  /// Precomputed "shedding can ever engage" — keeps the overload check
  /// off the per-report hot path in the (default) disabled configuration.
  bool shed_possible_ = false;
  std::vector<ClosedInterval> ready_;
  IngestCounters counters_;
  /// Counter values at the previous seal — the per-interval deltas the
  /// telemetry layer's IngestSample carries (see seal()).
  IngestCounters telemetry_baseline_;
  std::uint64_t next_to_seal_ = 1;
  std::uint64_t max_seen_ = 0;
  std::uint64_t tick_ = 0;
  bool primed_ = false;
};

}  // namespace acn
