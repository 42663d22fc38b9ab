#include "ingest/pipeline.hpp"

#include <array>
#include <stdexcept>
#include <utility>

namespace acn {

void WatermarkConfig::validate() const {
  if (allowed_lag == 0) {
    throw std::invalid_argument(
        "WatermarkConfig: allowed_lag must be >= 1 (0 would seal an interval "
        "on its first report)");
  }
  if (max_watermark_jump == 0) {
    throw std::invalid_argument(
        "WatermarkConfig: max_watermark_jump must be >= 1");
  }
}

namespace {

OnlineMonitor::Config roster_backed(OnlineMonitor::Config monitor,
                                    std::size_t capacity, std::size_t dim) {
  monitor.roster_capacity = capacity;
  monitor.roster_dim = dim;
  return monitor;
}

}  // namespace

IngestPipeline::IngestPipeline(Config config)
    : config_(std::move(config)),
      monitor_(roster_backed(config_.monitor, config_.capacity, config_.dim)),
      overload_(config_.overload),
      liveness_(config_.liveness) {
  if (config_.capacity == 0) {
    throw std::invalid_argument("IngestPipeline: capacity must be >= 1");
  }
  config_.watermark.validate();
  shed_possible_ = config_.overload.shed_claim_threshold !=
                   static_cast<std::size_t>(-1);
}

void IngestPipeline::prime(
    std::span<const std::pair<GatewayKey, Point>> fleet) {
  if (primed_) {
    throw std::logic_error("IngestPipeline::prime: already primed");
  }
  for (const auto& [key, position] : fleet) {
    monitor_.admit(key, position);
    liveness_.admitted(key, 0);
  }
  // Seal interval 0: primes the engine's state with the roster snapshot and
  // clears the just-admitted markers, so interval 1 trajectories exist.
  (void)monitor_.close_interval({});
  primed_ = true;
}

void IngestPipeline::prime(const Snapshot& initial) {
  if (primed_) {
    throw std::logic_error("IngestPipeline::prime: already primed");
  }
  // Device j is admitted from column entry j of each of the d columns.
  std::array<double, Point::kMaxDim> position{};
  const std::span<const double> claim(position.data(), initial.dim());
  for (DeviceId j = 0; j < initial.size(); ++j) {
    for (std::size_t t = 0; t < initial.dim(); ++t) position[t] = initial.col(t)[j];
    monitor_.admit(j, claim);
    liveness_.admitted(j, 0);
  }
  (void)monitor_.close_interval({});
  primed_ = true;
}

void IngestPipeline::push(const QosReport& report) { push_all({&report, 1}); }

void IngestPipeline::push_all(std::span<const QosReport> reports) {
  if (!primed_) {
    throw std::logic_error("IngestPipeline::push: prime() first");
  }
  std::size_t next = 0;
  while (next < reports.size()) {
    const std::size_t at = next++;
    const QosReport& head = reports[at];
    // A claim the roster would refuse is refused here, before its event
    // time counts for anything: staged, it would throw at the seal.
    if (!head.claim.fits(config_.dim)) {
      ++counters_.malformed_rejected;
      continue;
    }
    StagingFrame* frame = open_frame(head);
    if (frame == nullptr) continue;
    // The rest of the run can move neither the watermark nor the frame, so
    // the head and the rest stage in one loop, up to the next interval or
    // malformed claim.
    std::span<const QosReport> run = reports.subspan(at);
    if (shed_possible_) {
      // Overload shed: past the volume threshold, non-flagged claim updates
      // are sampled by content hash — the flagged ones always land. It
      // reads the frame's volume before each report, so it runs report by
      // report.
      if (!head.abnormal &&
          overload_.shed_claim(head.device, head.interval, frame->volume())) {
        ++counters_.shed_claims;
        frame->shed_engaged = true;
        continue;
      }
      run = run.first(1);
    }
    const StagingFrame::Tally tally = frame->stage(run, head.interval);
    next = at + tally.staged;
    counters_.accepted += tally.accepted;
    counters_.superseded += tally.superseded;
    counters_.duplicates += tally.duplicates;
  }
}

StagingFrame* IngestPipeline::open_frame(const QosReport& report) {
  const std::uint64_t k = report.interval;
  if (k < next_to_seal_) {
    // The interval is sealed; its snapshot already replayed this device's
    // last claim (the hostile layer's self-consistency rule). Retroactive
    // application would fork the published history, so: counted, dropped.
    ++counters_.late_sealed;
    return nullptr;
  }
  if (k > max_seen_) {
    // By subtraction: max_seen_ + max_future_skip wraps for a skip near
    // UINT64_MAX.
    if (k - max_seen_ > config_.watermark.max_future_skip) {
      ++counters_.future_rejected;
      return nullptr;
    }
    max_seen_ = k;  // the event time counts even if shed
    // Seal before staging: the lanes of the intervals this event time
    // closes return to the pool before the report picks one. Interval k
    // itself has no frame yet, and none of these seals can close it.
    seal_ready(/*opening=*/1);
  }

  auto it = frames_.find(k);
  if (it == frames_.end()) {
    StagingFrame fresh;
    if (frame_pool_.empty()) {
      fresh.configure(config_.capacity, config_.dim);
    } else {
      fresh = std::move(frame_pool_.back());
      frame_pool_.pop_back();
    }
    fresh.first_seen_tick = tick_;
    it = frames_.emplace(k, std::move(fresh)).first;
  }
  return &it->second;
}

void IngestPipeline::seal_ready(std::size_t opening) {
  // Watermark rule: k seals once max_seen - k >= allowed_lag, compared by
  // subtraction so an allowed_lag near UINT64_MAX cannot wrap. When one
  // advance flushes more than max_watermark_jump intervals (an interval
  // flood slammed the watermark forward), the excess — the oldest ones,
  // flushed furthest from their lateness window — seal forced/degraded.
  const std::uint64_t lag = config_.watermark.allowed_lag;
  while (max_seen_ >= next_to_seal_ && max_seen_ - next_to_seal_ >= lag) {
    const std::uint64_t pending = max_seen_ - next_to_seal_ - lag + 1;
    seal(next_to_seal_,
         /*forced=*/pending > config_.watermark.max_watermark_jump, opening);
  }
}

void IngestPipeline::tick() {
  ++tick_;
  if (config_.watermark.timeout_ticks == 0 || !primed_) return;
  // The stall rule watches the OLDEST staged frame: once it has been open
  // for timeout_ticks, everything up to and including it seals (the empty
  // gap intervals before it are only open because it dammed the stream).
  while (!frames_.empty()) {
    const auto oldest = frames_.begin();
    if (tick_ - oldest->second.first_seen_tick <
        config_.watermark.timeout_ticks) {
      break;
    }
    const std::uint64_t blocked_through = oldest->first;
    while (next_to_seal_ <= blocked_through) {
      seal(next_to_seal_, /*forced=*/true, /*opening=*/0);
    }
  }
}

void IngestPipeline::finish() {
  if (!primed_) return;
  while (next_to_seal_ <= max_seen_) {
    // End of stream: nothing further can arrive, so these frames are as
    // complete as they will ever be — a normal close, not a forced one.
    seal(next_to_seal_, /*forced=*/false, /*opening=*/0);
  }
}

std::vector<ClosedInterval> IngestPipeline::drain_ready() {
  return std::exchange(ready_, {});
}

void IngestPipeline::seal(std::uint64_t interval, bool forced,
                          std::size_t opening) {
  ClosedInterval closed;
  closed.interval = interval;
  closed.forced = forced;

  StagingFrame frame;
  bool poolable = false;  // gap intervals seal a lane-less placeholder
  if (const auto it = frames_.find(interval); it != frames_.end()) {
    frame = std::move(it->second);
    frames_.erase(it);
    poolable = true;
  }
  bool degraded = forced || frame.shed_engaged;
  if (forced) ++counters_.forced_closes;

  // Apply the staged claims in key order (deterministic under any delivery
  // permutation). First-seen keys are auto-admitted; when the roster is
  // full the report is refused and the interval marked degraded. Only the
  // flagged claims become Points: they are the overload deferral's input.
  std::vector<GatewayKey> flagged;
  std::vector<Point> flagged_claims;
  const FleetRoster& roster = monitor_.roster();
  const bool liveness_on = liveness_.enabled();
  frame.for_each_sorted([&](GatewayKey key, std::span<const double> claim,
                            bool is_flagged) {
    if (monitor_.try_report(key, claim)) {
      if (liveness_on && liveness_.reported(key, interval)) {
        ++counters_.revived_devices;
      }
    } else {
      if (roster.active_count() >= roster.capacity()) {
        ++counters_.admit_rejected;
        degraded = true;
        return;
      }
      monitor_.admit(key, claim);
      if (liveness_on) liveness_.admitted(key, interval);
      ++counters_.admitted_devices;
    }
    ++closed.reported;
    if (is_flagged) {
      flagged.push_back(key);
      flagged_claims.emplace_back(claim);
    }
  });
  if (poolable) {
    frame.reset();
    frame_pool_.push_back(std::move(frame));
  }
  closed.replayed = monitor_.roster().active_count() - closed.reported;
  counters_.replayed_claims += closed.replayed;

  // Liveness: devices silent past the threshold walk the retry ladder;
  // the exhausted ones go through the roster's retire path (slot parks at
  // its last claim, open episode force-closed). A device that reported
  // this interval was just marked heard, so it can never expire here.
  for (const GatewayKey key : liveness_.sealed(interval)) {
    liveness_.forget(key);
    if (!monitor_.roster().active(key)) continue;  // externally retired
    monitor_.retire(key);
    ++counters_.retired_devices;
    closed.retired.push_back(key);
  }

  // Overload deferral: past the abnormal cap, flagged devices with no
  // flagged 2r-neighbour (at claimed positions) are deferred — provably
  // without effect on the surviving devices' verdicts (see overload.hpp).
  const std::vector<std::size_t> deferred = overload_.defer_candidates(
      flagged_claims, config_.monitor.model.window());
  if (!deferred.empty()) {
    degraded = true;
    counters_.deferred_devices += deferred.size();
    std::vector<GatewayKey> kept;
    kept.reserve(flagged.size() - deferred.size());
    std::size_t next = 0;
    for (std::size_t i = 0; i < flagged.size(); ++i) {
      if (next < deferred.size() && deferred[next] == i) {
        closed.deferred.push_back(flagged[i]);
        ++next;
      } else {
        kept.push_back(flagged[i]);
      }
    }
    flagged = std::move(kept);
  }

  closed.degraded = degraded;
  closed.report = monitor_.close_interval(flagged, degraded);

  // Telemetry: annotate the interval the monitor just recorded with what
  // ingestion did to it — the per-seal deltas of the cumulative counters
  // plus the watermark distance and queue depth at the seal. The queue
  // depth counts the interval of a report waiting on this seal to stage.
  if (obs::TelemetryHub* hub = monitor_.telemetry()) {
    obs::IngestSample sample;
    sample.seal_lag = max_seen_ > interval ? max_seen_ - interval : 0;
    sample.forced = forced;
    sample.reported = closed.reported;
    sample.replayed = closed.replayed;
    sample.deferred = closed.deferred.size();
    sample.retired = closed.retired.size();
    sample.late_sealed = counters_.late_sealed - telemetry_baseline_.late_sealed;
    sample.duplicates = counters_.duplicates - telemetry_baseline_.duplicates;
    sample.shed_claims = counters_.shed_claims - telemetry_baseline_.shed_claims;
    sample.open_intervals = frames_.size() + opening;
    telemetry_baseline_ = counters_;
    hub->annotate_ingest(closed.report.interval, sample);
  }

  ready_.push_back(std::move(closed));
  ++next_to_seal_;
}

}  // namespace acn
