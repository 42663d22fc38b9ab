#include "online/monitor.hpp"

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

namespace acn {

OnlineMonitor::OnlineMonitor(Config config)
    : config_(config),
      engine_(FrameEngine::Config{.model = config.model,
                                  .characterize = config.characterize,
                                  .threads = config.characterize_threads,
                                  .plane_arena_budget = config.plane_arena_budget}),
      episodes_(config.episode_quiet_intervals) {
  if (config_.adaptive.has_value()) sampler_.emplace(*config_.adaptive);
  if (config_.roster_capacity > 0) {
    roster_.emplace(config_.roster_capacity, config_.roster_dim);
  }
  if (config_.telemetry.has_value()) {
    hub_ = std::make_unique<obs::TelemetryHub>(*config_.telemetry);
  }
}

void OnlineMonitor::roster_mode_off(const char* caller) {
  throw std::logic_error(std::string(caller) + ": roster mode is off");
}

void OnlineMonitor::retire(GatewayKey key) {
  FleetRoster& roster = roster_or_throw("OnlineMonitor::retire");
  // A late force-close can race an explicit retirement (operator removal
  // vs. the ingestion layer's liveness expiry): the second retire of the
  // same gateway is a no-op, never a throw and never a second episode.
  const std::optional<DeviceId> slot = roster.slot_of(key);
  if (!slot.has_value()) return;
  // Close the slot's episode before the slot can be recycled: a new
  // occupant must never extend the departed gateway's incident.
  episodes_.close(*slot);
  roster.retire(key);
}

IntervalReport OnlineMonitor::close_interval(
    std::span<const GatewayKey> abnormal_keys, bool degraded) {
  FleetRoster& roster = roster_or_throw("OnlineMonitor::close_interval");
  const DeviceSet abnormal = roster.abnormal_slots(abnormal_keys);
  roster.end_interval();
  IntervalReport report =
      step(roster.snapshot(), abnormal, degraded,
           marks_cover_state_ ? roster.changes() : std::span<const std::uint8_t>{});
  // The engine's S_k is the roster's snapshot now. Only here, after the
  // close returned, may the marks go.
  roster.clear_changes();
  marks_cover_state_ = true;
  return report;
}

const FleetRoster& OnlineMonitor::roster() const {
  if (!roster_.has_value()) roster_mode_off("OnlineMonitor::roster");
  return *roster_;
}

IntervalReport OnlineMonitor::observe(const Snapshot& positions,
                                      const DeviceSet& abnormal,
                                      bool degraded) {
  // The engine's S_k becomes `positions`, which may differ from the
  // roster's snapshot at slots the roster never marked.
  marks_cover_state_ = false;
  return step(positions, abnormal, degraded, {});
}

IntervalReport OnlineMonitor::step(const Snapshot& positions,
                                   const DeviceSet& abnormal, bool degraded,
                                   std::span<const std::uint8_t> changed) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = hub_ ? Clock::now() : Clock::time_point{};
  // Episode-transition baselines: open + closed only ever grows by one per
  // episode opened, closed only by one per episode closed.
  const std::size_t episodes_started_before =
      hub_ ? episodes_.closed().size() + episodes_.open_count() : 0;
  const std::size_t episodes_closed_before = hub_ ? episodes_.closed().size() : 0;

  IntervalReport report;
  report.interval = interval_;
  report.abnormal = abnormal;
  report.degraded = degraded;

  // The engine rolls its state in place (the snapshot's columns are
  // compared into the current half, at the marked ids alone when `changed`
  // is given; the snapshot is not kept), indexes A_k, and characterizes it
  // over the shared motion plane — serially or across its worker pool.
  // `degraded` never reaches it: it is metadata. A throw from here on
  // leaves the hub's region counts behind the rolled state.
  const bool regions_current = std::exchange(regions_current_, false);
  std::optional<FrameEngine::Result> result =
      engine_.observe(positions, abnormal, changed);
  const std::span<const DeviceId> ordered = engine_.state().abnormal().ids();
  verdicts_.clear();
  if (result.has_value() && !abnormal.empty()) {
    for (const Decision& decision : result->decisions) {
      verdicts_.push_back(decision.cls);
    }
    report.decisions = std::move(result->decisions);
    report.isolated = result->sets.isolated;
    report.massive = result->sets.massive;
    report.unresolved = result->sets.unresolved;
  }

  // Episode bookkeeping and the adaptive controller run on every interval,
  // including quiet ones.
  episodes_.observe(interval_, ordered.first(verdicts_.size()), verdicts_);
  if (sampler_.has_value()) {
    (void)sampler_->next_interval(!report.abnormal.empty());
  }

  // Telemetry reads only the interval's OUTPUTS (report sets, engine stats,
  // episode tallies), after every decision has been made — it cannot change
  // a verdict byte (tests/obs/telemetry_conformance_test.cc pins this).
  if (hub_) {
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    obs::IntervalTelemetry record =
        obs::frame_record(interval_, ms, engine_.last_stats());
    const StatePair& state = engine_.state();
    record.devices = static_cast<std::uint32_t>(state.n());
    record.abnormal = static_cast<std::uint32_t>(report.abnormal.size());
    record.isolated = static_cast<std::uint32_t>(report.isolated.size());
    record.massive = static_cast<std::uint32_t>(report.massive.size());
    record.unresolved = static_cast<std::uint32_t>(report.unresolved.size());
    for (const Decision& decision : report.decisions) {
      if (decision.rule == DecisionRule::kBudgetExhausted) {
        ++record.budget_exhausted;
      }
    }
    record.degraded = degraded;
    record.episodes_closed = static_cast<std::uint32_t>(
        episodes_.closed().size() - episodes_closed_before);
    record.episodes_opened = static_cast<std::uint32_t>(
        episodes_.closed().size() + episodes_.open_count() -
        episodes_started_before);
    record.episodes_open = episodes_.open_count();
    // Regions are dim-0 stripes of S_k: the curr half's first column. The
    // kept device counts follow this roll's moved devices from their
    // S_{k-1} stripe, unless another roll came between.
    record.regions = hub_->tally_rolled(
        {state.joint_col(0), state.n()}, {state.joint_col(state.dim()), state.n()},
        state.moved(), !regions_current, report.abnormal, report.isolated,
        report.massive, report.unresolved);
    hub_->record(std::move(record));
    regions_current_ = true;
  }

  ++interval_;
  return report;
}

}  // namespace acn
