#include "net/monitoring.hpp"

#include <stdexcept>

namespace acn {

MonitoringSwarm::MonitoringSwarm(const Topology& topology, SwarmConfig config,
                                 const Detector& prototype)
    : topology_(topology),
      config_(config),
      engine_(FrameEngine::Config{.model = config.model,
                                  .characterize = config.characterize}) {
  config_.validate();
  banks_.reserve(topology.gateway_count());
  for (std::size_t g = 0; g < topology.gateway_count(); ++g) {
    banks_.emplace_back(prototype, topology.service_count());
  }
  fired_this_interval_.assign(topology.gateway_count(), false);
}

Snapshot MonitoringSwarm::snapshot_positions(QosNetwork& network,
                                             const FaultInjector& faults) const {
  std::vector<Point> positions;
  positions.reserve(topology_.gateway_count());
  std::vector<double> coords(topology_.service_count());
  for (DeviceId g = 0; g < topology_.gateway_count(); ++g) {
    for (std::size_t s = 0; s < topology_.service_count(); ++s) {
      coords[s] = network.true_qos(faults, g, s, tick_);
    }
    positions.emplace_back(std::span<const double>(coords));
  }
  return Snapshot(std::move(positions));
}

std::optional<SnapshotOutcome> MonitoringSwarm::tick(QosNetwork& network,
                                                     const FaultInjector& faults) {
  // Sample and detect.
  std::vector<double> samples(topology_.service_count());
  for (DeviceId g = 0; g < topology_.gateway_count(); ++g) {
    for (std::size_t s = 0; s < topology_.service_count(); ++s) {
      samples[s] = network.sample(faults, g, s, tick_);
    }
    if (banks_[g].observe(samples)) fired_this_interval_[g] = true;
  }
  ++tick_;

  if (tick_ % config_.snapshot_interval != 0) return std::nullopt;

  // Interval boundary: freeze S_k, build A_k, characterize.
  const Snapshot current = snapshot_positions(network, faults);
  SnapshotOutcome outcome;
  outcome.tick = tick_;
  outcome.truth_impacted = faults.impacted_gateways(topology_, tick_ - 1);

  std::vector<DeviceId> abnormal;
  for (DeviceId g = 0; g < topology_.gateway_count(); ++g) {
    if (fired_this_interval_[g]) abnormal.push_back(g);
  }
  outcome.abnormal = DeviceSet(std::move(abnormal));
  fired_this_interval_.assign(topology_.gateway_count(), false);

  // The engine rolls the frozen snapshot's columns into its state in place
  // and characterizes A_k over the shared plane.
  const std::optional<FrameEngine::Result> result =
      engine_.observe(current, outcome.abnormal);
  if (!result.has_value() || outcome.abnormal.empty()) return outcome;

  for (std::size_t i = 0; i < result->decisions.size(); ++i) {
    const DeviceId g = outcome.abnormal[i];
    const Decision& decision = result->decisions[i];
    outcome.reports.push_back(GatewayReport{g, decision.cls, decision.rule});
  }
  outcome.isolated = result->sets.isolated;
  outcome.massive = result->sets.massive;
  outcome.unresolved = result->sets.unresolved;
  return outcome;
}

void ReportCenter::ingest(const SnapshotOutcome& outcome) {
  ++snapshots_;
  naive_ += outcome.abnormal.size();
  filtered_ += outcome.isolated.size();
  unresolved_ += outcome.unresolved.size();
  // One alert per snapshot with any massive anomaly (the OTT operator needs
  // the event, not one alert per impacted gateway).
  network_ += outcome.massive.empty() ? 0 : 1;
}

double ReportCenter::suppression_ratio() const noexcept {
  if (naive_ == 0) return 0.0;
  return 1.0 - static_cast<double>(filtered_) / static_cast<double>(naive_);
}

}  // namespace acn
