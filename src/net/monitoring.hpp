// Gateway-side online monitoring: ties the detect substrate (a_k) and the
// core characterizer together over the ISP network, implementing the
// paper's motivating workflow (§I):
//
//   * each gateway continuously samples the QoS of its d services and feeds
//     a per-service detector bank (a_k(j));
//   * every `snapshot_interval` ticks the swarm freezes a snapshot S_k; the
//     gateways whose banks fired during the interval form A_k;
//   * each abnormal gateway characterizes its anomaly locally (Theorems
//     5-7, Corollary 8) and reports **only isolated** anomalies to the ISP
//     (the over-the-top variant reports only massive/network events);
//   * the report centre tallies the would-be support calls, quantifying the
//     report-storm suppression the paper argues for.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/characterizer.hpp"
#include "core/frame.hpp"
#include "detect/detector.hpp"
#include "detect/detector_bank.hpp"
#include "net/qos_network.hpp"
#include "net/topology.hpp"

namespace acn {

struct SwarmConfig {
  Params model;                         ///< r, tau of the characterization
  std::uint64_t snapshot_interval = 8;  ///< ticks per interval [k-1, k]
  CharacterizeOptions characterize;

  void validate() const {
    model.validate();
    if (snapshot_interval == 0) {
      throw std::invalid_argument("SwarmConfig: snapshot_interval must be >= 1");
    }
  }
};

struct GatewayReport {
  DeviceId gateway = 0;
  AnomalyClass cls = AnomalyClass::kUnresolved;
  DecisionRule rule = DecisionRule::kTheorem5;
};

/// Everything the swarm concluded at one snapshot boundary.
struct SnapshotOutcome {
  std::uint64_t tick = 0;
  DeviceSet abnormal;  ///< A_k (detector banks that fired this interval)
  std::vector<GatewayReport> reports;
  DeviceSet isolated;
  DeviceSet massive;
  DeviceSet unresolved;
  DeviceSet truth_impacted;  ///< gateways actually crossed by an active fault
};

class MonitoringSwarm {
 public:
  /// One detector bank per gateway, cloned from `prototype`.
  MonitoringSwarm(const Topology& topology, SwarmConfig config,
                  const Detector& prototype);

  /// Advances one tick: samples every (gateway, service), feeds detectors.
  /// Returns the characterization outcome when the tick closes an interval.
  std::optional<SnapshotOutcome> tick(QosNetwork& network,
                                      const FaultInjector& faults);

  [[nodiscard]] std::uint64_t now() const noexcept { return tick_; }

 private:
  [[nodiscard]] Snapshot snapshot_positions(QosNetwork& network,
                                            const FaultInjector& faults) const;

  const Topology& topology_;
  SwarmConfig config_;
  std::vector<DetectorBank> banks_;
  std::vector<bool> fired_this_interval_;
  /// Rolling snapshot state: each frozen snapshot's columns are rolled into
  /// the engine's state; the swarm retains no fleet-position copy of its own.
  FrameEngine engine_;
  std::uint64_t tick_ = 0;
};

/// Tallies reports across snapshots: how many support calls the ISP would
/// receive with and without local characterization.
class ReportCenter {
 public:
  void ingest(const SnapshotOutcome& outcome);

  /// Support calls under the naive policy: every abnormal gateway calls.
  [[nodiscard]] std::uint64_t naive_calls() const noexcept { return naive_; }
  /// Support calls under the paper's policy: only isolated anomalies call.
  [[nodiscard]] std::uint64_t filtered_calls() const noexcept { return filtered_; }
  /// Network events the over-the-top operator is alerted about.
  [[nodiscard]] std::uint64_t network_alerts() const noexcept { return network_; }
  [[nodiscard]] std::uint64_t unresolved_count() const noexcept { return unresolved_; }
  [[nodiscard]] std::uint64_t snapshots() const noexcept { return snapshots_; }

  /// 1 - filtered/naive: the fraction of support calls suppressed.
  [[nodiscard]] double suppression_ratio() const noexcept;

 private:
  std::uint64_t naive_ = 0;
  std::uint64_t filtered_ = 0;
  std::uint64_t network_ = 0;
  std::uint64_t unresolved_ = 0;
  std::uint64_t snapshots_ = 0;
};

}  // namespace acn
