// The benchmark's workloads and their generated inputs.
//
// A workload is a fleet of n devices streaming one QosReport per device per
// interval through an IngestPipeline. Everything the pipeline will consume
// is generated here, from the seed alone, before any timed region: the
// priming snapshot S_0, the claims of every interval, the delivery schedule
// (order, duplicates), the cut of that schedule into bursts, and the
// expected verdicts of every interval from the from-scratch Characterizer.
//
// Positions are kept as compact d-wide double rows, and the schedule as
// 24-byte (device, interval, seq, flag) entries: a QosReport carries a
// 136-byte Point, so holding a whole n = 200,000 schedule as reports would
// cost the benchmark more memory than the pipeline it measures. Each burst
// is expanded into real QosReports just before it is pushed, outside the
// timed region.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/device_set.hpp"
#include "core/params.hpp"
#include "core/state.hpp"
#include "ingest/report.hpp"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// "paper-dimensioned" when (r, tau) follow the paper's rule carried to n,
  /// "stress" when they are deliberately held outside it.
  std::string regime;
  std::size_t n = 0;
  std::uint32_t errors = 0;  ///< A: errors injected per interval
  acn::Params model;
  std::size_t intervals = 0;  ///< K: intervals in one pass of the stream
  std::uint64_t allowed_lag = 1;
  /// combined-stress hostile family delivered out of order with duplicates;
  /// otherwise the clean §VII-A stream delivered in order, exactly once.
  bool hostile = false;
};

/// Names accepted by workload_spec().
const std::vector<std::string>& workload_names();

/// The named workload at benchmark size, or at the self-test's tiny size.
/// Throws std::invalid_argument on an unknown name.
WorkloadSpec workload_spec(const std::string& name, bool tiny);

/// Expected verdict sets of one interval.
struct Expected {
  acn::DeviceSet isolated;
  acn::DeviceSet massive;
  acn::DeviceSet unresolved;
};

/// One delivery of the schedule; its claim is the interval's position row.
struct Delivery {
  std::uint32_t device = 0;
  std::uint32_t interval = 0;
  std::uint64_t seq = 0;
  bool abnormal = false;
};

struct Inputs {
  WorkloadSpec spec;
  std::uint64_t seed = 0;
  std::size_t dim = 2;
  /// (K + 1) blocks of n rows of dim doubles; block 0 is S_0.
  std::vector<double> coords;
  std::vector<acn::DeviceSet> abnormal;  ///< A_k, index 1..K
  std::vector<Expected> expected;        ///< verdicts, index 1..K
  std::vector<Delivery> schedule;
  /// K + 1 cut points: burst b is schedule[burst_begin[b], burst_begin[b+1]).
  std::vector<std::size_t> burst_begin;
  std::uint64_t fingerprint = 0;  ///< hash of S_0, every claim, the schedule
  double generate_s = 0.0;        ///< input generation, oracle included
  double oracle_s = 0.0;          ///< of which: from-scratch verdicts

  [[nodiscard]] std::size_t n() const noexcept { return spec.n; }
  [[nodiscard]] std::size_t intervals() const noexcept { return spec.intervals; }
  [[nodiscard]] std::size_t bursts() const noexcept {
    return burst_begin.size() - 1;
  }

  [[nodiscard]] acn::Point claim(std::size_t k, std::size_t j) const;
  [[nodiscard]] acn::Snapshot snapshot(std::size_t k) const;
  /// Every device's claim at interval k, written into `out` (resized to n).
  void claims_into(std::size_t k, std::vector<acn::Point>& out) const;
  /// The priming fleet: gateway j at its S_0 position.
  [[nodiscard]] std::vector<std::pair<acn::GatewayKey, acn::Point>> fleet() const;
  /// Burst b as the QosReports the pipeline consumes (out is reused).
  void materialize(std::size_t b, std::vector<acn::QosReport>& out) const;
};

/// Generates a workload's inputs from its seed (same seed, same inputs).
Inputs generate(const WorkloadSpec& spec, std::uint64_t seed);

}  // namespace perfbench
