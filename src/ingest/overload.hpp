// OverloadController: graceful degradation policy under report flood.
//
// When an interval's report volume blows past what the pipeline is
// provisioned for, the failure mode must never be a stall (backpressure all
// the way to every source) or a crash (unbounded staging memory) — it is a
// *marked degraded interval*, produced by two verdict-safety-aware sheds:
//
//   1. Claim sampling: past the volume threshold, non-abnormal claim
//      updates are kept 1-in-stride by a content hash of (device,
//      interval) — order-independent, so a shed interval is still a pure
//      function of the report set. A skipped device replays its last claim.
//      This is verdict-safe for the CURRENT interval: motion families are
//      computed over A_k only, so a normal device's position never enters a
//      verdict — the distortion (a stale trajectory if the device turns
//      abnormal later) is exactly why the interval is marked degraded.
//      Reports with the abnormal flag are NEVER shed.
//
//   2. Characterization deferral: past the abnormal cap, flagged devices
//      with no other flagged device within the 2r consistency window (at
//      their claimed current positions) are deferred — dropped from the
//      A_k handed to the engine, reported separately. Deferral of exactly
//      these devices provably cannot change any other device's verdict: a
//      motion containing devices i and j needs chebyshev(curr_i, curr_j)
//      <= 2r, so a device with no flagged 2r-neighbour at k shares no
//      motion with anyone — it is precisely the Theorem-5 isolated
//      configuration, the one class whose full characterization buys the
//      operator nothing a distance check didn't already say.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/point.hpp"
#include "ingest/report.hpp"

namespace acn {

struct OverloadConfig {
  /// Reports staged in one interval, duplicates included
  /// (StagingFrame::volume()), beyond which claim sampling engages for that
  /// interval. SIZE_MAX disables shedding.
  std::size_t shed_claim_threshold = static_cast<std::size_t>(-1);
  /// Keep 1 claim in `stride` while shedding (>= 1; 1 keeps everything).
  std::size_t shed_sample_stride = 8;
  /// Flagged-device count beyond which non-adjacent flagged devices are
  /// deferred. SIZE_MAX disables deferral.
  std::size_t defer_abnormal_cap = static_cast<std::size_t>(-1);
};

class OverloadController {
 public:
  explicit OverloadController(OverloadConfig config);

  [[nodiscard]] const OverloadConfig& config() const noexcept {
    return config_;
  }

  /// True if this non-abnormal claim update should be dropped, given the
  /// interval's staged volume so far. Pure in (device, interval) — the
  /// same report is kept or shed under any delivery order once the frame
  /// is past the threshold.
  [[nodiscard]] bool shed_claim(GatewayKey device, std::uint64_t interval,
                                std::size_t frame_volume) const noexcept;

  /// Indices into `claims` of devices to defer: engaged only when
  /// claims.size() > defer_abnormal_cap, and then selecting every device
  /// with no other flagged device within chebyshev distance `window`
  /// (= 2r) of its claimed position. Returned ascending. One GridIndex over
  /// the claims (cell side `window`, at least kMinGridCell) answers one
  /// has_neighbour() per device, which stops at the first flagged claim in
  /// `window`: O(|claims|) for a flood clustered in one 2r ball, and up to
  /// 3^d cells' members for a claim alone in its cell. When engaged, throws
  /// std::invalid_argument unless the claims are points of one [0,1]^d with
  /// d <= Claim::kMaxDim, as every staged claim is.
  [[nodiscard]] std::vector<std::size_t> defer_candidates(
      const std::vector<Point>& claims, double window) const;

 private:
  OverloadConfig config_;
};

}  // namespace acn
