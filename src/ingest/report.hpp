// The wire-level unit of the ingestion layer: one QoS report.
//
// The paper's model hands the characterizer a closed interval — every
// device's position at k and the abnormal set A_k, delivered exactly once,
// in order, before the snapshot is taken (§III-A). A real report stream
// offers none of that: reports arrive out of order across interval
// boundaries, are retransmitted, go missing, and sources stall or die
// (PR 5's hostile families measured what that does to the verdicts; the
// ingest layer exists to *tolerate* it). A QosReport therefore names its
// event time explicitly — the interval its claim describes — instead of
// relying on arrival order, and carries a per-device emission counter so
// duplicates and supersessions resolve the same way under any delivery
// permutation.
//
// The claim itself is a compact value: its d coordinates inline, sized to
// the roster's dimension limit, so a report carries d doubles and the seal
// hands them to the roster as a span — no 16-coordinate Point on the wire.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "core/point.hpp"

namespace acn {

/// Deployment-level stable gateway identifier — the same key space the
/// FleetRoster maps to dense DeviceId slots (online/roster.hpp).
using GatewayKey = std::uint64_t;

/// A claimed QoS position: up to kMaxDim coordinates held inline, the
/// roster's dimension limit (a joint position of 2d coordinates must fit a
/// Point). Range is not checked here; IngestPipeline refuses a claim that
/// is not a point of its [0,1]^d (fits()) when the report is pushed.
class Claim {
 public:
  static constexpr std::size_t kMaxDim = Point::kMaxDim / 2;

  Claim() = default;
  /// Throws std::invalid_argument if coords holds more than kMaxDim values.
  explicit Claim(std::span<const double> coords) : dim_(coords.size()) {
    if (dim_ > kMaxDim) {
      throw std::invalid_argument(
          "Claim: more coordinates than any roster holds (at most 8)");
    }
    std::copy(coords.begin(), coords.end(), coords_.begin());
  }
  /// Implicit, so a Point is assigned to QosReport::claim as before; throws
  /// like the span constructor.
  Claim(const Point& point) : Claim(point.coords()) {}

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  /// True iff the claim is a point of [0,1]^dim — `dim` coordinates, each
  /// in [0, 1], NaN failing — which is exactly what a roster of dimension
  /// `dim` accepts (Snapshot::set).
  [[nodiscard]] bool fits(std::size_t dim) const noexcept {
    return dim_ == dim && std::all_of(coords_.begin(), coords_.begin() + dim_,
                                      in_unit_interval);
  }
  [[nodiscard]] double operator[](std::size_t i) const noexcept { return coords_[i]; }
  [[nodiscard]] std::span<const double> coords() const noexcept {
    return {coords_.data(), dim_};
  }

  friend bool operator==(const Claim& a, const Claim& b) noexcept {
    return std::ranges::equal(a.coords(), b.coords());
  }

 private:
  std::array<double, kMaxDim> coords_{};
  std::size_t dim_ = 0;
};

/// One device's QoS claim for one interval.
struct QosReport {
  GatewayKey device = 0;
  /// Event time: the interval k this claim describes (NOT arrival time).
  std::uint64_t interval = 0;
  /// Claimed position in the QoS space at k.
  Claim claim;
  /// The device's error-detection flag a_k (Definition 5) for [k-1, k].
  bool abnormal = false;
  /// Per-device monotone emission counter, assigned at the SOURCE. A
  /// retransmission reuses the original counter (same report, delivered
  /// twice); a correction carries a higher one. Staging resolves every
  /// (device, interval) cell to the highest counter seen — a commutative
  /// rule, so the sealed frame is independent of delivery order.
  std::uint64_t arrival_seq = 0;
};
static_assert(sizeof(QosReport) <= 104, "a report carries its claim's d doubles inline");

/// Running tallies of everything the pipeline tolerated, dropped, or shed.
/// Exposed, never silent: each counter is a violation of the paper's
/// delivery assumptions that the pipeline absorbed.
struct IngestCounters {
  std::uint64_t accepted = 0;         ///< reports applied to a staging frame
  std::uint64_t duplicates = 0;       ///< redelivery of an already-staged seq
  std::uint64_t superseded = 0;       ///< lost the per-cell seq race (either side)
  std::uint64_t late_sealed = 0;      ///< interval already sealed; claim replayed
  std::uint64_t future_rejected = 0;  ///< event time implausibly far ahead
  std::uint64_t malformed_rejected = 0;  ///< claim not a point of [0,1]^dim
  std::uint64_t shed_claims = 0;      ///< overload: sampled-out claim updates
  std::uint64_t deferred_devices = 0; ///< overload: characterization deferred
  std::uint64_t forced_closes = 0;    ///< timeout / interval-flood seals
  std::uint64_t replayed_claims = 0;  ///< active devices sealed without a report
  std::uint64_t retired_devices = 0;  ///< liveness gave a device up
  std::uint64_t revived_devices = 0;  ///< suspect device reported again
  std::uint64_t admitted_devices = 0; ///< first-seen keys auto-admitted
  std::uint64_t admit_rejected = 0;   ///< no free slot for a first-seen key
};

}  // namespace acn
