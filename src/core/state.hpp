// System states (§III-A): S_k is the vector of device positions in the QoS
// space at discrete time k. StatePair bundles two successive states S_{k-1},
// S_k together with the abnormal set A_k (devices whose error-detection
// function fired in [k-1, k], Definition 5) — exactly the input of every
// algorithm in the paper.
#pragma once

#include <vector>

#include "common/device_set.hpp"
#include "core/kernels/quantize.hpp"
#include "core/point.hpp"

namespace acn {

class WorkerPool;

/// Positions of all devices at one discrete time. Immutable once built.
class Snapshot {
 public:
  /// Builds from per-device positions; all points must share the same
  /// dimension and lie in [0,1]^d. Throws std::invalid_argument otherwise.
  explicit Snapshot(std::vector<Point> positions);

  [[nodiscard]] std::size_t size() const noexcept { return positions_.size(); }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] const Point& operator[](DeviceId j) const noexcept {
    return positions_[j];
  }
  [[nodiscard]] const std::vector<Point>& positions() const noexcept {
    return positions_;
  }

 private:
  std::vector<Point> positions_;
  std::size_t dim_ = 0;
};

/// Two successive system states plus the abnormal set A_k.
class StatePair {
 public:
  /// Throws std::invalid_argument if the snapshots disagree in size or
  /// dimension, or if abnormal contains an out-of-range device id.
  StatePair(Snapshot prev, Snapshot curr, DeviceSet abnormal);

  /// In-place interval roll for the streaming engine: S_{k-1} takes the old
  /// S_k (moved, not copied), S_k takes `next` (moved in), A_k becomes
  /// `abnormal`. The joint coordinates and the SoA columns are rewritten
  /// only where a trajectory actually changed — the new prev half equals
  /// the old curr half by construction, so a device untouched by both
  /// intervals costs one comparison per dimension and zero writes. Returns
  /// the number of devices whose CURRENT position changed in this roll.
  /// Throws std::invalid_argument (state unchanged) if `next` disagrees in
  /// size or dimension or `abnormal` is out of range.
  ///
  /// PRECONDITION (stable device universe): slot j of `next` describes the
  /// same device as slot j of the current snapshot. The roll has no notion
  /// of devices joining or leaving — churn is handled one layer up by
  /// FleetRoster (src/online/roster), which keeps a fixed-capacity dense id
  /// space, parks vacant slots at their last position, and never flags a
  /// device abnormal in the interval its slot was (re)assigned, so a slot
  /// swap can never fabricate a characterizable trajectory.
  ///
  /// With a `pool`, the roll fans out over contiguous device-id chunks:
  /// each lane rewrites the joint/SoA entries of its own id range (disjoint
  /// writes) and counts its chunk's moves, so the state and the count are
  /// identical to the serial roll for every pool size and chunking.
  /// `lane_ms`, when given, receives per-lane busy milliseconds (the
  /// engine's lane-skew instrumentation).
  std::size_t advance(Snapshot next, DeviceSet abnormal, WorkerPool* pool = nullptr,
                      std::vector<double>* lane_ms = nullptr);

  [[nodiscard]] std::size_t n() const noexcept { return prev_.size(); }
  [[nodiscard]] std::size_t dim() const noexcept { return prev_.dim(); }
  /// Dimension of the joint space E x E.
  [[nodiscard]] std::size_t joint_dim() const noexcept { return 2 * dim(); }

  [[nodiscard]] const Snapshot& prev() const noexcept { return prev_; }
  [[nodiscard]] const Snapshot& curr() const noexcept { return curr_; }
  [[nodiscard]] const Point& prev_pos(DeviceId j) const noexcept { return prev_[j]; }
  [[nodiscard]] const Point& curr_pos(DeviceId j) const noexcept { return curr_[j]; }

  /// Joint position (coords at k-1 concatenated with coords at k); cached.
  [[nodiscard]] const Point& joint(DeviceId j) const noexcept { return joint_[j]; }

  /// Structure-of-arrays view of one joint dimension: joint_col(t)[j] ==
  /// joint(j)[t], one contiguous double row per dimension. The canonical
  /// window slides scan one dimension across many devices; the columnar
  /// layout turns those inner loops into flat-array scans instead of strided
  /// Point reads.
  [[nodiscard]] const double* joint_col(std::size_t dim) const noexcept {
    return joint_cols_.data() + dim * n();
  }

  /// Fixed-point mirror of joint_col: qcol(t)[j] == kernels::quantize of
  /// joint_col(t)[j], maintained incrementally by advance() (only entries
  /// whose double changed are requantized — O(|moved|) per roll). The SIMD
  /// window/radius kernels compare these 8 lanes at a time and fall back to
  /// the doubles only on quantization-boundary ties (see
  /// core/kernels/quantize.hpp for the byte-identity argument).
  [[nodiscard]] const std::uint32_t* qcol(std::size_t dim) const noexcept {
    return qcols_.data() + dim * n();
  }
  /// All quantized columns, [dim][device] with row stride n() — the layout
  /// kernels::Ops::filter_in_radius consumes.
  [[nodiscard]] const std::uint32_t* qcols() const noexcept { return qcols_.data(); }
  [[nodiscard]] const double* joint_cols() const noexcept {
    return joint_cols_.data();
  }

  /// A_k: devices with an abnormal trajectory in [k-1, k].
  [[nodiscard]] const DeviceSet& abnormal() const noexcept { return abnormal_; }
  [[nodiscard]] bool is_abnormal(DeviceId j) const noexcept {
    return abnormal_.contains(j);
  }

  /// Joint Chebyshev distance between devices a and b: the max of their
  /// distances at k-1 and at k. The pair {a, b} can share an r-consistent
  /// motion iff this is <= 2r.
  [[nodiscard]] double joint_distance(DeviceId a, DeviceId b) const noexcept {
    return chebyshev(joint_[a], joint_[b]);
  }

 private:
  Snapshot prev_;
  Snapshot curr_;
  DeviceSet abnormal_;
  std::vector<Point> joint_;
  std::vector<double> joint_cols_;       ///< column-major copy: [dim][device]
  std::vector<std::uint32_t> qcols_;     ///< quantized mirror of joint_cols_
};

}  // namespace acn
