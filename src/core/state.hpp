// System states (§III-A): S_k is the vector of device positions in the QoS
// space at discrete time k. StatePair bundles two successive states S_{k-1},
// S_k together with the abnormal set A_k (devices whose error-detection
// function fired in [k-1, k], Definition 5) — exactly the input of every
// algorithm in the paper.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/device_set.hpp"
#include "core/point.hpp"

namespace acn {

class WorkerPool;

/// Positions of all devices at one discrete time, stored as dim-strided
/// columns: col(t)[j] is coordinate t of device j, one contiguous double
/// row per dimension ([dim][n]). Every coordinate lies in [0, 1] at all
/// times: the constructors check it, and set(), the one mutator, checks a
/// position before writing it. Point values exist only at the edges (the
/// vector constructor, operator[], positions()); the per-interval readers
/// (the state roll, the telemetry tally) read columns.
class Snapshot {
 public:
  /// Builds from per-device positions; all points must share the same
  /// dimension and lie in [0,1]^d. Throws std::invalid_argument otherwise.
  explicit Snapshot(const std::vector<Point>& positions);

  /// Builds from `cols`, `dim` columns of n = cols.size() / dim coordinates
  /// each ([dim][n]). Throws std::invalid_argument unless dim is in
  /// [1, Point::kMaxDim], cols holds a whole n >= 1 columns, and every
  /// coordinate lies in [0, 1] (NaN included: see in_unit_interval).
  Snapshot(std::size_t dim, std::vector<double> cols);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  /// Coordinate column t: col(t)[j] == (*this)[j][t], size() entries.
  [[nodiscard]] const double* col(std::size_t t) const noexcept {
    return cols_.data() + t * n_;
  }
  /// Position of device j, gathered from the columns.
  [[nodiscard]] Point operator[](DeviceId j) const;
  /// Every position, gathered from the columns.
  [[nodiscard]] std::vector<Point> positions() const;

  /// Moves device j to `position` (dim() coordinates) and returns whether
  /// it moved under the state roll's test: some coordinate compares != to
  /// the one it replaced (so -0.0 over 0.0 is no move). Throws
  /// std::invalid_argument, leaving the snapshot unchanged, unless j <
  /// size(), position.size() == dim() and every coordinate lies in [0, 1]
  /// (NaN fails). Inline: FleetRoster writes every report through it.
  bool set(DeviceId j, std::span<const double> position) {
    if (j >= n_ || position.size() != dim_ ||
        !std::all_of(position.begin(), position.end(), in_unit_interval)) {
      reject(j, position);
    }
    double* at = cols_.data() + j;
    bool differs = false;
    for (const double x : position) {
      differs |= *at != x;
      *at = x;
      at += n_;
    }
    return differs;
  }

 private:
  [[noreturn]] void reject(DeviceId j, std::span<const double> position) const;

  std::vector<double> cols_;  ///< [dim][device], row stride n_
  std::size_t n_ = 0;
  std::size_t dim_ = 0;
};

/// Two successive system states plus the abnormal set A_k, held as the
/// joint-space columns alone: joint_col(t) for t < dim() is S_{k-1}, for
/// t >= dim() it is S_k. Positions, joints and snapshots are gathered from
/// those columns on request.
class StatePair {
 public:
  /// Throws std::invalid_argument if the snapshots disagree in size or
  /// dimension, if the joint dimension 2d exceeds Point::kMaxDim, or if
  /// abnormal contains an out-of-range device id.
  StatePair(const Snapshot& prev, const Snapshot& curr, DeviceSet abnormal);

  /// In-place interval roll for the streaming engine: the S_{k-1} half
  /// takes the old S_k half, the S_k half takes `next`, A_k becomes
  /// `abnormal`. The two halves differ only at the ids the previous roll
  /// moved (the constructor lists the ids where its snapshots differ), so
  /// the S_{k-1} half copies the S_k half at those ids alone: O(|moved|).
  /// The S_k half is then compared with `next`, in blocks of ids scanned
  /// column by column, and rewritten only where a position changed, which
  /// lists this roll's moved ids for the next one — a device untouched by
  /// both intervals costs one comparison per dimension and zero writes.
  /// This full compare is for snapshots that carry no change information;
  /// the overload below compares only the ids a caller marks. Returns the
  /// number of devices whose CURRENT position changed in this roll.
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
  /// With a `pool`, the S_k comparison fans out over contiguous device-id
  /// chunks: each lane rewrites the column entries of its own id range
  /// (disjoint writes) and lists its chunk's moves, and the lists join in
  /// chunk order, so the state, the list and the count are identical to
  /// the serial roll for every pool size and chunking. The lists' storage
  /// is kept across rolls.
  /// `lane_ms`, when given, receives per-lane busy milliseconds (the
  /// engine's lane-skew instrumentation).
  std::size_t advance(const Snapshot& next, DeviceSet abnormal,
                      WorkerPool* pool = nullptr,
                      std::vector<double>* lane_ms = nullptr);

  /// advance() for a `next` that says where it may differ from the S_k
  /// half: changed[j] != 0 for every id whose position may have changed.
  /// The S_{k-1} half catches up as above; then only the marked ids are
  /// compared, with the same != test and in ascending id order, so the
  /// state, moved() and the count equal advance(next, abnormal)'s whenever
  /// every unmarked id of `next` equals its S_k entry. Over-marking costs
  /// one compare per id; a missing mark leaves S_k stale at that id.
  /// O(n / 8 + |marked| + |moved|): the marks are scanned a word at a time.
  /// Throws std::invalid_argument (state unchanged) as advance() does, or
  /// if changed.size() != n().
  std::size_t advance(const Snapshot& next, std::span<const std::uint8_t> changed,
                      DeviceSet abnormal);

  /// Ascending ids whose S_k position changed in the last roll (after the
  /// constructor: the ids where its snapshots differ). The S_{k-1} half
  /// holds their previous S_k position.
  [[nodiscard]] std::span<const DeviceId> moved() const noexcept { return moved_; }

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  /// Dimension of the joint space E x E.
  [[nodiscard]] std::size_t joint_dim() const noexcept { return 2 * dim_; }

  /// S_{k-1} and S_k as snapshots (copies of the column halves).
  [[nodiscard]] Snapshot prev() const;
  [[nodiscard]] Snapshot curr() const;
  [[nodiscard]] Point prev_pos(DeviceId j) const { return gather(0, dim_, j); }
  [[nodiscard]] Point curr_pos(DeviceId j) const { return gather(dim_, dim_, j); }

  /// Joint position (coords at k-1 concatenated with coords at k).
  [[nodiscard]] Point joint(DeviceId j) const { return gather(0, joint_dim(), j); }

  /// Structure-of-arrays view of one joint dimension: joint_col(t)[j] ==
  /// joint(j)[t], one contiguous double row per dimension. The bounding-box
  /// reductions scan one dimension across many devices; the columnar
  /// layout turns those inner loops into flat-array scans.
  [[nodiscard]] const double* joint_col(std::size_t dim) const noexcept {
    return joint_cols_.data() + dim * n_;
  }

  /// A_k: devices with an abnormal trajectory in [k-1, k].
  [[nodiscard]] const DeviceSet& abnormal() const noexcept { return abnormal_; }
  [[nodiscard]] bool is_abnormal(DeviceId j) const noexcept {
    return abnormal_.contains(j);
  }

  /// Joint Chebyshev distance between devices a and b: the max of their
  /// distances at k-1 and at k. The pair {a, b} can share an r-consistent
  /// motion iff this is <= 2r. Same per-dimension order and comparisons as
  /// chebyshev(joint(a), joint(b)), read straight off the columns.
  [[nodiscard]] double joint_distance(DeviceId a, DeviceId b) const noexcept {
    double best = 0.0;
    const double* col = joint_cols_.data();
    for (std::size_t t = 0; t < joint_dim(); ++t, col += n_) {
      const double delta = std::fabs(col[a] - col[b]);
      if (delta > best) best = delta;
    }
    return best;
  }

 private:
  /// advance()'s shared head: validates `next` and `abnormal` (throwing
  /// with the state unchanged), installs A_k, and catches the S_{k-1} half
  /// up with the S_k half at the last roll's moved ids.
  void begin_roll(const Snapshot& next, DeviceSet& abnormal);

  /// Point of joint columns [first, first + count) at device j.
  [[nodiscard]] Point gather(std::size_t first, std::size_t count, DeviceId j) const;
  /// Snapshot of joint columns [first, first + dim()).
  [[nodiscard]] Snapshot half(std::size_t first) const;

  std::size_t n_ = 0;
  std::size_t dim_ = 0;
  DeviceSet abnormal_;
  std::vector<double> joint_cols_;  ///< [joint dim][device], row stride n_
  /// Ascending ids whose S_k entry changed in the last roll (after the
  /// constructor: the ids where its snapshots differ); the halves agree
  /// everywhere else.
  std::vector<DeviceId> moved_;
  std::vector<std::vector<DeviceId>> chunk_moved_;  ///< pooled roll's lists
};

}  // namespace acn
