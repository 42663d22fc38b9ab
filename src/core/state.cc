#include "core/state.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/worker_pool.hpp"

namespace acn {
namespace {

void check_dim(std::size_t dim) {
  if (dim == 0 || dim > Point::kMaxDim) {
    throw std::invalid_argument("Snapshot: dimension must be in [1, " +
                                std::to_string(Point::kMaxDim) + "], got " +
                                std::to_string(dim));
  }
}

}  // namespace

Snapshot::Snapshot(const std::vector<Point>& positions) : n_(positions.size()) {
  if (positions.empty()) {
    throw std::invalid_argument("Snapshot: at least one device required");
  }
  dim_ = positions[0].dim();
  check_dim(dim_);
  cols_.resize(dim_ * n_);
  for (std::size_t j = 0; j < n_; ++j) {
    const Point& p = positions[j];
    if (p.dim() != dim_) {
      throw std::invalid_argument("Snapshot: inconsistent dimension at device " +
                                  std::to_string(j));
    }
    if (!p.in_unit_box()) {
      throw std::invalid_argument("Snapshot: device " + std::to_string(j) +
                                  " outside [0,1]^d: " + p.to_string());
    }
    for (std::size_t t = 0; t < dim_; ++t) cols_[t * n_ + j] = p[t];
  }
}

Snapshot::Snapshot(std::size_t dim, std::vector<double> cols)
    : cols_(std::move(cols)), dim_(dim) {
  check_dim(dim_);
  if (cols_.empty() || cols_.size() % dim_ != 0) {
    throw std::invalid_argument("Snapshot: " + std::to_string(cols_.size()) +
                                " coordinates do not fill " + std::to_string(dim_) +
                                " columns of at least one device");
  }
  n_ = cols_.size() / dim_;
  const auto bad = std::find_if(cols_.begin(), cols_.end(),
                                [](double x) { return !in_unit_interval(x); });
  if (bad != cols_.end()) {
    const auto j = static_cast<DeviceId>(
        static_cast<std::size_t>(bad - cols_.begin()) % n_);
    throw std::invalid_argument("Snapshot: device " + std::to_string(j) +
                                " outside [0,1]^d: " + (*this)[j].to_string());
  }
}

Point Snapshot::operator[](DeviceId j) const {
  Point p = Point::zero(dim_);
  for (std::size_t t = 0; t < dim_; ++t) p[t] = cols_[t * n_ + j];
  return p;
}

std::vector<Point> Snapshot::positions() const {
  std::vector<Point> out;
  out.reserve(n_);
  for (DeviceId j = 0; j < n_; ++j) out.push_back((*this)[j]);
  return out;
}

StatePair::StatePair(const Snapshot& prev, const Snapshot& curr, DeviceSet abnormal)
    : n_(prev.size()), dim_(prev.dim()), abnormal_(std::move(abnormal)) {
  if (curr.size() != n_) {
    throw std::invalid_argument("StatePair: snapshots must have the same size");
  }
  if (curr.dim() != dim_) {
    throw std::invalid_argument("StatePair: snapshots must have the same dimension");
  }
  if (joint_dim() > Point::kMaxDim) {
    throw std::invalid_argument("StatePair: joint dimension too large");
  }
  if (!abnormal_.empty() && abnormal_[abnormal_.size() - 1] >= n_) {
    throw std::invalid_argument("StatePair: abnormal set references unknown device");
  }
  // Both snapshots are [dim][n] blocks, so the joint block is the prev
  // block followed by the curr block.
  joint_cols_.resize(joint_dim() * n_);
  std::copy(prev.col(0), prev.col(0) + dim_ * n_, joint_cols_.begin());
  std::copy(curr.col(0), curr.col(0) + dim_ * n_,
            joint_cols_.begin() + static_cast<std::ptrdiff_t>(dim_ * n_));
  qcols_.resize(joint_cols_.size());
  std::transform(joint_cols_.begin(), joint_cols_.end(), qcols_.begin(),
                 kernels::quantize);
}

Point StatePair::gather(std::size_t first, std::size_t count, DeviceId j) const {
  Point p = Point::zero(count);
  for (std::size_t t = 0; t < count; ++t) p[t] = joint_col(first + t)[j];
  return p;
}

Snapshot StatePair::half(std::size_t first) const {
  return Snapshot(dim_, std::vector<double>(joint_col(first), joint_col(first + dim_)));
}

Snapshot StatePair::prev() const { return half(0); }
Snapshot StatePair::curr() const { return half(dim_); }

std::size_t StatePair::advance(const Snapshot& next, DeviceSet abnormal,
                               WorkerPool* pool, std::vector<double>* lane_ms) {
  if (next.size() != n_) {
    throw std::invalid_argument(
        "StatePair::advance: fleet size changed (the device universe is "
        "fixed per engine; route churn through FleetRoster, which parks "
        "vacant slots instead of resizing)");
  }
  if (next.dim() != dim_) {
    throw std::invalid_argument("StatePair::advance: dimension changed");
  }
  if (!abnormal.empty() && abnormal[abnormal.size() - 1] >= n_) {
    throw std::invalid_argument(
        "StatePair::advance: abnormal set references unknown device");
  }
  abnormal_ = std::move(abnormal);
  // Cleared up front so a serial roll reports "no lanes ran" instead of
  // leaving a previous phase's numbers in a caller-reused buffer.
  if (lane_ms != nullptr) lane_ms->clear();

  // Per dimension t: the prev column t takes the curr column d + t where
  // they differ (the device moved in the PREVIOUS interval) — its quantized
  // value is already there to copy — and the curr column takes `next`
  // where they differ (it moved in THIS one).
  const std::size_t d = dim_;
  const std::size_t count = n_;
  double* const cols = joint_cols_.data();
  std::uint32_t* const qcols = qcols_.data();
  const auto roll_range = [&](DeviceId begin, DeviceId end) {
    std::size_t moved = 0;
    for (DeviceId j = begin; j < end; ++j) {
      bool changed = false;
      for (std::size_t t = 0; t < d; ++t) {
        const std::size_t prev_at = t * count + j;
        const std::size_t curr_at = (d + t) * count + j;
        const double x = cols[curr_at];
        if (cols[prev_at] != x) {
          cols[prev_at] = x;
          qcols[prev_at] = qcols[curr_at];
        }
        const double y = next.col(t)[j];
        if (x != y) {
          cols[curr_at] = y;
          qcols[curr_at] = kernels::quantize(y);
          changed = true;
        }
      }
      if (changed) ++moved;
    }
    return moved;
  };

  // The fan-out pays off only when the id scan dwarfs the section setup;
  // below the grain (or without a pool) the roll stays a plain loop.
  constexpr std::size_t kChunk = 16384;
  if (pool == nullptr || count < 2 * kChunk) {
    return roll_range(0, static_cast<DeviceId>(count));
  }
  const std::size_t chunks = (count + kChunk - 1) / kChunk;
  std::vector<std::size_t> chunk_moved(chunks, 0);
  pool->for_each(
      chunks, 2,
      [&](std::size_t c) {
        const auto begin = static_cast<DeviceId>(c * kChunk);
        const auto end = static_cast<DeviceId>(std::min(count, (c + 1) * kChunk));
        chunk_moved[c] = roll_range(begin, end);
      },
      lane_ms);
  std::size_t moved = 0;
  for (const std::size_t part : chunk_moved) moved += part;
  return moved;
}

}  // namespace acn
