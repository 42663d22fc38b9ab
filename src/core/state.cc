#include "core/state.hpp"

#include <algorithm>
#include <array>
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

void Snapshot::reject(DeviceId j, std::span<const double> position) const {
  throw std::invalid_argument(
      "Snapshot::set: refused device " + std::to_string(j) + " of " +
      std::to_string(n_) + " a position of " + std::to_string(position.size()) +
      " coordinates (want " + std::to_string(dim_) + ", each in [0, 1])");
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
  joint_cols_.reserve(joint_dim() * n_);
  joint_cols_.assign(prev.col(0), prev.col(0) + dim_ * n_);
  joint_cols_.insert(joint_cols_.end(), curr.col(0), curr.col(0) + dim_ * n_);
  // The first advance() catches S_{k-1} up where the two snapshots differ:
  // nowhere when both halves are one snapshot, as in the engine's priming.
  if (&prev != &curr) {
    for (DeviceId j = 0; j < n_; ++j) {
      for (std::size_t t = 0; t < dim_; ++t) {
        if (prev.col(t)[j] != curr.col(t)[j]) {
          moved_.push_back(j);
          break;
        }
      }
    }
  }
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

  // The halves differ only at the ids the last roll moved: the S_{k-1}
  // half catches up with the S_k half there.
  const std::size_t d = dim_;
  const std::size_t count = n_;
  double* const cols = joint_cols_.data();
  for (const DeviceId j : moved_) {
    for (std::size_t t = 0; t < d; ++t) cols[t * count + j] = cols[(d + t) * count + j];
  }
  // Then the S_k half takes `next` where they differ, listing the ids
  // that moved in THIS interval. Each block of ids is compared column by
  // column first, a branch-free pass that flags the devices that differ;
  // only the flagged ones are rewritten and listed.
  const auto roll_range = [&](DeviceId begin, DeviceId end,
                              std::vector<DeviceId>& moved) {
    constexpr DeviceId kBlock = 64;
    std::array<std::uint8_t, kBlock> differs{};
    for (DeviceId lo = begin; lo < end; lo += kBlock) {
      const DeviceId width = std::min(end - lo, kBlock);
      differs.fill(0);
      for (std::size_t t = 0; t < d; ++t) {
        const double* curr = cols + (d + t) * count + lo;
        const double* in = next.col(t) + lo;
        for (DeviceId i = 0; i < width; ++i) differs[i] |= curr[i] != in[i];
      }
      for (DeviceId i = 0; i < width; ++i) {
        if (differs[i] == 0) continue;
        const DeviceId j = lo + i;
        for (std::size_t t = 0; t < d; ++t) cols[(d + t) * count + j] = next.col(t)[j];
        moved.push_back(j);
      }
    }
  };
  moved_.clear();

  // The fan-out pays off only when the id scan dwarfs the section setup;
  // below the grain (or without a pool) the roll stays a plain loop.
  constexpr std::size_t kChunk = 16384;
  if (pool == nullptr || count < 2 * kChunk) {
    roll_range(0, static_cast<DeviceId>(count), moved_);
    return moved_.size();
  }
  chunk_moved_.resize((count + kChunk - 1) / kChunk);
  pool->for_each(
      chunk_moved_.size(), 2,
      [&](std::size_t c) {
        const auto begin = static_cast<DeviceId>(c * kChunk);
        const auto end = static_cast<DeviceId>(std::min(count, (c + 1) * kChunk));
        chunk_moved_[c].clear();
        roll_range(begin, end, chunk_moved_[c]);
      },
      lane_ms);
  for (const std::vector<DeviceId>& part : chunk_moved_) {
    moved_.insert(moved_.end(), part.begin(), part.end());
  }
  return moved_.size();
}

}  // namespace acn
