#include "core/state.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/worker_pool.hpp"

namespace acn {

Snapshot::Snapshot(std::vector<Point> positions) : positions_(std::move(positions)) {
  if (positions_.empty()) {
    throw std::invalid_argument("Snapshot: at least one device required");
  }
  dim_ = positions_[0].dim();
  for (std::size_t j = 0; j < positions_.size(); ++j) {
    if (positions_[j].dim() != dim_) {
      throw std::invalid_argument("Snapshot: inconsistent dimension at device " +
                                  std::to_string(j));
    }
    if (!positions_[j].in_unit_box()) {
      throw std::invalid_argument("Snapshot: device " + std::to_string(j) +
                                  " outside [0,1]^d: " + positions_[j].to_string());
    }
  }
}

StatePair::StatePair(Snapshot prev, Snapshot curr, DeviceSet abnormal)
    : prev_(std::move(prev)), curr_(std::move(curr)), abnormal_(std::move(abnormal)) {
  if (prev_.size() != curr_.size()) {
    throw std::invalid_argument("StatePair: snapshots must have the same size");
  }
  if (prev_.dim() != curr_.dim()) {
    throw std::invalid_argument("StatePair: snapshots must have the same dimension");
  }
  if (!abnormal_.empty() && abnormal_[abnormal_.size() - 1] >= prev_.size()) {
    throw std::invalid_argument("StatePair: abnormal set references unknown device");
  }
  joint_.reserve(n());
  for (DeviceId j = 0; j < n(); ++j) {
    joint_.push_back(Point::concat(prev_[j], curr_[j]));
  }
  joint_cols_.resize(joint_dim() * n());
  qcols_.resize(joint_dim() * n());
  for (std::size_t t = 0; t < joint_dim(); ++t) {
    double* col = joint_cols_.data() + t * n();
    std::uint32_t* qcol = qcols_.data() + t * n();
    for (DeviceId j = 0; j < n(); ++j) {
      col[j] = joint_[j][t];
      qcol[j] = kernels::quantize(col[j]);
    }
  }
}

std::size_t StatePair::advance(Snapshot next, DeviceSet abnormal, WorkerPool* pool,
                               std::vector<double>* lane_ms) {
  if (next.size() != n()) {
    throw std::invalid_argument(
        "StatePair::advance: fleet size changed (the device universe is "
        "fixed per engine; route churn through FleetRoster, which parks "
        "vacant slots instead of resizing)");
  }
  if (next.dim() != dim()) {
    throw std::invalid_argument("StatePair::advance: dimension changed");
  }
  if (!abnormal.empty() && abnormal[abnormal.size() - 1] >= n()) {
    throw std::invalid_argument(
        "StatePair::advance: abnormal set references unknown device");
  }
  const std::size_t d = dim();
  const std::size_t count = n();
  prev_ = std::move(curr_);
  curr_ = std::move(next);
  abnormal_ = std::move(abnormal);
  // Cleared up front so a serial roll reports "no lanes ran" instead of
  // leaving a previous phase's numbers in a caller-reused buffer.
  if (lane_ms != nullptr) lane_ms->clear();

  // joint_[j] = (prev | curr). After the roll the new prev half is the old
  // curr half, already stored at offsets [d, 2d) — shift it down only where
  // it differs (the device moved in the PREVIOUS interval); refresh the
  // curr half only where the new snapshot differs (it moved in THIS one).
  const auto roll_range = [&](DeviceId begin, DeviceId end) {
    std::size_t moved = 0;
    for (DeviceId j = begin; j < end; ++j) {
      Point& joint = joint_[j];
      for (std::size_t t = 0; t < d; ++t) {
        const double x = joint[d + t];
        if (joint[t] != x) {
          joint[t] = x;
          joint_cols_[t * count + j] = x;
          qcols_[t * count + j] = kernels::quantize(x);
        }
      }
      const Point& current = curr_[j];
      bool changed = false;
      for (std::size_t t = 0; t < d; ++t) {
        const double x = current[t];
        if (joint[d + t] != x) {
          joint[d + t] = x;
          joint_cols_[(d + t) * count + j] = x;
          qcols_[(d + t) * count + j] = kernels::quantize(x);
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
      0, lane_ms);
  std::size_t moved = 0;
  for (const std::size_t part : chunk_moved) moved += part;
  return moved;
}

}  // namespace acn
