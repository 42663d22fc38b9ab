#include "ingest/staging.hpp"

namespace acn {

void StagingFrame::configure(std::size_t dense_limit, std::size_t dim) {
  // A dimension no claim can have degrades to spill-everything, which is
  // semantically identical (just slower).
  dim_ = (dim == 0 || dim > Claim::kMaxDim) ? 0 : dim;
  if (dim_ == 0) dense_limit = 0;
  present_.assign(dense_limit, 0);
  seq_.assign(dense_limit, 0);
  flag_.assign(dense_limit, 0);
  coords_.assign(dense_limit * dim_, 0.0);
}

std::optional<StagingFrame::Staged> StagingFrame::find(GatewayKey key) const {
  if (key < present_.size()) {
    switch (present_[key]) {
      case 0:
        return std::nullopt;
      case 1:
        return Staged{seq_[key], Claim(lane_claim(key)), flag_[key] != 0};
      default:
        return odd_.at(key);
    }
  }
  const auto it = spill_.find(key);
  if (it == spill_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::pair<GatewayKey, StagingFrame::Staged>> StagingFrame::sorted()
    const {
  std::vector<std::pair<GatewayKey, Staged>> entries;
  entries.reserve(device_count());
  for_each_sorted([&](GatewayKey key, std::span<const double>, bool) {
    entries.emplace_back(key, *find(key));
  });
  return entries;
}

void StagingFrame::reset() {
  std::fill(present_.begin(), present_.end(), 0);
  dense_count_ = 0;
  odd_.clear();
  spill_.clear();
  volume_ = 0;
  first_seen_tick = 0;
  shed_engaged = false;
}

}  // namespace acn
