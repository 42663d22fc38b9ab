#include "ingest/staging.hpp"

namespace acn {

namespace {

using Staged = StagingFrame::Staged;
using Apply = StagingFrame::Apply;

void stage_fat(Staged& cell, const QosReport& report) {
  cell.seq = report.arrival_seq;
  cell.claim = report.claim;
  cell.flagged = report.abnormal;
}

Apply resolve_fat(Staged& cell, const QosReport& report) {
  if (report.arrival_seq == cell.seq) return Apply::kDuplicate;
  if (report.arrival_seq < cell.seq) return Apply::kStale;
  stage_fat(cell, report);
  return Apply::kSuperseded;
}

/// clear() keeps the bucket array, and every later clear() walks all of
/// it. Past the bound, an array the sealed interval left mostly empty (a
/// spike's leftover) is released by a swap with a fresh map; one the
/// interval filled is kept, so a fleet that spills every interval does not
/// regrow it each time.
void release_or_clear(std::unordered_map<GatewayKey, Staged>& map) {
  if (map.bucket_count() > StagingFrame::kKeptBuckets &&
      map.size() < map.bucket_count() / 8) {
    std::unordered_map<GatewayKey, Staged>().swap(map);
  } else {
    map.clear();
  }
}

}  // namespace

void StagingFrame::configure(std::size_t dense_limit, std::size_t dim) {
  // A dimension no claim can have degrades to spill-everything, which is
  // semantically identical (just slower).
  dim_ = (dim == 0 || dim > Claim::kMaxDim) ? 0 : dim;
  if (dim_ == 0) dense_limit = 0;
  present_.assign(dense_limit, kEmpty);
  seq_.assign(dense_limit, 0);
  flag_.assign(dense_limit, 0);
  coords_.assign(dense_limit * dim_, 0.0);
}

StagingFrame::Apply StagingFrame::apply_slow(const QosReport& report) {
  const GatewayKey key = report.device;
  if (key >= present_.size()) {
    const auto [it, inserted] = spill_.try_emplace(key);
    if (!inserted) return resolve_fat(it->second, report);
    stage_fat(it->second, report);
    return Apply::kAccepted;
  }
  std::uint8_t& state = present_[key];
  if (state == kEmpty) {
    ++dense_count_;
    state = kOdd;
    stage_fat(odd_[key], report);
    return Apply::kAccepted;
  }
  // A lane cell offered an odd claim, or an odd cell offered any claim.
  const std::uint64_t have = state == kLane ? seq_[key] : odd_.at(key).seq;
  if (report.arrival_seq == have) return Apply::kDuplicate;
  if (report.arrival_seq < have) return Apply::kStale;
  if (report.claim.dim() == dim_) {
    odd_.erase(key);
    store_lane(lane(), key, report);
  } else {
    state = kOdd;
    stage_fat(odd_[key], report);
  }
  return Apply::kSuperseded;
}

StagingFrame::RunTally StagingFrame::stage_run(std::span<const QosReport> reports,
                                               std::uint64_t interval) {
  const Lane lane = this->lane();
  const std::size_t limit = present_.size();
  RunTally tally;
  std::size_t i = 0;
  for (; i < reports.size(); ++i) {
    const QosReport& report = reports[i];
    const GatewayKey key = report.device;
    if (report.interval != interval || key >= limit ||
        report.claim.dim() != lane.dim || lane.present[key] == kOdd) {
      break;
    }
    ++tally.outcomes[static_cast<std::size_t>(stage_dense(lane, key, report))];
  }
  tally.staged = i;
  volume_ += i;
  dense_count_ += tally.outcomes[static_cast<std::size_t>(Apply::kAccepted)];
  return tally;
}

std::optional<StagingFrame::Staged> StagingFrame::find(GatewayKey key) const {
  if (key < present_.size()) {
    switch (present_[key]) {
      case kEmpty:
        return std::nullopt;
      case kLane:
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
  std::fill(present_.begin(), present_.end(), kEmpty);
  dense_count_ = 0;
  release_or_clear(odd_);
  release_or_clear(spill_);
  volume_ = 0;
  first_seen_tick = 0;
  shed_engaged = false;
}

}  // namespace acn
