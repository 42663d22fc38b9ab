#include "ingest/staging.hpp"

#include <array>
#include <stdexcept>
#include <string>
#include <utility>

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
  present_.assign(dense_limit, 0);
  seq_.assign(dense_limit, 0);
  flag_.assign(dense_limit, 0);
  coords_.assign(dense_limit * dim_, 0.0);
}

StagingFrame::Apply StagingFrame::apply_spill(const QosReport& report) {
  const auto [it, inserted] = spill_.try_emplace(report.device);
  if (!inserted) return resolve_fat(it->second, report);
  stage_fat(it->second, report);
  return Apply::kAccepted;
}

void StagingFrame::reject_dimension(const QosReport& report) const {
  throw std::invalid_argument("StagingFrame::apply: key " + std::to_string(report.device) +
                              " claims " + std::to_string(report.claim.dim()) +
                              " coordinates for a lane of " + std::to_string(dim_));
}

StagingFrame::RunTally StagingFrame::stage_run(std::span<const QosReport> reports,
                                               std::uint64_t interval) {
  if (present_.empty()) return {};  // no lane: every key spills
  // One loop per lane dimension: with D a constant, the claim test and the
  // copy are straight-line code, where a runtime d costs a loop and a
  // memmove call per report.
  static constexpr auto kRuns = []<std::size_t... D>(std::index_sequence<D...>) {
    return std::array{&StagingFrame::stage_run_of<D + 1>...};
  }(std::make_index_sequence<Claim::kMaxDim>{});
  return (this->*kRuns[dim_ - 1])(reports, interval);
}

template <std::size_t D>
StagingFrame::RunTally StagingFrame::stage_run_of(std::span<const QosReport> reports,
                                                  std::uint64_t interval) {
  const Lane lane = this->lane();
  const std::size_t limit = present_.size();
  RunTally tally;
  std::size_t i = 0;
  for (; i < reports.size(); ++i) {
    const QosReport& report = reports[i];
    const GatewayKey key = report.device;
    // Claim::fits(D), without a branch per coordinate.
    bool fits = report.claim.dim() == D;
    for (std::size_t t = 0; t < D; ++t) {
      const double x = report.claim[t];
      fits &= (x >= 0.0) & (x <= 1.0);
    }
    if (report.interval != interval || key >= limit || !fits) break;
    ++tally.outcomes[static_cast<std::size_t>(stage_dense<D>(lane, key, report))];
  }
  tally.staged = i;
  volume_ += i;
  dense_count_ += tally.outcomes[static_cast<std::size_t>(Apply::kAccepted)];
  return tally;
}

std::optional<StagingFrame::Staged> StagingFrame::find(GatewayKey key) const {
  if (key < present_.size()) {
    if (present_[key] == 0) return std::nullopt;
    return Staged{seq_[key], Claim(lane_claim(key)), flag_[key] != 0};
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
  std::fill(present_.begin(), present_.end(), std::uint8_t{0});
  dense_count_ = 0;
  release_or_clear(spill_);
  volume_ = 0;
  first_seen_tick = 0;
  shed_engaged = false;
}

}  // namespace acn
