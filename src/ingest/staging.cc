#include "ingest/staging.hpp"

#include <array>
#include <stdexcept>
#include <utility>

namespace acn {

namespace {

using Tally = StagingFrame::Tally;

/// Last-write-wins for one cell: counts the report's outcome and returns
/// true iff its claim is to be written — the cell was empty (`occupied`
/// false) or held the older seq `held`.
bool wins(bool occupied, std::uint64_t held, std::uint64_t seq, Tally& tally) {
  if (!occupied) {
    ++tally.accepted;
    return true;
  }
  if (seq == held) {
    ++tally.duplicates;
    return false;
  }
  ++tally.superseded;
  return seq > held;
}

/// clear() keeps the bucket array, and every later clear() walks all of
/// it. Past the bound, an array the sealed interval left mostly empty (a
/// spike's leftover) is released by a swap with a fresh map; one the
/// interval filled is kept, so a fleet that spills every interval does not
/// regrow it each time.
template <typename Map>
void release_or_clear(Map& map) {
  if (map.bucket_count() > StagingFrame::kKeptBuckets &&
      map.size() < map.bucket_count() / 8) {
    Map().swap(map);
  } else {
    map.clear();
  }
}

}  // namespace

void StagingFrame::configure(std::size_t dense_limit, std::size_t dim) {
  if (dim == 0 || dim > Claim::kMaxDim) {
    throw std::invalid_argument("StagingFrame::configure: dimension out of range");
  }
  dim_ = dim;
  present_.assign(dense_limit, 0);
  seq_.assign(dense_limit, 0);
  flag_.assign(dense_limit, 0);
  coords_.assign(dense_limit * dim_, 0.0);
}

StagingFrame::Tally StagingFrame::stage(std::span<const QosReport> reports,
                                        std::uint64_t interval) {
  if (dim_ == 0) throw std::logic_error("StagingFrame::stage: configure() first");
  // One loop per claim dimension: with D a constant, the claim test and the
  // copy are straight-line code, where a runtime d costs a loop and a
  // memmove call per report.
  static constexpr auto kLoops = []<std::size_t... D>(std::index_sequence<D...>) {
    return std::array{&StagingFrame::stage_of<D + 1>...};
  }(std::make_index_sequence<Claim::kMaxDim>{});
  return (this->*kLoops[dim_ - 1])(reports, interval);
}

template <std::size_t D>
StagingFrame::Tally StagingFrame::stage_of(std::span<const QosReport> reports,
                                           std::uint64_t interval) {
  // The lane's storage in locals: the byte stores below may alias the
  // vectors' own pointers, which would otherwise be reloaded through `this`
  // for every report.
  std::uint8_t* const present = present_.data();
  std::uint64_t* const seq = seq_.data();
  std::uint8_t* const flag = flag_.data();
  double* const coords = coords_.data();
  const std::size_t limit = present_.size();
  Tally tally;
  std::size_t i = 0;
  for (; i < reports.size(); ++i) {
    const QosReport& report = reports[i];
    // Claim::fits(D), without a branch per coordinate.
    bool fits = report.claim.dim() == D;
    for (std::size_t t = 0; t < D; ++t) {
      const double x = report.claim[t];
      fits &= (x >= 0.0) & (x <= 1.0);
    }
    if (report.interval != interval || !fits) break;
    const GatewayKey key = report.device;
    if (key >= limit) {
      stage_spill(report, tally);
      continue;
    }
    if (!wins(present[key] != 0, seq[key], report.arrival_seq, tally)) continue;
    present[key] = 1;
    seq[key] = report.arrival_seq;
    flag[key] = report.abnormal ? 1 : 0;
    std::copy_n(report.claim.coords().data(), D, coords + key * D);
  }
  tally.staged = i;
  volume_ += i;
  device_count_ += tally.accepted;
  return tally;
}

void StagingFrame::stage_spill(const QosReport& report, Tally& tally) {
  const auto [it, inserted] = spill_.try_emplace(report.device);
  Staged& cell = it->second;
  if (wins(!inserted, cell.seq, report.arrival_seq, tally)) {
    cell = {report.arrival_seq, report.claim, report.abnormal};
  }
}

void StagingFrame::reset() {
  std::fill(present_.begin(), present_.end(), std::uint8_t{0});
  release_or_clear(spill_);
  device_count_ = 0;
  volume_ = 0;
  first_seen_tick = 0;
  shed_engaged = false;
}

}  // namespace acn
