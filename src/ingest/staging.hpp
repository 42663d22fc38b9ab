// StagingFrame: the open-interval buffer behind the watermark.
//
// One frame holds everything reported so far for one event-time interval k
// that has not been sealed yet. The frame's job is to make delivery order
// irrelevant within the lateness budget: however reports for k are
// permuted, duplicated, or interleaved with other intervals, the staged
// state at seal time is a pure function of the report *set* — each
// (device, interval) cell resolves to the report with the highest
// arrival_seq (last-write-wins by emission order, which is commutative),
// and exact redeliveries are counted, not re-applied.
//
// Layout: a frame sits on the per-report hot path (every report of every
// interval passes through it), so staging is split into a dense lane —
// keys below a configured limit index flat structure-of-arrays storage
// directly: seq, flag, and exactly dim() claim coordinates per cell, no
// hashing, no per-seal sort, no unused claim capacity — and a spill map
// for out-of-range keys. Only well-formed claims are staged: the pipeline
// refuses, at push, any claim that is not a point of its [0,1]^dim (see
// Claim::fits), so every lane claim packs into the lane stride and every
// staged claim is one the roster accepts at the seal. The pipeline sets
// the lane to the roster capacity and pools sealed frames, so in the
// steady state a report costs one bounds check and a few indexed stores,
// and the seal hands each claim to the roster as a span of the lane's own
// coordinates. Two entry points share one dense-cell update: apply()
// stages one report, and stage_run() stages a run of same-interval lane
// reports in one loop with the lane pointers in locals, checking each
// claim, and stops at the first report that is not one. reset() keeps the
// lane but not the bucket array a spill spike grew (see reset()).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ingest/report.hpp"

namespace acn {

class StagingFrame {
 public:
  /// Winning report of one (device, interval) cell: how the spill map
  /// stores it, and what find() copies out of the lane.
  struct Staged {
    std::uint64_t seq = 0;
    Claim claim;
    bool flagged = false;
  };

  enum class Apply : std::uint8_t {
    kAccepted,    ///< first report of this cell
    kSuperseded,  ///< replaced an older-seq claim
    kDuplicate,   ///< same seq already staged; dropped
    kStale,       ///< older seq than the staged one; dropped
  };

  /// Sizes the dense lane: keys < dense_limit with dim-`dim` claims stage
  /// into flat storage. Call before the first apply(); an unconfigured
  /// frame (dense_limit 0) spills everything to the hash map, which is
  /// semantically identical.
  void configure(std::size_t dense_limit, std::size_t dim);

  /// What stage_run() did: how many leading reports it staged, and how
  /// many of those ended in each Apply outcome (indexed by the enum).
  struct RunTally {
    std::size_t staged = 0;
    std::array<std::size_t, 4> outcomes{};
  };

  /// Stages `report` under the last-write-wins-by-seq rule. Inline: this
  /// is the per-report hot path, called once per delivered report. Throws
  /// std::invalid_argument, staging nothing, if a lane key's claim is not
  /// of the lane's dimension: it cannot pack into the lane stride (the
  /// pipeline refuses such claims before staging them).
  Apply apply(const QosReport& report) {
    const GatewayKey key = report.device;
    if (key < present_.size()) {
      if (report.claim.dim() != dim_) reject_dimension(report);
      ++volume_;
      const Apply outcome = stage_dense(lane(), key, report);
      if (outcome == Apply::kAccepted) ++dense_count_;
      return outcome;
    }
    ++volume_;
    return apply_spill(report);
  }

  /// Stages the leading reports of `reports` that belong to `interval` and
  /// take the dense lane, exactly as apply() would one by one, and stops at
  /// the first report that does not: another interval, a spill key, or a
  /// claim that does not fit the lane's [0,1]^dim (which the pipeline then
  /// refuses).
  RunTally stage_run(std::span<const QosReport> reports, std::uint64_t interval);

  /// The staged cell for `key`, or nullopt if nothing staged.
  [[nodiscard]] std::optional<Staged> find(GatewayKey key) const;

  /// Devices with a staged report.
  [[nodiscard]] std::size_t device_count() const noexcept {
    return dense_count_ + spill_.size();
  }
  /// Reports offered to apply() and stage_run(), duplicates and stale
  /// deliveries included — the overload controller's per-interval volume
  /// signal.
  [[nodiscard]] std::size_t volume() const noexcept { return volume_; }

  /// Visits every staged entry in ascending key order — the deterministic
  /// seal order — as fn(key, claim coordinates, flagged). The dense lane is
  /// ordered by construction and every spill key is >= the lane limit, so
  /// the traversal is lane-then-sorted-spill. The span views the frame's
  /// own storage: it is valid for the call only.
  template <typename Fn>
  void for_each_sorted(Fn&& fn) const {
    for (std::size_t key = 0; key < present_.size(); ++key) {
      if (present_[key] == 0) continue;
      fn(static_cast<GatewayKey>(key), lane_claim(key), flag_[key] != 0);
    }
    if (spill_.empty()) return;
    std::vector<GatewayKey> keys;
    keys.reserve(spill_.size());
    for (const auto& [key, staged] : spill_) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (const GatewayKey key : keys) {
      const Staged& spilled = spill_.at(key);
      fn(key, spilled.claim.coords(), spilled.flagged);
    }
  }

  /// Staged entries sorted by key, copied out (test convenience; the
  /// pipeline seals through for_each_sorted()).
  [[nodiscard]] std::vector<std::pair<GatewayKey, Staged>> sorted() const;

  /// Returns the frame to its post-configure() state, keeping the dense
  /// lane's storage — the pipeline pools sealed frames to keep frame
  /// creation off the per-interval path. clear() walks a map's whole
  /// bucket array, so a spike of spilled keys would slow every later reset
  /// of the pooled frame: a spill map with more than kKeptBuckets buckets,
  /// less than an eighth of them used, is released instead.
  void reset();

  /// The bucket count past which reset() may release a map.
  static constexpr std::size_t kKeptBuckets = std::size_t{1} << 16;

  /// Set once by the pipeline when the frame is created (its age drives
  /// the stall-timeout close) and when shedding engages on it.
  std::uint64_t first_seen_tick = 0;
  bool shed_engaged = false;

 private:
  /// The dense lane's storage as raw pointers, so a run loop holds them in
  /// locals: its byte stores may alias the vectors' own pointers, which
  /// would otherwise be reloaded through `this` for every report.
  struct Lane {
    std::uint8_t* present;
    std::uint64_t* seq;
    std::uint8_t* flag;
    double* coords;
    std::size_t dim;
  };

  [[nodiscard]] Lane lane() noexcept {
    return {present_.data(), seq_.data(), flag_.data(), coords_.data(), dim_};
  }

  [[nodiscard]] std::span<const double> lane_claim(std::size_t key) const noexcept {
    return {coords_.data() + key * dim_, dim_};
  }

  /// The one dense-cell update: stages a lane-dimension claim under
  /// last-write-wins. `D` is the lane dimension when the caller knows it
  /// at compile time (the run loop), which turns the claim copy into
  /// straight-line stores; 0 reads it from the lane.
  template <std::size_t D = 0>
  static Apply stage_dense(const Lane& lane, std::size_t key,
                           const QosReport& report) noexcept {
    Apply outcome = Apply::kAccepted;
    if (lane.present[key] != 0) {
      if (report.arrival_seq == lane.seq[key]) return Apply::kDuplicate;
      if (report.arrival_seq < lane.seq[key]) return Apply::kStale;
      outcome = Apply::kSuperseded;
    }
    const std::size_t dim = D == 0 ? lane.dim : D;
    lane.present[key] = 1;
    lane.seq[key] = report.arrival_seq;
    lane.flag[key] = report.abnormal ? 1 : 0;
    std::copy_n(report.claim.coords().data(), dim, lane.coords + key * dim);
    return outcome;
  }

  /// stage_run() for a lane of dimension D.
  template <std::size_t D>
  RunTally stage_run_of(std::span<const QosReport> reports, std::uint64_t interval);

  /// apply() for a key past the lane.
  Apply apply_spill(const QosReport& report);
  [[noreturn]] void reject_dimension(const QosReport& report) const;

  // Dense lane, structure-of-arrays.
  std::vector<std::uint8_t> present_;  ///< 1 = the cell is staged
  std::vector<std::uint64_t> seq_;
  std::vector<std::uint8_t> flag_;
  std::vector<double> coords_;  ///< dim_ doubles per dense cell
  std::size_t dim_ = 0;
  std::size_t dense_count_ = 0;
  std::unordered_map<GatewayKey, Staged> spill_;  ///< keys >= lane limit
  std::size_t volume_ = 0;
};

}  // namespace acn
