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
// for out-of-range keys. Only well-formed claims are staged: stage() stops
// at a claim that is not a point of the frame's [0,1]^dim (see
// Claim::fits), which the pipeline refuses, so every lane claim packs into
// the lane stride and every staged claim is one the roster accepts at the
// seal. The pipeline sets the lane to the roster capacity and pools sealed
// frames, so in the steady state a report costs one bounds check and a few
// indexed stores. stage() is the one entry point: it stages a run of
// same-interval reports, lane and spill keys alike, in one loop per claim
// dimension with the lane pointers in locals. for_each_sorted<D>() is the
// one way out, the seal's walk: one loop per claim dimension too, so the
// seal hands each claim to the roster as a span of the lane's own
// coordinates whose length is a compile-time constant. reset() keeps the
// lane but not the bucket array a spill spike grew (see reset()).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "ingest/report.hpp"

namespace acn {

class StagingFrame {
 public:
  /// What stage() did with the leading reports it took. Each of them
  /// counts in volume() and ends in exactly one of the three outcomes.
  struct Tally {
    std::size_t staged = 0;      ///< leading reports taken
    std::size_t accepted = 0;    ///< first report of its cell
    std::size_t superseded = 0;  ///< replaced the staged claim, or lost to it
    std::size_t duplicates = 0;  ///< same seq as the staged claim; dropped
  };

  /// Sizes the frame for claims of dimension `dim`: keys < dense_limit
  /// stage into the flat lane, the rest into the spill map (dense_limit 0:
  /// no lane). Throws std::invalid_argument for a dimension outside
  /// [1, Claim::kMaxDim], which no roster has. Call before stage().
  void configure(std::size_t dense_limit, std::size_t dim);

  /// Stages the leading reports of `reports` that belong to `interval` and
  /// claim a point of [0,1]^dim, each under the last-write-wins-by-seq
  /// rule, and stops at the first report that does not: another interval,
  /// or a claim the pipeline then refuses. A spill key does not stop the
  /// run. Throws std::logic_error if the frame was never configured.
  Tally stage(std::span<const QosReport> reports, std::uint64_t interval);

  /// Devices with a staged report.
  [[nodiscard]] std::size_t device_count() const noexcept { return device_count_; }
  /// Reports staged, duplicates and losing stragglers included — the
  /// overload controller's per-interval volume signal.
  [[nodiscard]] std::size_t volume() const noexcept { return volume_; }

  /// Visits every staged entry in ascending key order — the deterministic
  /// seal order — as fn(key, claim, flagged), the claim a
  /// std::span<const double, D>. The dense lane is ordered by construction
  /// and every spill key is >= the lane limit, so the traversal is
  /// lane-then-sorted-spill. D is the frame's dimension, fixed at compile
  /// time so the caller's per-claim work is straight-line code: the seal
  /// picks the walk once per seal, as stage() picks its run loop. The span
  /// views the frame's own storage: it is valid for the call only. Throws
  /// std::logic_error if D is not the configured dimension of a frame that
  /// holds a staged entry.
  template <std::size_t D, typename Fn>
  void for_each_sorted(Fn&& fn) const {
    if (D != dim_ && device_count_ != 0) {
      throw std::logic_error("StagingFrame::for_each_sorted: not the frame's dimension");
    }
    // The lane in locals: fn's stores may alias the vectors' own pointers.
    const std::uint8_t* const present = present_.data();
    const std::uint8_t* const flag = flag_.data();
    const double* const coords = coords_.data();
    const std::size_t limit = present_.size();
    for (std::size_t key = 0; key < limit; ++key) {
      if (present[key] == 0) continue;
      fn(static_cast<GatewayKey>(key), std::span<const double, D>(coords + key * D, D),
         flag[key] != 0);
    }
    if (spill_.empty()) return;
    std::vector<GatewayKey> keys;
    keys.reserve(spill_.size());
    for (const auto& [key, staged] : spill_) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (const GatewayKey key : keys) {
      const Staged& spilled = spill_.at(key);
      fn(key, std::span<const double, D>(spilled.claim.coords().data(), D), spilled.flagged);
    }
  }

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
  /// Winning report of one spill-key cell.
  struct Staged {
    std::uint64_t seq = 0;
    Claim claim;
    bool flagged = false;
  };

  /// stage() for claims of dimension D.
  template <std::size_t D>
  Tally stage_of(std::span<const QosReport> reports, std::uint64_t interval);
  /// Stages one report of a key past the lane.
  void stage_spill(const QosReport& report, Tally& tally);

  // Dense lane, structure-of-arrays.
  std::vector<std::uint8_t> present_;  ///< 1 = the cell is staged
  std::vector<std::uint64_t> seq_;
  std::vector<std::uint8_t> flag_;
  std::vector<double> coords_;  ///< dim_ doubles per dense cell
  std::size_t dim_ = 0;         ///< 0 until configure()
  std::unordered_map<GatewayKey, Staged> spill_;  ///< keys >= lane limit
  std::size_t device_count_ = 0;
  std::size_t volume_ = 0;
};

}  // namespace acn
