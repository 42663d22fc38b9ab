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
// interval passes through apply()), so staging is split into a dense lane —
// keys below a configured limit index flat structure-of-arrays storage
// directly: seq, flag, and exactly dim() claim coordinates per cell, no
// hashing, no per-seal sort, no unused claim capacity — and a spill map
// for out-of-range keys. Claims whose dimension does not match the
// configured one cannot pack into the lane stride; they park in a cold
// side map so they still seal in key order and still explode at the
// roster boundary exactly as an unstaged malformed claim would. The
// pipeline sets the lane to the roster capacity and pools sealed frames,
// so in the steady state a report costs one bounds check and a few
// indexed stores, and the seal hands each claim to the roster as a span
// of the lane's own coordinates.
#pragma once

#include <algorithm>
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
  /// Winning report of one (device, interval) cell: how the spill and
  /// odd-dimension maps store it, and what find() copies out of the lane.
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

  /// Stages `report` under the last-write-wins-by-seq rule. Inline: this
  /// is the per-report hot path, called once per delivered report.
  Apply apply(const QosReport& report) {
    ++volume_;
    if (report.device >= present_.size()) {
      const auto [it, inserted] = spill_.try_emplace(report.device);
      if (inserted) {
        stage_fat(it->second, report);
        return Apply::kAccepted;
      }
      return resolve_fat(it->second, report);
    }
    const std::size_t key = report.device;
    const std::uint8_t state = present_[key];
    if (state == 0) {
      ++dense_count_;
      if (report.claim.dim() == dim_) {
        present_[key] = 1;
        store_lane(key, report);
      } else {
        present_[key] = 2;
        stage_fat(odd_[key], report);
      }
      return Apply::kAccepted;
    }
    const std::uint64_t have = state == 1 ? seq_[key] : odd_[key].seq;
    if (report.arrival_seq == have) return Apply::kDuplicate;
    if (report.arrival_seq < have) return Apply::kStale;
    if (report.claim.dim() == dim_) {
      if (state == 2) {
        odd_.erase(key);
        present_[key] = 1;
      }
      store_lane(key, report);
    } else {
      if (state == 1) present_[key] = 2;
      stage_fat(odd_[key], report);
    }
    return Apply::kSuperseded;
  }

  /// The staged cell for `key`, or nullopt if nothing staged.
  [[nodiscard]] std::optional<Staged> find(GatewayKey key) const;

  /// Devices with a staged report.
  [[nodiscard]] std::size_t device_count() const noexcept {
    return dense_count_ + spill_.size();
  }
  /// Total apply() attempts, duplicates and stale deliveries included —
  /// the overload controller's per-interval volume signal.
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
      if (present_[key] == 1) {
        fn(static_cast<GatewayKey>(key), lane_claim(key), flag_[key] != 0);
      } else {
        const Staged& odd = odd_.at(key);
        fn(static_cast<GatewayKey>(key), odd.claim.coords(), odd.flagged);
      }
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
  /// creation off the per-interval path.
  void reset();

  /// Set once by the pipeline when the frame is created (its age drives
  /// the stall-timeout close) and when shedding engages on it.
  std::uint64_t first_seen_tick = 0;
  bool shed_engaged = false;

 private:
  void store_lane(std::size_t key, const QosReport& report) noexcept {
    seq_[key] = report.arrival_seq;
    flag_[key] = report.abnormal ? 1 : 0;
    std::ranges::copy(report.claim.coords(), coords_.data() + key * dim_);
  }

  [[nodiscard]] std::span<const double> lane_claim(std::size_t key) const noexcept {
    return {coords_.data() + key * dim_, dim_};
  }

  static void stage_fat(Staged& cell, const QosReport& report) {
    cell.seq = report.arrival_seq;
    cell.claim = report.claim;
    cell.flagged = report.abnormal;
  }

  static Apply resolve_fat(Staged& cell, const QosReport& report) {
    if (report.arrival_seq == cell.seq) return Apply::kDuplicate;
    if (report.arrival_seq < cell.seq) return Apply::kStale;
    stage_fat(cell, report);
    return Apply::kSuperseded;
  }

  // Dense lane, structure-of-arrays; present_[key]: 0 = empty, 1 = staged
  // in the lane, 2 = staged in odd_ (claim dim != dim_).
  std::vector<std::uint8_t> present_;
  std::vector<std::uint64_t> seq_;
  std::vector<std::uint8_t> flag_;
  std::vector<double> coords_;  ///< dim_ doubles per dense cell
  std::size_t dim_ = 0;
  std::size_t dense_count_ = 0;
  std::unordered_map<GatewayKey, Staged> odd_;    ///< dense keys, odd dim
  std::unordered_map<GatewayKey, Staged> spill_;  ///< keys >= lane limit
  std::size_t volume_ = 0;
};

}  // namespace acn
