// FleetRoster: the explicit device add/remove path for churned fleets.
//
// The whole pipeline below the monitor — StatePair::advance, the A_k index,
// MotionPlane arenas — is built on a FIXED dense id universe: slot j of
// snapshot k must describe the same device as slot j of snapshot k-1
// (StatePair::advance precondition). A production fleet is not like that:
// gateways join and leave mid-stream (size-varying fleets, La Fond et al.,
// arXiv:1411.3749). The roster reconciles the two worlds:
//
//   * sparse, stable GatewayKeys (whatever the deployment uses to name a
//     gateway) map to dense DeviceId slots within a fixed capacity;
//   * a retired gateway's slot is parked — frozen at its last reported
//     position, never abnormal — and recycled FIFO (least-recently-retired
//     first), so the snapshot never changes size;
//   * a slot (re)assigned during the current interval is ineligible as
//     abnormal for that interval: the slot's apparent trajectory (old
//     occupant's position -> new occupant's position) is a splice of two
//     devices, not a motion, and must never reach the characterizer. This
//     is what makes slot recycling *safe*, not merely convenient.
//
// Verdict soundness under this parking scheme: motion families are computed
// over A_k only (the engine's one spatial index holds A_k and nothing
// else), so a parked slot — present in the snapshot but never abnormal —
// is never indexed, cannot join any motion, and cannot influence any
// verdict. The conformance harness exercises exactly this.
//
// Change marks: the roster also keeps one byte per slot, set when a write
// changes the slot's position under the state roll's own != test, and
// always by admit(). OnlineMonitor::close_interval hands them to the
// engine, whose roll then compares the marked slots alone. The marks only
// ever over-report — a slot written back to where it was stays marked and
// the roll finds it unmoved — and the monitor clears them only after a
// close returned, so an exception anywhere leaves extra marks, never a
// missing one.
//
// The ingestion layer's seal writes every sealed claim through
// try_report<D>, D the claim dimension fixed at compile time, so the
// per-device work is the key lookup and a fixed-length Snapshot::set; the
// runtime-length try_report()/report() are instances of the same write.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/device_set.hpp"
#include "core/point.hpp"
#include "core/state.hpp"

namespace acn {

/// Deployment-level stable gateway identifier (opaque to the roster).
using GatewayKey = std::uint64_t;

class FleetRoster {
 public:
  /// Fixed slot capacity and QoS-space dimension. Vacant never-occupied
  /// slots are parked at the origin of [0,1]^d. Throws on capacity == 0 or
  /// d out of [1, Point::kMaxDim / 2] (a joint position must fit a Point).
  FleetRoster(std::size_t capacity, std::size_t dim);

  /// Admits a gateway, assigning it the least-recently-retired free slot at
  /// `position`. The slot is flagged just-assigned until end_interval(), so
  /// abnormal_slots() drops it this interval. Throws std::invalid_argument,
  /// leaving the roster unchanged, if the key is already active, no slot is
  /// free, or the position is not a point of [0,1]^dim() (NaN included).
  DeviceId admit(GatewayKey key, std::span<const double> position);
  DeviceId admit(GatewayKey key, const Point& position) {
    return admit(key, position.coords());
  }

  /// Retires an active gateway; its slot is parked at the last reported
  /// position and queued for reuse. Throws if the key is not active.
  void retire(GatewayKey key);

  /// Updates an active gateway's reported position. Throws if the key is
  /// not active or the position is out of range.
  void report(GatewayKey key, std::span<const double> position);
  void report(GatewayKey key, const Point& position) {
    report(key, position.coords());
  }

  /// report() for the ingestion hot path: updates the position and returns
  /// true iff the key is active — one lookup instead of an active() check
  /// followed by report(). Still throws on a malformed position (a bad
  /// claim is a caller bug, not churn), with the snapshot unchanged. A
  /// changed position marks the slot (branch-free: `|=` of the test).
  bool try_report(GatewayKey key, std::span<const double> position) {
    return try_report<std::dynamic_extent>(key, position);
  }
  bool try_report(GatewayKey key, const Point& position) {
    return try_report(key, position.coords());
  }
  /// try_report() with the claim's length D fixed at compile time: the
  /// seal's per-device write. The overloads above are its runtime-length
  /// instance.
  template <std::size_t D>
  bool try_report(GatewayKey key, std::span<const double, D> position) {
    const DeviceId slot = slot_lookup(key);
    if (slot == kNoSlot) return false;
    flags_[slot] |= static_cast<std::uint8_t>(positions_.set(slot, position));  // kChanged
    return true;
  }

  [[nodiscard]] bool active(GatewayKey key) const noexcept {
    return slot_lookup(key) != kNoSlot;
  }
  [[nodiscard]] std::optional<DeviceId> slot_of(GatewayKey key) const noexcept;
  [[nodiscard]] std::size_t active_count() const noexcept { return active_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return positions_.size(); }
  [[nodiscard]] std::size_t dim() const noexcept { return positions_.dim(); }

  /// The dense fixed-size snapshot the engine ingests: active slots at
  /// their reported position, parked slots frozen at their last one. It is
  /// the roster's own storage, written only through Snapshot::set(), so a
  /// refused write leaves it unchanged; the reference stays valid for the
  /// roster's lifetime and sees every later write.
  [[nodiscard]] const Snapshot& snapshot() const noexcept { return positions_; }

  /// The current positions of `keys`, in order, as a snapshot with one
  /// device per key: device i holds keys[i]'s position. Throws
  /// std::invalid_argument if `keys` is empty or a key is not active.
  [[nodiscard]] Snapshot positions_of(std::span<const GatewayKey> keys) const;

  /// Maps abnormal gateway keys to slots, dropping keys that are not active
  /// and slots (re)assigned since the last end_interval() — a device with
  /// no previous-interval trajectory cannot be characterized. Unknown keys
  /// are dropped silently: a report from a just-retired gateway racing its
  /// retirement is normal in a churning fleet, not an error.
  [[nodiscard]] DeviceSet abnormal_slots(std::span<const GatewayKey> keys) const;

  /// Closes the interval: just-assigned slots become eligible as abnormal
  /// from the next interval on. Call once per snapshot fed to the engine,
  /// after abnormal_slots().
  void end_interval();

  /// One byte per slot, nonzero where a write since the last
  /// clear_changes() changed the slot's position (every admit() counts):
  /// the change marks FrameEngine::observe takes with snapshot(). The
  /// byte also carries the just-assigned flag until end_interval(), which
  /// only ever adds marks an admit() made anyway.
  [[nodiscard]] std::span<const std::uint8_t> changes() const noexcept {
    return flags_;
  }
  /// Clears the change marks: call once the engine's S_k equals snapshot().
  void clear_changes();

 private:
  static constexpr DeviceId kNoSlot = ~DeviceId{0};
  // Per-slot flag bits. One byte array holds both, so the marks cost the
  // roster no allocation of their own.
  static constexpr std::uint8_t kChanged = 1;       ///< cleared by clear_changes
  static constexpr std::uint8_t kJustAssigned = 2;  ///< cleared by end_interval

  // Key -> slot resolution sits on the ingestion layer's per-report hot
  // path, so it is split like the staging lane: keys below capacity (the
  // usual deployment numbering, and everything a dense prime() admits)
  // index a flat vector; larger keys spill to the hash map.
  [[nodiscard]] DeviceId slot_lookup(GatewayKey key) const noexcept {
    if (key < slot_lane_.size()) return slot_lane_[key];
    const auto it = slot_spill_.find(key);
    return it == slot_spill_.end() ? kNoSlot : it->second;
  }
  void slot_insert(GatewayKey key, DeviceId slot);
  void slot_erase(GatewayKey key);

  Snapshot positions_;                      ///< per slot, active or parked
  std::vector<std::uint8_t> flags_;         ///< per slot, kChanged | kJustAssigned
  std::vector<DeviceId> slot_lane_;         ///< key < capacity; kNoSlot = absent
  std::unordered_map<GatewayKey, DeviceId> slot_spill_;  ///< key >= capacity
  std::size_t active_ = 0;
  std::deque<DeviceId> free_;               ///< FIFO recycle queue
};

}  // namespace acn
