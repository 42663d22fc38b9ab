#include "online/roster.hpp"

#include <stdexcept>

namespace acn {

namespace {

/// capacity slots parked at the origin of [0,1]^dim.
Snapshot parked_at_origin(std::size_t capacity, std::size_t dim) {
  if (capacity == 0) {
    throw std::invalid_argument("FleetRoster: capacity must be >= 1");
  }
  if (dim == 0 || dim > Point::kMaxDim / 2) {
    throw std::invalid_argument("FleetRoster: dimension out of range");
  }
  return Snapshot(dim, std::vector<double>(dim * capacity, 0.0));
}

}  // namespace

FleetRoster::FleetRoster(std::size_t capacity, std::size_t dim)
    : positions_(parked_at_origin(capacity, dim)) {
  flags_.assign(capacity, 0);
  slot_lane_.assign(capacity, kNoSlot);
  for (DeviceId slot = 0; slot < capacity; ++slot) free_.push_back(slot);
}

void FleetRoster::slot_insert(GatewayKey key, DeviceId slot) {
  if (key < slot_lane_.size()) {
    slot_lane_[key] = slot;
  } else {
    slot_spill_.emplace(key, slot);
  }
  ++active_;
}

void FleetRoster::slot_erase(GatewayKey key) {
  if (key < slot_lane_.size()) {
    slot_lane_[key] = kNoSlot;
  } else {
    slot_spill_.erase(key);
  }
  --active_;
}

DeviceId FleetRoster::admit(GatewayKey key, std::span<const double> position) {
  if (slot_lookup(key) != kNoSlot) {
    throw std::invalid_argument("FleetRoster::admit: key already active");
  }
  if (free_.empty()) {
    throw std::invalid_argument("FleetRoster::admit: no free slot (capacity " +
                                std::to_string(capacity()) + ")");
  }
  const DeviceId slot = free_.front();
  positions_.set(slot, position);  // validates before anything changes
  free_.pop_front();
  flags_[slot] = kChanged | kJustAssigned;
  slot_insert(key, slot);
  return slot;
}

void FleetRoster::retire(GatewayKey key) {
  const DeviceId slot = slot_lookup(key);
  if (slot == kNoSlot) {
    throw std::invalid_argument("FleetRoster::retire: key not active");
  }
  slot_erase(key);
  free_.push_back(slot);  // position stays parked where it last reported
}

void FleetRoster::report(GatewayKey key, std::span<const double> position) {
  if (!try_report(key, position)) {
    throw std::invalid_argument("FleetRoster::report: key not active");
  }
}

std::optional<DeviceId> FleetRoster::slot_of(GatewayKey key) const noexcept {
  const DeviceId slot = slot_lookup(key);
  if (slot == kNoSlot) return std::nullopt;
  return slot;
}

Snapshot FleetRoster::positions_of(std::span<const GatewayKey> keys) const {
  const std::size_t m = keys.size();
  std::vector<double> cols(dim() * m);
  for (std::size_t i = 0; i < m; ++i) {
    const DeviceId slot = slot_lookup(keys[i]);
    if (slot == kNoSlot) {
      throw std::invalid_argument("FleetRoster::positions_of: key not active");
    }
    for (std::size_t t = 0; t < dim(); ++t) cols[t * m + i] = positions_.col(t)[slot];
  }
  return Snapshot(dim(), std::move(cols));
}

DeviceSet FleetRoster::abnormal_slots(std::span<const GatewayKey> keys) const {
  std::vector<DeviceId> slots;
  slots.reserve(keys.size());
  for (const GatewayKey key : keys) {
    const DeviceId slot = slot_lookup(key);
    if (slot == kNoSlot) continue;        // retired or unknown
    if ((flags_[slot] & kJustAssigned) != 0) continue;  // no trajectory yet
    slots.push_back(slot);
  }
  return DeviceSet(std::move(slots));
}

void FleetRoster::end_interval() {
  for (std::uint8_t& flags : flags_) flags &= ~kJustAssigned;
}

void FleetRoster::clear_changes() {
  for (std::uint8_t& flags : flags_) flags &= ~kChanged;
}

}  // namespace acn
