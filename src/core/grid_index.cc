#include "core/grid_index.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace acn {
namespace {

// FNV-style mix of the per-dimension cell coordinates into a bucket hash.
// Two cells may share a hash; they are told apart by their coordinates
// (find_cell), so a collision only costs a chain step, never a wrong cell.
constexpr std::uint64_t kKeyBasis = 1469598103934665603ULL;

std::uint64_t hash_coords(const std::int64_t* coord, std::size_t d) noexcept {
  std::uint64_t key = kKeyBasis;
  for (std::size_t i = 0; i < d; ++i) {
    key ^= static_cast<std::uint64_t>(coord[i]) + 0x9E3779B97F4A7C15ULL;
    key *= 1099511628211ULL;
  }
  return key;
}

}  // namespace

GridIndex::GridIndex(const StatePair& state, const DeviceSet& members, double cell)
    : state_(state), cell_(cell) {
  // Written so NaN fails too: a NaN side would reach the integer casts.
  if (!(cell > 0.0)) throw std::invalid_argument("GridIndex: cell must be > 0");
  const std::size_t d = state.dim();
  std::vector<std::uint32_t> cell_of(members.size());
  std::vector<std::uint32_t> counts;
  std::array<std::int64_t, Point::kMaxDim> coord{};
  buckets_.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    coords_of(members[i], coord.data());
    std::uint32_t c = find_cell(coord.data());
    if (c == kNoCell) {
      c = static_cast<std::uint32_t>(counts.size());
      counts.push_back(0);
      cell_coords_.insert(cell_coords_.end(), coord.begin(),
                          coord.begin() + static_cast<std::ptrdiff_t>(d));
      const auto [head, fresh] = buckets_.try_emplace(hash_coords(coord.data(), d), c);
      bucket_next_.push_back(fresh ? kNoCell : head->second);
      head->second = c;
    }
    ++counts[c];
    cell_of[i] = c;
  }
  // Counting sort into per-cell runs; `members` ascends, so each run does.
  cell_offsets_.assign(counts.size() + 1, 0);
  for (std::size_t c = 0; c < counts.size(); ++c) {
    cell_offsets_[c + 1] = cell_offsets_[c] + counts[c];
  }
  members_.resize(members.size());
  std::vector<std::uint32_t> cursor(cell_offsets_.begin(), cell_offsets_.end() - 1);
  for (std::size_t i = 0; i < members.size(); ++i) {
    members_[cursor[cell_of[i]]++] = members[i];
  }
}

void GridIndex::coords_of(DeviceId j, std::int64_t* out) const noexcept {
  const std::size_t d = state_.dim();
  for (std::size_t i = 0; i < d; ++i) {
    out[i] = static_cast<std::int64_t>(std::floor(state_.joint_col(d + i)[j] / cell_));
  }
}

std::uint32_t GridIndex::find_cell(const std::int64_t* coord) const noexcept {
  const std::size_t d = state_.dim();
  const auto head = buckets_.find(hash_coords(coord, d));
  if (head == buckets_.end()) return kNoCell;
  for (std::uint32_t c = head->second; c != kNoCell; c = bucket_next_[c]) {
    if (std::equal(coord, coord + d, cell_coords_.data() + c * d)) return c;
  }
  return kNoCell;
}

std::int64_t GridIndex::reach_for(double radius) const {
  return static_cast<std::int64_t>(std::ceil(radius / cell_));
}

void GridIndex::for_each_cell_near(const std::int64_t* base, std::int64_t reach,
                                   bool half,
                                   const std::function<void(std::uint32_t)>& visit) const {
  // Odometer over every offset in [-reach, reach]^d.
  const std::size_t d = state_.dim();
  std::array<std::int64_t, Point::kMaxDim> offset{};
  std::array<std::int64_t, Point::kMaxDim> coord{};
  for (std::size_t i = 0; i < d; ++i) offset[i] = -reach;
  for (;;) {
    std::size_t lead = 0;
    while (lead < d && offset[lead] == 0) ++lead;
    if (!half || (lead < d && offset[lead] > 0)) {
      for (std::size_t i = 0; i < d; ++i) coord[i] = base[i] + offset[i];
      if (const std::uint32_t c = find_cell(coord.data()); c != kNoCell) visit(c);
    }
    std::size_t i = 0;
    while (i < d && ++offset[i] > reach) {
      offset[i] = -reach;
      ++i;
    }
    if (i == d) break;
  }
}

std::vector<DeviceId> GridIndex::within(DeviceId j, double radius) const {
  std::vector<DeviceId> out;
  std::array<std::int64_t, Point::kMaxDim> base{};
  coords_of(j, base.data());
  for_each_cell_near(base.data(), reach_for(radius), false, [&](std::uint32_t c) {
    for (const DeviceId candidate : cell_members(c)) {
      if (state_.joint_distance(j, candidate) <= radius) out.push_back(candidate);
    }
  });
  std::sort(out.begin(), out.end());
  return out;
}

void GridIndex::for_each_cell_pair(
    double radius, const std::function<void(std::uint32_t, std::uint32_t)>& visit) const {
  const std::size_t d = state_.dim();
  const std::int64_t reach = reach_for(radius);
  for (std::uint32_t a = 0; a < cell_count(); ++a) {
    for_each_cell_near(cell_coords_.data() + a * d, reach, true,
                       [&](std::uint32_t b) { visit(a, b); });
  }
}

}  // namespace acn
