#include "core/grid_index.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace acn {
namespace {

// Incremental FNV-style mix of one per-dimension cell index into the packed
// key. With cell sides >= 1e-9 and coordinates in [0,1] the indices are
// small; the mix keeps distinct cells in distinct buckets with negligible
// collision probability (and collisions only cost speed, never correctness:
// hits are filtered by exact joint distance and collided buckets are scanned
// once — see within_into).
constexpr std::uint64_t kKeyBasis = 1469598103934665603ULL;

std::uint64_t mix(std::uint64_t key, std::int64_t cell_coord) noexcept {
  key ^= static_cast<std::uint64_t>(cell_coord) + 0x9E3779B97F4A7C15ULL;
  key *= 1099511628211ULL;
  return key;
}

}  // namespace

std::vector<std::vector<DeviceId>> connected_components(
    std::span<const DeviceId> ids,
    const std::function<std::span<const DeviceId>(std::size_t)>& neighbours_of) {
  const std::size_t m = ids.size();
  std::vector<std::uint32_t> parent(m);
  for (std::size_t i = 0; i < m; ++i) parent[i] = static_cast<std::uint32_t>(i);
  const auto find = [&](std::uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  // Dense id -> rank map: one O(max id) table turns the per-edge rank
  // lookup into an array read. The edge count is the profile here (every
  // neighbourhood list entry is an edge), so per-edge binary searches were
  // the single hottest line of the plane build at n = 50k.
  std::vector<std::uint32_t> rank_map(m == 0 ? 0 : ids.back() + 1);
  for (std::size_t i = 0; i < m; ++i) rank_map[ids[i]] = static_cast<std::uint32_t>(i);
  for (std::size_t rank = 0; rank < m; ++rank) {
    for (const DeviceId other : neighbours_of(rank)) {
      parent[find(static_cast<std::uint32_t>(rank))] = find(rank_map[other]);
    }
  }
  // Scanning ranks in ascending order keeps every component sorted by id
  // and assigns component slots by smallest member.
  std::vector<std::vector<DeviceId>> components;
  std::vector<std::int64_t> slot(m, -1);
  for (std::size_t rank = 0; rank < m; ++rank) {
    const std::uint32_t root = find(static_cast<std::uint32_t>(rank));
    if (slot[root] < 0) {
      slot[root] = static_cast<std::int64_t>(components.size());
      components.emplace_back();
    }
    components[static_cast<std::size_t>(slot[root])].push_back(ids[rank]);
  }
  return components;
}

GridIndex::GridIndex(const StatePair& state, const DeviceSet& members, double cell)
    : state_(state), cell_(cell), member_count_(members.size()) {
  if (cell <= 0.0) throw std::invalid_argument("GridIndex: cell must be > 0");
  cells_.reserve(members.size());
  for (const DeviceId j : members) {
    cells_[cell_key(j)].push_back(j);
  }
}

std::uint64_t GridIndex::cell_key(DeviceId j) const noexcept {
  const std::size_t d = state_.dim();
  std::uint64_t key = kKeyBasis;
  for (std::size_t i = 0; i < d; ++i) {
    key = mix(key, static_cast<std::int64_t>(std::floor(state_.joint_col(d + i)[j] / cell_)));
  }
  return key;
}

std::vector<DeviceId> GridIndex::within(DeviceId j, double radius) const {
  std::vector<DeviceId> out;
  within_into(j, radius, out);
  return out;
}

void GridIndex::within_into(DeviceId j, double radius,
                            std::vector<DeviceId>& out) const {
  out.clear();
  // Odometer over every cell within `radius` of j's cell. Two colliding
  // cell keys share a bucket, which must then be scanned once — the
  // visited guard.
  const std::size_t d = state_.dim();
  const auto reach = static_cast<std::int64_t>(std::ceil(radius / cell_));
  std::array<std::int64_t, Point::kMaxDim> base{};
  std::array<std::int64_t, Point::kMaxDim> offset{};
  for (std::size_t i = 0; i < d; ++i) {
    base[i] = static_cast<std::int64_t>(std::floor(state_.joint_col(d + i)[j] / cell_));
    offset[i] = -reach;
  }
  std::vector<const std::vector<DeviceId>*> visited;
  visited.reserve(16);
  for (;;) {
    std::uint64_t key = kKeyBasis;
    for (std::size_t i = 0; i < d; ++i) key = mix(key, base[i] + offset[i]);
    if (const auto it = cells_.find(key);
        it != cells_.end() &&
        std::find(visited.begin(), visited.end(), &it->second) == visited.end()) {
      visited.push_back(&it->second);
      for (const DeviceId candidate : it->second) {
        if (state_.joint_distance(j, candidate) <= radius) out.push_back(candidate);
      }
    }
    std::size_t i = 0;
    while (i < d && ++offset[i] > reach) {
      offset[i] = -reach;
      ++i;
    }
    if (i == d) break;
  }
  std::sort(out.begin(), out.end());
}

}  // namespace acn
