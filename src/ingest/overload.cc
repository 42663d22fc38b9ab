#include "ingest/overload.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "core/grid_index.hpp"

namespace acn {
namespace {

/// splitmix64 — the cheap, well-mixed stateless hash the sampling decision
/// rides on (stable across platforms, unlike std::hash).
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

OverloadController::OverloadController(OverloadConfig config)
    : config_(config) {
  if (config_.shed_sample_stride == 0) {
    throw std::invalid_argument(
        "OverloadController: shed_sample_stride must be >= 1");
  }
}

bool OverloadController::shed_claim(GatewayKey device, std::uint64_t interval,
                                    std::size_t frame_volume) const noexcept {
  if (frame_volume < config_.shed_claim_threshold) return false;
  if (config_.shed_sample_stride <= 1) return false;
  return mix(device * 0x9e3779b97f4a7c15ULL + interval) %
             config_.shed_sample_stride !=
         0;
}

std::vector<std::size_t> OverloadController::defer_candidates(const Snapshot& claims,
                                                             double window) const {
  std::vector<std::size_t> deferred;
  if (!defers(claims.size())) return deferred;

  // Both halves of the state are the claims, so the joint distance of two
  // devices is the Chebyshev distance of their claims, and a device defers
  // iff no OTHER flagged claim lies within `window`.
  std::vector<DeviceId> all(claims.size());
  std::iota(all.begin(), all.end(), DeviceId{0});
  const StatePair state(claims, claims, DeviceSet::from_sorted(std::move(all)));
  const GridIndex grid(state, state.abnormal(), std::max(window, kMinGridCell));
  for (DeviceId i = 0; i < claims.size(); ++i) {
    if (!grid.has_neighbour(i, window)) deferred.push_back(i);
  }
  return deferred;
}

}  // namespace acn
