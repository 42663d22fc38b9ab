#include "adversary/adversary.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/math.hpp"

namespace acn {

TrajectoryShaper::TrajectoryShaper(Config config)
    : config_(std::move(config)), rng_(config_.seed) {
  config_.model.validate();
  // Written so NaN fails: a NaN (or infinite) jitter would clamp to NaN
  // claims, which only a later Snapshot refuses.
  if (!(std::isfinite(config_.claim_jitter) && config_.claim_jitter >= 0.0 &&
        config_.chain_spacing > 0.0 && config_.chain_spacing <= 1.0)) {
    throw std::invalid_argument("TrajectoryShaper: bad jitter/spacing");
  }
}

void TrajectoryShaper::build_offsets(std::size_t dim) {
  // Cluster c of the chain sits (c+1) * chain_spacing * 2r from the victim
  // along the diagonal; each colluder keeps a FIXED jitter inside its
  // cluster so the cluster stays r-consistent when the whole chain jumps
  // with the victim. The diagonal direction is resolved per shape() call
  // (it must point into the unit box from wherever the victim is).
  const std::size_t tau = std::max<std::size_t>(config_.model.tau, 1);
  const double spacing = config_.chain_spacing * config_.model.window();
  const double jitter = config_.claim_jitter * config_.model.r;
  offset_.clear();
  offset_.reserve(config_.colluders.size());
  for (std::size_t i = 0; i < config_.colluders.size(); ++i) {
    const double along =
        static_cast<double>(i / tau + 1) * spacing;
    std::vector<double> coords(dim);
    for (auto& x : coords) x = along + rng_.uniform(-jitter, jitter);
    offset_.emplace_back(std::span<const double>(coords));
  }
  offsets_built_ = true;
}

std::vector<DeviceId> TrajectoryShaper::shape(std::optional<DeviceId> victim,
                                              bool victim_abnormal,
                                              std::vector<Point>& claimed) {
  for (const DeviceId c : config_.colluders) {
    if (c >= claimed.size()) {
      throw std::invalid_argument("TrajectoryShaper::shape: unknown colluder id");
    }
  }
  if (victim.has_value() && *victim >= claimed.size()) {
    throw std::invalid_argument("TrajectoryShaper::shape: unknown victim id");
  }

  std::vector<DeviceId> fabricated;
  const auto fabricate_all = [&] {
    fabricated.assign(config_.colluders.begin(), config_.colluders.end());
    std::sort(fabricated.begin(), fabricated.end());
  };

  switch (config_.strategy) {
    case TrajectoryAttack::kScatterChaff: {
      const std::size_t dim = claimed.empty() ? 0 : claimed.front().dim();
      for (const DeviceId c : config_.colluders) {
        std::vector<double> coords(dim);
        for (auto& x : coords) x = rng_.uniform();
        claimed[c] = Point{std::span<const double>(coords)};
      }
      fabricate_all();
      break;
    }
    case TrajectoryAttack::kShadowCrowd: {
      if (!victim.has_value()) break;  // nobody to shadow: claims freeze
      const Point target = claimed[*victim];
      const double jitter = config_.claim_jitter * config_.model.r;
      for (const DeviceId c : config_.colluders) {
        Point p = target;
        for (std::size_t i = 0; i < p.dim(); ++i) {
          p[i] = clamp(p[i] + rng_.uniform(-jitter, jitter), 0.0, 1.0);
        }
        claimed[c] = p;
      }
      if (victim_abnormal) fabricate_all();
      break;
    }
    case TrajectoryAttack::kSuperpositionBomb: {
      if (!victim.has_value()) break;
      const Point target = claimed[*victim];
      if (!offsets_built_) build_offsets(target.dim());
      for (std::size_t i = 0; i < config_.colluders.size(); ++i) {
        Point p = target;
        for (std::size_t t = 0; t < p.dim(); ++t) {
          // The chain extends toward the far half of the box per dimension
          // so it never folds back onto the victim when clamped.
          const double direction = target[t] < 0.5 ? 1.0 : -1.0;
          p[t] = clamp(p[t] + direction * offset_[i][t], 0.0, 1.0);
        }
        claimed[config_.colluders[i]] = p;
      }
      if (victim_abnormal) fabricate_all();
      break;
    }
  }
  return fabricated;
}

}  // namespace acn
