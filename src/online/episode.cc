#include "online/episode.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace acn {

AnomalyClass Episode::final_verdict() const noexcept {
  for (auto it = verdicts.rbegin(); it != verdicts.rend(); ++it) {
    if (*it != AnomalyClass::kUnresolved) return *it;
  }
  return AnomalyClass::kUnresolved;
}

bool Episode::flapped() const noexcept {
  bool saw_isolated = false;
  bool saw_massive = false;
  for (const AnomalyClass verdict : verdicts) {
    saw_isolated = saw_isolated || verdict == AnomalyClass::kIsolated;
    saw_massive = saw_massive || verdict == AnomalyClass::kMassive;
  }
  return saw_isolated && saw_massive;
}

bool Episode::sharpened() const noexcept {
  bool unresolved_seen = false;
  for (const AnomalyClass verdict : verdicts) {
    if (verdict == AnomalyClass::kUnresolved) {
      unresolved_seen = true;
    } else if (unresolved_seen) {
      return true;
    }
  }
  return false;
}

EpisodeTracker::EpisodeTracker(std::uint64_t quiet_intervals)
    : quiet_intervals_(quiet_intervals) {
  if (quiet_intervals == 0) {
    throw std::invalid_argument("EpisodeTracker: quiet_intervals must be >= 1");
  }
}

void EpisodeTracker::observe(std::uint64_t interval, std::span<const DeviceId> ids,
                             std::span<const AnomalyClass> verdicts) {
  if (ids.size() != verdicts.size()) {
    throw std::invalid_argument("EpisodeTracker::observe: " + std::to_string(ids.size()) +
                                " devices, " + std::to_string(verdicts.size()) +
                                " verdicts");
  }
  // One pass over both ascending sequences: a listed device extends its
  // episode or opens one, an unlisted open episode ages and may close.
  merged_.clear();
  std::size_t i = 0;
  const auto extend = [&](OpenEpisode& open) {
    open.episode.last_interval = interval;
    open.episode.verdicts.push_back(verdicts[i++]);
    open.quiet_streak = 0;
  };
  const auto open_next = [&] {
    OpenEpisode& fresh = merged_.emplace_back();
    fresh.episode.device = ids[i];
    fresh.episode.first_interval = interval;
    extend(fresh);
  };
  for (OpenEpisode& open : open_) {
    const DeviceId device = open.episode.device;
    while (i < ids.size() && ids[i] < device) open_next();
    if (i < ids.size() && ids[i] == device) {
      extend(open);
      merged_.push_back(std::move(open));
    } else if (++open.quiet_streak >= quiet_intervals_) {
      closed_.push_back(std::move(open.episode));
    } else {
      merged_.push_back(std::move(open));
    }
  }
  while (i < ids.size()) open_next();
  open_.swap(merged_);
}

void EpisodeTracker::close(DeviceId device) {
  const auto it = std::lower_bound(
      open_.begin(), open_.end(), device,
      [](const OpenEpisode& open, DeviceId id) { return open.episode.device < id; });
  if (it == open_.end() || it->episode.device != device) return;
  closed_.push_back(std::move(it->episode));
  open_.erase(it);
}

void EpisodeTracker::flush() {
  for (OpenEpisode& open : open_) closed_.push_back(std::move(open.episode));
  open_.clear();
}

}  // namespace acn
