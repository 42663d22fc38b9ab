// Episode tracking: the online view of anomalies across many intervals.
//
// The characterizer answers "what hit device j in [k-1, k]?". An operator
// cares about the *episode*: the contiguous run of abnormal intervals of a
// device, the verdict evolution inside it (unresolved verdicts frequently
// sharpen into massive/isolated as the superposed errors drift apart), and
// fleet-level statistics (episode durations, verdict stability).
//
// The open episodes are a vector sorted by device, and each interval merges
// it with the interval's ascending A_k in one linear pass: O(open + |A_k|)
// with no per-interval tree.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/device_set.hpp"
#include "core/params.hpp"

namespace acn {

struct Episode {
  DeviceId device = 0;
  std::uint64_t first_interval = 0;
  std::uint64_t last_interval = 0;
  std::vector<AnomalyClass> verdicts;  ///< one per abnormal interval

  [[nodiscard]] std::uint64_t duration() const noexcept {
    return last_interval - first_interval + 1;
  }
  /// The episode's settled verdict: the last decided (non-unresolved)
  /// verdict if any, otherwise unresolved.
  [[nodiscard]] AnomalyClass final_verdict() const noexcept;
  /// True if the episode ever switched between decided classes
  /// (isolated <-> massive) — should be rare; a symptom of model drift.
  [[nodiscard]] bool flapped() const noexcept;
  /// True if some unresolved interval later sharpened into a decided one.
  [[nodiscard]] bool sharpened() const noexcept;
};

/// Feeds per-interval verdicts; closes an episode after `quiet_intervals`
/// without the device appearing in A_k.
class EpisodeTracker {
 public:
  explicit EpisodeTracker(std::uint64_t quiet_intervals = 1);

  /// Records interval k: `ids` are its abnormal devices in ascending
  /// order (A_k), verdicts[i] the verdict of ids[i]. Devices not listed are
  /// quiet; an episode quiet for quiet_intervals closes, and the episodes
  /// one interval closes join closed() in ascending device order. Throws
  /// std::invalid_argument if the spans differ in length.
  void observe(std::uint64_t interval, std::span<const DeviceId> ids,
               std::span<const AnomalyClass> verdicts);

  /// Episodes closed so far (quiet for >= quiet_intervals).
  [[nodiscard]] const std::vector<Episode>& closed() const noexcept {
    return closed_;
  }
  /// Episodes still running.
  [[nodiscard]] std::size_t open_count() const noexcept { return open_.size(); }

  /// Force-closes every open episode (end of run).
  void flush();

  /// Force-closes the open episode of one device, if any (churn: the
  /// device left the fleet, so its slot may be recycled for an unrelated
  /// gateway — appending that gateway's verdicts to the departed device's
  /// episode would conflate two incidents). No-op when no episode is open.
  void close(DeviceId device);

 private:
  struct OpenEpisode {
    Episode episode;
    std::uint64_t quiet_streak = 0;
  };

  std::uint64_t quiet_intervals_;
  std::vector<OpenEpisode> open_;    ///< ascending by device
  std::vector<OpenEpisode> merged_;  ///< observe()'s output, swapped with open_
  std::vector<Episode> closed_;
};

}  // namespace acn
