#include "online/episode.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace acn {
namespace {

/// Feeds one interval's (device, verdict) pairs, ascending by device.
void feed(EpisodeTracker& tracker, std::uint64_t interval,
          const std::vector<std::pair<DeviceId, AnomalyClass>>& verdict_of) {
  std::vector<DeviceId> ids;
  std::vector<AnomalyClass> verdicts;
  for (const auto& [device, verdict] : verdict_of) {
    ids.push_back(device);
    verdicts.push_back(verdict);
  }
  tracker.observe(interval, ids, verdicts);
}

TEST(EpisodeTest, FinalVerdictIsLastDecided) {
  Episode e;
  e.verdicts = {AnomalyClass::kUnresolved, AnomalyClass::kMassive,
                AnomalyClass::kUnresolved};
  EXPECT_EQ(e.final_verdict(), AnomalyClass::kMassive);
  e.verdicts = {AnomalyClass::kUnresolved};
  EXPECT_EQ(e.final_verdict(), AnomalyClass::kUnresolved);
}

TEST(EpisodeTest, FlappedDetectsClassSwitch) {
  Episode e;
  e.verdicts = {AnomalyClass::kIsolated, AnomalyClass::kMassive};
  EXPECT_TRUE(e.flapped());
  e.verdicts = {AnomalyClass::kMassive, AnomalyClass::kUnresolved,
                AnomalyClass::kMassive};
  EXPECT_FALSE(e.flapped());
}

TEST(EpisodeTest, SharpenedDetectsLateDecision) {
  Episode e;
  e.verdicts = {AnomalyClass::kUnresolved, AnomalyClass::kMassive};
  EXPECT_TRUE(e.sharpened());
  e.verdicts = {AnomalyClass::kMassive, AnomalyClass::kUnresolved};
  EXPECT_FALSE(e.sharpened());
}

TEST(EpisodeTest, Duration) {
  Episode e;
  e.first_interval = 3;
  e.last_interval = 7;
  EXPECT_EQ(e.duration(), 5u);
}

TEST(EpisodeTrackerTest, OpensExtendsAndCloses) {
  EpisodeTracker tracker(/*quiet_intervals=*/2);
  feed(tracker, 0, {{7, AnomalyClass::kMassive}});
  feed(tracker, 1, {{7, AnomalyClass::kMassive}});
  EXPECT_EQ(tracker.open_count(), 1u);
  feed(tracker, 2, {});  // quiet 1
  EXPECT_EQ(tracker.open_count(), 1u);
  feed(tracker, 3, {});  // quiet 2 -> closes
  EXPECT_EQ(tracker.open_count(), 0u);
  ASSERT_EQ(tracker.closed().size(), 1u);
  const Episode& episode = tracker.closed()[0];
  EXPECT_EQ(episode.device, 7u);
  EXPECT_EQ(episode.first_interval, 0u);
  EXPECT_EQ(episode.last_interval, 1u);
  EXPECT_EQ(episode.verdicts.size(), 2u);
}

TEST(EpisodeTrackerTest, ReappearanceResetsQuietStreak) {
  EpisodeTracker tracker(/*quiet_intervals=*/2);
  feed(tracker, 0, {{1, AnomalyClass::kIsolated}});
  feed(tracker, 1, {});  // quiet 1
  feed(tracker, 2, {{1, AnomalyClass::kIsolated}});  // back: same episode
  feed(tracker, 3, {});
  feed(tracker, 4, {});
  ASSERT_EQ(tracker.closed().size(), 1u);
  EXPECT_EQ(tracker.closed()[0].last_interval, 2u);
  EXPECT_EQ(tracker.closed()[0].verdicts.size(), 2u);
}

TEST(EpisodeTrackerTest, IndependentDevices) {
  EpisodeTracker tracker(1);
  feed(tracker, 0, {{1, AnomalyClass::kMassive}, {2, AnomalyClass::kIsolated}});
  feed(tracker, 1, {{1, AnomalyClass::kMassive}});
  feed(tracker, 2, {});
  tracker.flush();
  EXPECT_EQ(tracker.closed().size(), 2u);
}

TEST(EpisodeTrackerTest, FlushClosesOpenEpisodes) {
  EpisodeTracker tracker(5);
  feed(tracker, 0, {{3, AnomalyClass::kUnresolved}});
  EXPECT_EQ(tracker.open_count(), 1u);
  tracker.flush();
  EXPECT_EQ(tracker.open_count(), 0u);
  EXPECT_EQ(tracker.closed().size(), 1u);
}

TEST(EpisodeTrackerTest, RejectsZeroQuiet) {
  EXPECT_THROW(EpisodeTracker(0), std::invalid_argument);
}

TEST(EpisodeTrackerTest, RejectsMismatchedVerdicts) {
  EpisodeTracker tracker(1);
  const std::vector<DeviceId> ids{1, 2};
  const std::vector<AnomalyClass> verdicts{AnomalyClass::kMassive};
  EXPECT_THROW(tracker.observe(0, ids, verdicts), std::invalid_argument);
  EXPECT_EQ(tracker.open_count(), 0u);
}

/// The tracker's rules spelled out over a map, one device at a time: the
/// brute-force reference for the merge.
class ReferenceTracker {
 public:
  explicit ReferenceTracker(std::uint64_t quiet) : quiet_(quiet) {}

  void observe(std::uint64_t interval,
               const std::map<DeviceId, AnomalyClass>& verdict_of) {
    for (const auto& [device, verdict] : verdict_of) {
      auto [it, fresh] = open_.try_emplace(device);
      if (fresh) {
        it->second.episode.device = device;
        it->second.episode.first_interval = interval;
      }
      it->second.episode.last_interval = interval;
      it->second.episode.verdicts.push_back(verdict);
      it->second.quiet = 0;
    }
    for (auto it = open_.begin(); it != open_.end();) {
      if (!verdict_of.contains(it->first) && ++it->second.quiet >= quiet_) {
        closed_.push_back(it->second.episode);
        it = open_.erase(it);
      } else {
        ++it;
      }
    }
  }
  void close(DeviceId device) {
    const auto it = open_.find(device);
    if (it == open_.end()) return;
    closed_.push_back(it->second.episode);
    open_.erase(it);
  }
  void flush() {
    for (const auto& [device, open] : open_) closed_.push_back(open.episode);
    open_.clear();
  }
  [[nodiscard]] const std::vector<Episode>& closed() const { return closed_; }
  [[nodiscard]] std::size_t open_count() const { return open_.size(); }

 private:
  struct Open {
    Episode episode;
    std::uint64_t quiet = 0;
  };
  std::uint64_t quiet_;
  std::map<DeviceId, Open> open_;
  std::vector<Episode> closed_;
};

void expect_same_episodes(const std::vector<Episode>& got,
                          const std::vector<Episode>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "closed episode " << i);
    EXPECT_EQ(got[i].device, want[i].device);
    EXPECT_EQ(got[i].first_interval, want[i].first_interval);
    EXPECT_EQ(got[i].last_interval, want[i].last_interval);
    EXPECT_EQ(got[i].verdicts, want[i].verdicts);
  }
}

TEST(EpisodeTrackerTest, MergeMatchesBruteForceReference) {
  // Random streams over 40 devices: each device flips between spells of
  // abnormal and quiet intervals (it leaves A_k and returns, inside and
  // past the quiet tolerance), a few close() calls land between intervals
  // (churn), and every stream ends with a flush.
  for (std::uint64_t quiet = 1; quiet <= 3; ++quiet) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(testing::Message() << "quiet " << quiet << " seed " << seed);
      Rng rng(seed);
      EpisodeTracker tracker(quiet);
      ReferenceTracker reference(quiet);
      constexpr DeviceId kDevices = 40;
      std::vector<bool> abnormal(kDevices, false);
      for (std::uint64_t k = 0; k < 60; ++k) {
        std::map<DeviceId, AnomalyClass> verdict_of;
        for (DeviceId j = 0; j < kDevices; ++j) {
          if (rng.bernoulli(0.25)) abnormal[j] = !abnormal[j];
          if (!abnormal[j]) continue;
          verdict_of.emplace(j, static_cast<AnomalyClass>(rng.uniform_int(std::uint64_t{3})));
        }
        feed(tracker, k, {verdict_of.begin(), verdict_of.end()});
        reference.observe(k, verdict_of);
        for (int c = 0; c < 2; ++c) {
          if (!rng.bernoulli(0.3)) continue;
          const auto device = static_cast<DeviceId>(rng.uniform_int(std::uint64_t{kDevices}));
          tracker.close(device);
          reference.close(device);
        }
        ASSERT_EQ(tracker.open_count(), reference.open_count()) << "interval " << k;
        expect_same_episodes(tracker.closed(), reference.closed());
        if (HasFatalFailure()) return;
      }
      tracker.flush();
      reference.flush();
      EXPECT_EQ(tracker.open_count(), 0u);
      expect_same_episodes(tracker.closed(), reference.closed());
    }
  }
}

TEST(EpisodeTrackerTest, CloseForcesOneDeviceOut) {
  EpisodeTracker tracker(5);
  feed(tracker, 0, {{5, AnomalyClass::kMassive}});
  tracker.close(9);  // no open episode: no-op
  EXPECT_EQ(tracker.open_count(), 1u);
  tracker.close(5);  // churn: device 5's gateway left the fleet
  EXPECT_EQ(tracker.open_count(), 0u);
  ASSERT_EQ(tracker.closed().size(), 1u);
  EXPECT_EQ(tracker.closed()[0].device, 5u);
  tracker.close(5);  // already closed: no-op
  EXPECT_EQ(tracker.closed().size(), 1u);

  // The recycled slot opens a FRESH episode — the new gateway's verdicts
  // must not extend the departed gateway's incident.
  feed(tracker, 1, {{5, AnomalyClass::kIsolated}});
  tracker.close(5);
  ASSERT_EQ(tracker.closed().size(), 2u);
  EXPECT_EQ(tracker.closed()[1].first_interval, 1u);
  EXPECT_EQ(tracker.closed()[1].verdicts.size(), 1u);
  EXPECT_EQ(tracker.closed()[1].final_verdict(), AnomalyClass::kIsolated);
}

// Regression: a force-close followed by any later close path — a second
// close(), the quiet-streak expiry, or the end-of-run flush — must never
// record the same episode twice.
TEST(EpisodeTrackerTest, DoubleCloseNeverDuplicatesAnEpisode) {
  EpisodeTracker tracker(2);
  feed(tracker, 0, {{3, AnomalyClass::kMassive}});
  tracker.close(3);   // retire path
  tracker.close(3);   // late force-close replays
  ASSERT_EQ(tracker.closed().size(), 1u);
  feed(tracker, 1, {});
  feed(tracker, 2, {});  // quiet expiry finds nothing left to close
  tracker.flush();         // neither does the end-of-run flush
  EXPECT_EQ(tracker.closed().size(), 1u);
  EXPECT_EQ(tracker.open_count(), 0u);
}

TEST(EpisodeTrackerTest, GapBeyondQuietToleranceSplitsEpisodes) {
  EpisodeTracker tracker(2);
  feed(tracker, 0, {{4, AnomalyClass::kUnresolved}});
  feed(tracker, 1, {});
  feed(tracker, 2, {});  // quiet streak hits 2: episode closes
  feed(tracker, 3, {{4, AnomalyClass::kMassive}});
  tracker.flush();
  ASSERT_EQ(tracker.closed().size(), 2u);
  EXPECT_EQ(tracker.closed()[0].last_interval, 0u);
  EXPECT_EQ(tracker.closed()[0].verdicts.size(), 1u);
  EXPECT_EQ(tracker.closed()[1].first_interval, 3u);
}

TEST(EpisodeTrackerTest, FlappingVerdictStreamAcrossAGap) {
  EpisodeTracker tracker(2);
  feed(tracker, 0, {{2, AnomalyClass::kMassive}});
  feed(tracker, 1, {});  // gap inside the quiet tolerance: same episode
  feed(tracker, 2, {{2, AnomalyClass::kUnresolved}});
  feed(tracker, 3, {{2, AnomalyClass::kIsolated}});
  tracker.flush();
  ASSERT_EQ(tracker.closed().size(), 1u);
  const Episode& episode = tracker.closed()[0];
  EXPECT_EQ(episode.verdicts,
            (std::vector<AnomalyClass>{AnomalyClass::kMassive,
                                       AnomalyClass::kUnresolved,
                                       AnomalyClass::kIsolated}));
  EXPECT_TRUE(episode.flapped());
  EXPECT_TRUE(episode.sharpened());
  EXPECT_EQ(episode.final_verdict(), AnomalyClass::kIsolated);
  EXPECT_EQ(episode.duration(), 4u);  // the quiet gap counts into the span
}

}  // namespace
}  // namespace acn
