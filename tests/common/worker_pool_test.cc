// WorkerPool: persistent lanes, inline fallback below the fan-out
// threshold, back-to-back sections, exception propagation.
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/worker_pool.hpp"

namespace acn {
namespace {

TEST(WorkerPoolTest, RunsEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.parallelism(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.for_each(hits.size(), 1, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(WorkerPoolTest, BackToBackSectionsReuseTheLanes) {
  WorkerPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.for_each(64, 1, [&](std::size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), 64u * 65u / 2u);
  }
}

TEST(WorkerPoolTest, DisjointSlotWritesNeedNoSynchronization) {
  WorkerPool pool(4);
  std::vector<std::size_t> out(512, 0);
  pool.for_each(out.size(), 1, [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(WorkerPoolTest, BelowFanoutThresholdRunsInline) {
  WorkerPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::set<std::thread::id> lanes;
  std::mutex mutex;
  pool.for_each(8, /*min_fanout=*/64, [&](std::size_t) {
    const std::lock_guard<std::mutex> lock(mutex);
    lanes.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(lanes, std::set<std::thread::id>{caller});
}

TEST(WorkerPoolTest, SingleLanePoolSpawnsNothingAndStillWorks) {
  WorkerPool pool(1);
  EXPECT_EQ(pool.parallelism(), 1u);
  std::size_t sum = 0;
  pool.for_each(100, 1, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
}

TEST(WorkerPoolTest, FirstExceptionPropagatesAndSectionQuiesces) {
  WorkerPool pool(4);
  for (int round = 0; round < 5; ++round) {
    EXPECT_THROW(
        pool.for_each(128, 1,
                      [&](std::size_t i) {
                        if (i == 37) throw std::runtime_error("lane failure");
                      }),
        std::runtime_error);
    // The pool stays usable after a failed section.
    std::atomic<std::size_t> count{0};
    pool.for_each(32, 1, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 32u);
  }
}

}  // namespace
}  // namespace acn
