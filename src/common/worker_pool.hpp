// WorkerPool: a persistent pool of parked worker threads for the
// per-interval fan-outs (plane build per interaction component,
// characterization per dense family).
//
// The seed spawned fresh std::threads inside every parallel characterization
// call — tens of microseconds of spawn/join latency per interval, paid even
// when the work item count made parallelism pointless (the recorded bench
// showed parallel >= serial on every n=1000/5000 row). The pool spawns its
// threads once, parks them on a condition variable between parallel
// sections, and falls back to a plain inline loop whenever the item count
// is below the caller's fan-out threshold (or the pool has no workers), so
// small intervals never touch a synchronization primitive.
//
// Scheduling is a shared cursor over [0, count): workers and the calling
// thread claim indices until exhaustion. Result determinism is the caller's
// concern (disjoint slot writes make it trivial); the first exception
// thrown by any index is rethrown on the calling thread after the section
// quiesces.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace acn {

class WorkerPool {
 public:
  /// Spawns `parallelism - 1` workers (the calling thread is the final
  /// lane); 0 means hardware concurrency. A pool of parallelism 1 never
  /// spawns a thread and runs every section inline.
  explicit WorkerPool(unsigned parallelism = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Workers + the calling lane.
  [[nodiscard]] unsigned parallelism() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs fn(index) for every index in [0, count), the calling thread
  /// participating. Runs inline (no wakeups, no locking) when count <
  /// min_fanout or the pool has no workers. The first exception from any
  /// index is rethrown here once the section quiesces. Safe to call from
  /// several application threads at once (the seed's spawn-per-call paths
  /// were): sections on one pool serialize behind section_mutex_, they
  /// never interleave.
  ///
  /// When `lane_ms` is given it is resized to the number of lanes that ran
  /// and filled with each lane's busy wall-clock milliseconds (first claim
  /// to drain) — two clock reads per lane, so the skew instrumentation the
  /// engine's FrameStats reports costs nothing on the per-index path. The
  /// inline fallback reports one lane. Slot order is join order, which is
  /// scheduling-dependent; consumers aggregate (max/mean), never index.
  void for_each(std::size_t count, std::size_t min_fanout,
                const std::function<void(std::size_t)>& fn,
                std::vector<double>* lane_ms = nullptr);

 private:
  void worker_loop();
  /// One lane's life inside the current section: claim indices from the
  /// shared cursor until exhaustion, running fn unlocked, recording the
  /// first error (which also drains the cursor). Shared by worker lanes
  /// and the calling lane; `lock` must hold mutex_ on entry and holds it
  /// again on return.
  void run_as_lane(std::unique_lock<std::mutex>& lock);

  std::mutex section_mutex_;  ///< serializes whole sections across callers
  std::mutex mutex_;
  std::condition_variable work_cv_;   ///< workers park here
  std::condition_variable done_cv_;   ///< the caller waits here
  std::vector<std::thread> workers_;
  bool stop_ = false;

  // One section at a time (for_each holds section_mutex_ until quiescence).
  std::uint64_t generation_ = 0;  ///< bumped per section; workers join once
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t count_ = 0;
  unsigned lanes_left_ = 0;        ///< worker lanes still allowed to join
  std::size_t cursor_ = 0;         ///< next index to claim (under mutex_)
  std::size_t in_flight_ = 0;      ///< indices currently executing
  std::exception_ptr error_;
  std::vector<double>* lane_ms_ = nullptr;  ///< per-lane busy ms (optional)
};

}  // namespace acn
