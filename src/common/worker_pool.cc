#include "common/worker_pool.hpp"

#include <algorithm>
#include <chrono>

namespace acn {

WorkerPool::WorkerPool(unsigned parallelism) {
  if (parallelism == 0) {
    parallelism = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(parallelism - 1);
  for (unsigned t = 1; t < parallelism; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void WorkerPool::run_as_lane(std::unique_lock<std::mutex>& lock) {
  // Lane slot claimed up front (under the lock) so the busy-time write
  // below races nothing; the clock reads bracket the whole claim loop.
  std::size_t lane_slot = 0;
  if (lane_ms_ != nullptr) {
    lane_slot = lane_ms_->size();
    lane_ms_->push_back(0.0);
  }
  const auto lane_start = std::chrono::steady_clock::now();
  while (cursor_ < count_) {
    const std::size_t index = cursor_++;
    ++in_flight_;
    lock.unlock();
    try {
      (*fn_)(index);
      lock.lock();
    } catch (...) {
      lock.lock();
      if (!error_) error_ = std::current_exception();
      cursor_ = count_;  // drain: no lane claims another index
    }
    --in_flight_;
  }
  if (lane_ms_ != nullptr) {
    (*lane_ms_)[lane_slot] = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - lane_start)
                                 .count();
  }
}

void WorkerPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t seen = 0;
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stop_ || (fn_ != nullptr && generation_ != seen && lanes_left_ > 0 &&
                       cursor_ < count_);
    });
    if (stop_) return;
    seen = generation_;
    --lanes_left_;
    run_as_lane(lock);
    done_cv_.notify_one();
  }
}

void WorkerPool::for_each(std::size_t count, std::size_t min_fanout,
                          const std::function<void(std::size_t)>& fn,
                          std::vector<double>* lane_ms) {
  if (lane_ms != nullptr) lane_ms->clear();
  if (count == 0) return;
  const auto lanes = static_cast<unsigned>(
      std::min<std::size_t>(parallelism(), count));  // never more lanes than items
  if (lanes <= 1 || count < min_fanout) {
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t index = 0; index < count; ++index) fn(index);
    if (lane_ms != nullptr) {
      lane_ms->push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count());
    }
    return;
  }

  // Callers racing for the pool queue here: the section state below (fn_,
  // cursor_, generation_, ...) belongs to exactly one section at a time.
  const std::lock_guard<std::mutex> section(section_mutex_);
  std::unique_lock<std::mutex> lock(mutex_);
  fn_ = &fn;
  count_ = count;
  cursor_ = 0;
  in_flight_ = 0;
  error_ = nullptr;
  lane_ms_ = lane_ms;
  lanes_left_ = lanes - 1;
  ++generation_;
  work_cv_.notify_all();

  // The calling thread is a lane like any other.
  run_as_lane(lock);
  done_cv_.wait(lock, [&] { return cursor_ >= count_ && in_flight_ == 0; });

  fn_ = nullptr;
  lanes_left_ = 0;
  lane_ms_ = nullptr;
  const std::exception_ptr error = error_;
  error_ = nullptr;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace acn
