// Fixed-size worker pool executing indexed task batches.
//
// The pool runs one *batch* at a time: run_tasks(count, fn) executes
// fn(0) .. fn(count-1) across the workers plus the calling thread and
// returns when all are done. Batches from different threads are
// serialized; nested run_tasks calls from inside a task execute inline
// (degrading gracefully instead of deadlocking).
//
// This shape -- bulk-synchronous indexed batches -- is all the library
// needs (queries, trials, and array chunks are all index spaces), and it
// keeps scheduling deterministic enough to reason about. Each batch owns
// its state via shared_ptr, so a worker that wakes late can only ever
// drain the batch it was woken for, never a successor.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "support/thread_annotations.hpp"

namespace pooled {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  /// A pool of size 1 executes everything on the calling thread.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width (workers + calling thread).
  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Lanes a run_tasks batch from the calling thread would run on:
  /// size(), or 1 inside a task (the batch runs inline) and on a
  /// one-thread pool.
  [[nodiscard]] unsigned batch_width() const { return inside_task_ ? 1 : size(); }

  /// Runs fn(i) for all i in [0, count), blocking until completion.
  /// Task indices are claimed dynamically (atomic counter), so uneven
  /// tasks load-balance automatically.
  void run_tasks(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Execution-lane id of the calling thread: workers are 1..workers(),
  /// every non-worker thread is 0. Within one run_tasks batch the set of
  /// executing threads is (some workers + the one caller), so lane ids
  /// are unique per concurrently-executing thread -- which is what lets
  /// per-lane scratch (kernels/decode_arena.hpp LanePartials) replace
  /// shared atomic accumulators. A worker of pool A driving pool B runs
  /// B's batch inline and keeps A's lane id; consumers must therefore
  /// treat lane ids as opaque keys, not dense indices (LanePartials maps
  /// ids to slots for exactly this reason).
  [[nodiscard]] static unsigned current_lane() { return lane_; }

  /// Shared process-wide pool (width = hardware_concurrency, overridable
  /// via POOLED_THREADS before first use).
  static ThreadPool& global();

 private:
  struct Batch {
    std::function<void(std::size_t)> fn;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> remaining{0};
  };

  void worker_loop(unsigned lane);
  void participate(Batch& batch);

  /// Serializes run_tasks callers; held across a whole batch, so it is
  /// ordered strictly before the state mutex below.
  AnnotatedMutex batch_mutex_ POOLED_ACQUIRED_BEFORE(mutex_);
  AnnotatedMutex mutex_;  // protects current_/stop_ + cvs
  std::condition_variable_any cv_;
  std::condition_variable_any done_cv_;
  std::shared_ptr<Batch> current_ POOLED_GUARDED_BY(mutex_);  // null when idle
  bool stop_ POOLED_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
  static thread_local bool inside_task_;
  static thread_local unsigned lane_;
};

}  // namespace pooled
