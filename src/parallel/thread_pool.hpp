// Fixed-size worker pool executing indexed task batches.
//
// run_tasks(count, fn) executes fn(0) .. fn(count-1) across the workers
// plus the calling thread and returns when all are done. Batches from
// different threads run side by side: the pool keeps a FIFO list of open
// batches, each caller claims indices only from its own batch, and an
// idle worker joins the oldest batch that still has unclaimed indices.
// Every caller always makes progress on its own batch, so none starves
// and a task may wait on a task of another caller's batch. A batch
// leaves the list once every index is claimed, and run_tasks returns
// once no worker is still inside it. A task that throws stops its batch
// from handing out further indices, and run_tasks rethrows the first
// exception on the caller after every worker has left. Nested run_tasks
// calls from inside a task execute inline (degrading gracefully instead
// of deadlocking).
//
// run_tasks is start + the caller's own claims + finish on a Batch. An
// owner that has other work can keep a batch open instead: start() lists
// it and returns, workers claim its indices in order as they come by,
// extend() makes more indices claimable (a batch that ran dry rejoins the
// list), claim() lets the owner take the next index itself, and finish()
// hands out no further index and waits until no worker is inside. The
// adaptive MN accumulator (core/incremental.hpp) folds rounds ahead that
// way while its own thread takes them in order; a caller may hold such a
// batch and call run_tasks at the same time.
//
// This shape -- bulk-synchronous indexed batches -- is all the library
// needs (queries, trials, rounds and array chunks are all index spaces),
// and it keeps scheduling deterministic enough to reason about. A batch
// lives on its owner's stack (or in the owner's object) and holds a
// pointer to the owner's fn, so opening one allocates nothing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "support/thread_annotations.hpp"

namespace pooled {

class ThreadPool {
 public:
  /// One batch of indexed tasks, owned by the thread that opened it.
  /// `later`, `listed`, `workers` and `error` are read and written only
  /// under the pool's mutex_.
  class Batch {
   public:
    Batch() = default;
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

   private:
    friend class ThreadPool;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> count{0};  ///< indices [0, count) are claimable
    std::atomic<std::size_t> next{0};   ///< next index to claim; kClosed once closed
    Batch* later = nullptr;             ///< next open batch, FIFO
    bool listed = false;                ///< on the open list
    unsigned workers = 0;               ///< workers inside the batch
    std::exception_ptr error;           ///< the first task exception
  };

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
  /// tasks load-balance automatically. Rethrows the first exception a
  /// task threw, once no other lane is still running one of its tasks.
  void run_tasks(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Opens `batch` with tasks [0, count) of `fn` and returns at once.
  /// Workers claim its indices in order as for run_tasks; the owner runs
  /// none unless it claims them. Needs batch_width() > 1, and the owner
  /// must finish() the batch before it or `fn` goes away.
  void start(Batch& batch, std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Makes indices [0, count) of an open batch claimable (never fewer
  /// than before).
  void extend(Batch& batch, std::size_t count);

  /// Claims `index` for the owner when it is the batch's next unclaimed
  /// index; the owner then does that task's work itself.
  [[nodiscard]] bool claim(Batch& batch, std::size_t index);

  /// Hands out no further index, waits until no worker is inside the
  /// batch, and rethrows the first exception one of its tasks threw.
  void finish(Batch& batch);

  /// Execution-lane id of the calling thread: workers are 1..workers(),
  /// every non-worker thread is 0. Within one run_tasks batch the set of
  /// executing threads is (some workers + the one caller), so lane ids
  /// are unique per concurrently-executing thread of a batch, and a
  /// batch of `count` tasks runs on at most min(count, size()) of them --
  /// which is what lets per-lane scratch (kernels/decode_arena.hpp
  /// LanePartials) replace shared atomic accumulators. Callers of
  /// concurrent batches all share lane 0, so lane ids are per batch, not
  /// per pool. A worker of pool A driving pool B runs B's batch inline
  /// and keeps A's lane id; consumers must therefore treat lane ids as
  /// opaque keys, not dense indices (LanePartials maps ids to slots for
  /// exactly this reason).
  [[nodiscard]] static unsigned current_lane() { return lane_; }

  /// Shared process-wide pool (width = hardware_concurrency, overridable
  /// via POOLED_THREADS before first use).
  static ThreadPool& global();

 private:
  void worker_loop(unsigned lane);
  /// Claims the batch's next index while one is claimable.
  static bool claim_next(Batch& batch, std::size_t& index);
  /// Claims and runs the batch's tasks until none is claimable.
  void participate(Batch& batch);
  /// Appends the batch to the open list.
  void list(Batch& batch) POOLED_REQUIRES(mutex_);
  /// Takes the batch off the open list, if it is still on it.
  void unlist(Batch& batch) POOLED_REQUIRES(mutex_);

  AnnotatedMutex mutex_;  // protects the open list, stop_ + cvs
  std::condition_variable_any cv_;       // workers: a batch opened, or stop
  std::condition_variable_any done_cv_;  // owners: a worker left a batch
  Batch* first_ POOLED_GUARDED_BY(mutex_) = nullptr;  // oldest open batch
  Batch* last_ POOLED_GUARDED_BY(mutex_) = nullptr;   // newest open batch
  bool stop_ POOLED_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
  static thread_local bool inside_task_;
  static thread_local unsigned lane_;
};

}  // namespace pooled
