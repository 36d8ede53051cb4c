#include "parallel/thread_pool.hpp"

#include <utility>

#include "support/assert.hpp"
#include "support/env.hpp"

namespace pooled {

namespace {

/// Batch::next once the batch hands out no further index.
constexpr std::size_t kClosed = static_cast<std::size_t>(-1);

}  // namespace

thread_local bool ThreadPool::inside_task_ = false;
thread_local unsigned ThreadPool::lane_ = 0;

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  // The calling thread participates, so spawn one fewer worker.
  if (threads > 1) {
    workers_.reserve(threads - 1);
    for (unsigned i = 0; i + 1 < threads; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i + 1); });
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    const LockGuard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool ThreadPool::claim_next(Batch& batch, std::size_t& index) {
  std::size_t next = batch.next.load(std::memory_order_relaxed);
  do {
    // Acquire: an owner extends the count only once the new tasks' inputs
    // are ready for them.
    if (next >= batch.count.load(std::memory_order_acquire)) return false;
  } while (!batch.next.compare_exchange_weak(next, next + 1,
                                             std::memory_order_relaxed));
  index = next;
  return true;
}

void ThreadPool::participate(Batch& batch) {
  std::size_t index = 0;
  while (claim_next(batch, index)) {
    try {
      (*batch.fn)(index);
    } catch (...) {
      // Indices already claimed still run; no further one is handed out.
      batch.next.store(kClosed, std::memory_order_relaxed);
      const LockGuard lock(mutex_);
      if (!batch.error) batch.error = std::current_exception();
    }
  }
}

void ThreadPool::list(Batch& batch) {
  batch.later = nullptr;
  batch.listed = true;
  if (last_ == nullptr) {
    first_ = &batch;
  } else {
    last_->later = &batch;
  }
  last_ = &batch;
}

void ThreadPool::unlist(Batch& batch) {
  if (!batch.listed) return;
  batch.listed = false;
  if (first_ == &batch) {
    first_ = batch.later;
    if (last_ == &batch) last_ = nullptr;
    return;
  }
  for (Batch* open = first_; open != nullptr; open = open->later) {
    if (open->later == &batch) {
      open->later = batch.later;
      if (last_ == &batch) last_ = open;
      return;
    }
  }
}

void ThreadPool::worker_loop(unsigned lane) {
  inside_task_ = true;  // nested run_tasks from a worker executes inline
  lane_ = lane;
  LockGuard lock(mutex_);
  for (;;) {
    // A batch with no claimable index has nothing left to help with
    // (extend() lists it again).
    while (first_ != nullptr && first_->next.load(std::memory_order_relaxed) >=
                                    first_->count.load(std::memory_order_relaxed)) {
      unlist(*first_);
    }
    if (stop_) return;
    if (first_ == nullptr) {
      cv_.wait(lock);
      continue;
    }
    // Its owner finishes it only once `workers` is back to zero, so the
    // batch outlives this visit.
    Batch& batch = *first_;
    ++batch.workers;
    lock.unlock();
    participate(batch);
    lock.lock();
    if (--batch.workers == 0) done_cv_.notify_all();
  }
}

void ThreadPool::start(Batch& batch, std::size_t count,
                       const std::function<void(std::size_t)>& fn) {
  POOLED_REQUIRE(batch_width() > 1, "a batch with no worker to join it runs inline");
  batch.fn = &fn;
  batch.count.store(count, std::memory_order_relaxed);
  batch.next.store(0, std::memory_order_relaxed);
  batch.error = nullptr;
  {
    const LockGuard lock(mutex_);
    list(batch);
  }
  cv_.notify_all();
}

void ThreadPool::extend(Batch& batch, std::size_t count) {
  {
    const LockGuard lock(mutex_);
    if (count <= batch.count.load(std::memory_order_relaxed)) return;
    batch.count.store(count, std::memory_order_release);
    // A listed batch keeps its place; one that ran dry (and was not
    // finished) queues again.
    if (batch.next.load(std::memory_order_relaxed) >= count) return;
    if (!batch.listed) list(batch);
  }
  // A worker that went to sleep while the batch ran dry may take the new
  // index (a no-op when none sleeps).
  cv_.notify_one();
}

bool ThreadPool::claim(Batch& batch, std::size_t index) {
  if (index >= batch.count.load(std::memory_order_relaxed)) return false;
  return batch.next.compare_exchange_strong(index, index + 1,
                                            std::memory_order_relaxed);
}

void ThreadPool::finish(Batch& batch) {
  batch.next.store(kClosed, std::memory_order_relaxed);
  std::exception_ptr error;
  {
    LockGuard lock(mutex_);
    // Off the list, no worker can enter; wait for those inside to leave.
    unlist(batch);
    while (batch.workers != 0) done_cv_.wait(lock);
    error = std::exchange(batch.error, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::run_tasks(std::size_t count,
                           const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (inside_task_ || workers_.empty() || count == 1) {
    // Inline execution: nested call, single-threaded pool, or trivial batch.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  Batch batch;
  start(batch, count, fn);
  inside_task_ = true;
  participate(batch);
  inside_task_ = false;
  finish(batch);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(static_cast<unsigned>(env_i64("POOLED_THREADS", 0)));
  return pool;
}

}  // namespace pooled
