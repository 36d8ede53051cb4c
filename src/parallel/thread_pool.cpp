#include "parallel/thread_pool.hpp"

#include "support/env.hpp"

namespace pooled {

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

void ThreadPool::participate(Batch& batch) {
  for (;;) {
    const std::size_t index = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (index >= batch.count) return;
    try {
      (*batch.fn)(index);
    } catch (...) {
      // Indices already claimed still run; no further one is handed out.
      batch.next.store(batch.count, std::memory_order_relaxed);
      const LockGuard lock(mutex_);
      if (!batch.error) batch.error = std::current_exception();
    }
  }
}

void ThreadPool::unlist(const Batch& batch) {
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
    // A batch whose every index is claimed has nothing left to help with.
    while (first_ != nullptr &&
           first_->next.load(std::memory_order_relaxed) >= first_->count) {
      unlist(*first_);
    }
    if (stop_) return;
    if (first_ == nullptr) {
      cv_.wait(lock);
      continue;
    }
    // Its caller returns only once `workers` is back to zero, so the
    // batch outlives this visit.
    Batch& batch = *first_;
    ++batch.workers;
    lock.unlock();
    participate(batch);
    lock.lock();
    if (--batch.workers == 0) done_cv_.notify_all();
  }
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
  batch.fn = &fn;
  batch.count = count;
  {
    const LockGuard lock(mutex_);
    if (last_ == nullptr) {
      first_ = &batch;
    } else {
      last_->later = &batch;
    }
    last_ = &batch;
  }
  cv_.notify_all();
  inside_task_ = true;
  participate(batch);
  inside_task_ = false;
  std::exception_ptr error;
  {
    LockGuard lock(mutex_);
    // Off the list, no worker can enter; wait for those inside to leave.
    unlist(batch);
    while (batch.workers != 0) done_cv_.wait(lock);
    error = batch.error;
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(static_cast<unsigned>(env_i64("POOLED_THREADS", 0)));
  return pool;
}

}  // namespace pooled
