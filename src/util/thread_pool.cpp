#include "util/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <utility>

namespace drapid {

/// Join-side state of one parallel_for. Chunks are claimed from `next`;
/// completion is reported through `remaining` — lock-free except for the
/// last chunk, which takes `mutex` once to publish completion to a parked
/// caller. Heap-shared so a stale ticket run after the caller returned finds
/// an exhausted counter instead of a dead stack frame.
struct ThreadPool::Loop {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::size_t grain = 1;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> remaining{0};
  std::atomic<bool> canceled{false};
  std::mutex mutex;
  std::condition_variable done;
  std::exception_ptr first_error;
};

ThreadPool::ThreadPool(std::size_t threads) {
  threads = std::max<std::size_t>(1, threads);
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
  // Tickets still queued belong to loops that have already returned; their
  // counters are exhausted, so dropping them loses no work.
}

void ThreadPool::worker_loop() {
  for (;;) {
    if (run_ticket()) continue;
    std::unique_lock lock(mutex_);
    if (stopping_) return;
    if (!tickets_.empty()) continue;  // enqueued since run_ticket looked
    ++idle_workers_;
    parks_.fetch_add(1, std::memory_order_relaxed);
    work_cv_.wait(lock, [this] { return stopping_ || !tickets_.empty(); });
    --idle_workers_;
  }
}

bool ThreadPool::run_ticket() {
  std::shared_ptr<Loop> loop;
  {
    std::lock_guard lock(mutex_);
    if (tickets_.empty()) return false;
    loop = std::move(tickets_.front());
    tickets_.pop_front();
  }
  run_loop(*loop);
  return true;
}

void ThreadPool::run_loop(Loop& loop) {
  for (;;) {
    const std::size_t begin =
        loop.next.fetch_add(loop.grain, std::memory_order_relaxed);
    if (begin >= loop.n) return;
    const std::size_t end = std::min(begin + loop.grain, loop.n);
    if (!loop.canceled.load(std::memory_order_relaxed)) {
      try {
        for (std::size_t i = begin; i < end; ++i) (*loop.fn)(i);
      } catch (...) {
        std::lock_guard guard(loop.mutex);
        if (!loop.first_error) loop.first_error = std::current_exception();
        loop.canceled.store(true, std::memory_order_relaxed);
      }
    }
    finish_chunk(loop);
  }
}

void ThreadPool::finish_chunk(Loop& loop) {
  if (loop.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last chunk: publish completion under the join mutex so a caller
    // between its predicate check and its sleep cannot miss the wakeup.
    { std::lock_guard guard(loop.mutex); }
    loop.done.notify_all();
  } else {
    fastpath_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;

  const std::size_t chunks = std::min(n, thread_count() * 4);
  const std::size_t grain = (n + chunks - 1) / chunks;
  const std::size_t num_chunks = (n + grain - 1) / grain;

  auto loop = std::make_shared<Loop>();
  loop->fn = &fn;
  loop->n = n;
  loop->grain = grain;
  loop->remaining.store(num_chunks, std::memory_order_relaxed);

  // Batched enqueue: one ticket per worker that could usefully join, not
  // one queue entry per chunk. A single-chunk loop runs inline for free.
  if (num_chunks > 1) {
    const std::size_t tickets = std::min(thread_count(), num_chunks - 1);
    std::lock_guard lock(mutex_);
    tickets_.insert(tickets_.end(), tickets, loop);
    for (std::size_t i = std::min(tickets, idle_workers_); i > 0; --i) {
      work_cv_.notify_one();
    }
  }

  // The caller claims chunks of its own loop directly — this is what makes
  // nesting deadlock-free on any pool size — then helps with queued
  // tickets, and only parks when none is left.
  run_loop(*loop);
  while (loop->remaining.load(std::memory_order_acquire) != 0) {
    if (run_ticket()) continue;
    std::unique_lock lock(loop->mutex);
    if (loop->remaining.load(std::memory_order_acquire) != 0) {
      parks_.fetch_add(1, std::memory_order_relaxed);
      loop->done.wait(lock, [&loop] {
        return loop->remaining.load(std::memory_order_acquire) == 0;
      });
    }
  }
  // Take the error OUT of the loop before rethrowing: a stale ticket may
  // destroy the Loop later on a worker thread, and it must not perform the
  // last release of an exception object this caller is still inspecting —
  // exception_ptr's refcount lives in uninstrumented libstdc++, so
  // ThreadSanitizer cannot see the ordering that release would ride on.
  std::exception_ptr error;
  {
    std::lock_guard guard(loop->mutex);
    error = std::move(loop->first_error);
    loop->first_error = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

SchedulerStats ThreadPool::stats() const {
  SchedulerStats stats;
  stats.parks = parks_.load(std::memory_order_relaxed);
  stats.fastpath_completions = fastpath_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace drapid
