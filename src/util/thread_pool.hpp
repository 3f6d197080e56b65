// Fixed-size parallel_for pool used by the multithreaded RAPID baseline, the
// dataflow engine's local backend, the DM and streaming sweeps,
// cross-validation folds and forest training.
//
// The pool mirrors the execution model the paper benchmarks against: a fixed
// number of threads running independent tasks. parallel_for — the
// data-parallel "same operation over every cluster" pattern — is its only
// way to run work.
//
// Scheduling:
//
//   * parallel_for is batched: the caller publishes one heap-shared chunk
//     *counter*, not one queue entry per chunk, and enqueues at most
//     min(thread_count(), chunks - 1) loop "tickets" under one lock. A worker
//     that pops a ticket joins the loop and claims chunks with a fetch_add;
//     the caller claims chunks directly, so a loop whose chunks are all
//     claimed before any worker wakes costs no further queue traffic.
//   * one mutex and condition variable guard the ticket queue. Idle workers
//     park on it and are notified only when someone is parked.
//   * chunk completion is lock-free except for the final chunk, which takes
//     the loop's join mutex once to publish completion to a parked caller.
//
// parallel_for is reentrant: a loop body running on a pool worker may itself
// call parallel_for on the same pool. The calling thread always claims chunks
// of its own loop first and then *helps* — running queued tickets of any loop
// instead of blocking — so nested data parallelism completes even on a
// 1-thread pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace drapid {

/// Monotonic scheduler event tallies. Snapshots are cheap (two relaxed
/// loads); the engine diffs them around each stage to attribute parks and
/// lock-free completions to the stage that caused them.
struct SchedulerStats {
  /// Times a thread slept (idle worker out of tickets, or a join waiting for
  /// its final chunk). Zero parks = the pool never blocked.
  std::uint64_t parks = 0;
  /// parallel_for chunk completions that took the lock-free fast path
  /// (every chunk but the last one of each loop).
  std::uint64_t fastpath_completions = 0;
};

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return threads_.size(); }

  /// Runs fn(i) for i in [0, n) across the pool and blocks until all done.
  /// Work is claimed in contiguous chunks from a shared counter to bound
  /// scheduling overhead; any exception from fn is rethrown (first one
  /// wins; remaining chunks of the loop are skipped once an error is
  /// recorded). Safe to call from inside a loop body: the waiting thread
  /// claims its own chunks and then runs queued tickets itself.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Snapshot of the scheduler event counters (monotonic).
  SchedulerStats stats() const;

 private:
  struct Loop;

  void worker_loop();
  /// Claims chunks of `loop` until its counter is exhausted.
  void run_loop(Loop& loop);
  void finish_chunk(Loop& loop);
  /// Pops one ticket and runs its loop; false when the queue is empty.
  bool run_ticket();

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Loop>> tickets_;  // guarded by mutex_
  std::size_t idle_workers_ = 0;               // guarded by mutex_
  bool stopping_ = false;                      // guarded by mutex_

  std::atomic<std::uint64_t> parks_{0};
  std::atomic<std::uint64_t> fastpath_{0};

  // Last: the workers use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace drapid
