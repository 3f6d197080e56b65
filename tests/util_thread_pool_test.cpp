#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace drapid {
namespace {

/// Spins until done() holds; false after 30 s, so a scheduling bug fails
/// the test instead of hanging it.
template <typename Pred>
bool spin_until(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPool, AtLeastOneThreadEvenWhenAskedForZero) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> hits{0};
  pool.parallel_for(8, [&hits](std::size_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 8);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 7) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

// Regression: parallel_for used to deadlock when called from inside a pool
// task (the lone worker blocked waiting for chunks only it could run). The
// waiting caller now helps drain the queue, so nesting completes even on a
// one-thread pool.
TEST(ThreadPool, NestedParallelForOnOneThreadPoolCompletes) {
  ThreadPool pool(1);
  std::atomic<int> inner_hits{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { inner_hits.fetch_add(1); });
  });
  EXPECT_EQ(inner_hits.load(), 4 * 8);
}

// A loop ticket is the pool's only submitted task. The lone worker runs the
// outer loop's ticket and calls parallel_for from inside it, so it is both
// the inner loop's caller and the only worker that could join it.
TEST(ThreadPool, ParallelForInsideSubmittedTaskCompletes) {
  ThreadPool pool(1);
  const auto main_thread = std::this_thread::get_id();
  // Each thread holds its outer chunk until the other has entered one, so
  // exactly one of the two chunks runs on the worker.
  std::atomic<bool> main_entered{false};
  std::atomic<bool> worker_entered{false};
  std::atomic<int> met{0};
  std::atomic<int> hits{0};
  pool.parallel_for(2, [&](std::size_t) {
    const bool on_main = std::this_thread::get_id() == main_thread;
    (on_main ? main_entered : worker_entered).store(true);
    const auto& other = on_main ? worker_entered : main_entered;
    if (spin_until([&] { return other.load(); })) met.fetch_add(1);
    if (!on_main) {
      pool.parallel_for(16, [&](std::size_t) { hits.fetch_add(1); });
    }
  });
  EXPECT_EQ(met.load(), 2) << "the worker never ran the outer ticket";
  EXPECT_EQ(hits.load(), 16);
}

TEST(ThreadPool, NestedParallelForPropagatesInnerException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(2,
                                 [&](std::size_t) {
                                   pool.parallel_for(4, [](std::size_t i) {
                                     if (i == 3) {
                                       throw std::runtime_error("inner");
                                     }
                                   });
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  std::vector<long long> values(10000);
  std::iota(values.begin(), values.end(), 1);
  std::atomic<long long> total{0};
  pool.parallel_for(values.size(), [&](std::size_t i) {
    total.fetch_add(values[i]);
  });
  EXPECT_EQ(total.load(), 10000LL * 10001 / 2);
}

}  // namespace
}  // namespace drapid
