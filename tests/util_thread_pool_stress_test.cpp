// Stress suite for the parallel_for pool, written to run under
// ThreadSanitizer (tools/check.sh adds it to the TSan pass) and under
// AddressSanitizer + UBSan (the CI sanitize job): nested parallel_for
// storms, exceptions thrown from chunks on any thread, loops started while
// another loop is joining, and several outside callers sharing one pool —
// the interleavings where a ticket-queue or join bug would surface as a
// race, a lost wakeup or a stale ticket touching a finished loop.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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

TEST(ThreadPoolStress, NestedParallelForFromEveryWorker) {
  ThreadPool pool(4);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for(8, [&](std::size_t) {
      pool.parallel_for(32, [&](std::size_t) {
        total.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  EXPECT_EQ(total.load(), 20u * 8u * 32u);
}

TEST(ThreadPoolStress, TripleNestingCompletesOnOneThread) {
  ThreadPool pool(1);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) {
      pool.parallel_for(4, [&](std::size_t) { total.fetch_add(1); });
    });
  });
  EXPECT_EQ(total.load(), 64u);
}

TEST(ThreadPoolStress, ExceptionsFromStolenTasksPropagateAndPoolSurvives) {
  ThreadPool pool(4);
  for (int round = 0; round < 10; ++round) {
    // Several chunks throw, from whichever thread claimed them; the join must
    // rethrow exactly one error and leave the loop state fully retired.
    EXPECT_THROW(pool.parallel_for(64,
                                   [&](std::size_t i) {
                                     if (i % 17 == 3) {
                                       throw std::runtime_error("boom");
                                     }
                                   }),
                 std::runtime_error);
    // The pool must stay fully usable after an aborted loop.
    std::atomic<std::size_t> count{0};
    pool.parallel_for(64, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 64u);
  }
}

TEST(ThreadPoolStress, SubmitFromInsideTasksDuringJoin) {
  // A loop body submits a further loop while the main thread is joining the
  // loop that spawned it. The lone worker, inside an outer chunk, starts an
  // inner loop whose two chunks must run at once: it holds one, and the
  // other's only taker is the main thread, which by then has run out of
  // outer chunks — so the join's help path must run the inner loop's
  // ticket rather than park.
  ThreadPool pool(1);
  const auto main_thread = std::this_thread::get_id();
  std::atomic<bool> inner_started{false};
  std::atomic<bool> main_ran_inner{false};
  std::atomic<int> arrived{0};
  std::atomic<int> met{0};
  pool.parallel_for(2, [&](std::size_t) {
    if (std::this_thread::get_id() == main_thread) {
      // Leave the other outer chunk to the worker, and join only once the
      // inner loop's ticket is queued.
      spin_until([&] { return inner_started.load(); });
      return;
    }
    pool.parallel_for(2, [&](std::size_t) {
      inner_started.store(true);
      if (std::this_thread::get_id() == main_thread) main_ran_inner.store(true);
      arrived.fetch_add(1);
      if (spin_until([&] { return arrived.load() == 2; })) met.fetch_add(1);
    });
  });
  EXPECT_TRUE(main_ran_inner.load());
  EXPECT_EQ(met.load(), 2);
}

TEST(ThreadPoolStress, ExternalSubmittersRaceWithParallelFor) {
  // Four outside threads and the main thread run loops on one 2-thread pool
  // at once: tickets of five loops interleave in the one queue, and a
  // joining caller may run any of them.
  ThreadPool pool(2);
  constexpr std::size_t kN = 64;
  std::atomic<int> loops_ok{0};
  const auto caller = [&] {
    for (int round = 0; round < 8; ++round) {
      std::vector<std::atomic<int>> hits(kN);
      pool.parallel_for(kN, [&hits](std::size_t i) { hits[i].fetch_add(1); });
      bool once = true;
      for (const auto& h : hits) once = once && h.load() == 1;
      if (once) loops_ok.fetch_add(1);
    }
  };
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) callers.emplace_back(caller);
  caller();
  for (auto& th : callers) th.join();
  EXPECT_EQ(loops_ok.load(), 5 * 8);
}

TEST(ThreadPoolStress, StatsAreMonotonicAndFastPathFires) {
  ThreadPool pool(4);
  SchedulerStats prev = pool.stats();
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for(256, [](std::size_t) {});
    const SchedulerStats cur = pool.stats();
    EXPECT_GE(cur.parks, prev.parks);
    EXPECT_GE(cur.fastpath_completions, prev.fastpath_completions);
    prev = cur;
  }
  // 256 iterations split into thread_count()*4 chunks: every chunk but the
  // last of each loop completes without the join mutex.
  EXPECT_GT(prev.fastpath_completions, 0u);
}

}  // namespace
}  // namespace drapid
