#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <numeric>
#include <thread>
#include <vector>

#include "skc/common/timer.h"
#include "skc/parallel/parallel_for.h"
#include "skc/parallel/thread_pool.h"

namespace skc {
namespace {

TEST(ThreadPool, InlinePoolRunsTasksSynchronously) {
  ThreadPool pool(0);
  int counter = 0;
  pool.submit([&] { ++counter; });
  EXPECT_EQ(counter, 1);  // executed before submit returned
  pool.wait_idle();       // no-op, must not hang
}

TEST(ThreadPool, WorkersExecuteAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      volatile double x = 0;
      for (int j = 0; j < 100000; ++j) x = x + j;
      done.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 8);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(
      0, 1000, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)].fetch_add(1); },
      pool, /*grain=*/16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndTinyRanges) {
  ThreadPool pool(2);
  int count = 0;
  parallel_for(5, 5, [&](std::int64_t) { ++count; }, pool);
  EXPECT_EQ(count, 0);
  parallel_for(0, 3, [&](std::int64_t) { ++count; }, pool, /*grain=*/1024);
  EXPECT_EQ(count, 3);  // below grain: runs inline on the caller
}

TEST(ParallelForBlocked, BlocksAreDisjointAndCover) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::pair<std::int64_t, std::int64_t>> blocks;
  parallel_for_blocked(
      0, 5000,
      [&](std::int64_t lo, std::int64_t hi) {
        std::scoped_lock lock(mu);
        blocks.emplace_back(lo, hi);
      },
      pool, /*grain=*/100);
  std::sort(blocks.begin(), blocks.end());
  std::int64_t expect = 0;
  for (const auto& [lo, hi] : blocks) {
    EXPECT_EQ(lo, expect);
    EXPECT_GT(hi, lo);
    expect = hi;
  }
  EXPECT_EQ(expect, 5000);
}

TEST(ParallelFor, ConcurrentCallersWaitOnlyForTheirOwnBlocks) {
  // Two callers share one pool.  Both blocks of the first call hold on a
  // gate, one of them on a pool worker; the second call's blocks are free to
  // run, so it must return while the first is still held.  A join that
  // waited for every task on the pool would wait for the first call's block
  // until the gate opens.
  ThreadPool pool(2);
  std::latch started(2);
  std::latch gate(1);
  std::thread first([&] {
    parallel_for_blocked(
        0, 2,
        [&](std::int64_t, std::int64_t) {
          started.count_down();
          gate.wait();
        },
        pool, /*grain=*/1);
  });
  started.wait();

  std::promise<void> second_done;
  std::future<void> second_returned = second_done.get_future();
  std::atomic<int> second_ran{0};
  std::thread second([&] {
    parallel_for(
        0, 2, [&](std::int64_t) { second_ran.fetch_add(1); }, pool, /*grain=*/1);
    second_done.set_value();
  });
  const bool returned =
      second_returned.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  gate.count_down();
  first.join();
  second.join();
  EXPECT_TRUE(returned) << "the second call waited for the first call's blocks";
  EXPECT_EQ(second_ran.load(), 2);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 2000000; ++i) x = x + i;
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_GE(t.millis(), 1e3 * 0.0);  // millis and seconds agree in sign
  t.reset();
  EXPECT_LT(t.seconds(), 0.5);
}

TEST(FormatBytes, HumanReadable) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KiB");
  EXPECT_EQ(format_bytes(3 * 1024 * 1024), "3.0 MiB");
}

}  // namespace
}  // namespace skc
