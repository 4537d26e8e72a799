// Blocked parallel range loop on top of ThreadPool.
//
// Follows the OpenMP "static schedule" idiom from the HPC guides: the range
// is split into one contiguous block per participating thread (caller
// included), which keeps each worker on a contiguous slice of the flat
// point arrays for cache locality.
//
// A call waits for its own blocks only, never for the pool to go idle, so
// callers sharing a pool (concurrent queries, a screen beside them) do not
// wait on each other's work.  Blocks are claimed, not assigned: the caller
// runs any block no worker has started, so a busy pool delays a call by at
// most the blocks its workers have already started.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

#include "skc/parallel/thread_pool.h"

namespace skc {

/// Invokes `body(begin, end)` on disjoint blocks covering [begin, end).
/// Blocks smaller than `grain` run inline.  The calling thread runs blocks
/// too, and returns once every block has finished.
template <typename Body>
void parallel_for_blocked(std::int64_t begin, std::int64_t end, Body&& body,
                          ThreadPool& pool = ThreadPool::global(),
                          std::int64_t grain = 1024) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  const std::size_t workers = pool.size() + 1;  // workers + caller
  if (workers == 1 || n <= grain) {
    body(begin, end);
    return;
  }
  const std::int64_t max_blocks = std::min<std::int64_t>(
      static_cast<std::int64_t>(workers), (n + grain - 1) / grain);
  const std::int64_t block = (n + max_blocks - 1) / max_blocks;
  const std::int64_t blocks = (n + block - 1) / block;  // the last may be short

  // Shared with the pool tasks, which may be dequeued after this call has
  // returned; such a task finds no block left and never touches `body`.
  struct Join {
    std::mutex mu;
    std::condition_variable cv;
    std::int64_t next = 0;  ///< next unclaimed block, guarded by mu
    std::int64_t done = 0;  ///< finished blocks, guarded by mu
  };
  const auto join = std::make_shared<Join>();
  const auto run = [join, begin, end, block, blocks, &body] {
    std::unique_lock<std::mutex> lock(join->mu);
    while (join->next < blocks) {
      const std::int64_t lo = begin + join->next++ * block;
      lock.unlock();
      body(lo, std::min(end, lo + block));
      lock.lock();
      if (++join->done == blocks) join->cv.notify_all();
    }
  };
  for (std::int64_t b = 1; b < blocks; ++b) pool.submit(run);
  run();
  std::unique_lock<std::mutex> lock(join->mu);
  join->cv.wait(lock, [&] { return join->done == blocks; });
}

/// Element-wise flavor: invokes `body(i)` for i in [begin, end).
template <typename Body>
void parallel_for(std::int64_t begin, std::int64_t end, Body&& body,
                  ThreadPool& pool = ThreadPool::global(),
                  std::int64_t grain = 1024) {
  parallel_for_blocked(
      begin, end,
      [&body](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) body(i);
      },
      pool, grain);
}

}  // namespace skc
