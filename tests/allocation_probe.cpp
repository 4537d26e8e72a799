// The replacement operator new of the skc_alloc_tests executable: it counts
// every heap request in the process and records the largest one.  It lives
// in its own executable so the counting never reaches skc_tests.
#include "allocation_probe.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::int64_t> g_allocations{0};
std::atomic<std::size_t> g_largest{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest.load(std::memory_order_relaxed);
  while (size > largest &&
         !g_largest.compare_exchange_weak(largest, size, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace skc::testutil {

std::int64_t allocation_count() { return g_allocations.load(); }

std::size_t take_largest_allocation() { return g_largest.exchange(0); }

}  // namespace skc::testutil
