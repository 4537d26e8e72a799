// Allocation probes of the skc_alloc_tests executable: its replacement
// operator new (allocation_probe.cpp) sees every heap request in the
// process.  Only sources linked into that executable may use these.
#pragma once

#include <cstddef>
#include <cstdint>

namespace skc::testutil {

/// Heap allocations made so far, on any thread.
std::int64_t allocation_count();

/// The largest single request since the previous call (0 if none), which
/// restarts the watch.
std::size_t take_largest_allocation();

}  // namespace skc::testutil
