// Shared helpers for the streamkc test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "skc/common/random.h"
#include "skc/coreset/coreset.h"
#include "skc/geometry/point_set.h"
#include "skc/geometry/weighted_set.h"
#include "skc/parallel/thread_pool.h"
#include "skc/stream/generators.h"

namespace skc::testutil {

/// This process's own directory under ::testing::TempDir(), created on first
/// use and removed at exit.  Tests that write files under fixed names (spills,
/// checkpoints) put them here, so two suites running at once never overwrite
/// each other's files.
inline const std::string& temp_dir() {
  struct Dir {
    std::string path = ::testing::TempDir() + "skc-" + std::to_string(::getpid());
    Dir() { std::filesystem::create_directories(path); }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// `name` inside temp_dir().
inline std::string temp_path(std::string_view name) {
  return temp_dir() + "/" + std::string(name);
}

/// Random points in [1, delta]^d.
inline PointSet random_points(int dim, Coord delta, PointIndex n, Rng& rng) {
  PointSet out(dim);
  out.reserve(n);
  std::vector<Coord> buf(static_cast<std::size_t>(dim));
  for (PointIndex i = 0; i < n; ++i) {
    for (auto& v : buf) v = static_cast<Coord>(rng.uniform_int(1, delta));
    out.push_back(buf);
  }
  return out;
}

/// The (coords, weight) pairs of a weighted set in the set's own order, for
/// the tests that pin a coreset as a sequence, not only as a multiset.
inline std::vector<std::pair<std::vector<Coord>, double>> sequence(
    const WeightedPointSet& s) {
  std::vector<std::pair<std::vector<Coord>, double>> out;
  out.reserve(static_cast<std::size_t>(s.size()));
  for (PointIndex i = 0; i < s.size(); ++i) {
    const auto p = s.point(i);
    out.emplace_back(std::vector<Coord>(p.begin(), p.end()), s.weight(i));
  }
  return out;
}

/// Canonical multiset representation of a weighted set: sorted
/// (coords, weight) pairs — order-insensitive equality for coresets.
inline std::vector<std::pair<std::vector<Coord>, double>> canonical_multiset(
    const WeightedPointSet& s) {
  auto out = sequence(s);
  std::sort(out.begin(), out.end());
  return out;
}

/// Canonical multiset of an unweighted set.
inline std::vector<std::vector<Coord>> canonical_multiset(const PointSet& s) {
  std::vector<std::vector<Coord>> out;
  out.reserve(static_cast<std::size_t>(s.size()));
  for (PointIndex i = 0; i < s.size(); ++i) {
    const auto p = s[i];
    out.emplace_back(p.begin(), p.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// A one-thread pool whose worker a gate task holds until open(): engine
/// drains scheduled on it cannot run before then, so submits queue up
/// deterministically.  Open it before an engine that uses it is destroyed
/// (the engine's shutdown waits for its drains).
class GatedPool {
 public:
  GatedPool() {
    pool_.submit([this] {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return open_; });
    });
  }
  ThreadPool* pool() { return &pool_; }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  // Declared before the pool, so the pool joins its worker first.
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  ThreadPool pool_{1};
};

}  // namespace skc::testutil
