// Test oracle: the node-map point store that CellPointStore's flat arrays
// replaced.  One unordered_map of cells, each owning an unordered_map from
// packed coordinates to a count.  Kept verbatim in behaviour (eviction,
// death, merge, STRM2 save/load) so the differential tests can drive both
// stores with the same operations and compare what they report.  It keeps
// only a pointwise update: it is the pointwise reference the flat store's
// update_batch is compared with (BatchSketch and the differential test).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "skc/common/check.h"
#include "skc/common/serial.h"
#include "skc/geometry/point_set.h"
#include "skc/grid/hierarchical_grid.h"
#include "skc/sketch/point_store.h"

namespace skc::oracle {

class NodeMapPointStore {
 public:
  NodeMapPointStore(const HierarchicalGrid& grid, int level,
                    const PointStoreConfig& config)
      : grid_(&grid), level_(level), config_(config) {}

  bool dead() const { return dead_; }
  std::int64_t events() const { return events_; }

  void update(std::span<const Coord> p, std::int64_t delta) {
    ++events_;
    if (dead_) return;
    Entry& entry = cells_[grid_->cell_of(p, level_)];
    entry.net += delta;
    entry.net_peak = std::max(entry.net_peak, entry.net);
    if (!entry.tombstoned) {
      std::string packed = pack(p);
      auto it = entry.points.find(packed);
      if (it == entry.points.end()) {
        if (delta > 0) {
          entry.points.emplace(std::move(packed), delta);
          ++live_points_;
        }
      } else {
        it->second += delta;
        if (it->second == 0) {
          entry.points.erase(it);
          --live_points_;
        }
      }
      maybe_evict(entry);
    }
    check_cap();
  }

  std::optional<CellPointStore::CellPoints> cell(const CellKey& key) const {
    const auto it = cells_.find(key);
    if (it == cells_.end()) return std::nullopt;
    return points_of(it->second);
  }

  std::vector<std::pair<CellKey, CellPointStore::CellPoints>> all_cells() const {
    std::vector<std::pair<CellKey, CellPointStore::CellPoints>> out;
    for (const auto& [key, entry] : cells_) {
      if (entry.net == 0 && !entry.tombstoned) continue;
      out.emplace_back(key, points_of(entry));
    }
    return out;
  }

  void merge(const NodeMapPointStore& other) {
    events_ += other.events_;
    if (other.dead_) kill();
    if (dead_) return;
    for (const auto& [key, entry] : other.cells_) {
      Entry& mine = cells_[key];
      mine.net += entry.net;
      mine.net_peak += entry.net_peak;
      if (entry.tombstoned && !mine.tombstoned) {
        live_points_ -= static_cast<std::int64_t>(mine.points.size());
        mine.points.clear();
        mine.tombstoned = true;
      }
      if (!mine.tombstoned) {
        for (const auto& [packed, count] : entry.points) {
          auto it = mine.points.find(packed);
          if (it == mine.points.end()) {
            mine.points.emplace(packed, count);
            ++live_points_;
          } else {
            it->second += count;
            if (it->second == 0) {
              mine.points.erase(it);
              --live_points_;
            }
          }
        }
        maybe_evict(mine);
      }
    }
    check_cap();
  }

  void release() { kill(); }

  void save(serial::Writer& out) const {
    out.put<std::uint8_t>(dead_ ? 1 : 0);
    out.put<std::int64_t>(events_);
    out.put<std::int64_t>(live_points_);
    out.put<std::uint64_t>(cells_.size());
    for (const auto& [key, entry] : cells_) {
      out.put_vector(key.index);
      out.put<std::int64_t>(entry.net);
      out.put<std::int64_t>(entry.net_peak);
      out.put<std::uint8_t>(entry.tombstoned ? 1 : 0);
      out.put<std::uint64_t>(entry.points.size());
      for (const auto& [packed, count] : entry.points) {
        out.put_string(packed);
        out.put<std::int64_t>(count);
      }
    }
  }

  bool load(serial::Reader& in) {
    std::uint8_t dead = 0;
    if (!in.get(dead)) return false;
    dead_ = dead != 0;
    if (!in.get(events_) || !in.get(live_points_)) return false;
    std::uint64_t ncells = 0;
    if (!in.get(ncells)) return false;
    cells_.clear();
    for (std::uint64_t c = 0; c < ncells; ++c) {
      CellKey key;
      key.level = level_;
      if (!in.get_vector(key.index)) return false;
      Entry entry;
      std::uint8_t tomb = 0;
      std::uint64_t npoints = 0;
      if (!in.get(entry.net) || !in.get(entry.net_peak) ||
          !in.get(tomb) || !in.get(npoints)) {
        return false;
      }
      entry.tombstoned = tomb != 0;
      for (std::uint64_t p = 0; p < npoints; ++p) {
        std::string packed;
        std::int64_t count = 0;
        if (!in.get_string(packed) || !in.get(count)) return false;
        entry.points.emplace(std::move(packed), count);
      }
      cells_.emplace(std::move(key), std::move(entry));
    }
    return true;
  }

 private:
  struct Entry {
    std::int64_t net = 0;
    std::int64_t net_peak = 0;
    bool tombstoned = false;
    std::unordered_map<std::string, std::int64_t> points;
  };

  static std::string pack(std::span<const Coord> p) {
    std::string out(p.size() * sizeof(Coord), '\0');
    std::memcpy(out.data(), p.data(), out.size());
    return out;
  }

  CellPointStore::CellPoints points_of(const Entry& entry) const {
    CellPointStore::CellPoints out;
    out.net_count = entry.net;
    out.complete = !entry.tombstoned;
    out.points = PointSet(grid_->dim());
    if (out.complete) {
      std::vector<Coord> coords(static_cast<std::size_t>(grid_->dim()));
      for (const auto& [packed, count] : entry.points) {
        SKC_CHECK(packed.size() == coords.size() * sizeof(Coord));
        std::memcpy(coords.data(), packed.data(), packed.size());
        for (std::int64_t c = 0; c < count; ++c) out.points.push_back(coords);
      }
    }
    return out;
  }

  void maybe_evict(Entry& entry) {
    if (config_.exact || entry.tombstoned) return;
    if (entry.net_peak > config_.watermark) {
      live_points_ -= static_cast<std::int64_t>(entry.points.size());
      entry.points.clear();
      entry.tombstoned = true;
    }
  }

  void check_cap() {
    if (!config_.exact && live_points_ > config_.max_live_points) kill();
  }

  void kill() {
    dead_ = true;
    cells_.clear();
    live_points_ = 0;
  }

  const HierarchicalGrid* grid_;
  int level_;
  PointStoreConfig config_;
  std::unordered_map<CellKey, Entry, CellKeyHash> cells_;
  std::int64_t live_points_ = 0;
  bool dead_ = false;
  std::int64_t events_ = 0;
};

}  // namespace skc::oracle
