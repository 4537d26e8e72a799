// The dynamic stream model of §4.2: a sequence of point insertions and
// deletions over [Delta]^d.  Every deletion refers to a point currently in
// the set (the model's promise); generators uphold it and the streaming
// builder checks the net count.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "skc/common/check.h"
#include "skc/common/types.h"
#include "skc/geometry/point_set.h"

namespace skc {

enum class StreamOp : std::int8_t { kInsert = +1, kDelete = -1 };

struct StreamEvent {
  StreamOp op = StreamOp::kInsert;
  Point point;
};

/// One heap-allocated point per event: the form generators, tests and
/// examples build.  The serving path carries EventBatch instead.
using Stream = std::vector<StreamEvent>;

/// A flat batch of stream events: one op per event and one coordinate array
/// holding event i's point at [i * dim, (i + 1) * dim).  It is the only event
/// container between the wire and the builder — the INSERT/DELETE_BATCH
/// decode (already flat on the wire), the engine's shard split and shard
/// queues, StreamingCoresetBuilder::update_batch — and the tenant and
/// cluster replay buffers.  Every constructor and append checks lengths in
/// all builds, so a batch always holds exactly size() * dim() coordinates.
class EventBatch {
 public:
  EventBatch() = default;
  explicit EventBatch(int dim) : dim_(dim) { SKC_CHECK(dim >= 1); }

  /// The one Stream -> EventBatch conversion: checks that every point has
  /// `dim` coordinates.
  EventBatch(std::span<const StreamEvent> events, int dim) : EventBatch(dim) {
    ops_.reserve(events.size());
    coords_.reserve(events.size() * static_cast<std::size_t>(dim));
    for (const StreamEvent& e : events) push_back(e.op, e.point);
  }

  /// Adopts flat arrays, e.g. one decoded INSERT/DELETE_BATCH frame.
  EventBatch(int dim, std::vector<StreamOp> ops, std::vector<Coord> coords)
      : EventBatch(dim) {
    SKC_CHECK_MSG(coords.size() == ops.size() * static_cast<std::size_t>(dim),
                  "event batch coordinates do not match its ops");
    ops_ = std::move(ops);
    coords_ = std::move(coords);
  }

  int dim() const { return dim_; }
  std::size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }
  std::span<const StreamOp> ops() const { return ops_; }
  std::span<const Coord> coords() const { return coords_; }
  StreamOp op(std::size_t i) const { return ops_[i]; }
  std::span<const Coord> point(std::size_t i) const {
    return std::span<const Coord>(coords_).subspan(i * width(), width());
  }

  void push_back(StreamOp op, std::span<const Coord> point) {
    SKC_CHECK_MSG(point.size() == width(),
                  "point length does not match the batch dimension");
    ops_.push_back(op);
    coords_.insert(coords_.end(), point.begin(), point.end());
  }

  /// Appends events [begin, end) of `other`, which must share dim().
  void append(const EventBatch& other, std::size_t begin, std::size_t end) {
    SKC_CHECK(other.dim_ == dim_ && begin <= end && end <= other.size());
    const auto from = static_cast<std::ptrdiff_t>(begin);
    const auto to = static_cast<std::ptrdiff_t>(end);
    const auto w = static_cast<std::ptrdiff_t>(width());
    ops_.insert(ops_.end(), other.ops_.begin() + from, other.ops_.begin() + to);
    coords_.insert(coords_.end(), other.coords_.begin() + from * w,
                   other.coords_.begin() + to * w);
  }

  void clear() {
    ops_.clear();
    coords_.clear();
  }

  /// Splits the batch into `parts` batches in one hashing pass: event i goes
  /// to part `part_of(point(i))` (< parts), and every part keeps batch order.
  template <typename PartOf>
  std::vector<EventBatch> split(std::size_t parts, PartOf&& part_of) const {
    std::vector<std::size_t> part(size());
    std::vector<std::size_t> count(parts, 0);
    for (std::size_t i = 0; i < size(); ++i) {
      part[i] = part_of(point(i));
      ++count[part[i]];
    }
    std::vector<EventBatch> out(parts, EventBatch(dim_));
    for (std::size_t p = 0; p < parts; ++p) {
      out[p].ops_.reserve(count[p]);
      out[p].coords_.reserve(count[p] * width());
    }
    for (std::size_t i = 0; i < size(); ++i) out[part[i]].push_back(ops_[i], point(i));
    return out;
  }

 private:
  std::size_t width() const { return static_cast<std::size_t>(dim_); }

  int dim_ = 0;
  std::vector<StreamOp> ops_;
  std::vector<Coord> coords_;
};

/// Replays a stream into the surviving point multiset (test/ground-truth
/// helper; O(stream length) with a hash map keyed on coordinates).
PointSet surviving_points(const Stream& stream, int dim);

/// Wraps a static point set as an insertion-only stream.
Stream insertion_stream(const PointSet& points);

}  // namespace skc
