// Core scalar type aliases and small shared POD types used across streamkc.
//
// Points live on the integer grid [1, Delta]^d with Delta = 2^L (the paper's
// setting, Section 1.1).  Coordinates are stored as 32-bit signed integers
// (Delta up to 2^30 is supported) and all distance arithmetic is carried out
// in double precision.
#pragma once

#include <cstdint>
#include <cstddef>
#include <limits>

namespace skc {

/// Coordinate of a point on the discretized grid [1, Delta].
using Coord = std::int32_t;

/// Index of a point inside a PointSet.
using PointIndex = std::int64_t;

/// Index of a center inside a center set Z (always < k).
using CenterIndex = std::int32_t;

/// Weight attached to a coreset point.  Construction rounds sampling
/// probabilities to 1/m for integral m, so weights are integral-valued,
/// but the type is double to interoperate with generic weighted code.
using Weight = double;

/// Sentinel for "not assigned to any center".
inline constexpr CenterIndex kUnassigned = -1;

/// Result of a size estimate (tau in Algorithms 1-3).
using SizeEstimate = double;

/// Total order parameter r of the l_r clustering objective: the cost of
/// assigning p to z is dist(p, z)^r.  r = 1 is k-median, r = 2 is k-means.
struct LrOrder {
  double r = 2.0;

  constexpr bool operator==(const LrOrder&) const = default;
};

/// Infinity marker used for infeasible capacitated costs.
inline constexpr double kInfCost = std::numeric_limits<double>::infinity();

/// Most events one sketch may have recorded.  Every count, counter and net
/// a sketch keeps moves by one per event, so loaders refuse any of them
/// past this bound, and a sum of up to 1,023 loaded sketches (a fold, an
/// import, a finalize over shards or worker sketches) stays inside int64.  No stream reaches
/// it: 2^53 events is 285 years at a million events per second.
inline constexpr std::int64_t kMaxEvents = std::int64_t{1} << 53;

}  // namespace skc
