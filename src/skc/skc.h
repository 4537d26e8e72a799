// streamkc — umbrella header.
//
// A C++20 library reproducing "Streaming Balanced Clustering"
// (Esfandiari, Mirrokni, Zhong; SPAA 2023 / arXiv:1910.00788): strong
// coresets for capacitated k-clustering in l_r, constructible offline, over
// dynamic (insertion + deletion) streams, and in the coordinator
// distributed model, plus the capacitated solvers and assignment machinery
// needed to actually cluster with them.
//
// Typical flow (see examples/quickstart.cpp):
//
//   skc::CoresetParams params = skc::CoresetParams::practical(k, {2.0}, 0.2, 0.2);
//   auto built = skc::build_offline_coreset(points, params);
//   auto sol = skc::capacitated_kmeans(built.coreset.points, k, capacity, ...);
//   auto full = skc::assign_via_coreset(points, params, L, built.coreset,
//                                       sol.centers, capacity);
#pragma once

#include "skc/common/random.h"
#include "skc/common/timer.h"
#include "skc/common/types.h"
#include "skc/geometry/metric.h"
#include "skc/geometry/point_set.h"
#include "skc/geometry/weighted_set.h"
#include "skc/geometry/io.h"
#include "skc/grid/hierarchical_grid.h"
#include "skc/partition/heavy_cells.h"
#include "skc/coreset/coreset.h"
#include "skc/coreset/params.h"
#include "skc/coreset/offline.h"
#include "skc/coreset/compose.h"
#include "skc/coreset/streaming.h"
#include "skc/coreset/distributed.h"
#include "skc/assign/capacitated_assignment.h"
#include "skc/assign/construct.h"
#include "skc/assign/oracle.h"
#include "skc/assign/halfspace.h"
#include "skc/assign/rounding.h"
#include "skc/assign/transfer.h"
#include "skc/solve/cost.h"
#include "skc/solve/kmeanspp.h"
#include "skc/solve/lloyd.h"
#include "skc/solve/capacitated_kmeans.h"
#include "skc/solve/capacitated_kmedian.h"
#include "skc/solve/capacitated_kcenter.h"
#include "skc/baseline/uniform_coreset.h"
#include "skc/baseline/mapping_coreset.h"
#include "skc/stream/generators.h"
#include "skc/obs/histogram.h"
#include "skc/obs/trace.h"
#include "skc/obs/flight_recorder.h"
#include "skc/obs/prometheus.h"
#include "skc/engine/engine.h"
#include "skc/engine/metrics.h"
#include "skc/net/frame.h"
#include "skc/net/server.h"
#include "skc/net/client.h"
#include "skc/cluster/registry.h"
#include "skc/cluster/metrics.h"
#include "skc/cluster/process.h"
#include "skc/cluster/coordinator.h"
#include "skc/tenant/registry.h"
#include "skc/tenant/server.h"
