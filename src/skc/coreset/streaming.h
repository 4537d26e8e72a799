// One-pass dynamic-stream coreset construction — Algorithm 4 / Theorem 4.5.
//
// For every guess o of OPT (geometric enumeration run in parallel, as the
// theorem prescribes) and every grid level, the builder maintains two linear
// structures fed with lambda-wise-independently sampled substreams:
//
//   * a CountMin over cells on the h_i substream (rate psi_i =
//     min(1, c / T_i(o))) — serves both the heavy-cell marking queries of
//     Algorithm 1/3 and the crucial-part mass estimates (the paper's
//     separate finer h'_i substream exists to estimate part sizes at
//     resolution gamma T_i; the practical path accepts resolution ~0.1 T_i
//     instead, which only blurs the inclusion threshold for borderline
//     small parts — see DESIGN.md §3 and ablation A1);
//   * a CellPointStore on the hat-h_i substream (rate phi_i, Algorithm 2's
//     coreset-sampling rate) — per-cell point maps with provably-heavy
//     eviction carrying the actual coreset samples.
//
// Physically, every guess of a level shares one CellCountMin (one fold and
// set of row hashes, one counter column per distinct keep bound) and one
// CellPointStore (each point stored once, tagged with its rate class; a
// guess reads the view of the class of its keep bound; DESIGN.md §12).
// Events enter as flat EventBatch slices through one path, update_batch
// (consume() cuts a batch into slices), which hashes and indexes each slice
// once per level for every structure.
//
// finalize walks each guess top-down with walk_heavy_cells, the Algorithm 1
// walk the distributed path shares: heavy candidates are the 2^d children of
// heavy cells (heaviness needs a heavy ancestry, so nothing else can
// qualify), crucial cells are the non-heavy children, and the guess FAILs
// once the running heavy total passes the bound, or at a level whose
// sample store is saturated.  Each crucial cell of a passing guess gets its
// samples attached, and those of sufficiently large parts become the coreset
// (assemble_coreset).  The smallest guess with no FAIL wins — the
// selection rule of Theorem 3.19's proof — with a grid-based OPT lower bound
// pruning hopeless guesses.  It reads any number of identically configured
// builders in place, as the sum merge_from would build (the engine's live
// shards, the cluster's worker sketches); finalize() is its one-part case.
//
// Pass `exact_storing` to replace every structure by its exact-map reference
// twin: the result is then bit-identical to the offline construction on the
// surviving point set (the equality the tests pin), at memory proportional
// to the data.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "skc/coreset/assemble.h"
#include "skc/coreset/coreset.h"
#include "skc/coreset/params.h"
#include "skc/coreset/sampling.h"
#include "skc/geometry/point_set.h"
#include "skc/grid/hierarchical_grid.h"
#include "skc/sketch/countmin.h"
#include "skc/sketch/distinct.h"
#include "skc/sketch/point_store.h"
#include "skc/stream/events.h"

namespace skc {

struct StreamingOptions {
  int log_delta = 14;
  /// Upper bound on the surviving point count (derives o_max).
  PointIndex max_points = PointIndex{1} << 20;
  /// Optional o-range hint [o_min, o_max]; 0 = full theoretical range.
  double o_min = 0.0;
  double o_max = 0.0;

  /// Counting-substream resolution: psi_i ~ counting_samples / T_i(o), so a
  /// threshold-size cell carries ~counting_samples sampled points.
  double counting_samples = 64.0;

  /// CountMin geometry per (keep bound, level): each distinct keep bound of
  /// the live guesses owns a depth x width column of its level's
  /// CellCountMin.
  int countmin_width = 512;
  int countmin_depth = 3;

  /// Live-point cap of one guess's samples at one level: a rate class whose
  /// view of its level's point store holds more live points dies.
  std::int64_t max_live_points = 1 << 14;

  /// Exact reference mode (plain maps, no eviction): bit-identical to the
  /// offline construction; memory proportional to the data.
  bool exact_storing = false;

  /// Budget for the per-level distinct-cell estimators feeding the OPT
  /// lower bound used to prune guesses at finalize.
  std::size_t distinct_budget = 256;

  /// Mid-stream pruning: every `prune_interval` events, guesses whose o is
  /// far below the running OPT lower bound free their structures (see
  /// kPruneSlack in streaming.cpp); exact mode never prunes.  0 disables.
  std::int64_t prune_interval = 4096;
};

struct StreamingResult {
  bool ok = false;
  Coreset coreset;
  BuildDiagnostics diagnostics;
  double opt_lower_bound = 0.0;
};

class StreamingCoresetBuilder {
 public:
  /// `dim` must be at most HierarchicalGrid::kMaxWalkDim (checked): the
  /// finalize walk enumerates the 2^d children of every heavy cell.
  StreamingCoresetBuilder(int dim, const CoresetParams& params,
                          const StreamingOptions& options);

  // The structures point at the heap-held grid, so a move keeps them valid
  // (the engine and perfbench keep builders in vectors); a copy would leave
  // them reading the source's grid.
  StreamingCoresetBuilder(const StreamingCoresetBuilder&) = delete;
  StreamingCoresetBuilder& operator=(const StreamingCoresetBuilder&) = delete;
  StreamingCoresetBuilder(StreamingCoresetBuilder&&) = default;
  StreamingCoresetBuilder& operator=(StreamingCoresetBuilder&&) = default;

  /// consume()'s slice, and the most events the engine applies per locked
  /// builder call: amortizes the per-batch hash sweeps without letting the
  /// scratch rows outgrow L2.
  static constexpr std::size_t kMaxBatch = 256;

  /// The one ingest path: drains events [begin, begin + count) of `batch`
  /// level-by-level, reading the points in place.  Per batch, the shared
  /// per-level substream hashes and cell indices are evaluated once over all
  /// events (SoA Horner batches in src/skc/hash/), then every structure
  /// consumes the precomputed rows.  Each structure sees its events in
  /// stream order, so the state does not depend on how a stream is cut into
  /// batches, with one scheduling exception: mid-stream pruning fires at the
  /// end of a batch in which an interval multiple was crossed.  The
  /// IngestDigest suite pins the bytes against frozen digests.
  void update_batch(const EventBatch& batch, std::size_t begin, std::size_t count);

  /// The Stream entry: flattens `events` into one EventBatch (checking every
  /// point's length) and applies it as one batch.
  void update_batch(std::span<const StreamEvent> events);

  /// Feeds a whole batch in slices of kMaxBatch events.
  void consume(const EventBatch& batch);

  /// Linear-sketch merge: folds another builder constructed with IDENTICAL
  /// (dim, params, options) into this one (checked).  Because every
  /// structure is a linear sketch of its substream, the merged builder
  /// summarizes the concatenation of both event streams — the property that
  /// makes the construction shardable (split a stream across builders by any
  /// rule, merge, finalize once).  In exact mode the result is bit-identical
  /// to a single builder fed the union; in sketch mode the eviction /
  /// shrink heuristics are merged conservatively (see CellPointStore::merge).
  /// A guess pruned on either side is pruned in the result.
  void merge_from(const StreamingCoresetBuilder& other);

  /// Exact net point count (insertions minus deletions).
  std::int64_t net_count() const { return net_count_; }
  std::int64_t events() const { return events_; }

  /// Decodes and assembles; non-destructive.  The one-part case of the
  /// static finalize.
  StreamingResult finalize() const;

  /// Finalizes the sum of `parts` — builders constructed with IDENTICAL
  /// (dim, params, options) (checked) — reading them in place: the result
  /// equals finalize() of an empty builder that merge_from()ed every part in
  /// order (the ShardFinalize suite pins it), without copying or merging a
  /// structure.  The pruned prefix is the longest of the parts'; CountMin
  /// estimates and point-store cells are the summed reads of
  /// CellCountMin::summed_query and CellPointStore::summed_cell/summed_dead;
  /// the distinct-cell estimators are merged into local copies.  The parts
  /// must not change during the call.
  static StreamingResult finalize(std::span<const StreamingCoresetBuilder* const> parts);

  /// Total structure footprint (the space Theorem 4.5's experiment reports).
  std::size_t memory_bytes() const;
  /// Footprint of a single guess (the per-guess space; the guess count is a
  /// log(n Delta^r) multiplier an OPT estimate removes).
  std::size_t memory_bytes_per_guess() const;

  const HierarchicalGrid& grid() const { return *grid_; }
  int num_guesses() const { return static_cast<int>(guesses_.size()); }
  /// The level's CountMin, shared by every guess.
  const CellCountMin& level_counts(int level) const {
    return counts_[static_cast<std::size_t>(level)];
  }
  /// Guess `guess`'s counting-substream rate psi at `level`.
  const SamplingRate& counting_rate(int guess, int level) const {
    return guesses_[static_cast<std::size_t>(guess)].psi[static_cast<std::size_t>(level)];
  }
  /// The level's point store, shared by every guess.
  const CellPointStore& level_samples(int level) const {
    return stores_[static_cast<std::size_t>(level)];
  }
  /// Guess `guess`'s coreset-substream rate phi at `level`.
  const SamplingRate& sampling_rate(int guess, int level) const {
    return guesses_[static_cast<std::size_t>(guess)].phi[static_cast<std::size_t>(level)];
  }

  /// Checkpointing: save() appends the full builder state (a STRM6 blob);
  /// load() reads one into a builder constructed with IDENTICAL (dim,
  /// params, options) — a configuration fingerprint is verified and load()
  /// returns false on mismatch, truncation or a record no history writes
  /// (among them events() outside [0, kMaxEvents] and a net count past
  /// ±events()).  Resume feeding events afterwards.
  void save(serial::Writer& out) const;
  bool load(serial::Reader& in);
  /// Stream adapters for callers that stage blobs in streams: save() writes
  /// one blob; load() reads the rest of `in` as one blob and refuses
  /// trailing bytes.
  void save(std::ostream& out) const;
  bool load(std::istream& in);

 private:
  struct GuessState {
    double o = 1.0;
    /// Pruned guesses are always a prefix of guesses_ (o-ascending; see
    /// prune_prefix).
    bool pruned = false;
    // Indexed by level 0..L.
    std::vector<SamplingRate> psi, phi;
  };

  int dim_;
  CoresetParams params_;
  StreamingOptions options_;
  std::unique_ptr<const HierarchicalGrid> grid_;
  std::vector<KWiseHash> hash_counting_, hash_coreset_;
  std::vector<GuessState> guesses_;
  // One CountMin and one point store per level 0..L for every guess; each
  // one's lo() is the number of pruned guesses.
  std::vector<CellCountMin> counts_;
  std::vector<CellPointStore> stores_;
  std::vector<DistinctCells> distinct_;
  /// Checks that `other` was constructed like this builder (merge_from and
  /// finalize over parts require it).
  void check_mergeable(const StreamingCoresetBuilder& other) const;
  void maybe_prune();
  /// Prunes guesses [0, lo): marks them and trims every level's CountMin and
  /// point store.  No-op for the already-pruned prefix.
  void prune_prefix(std::size_t lo);
  std::size_t pruned_guesses() const {
    return static_cast<std::size_t>(counts_.front().lo());
  }
  std::int64_t net_count_ = 0;
  std::int64_t events_ = 0;

  // Ingest scratch, hoisted out of the hot path (the builder is single-
  // writer: the engine serializes updates under the shard lock), laid out
  // level-major: hashes at [level * B + event], cell indices at
  // [(level * B + event) * dim + coord].
  std::vector<std::int64_t> batch_delta_;
  std::vector<std::uint64_t> batch_h_count_, batch_h_core_;
  std::vector<std::int32_t> batch_idx_;
  std::vector<std::int32_t> sel_idx_;
  std::vector<std::int64_t> sel_delta_;
  std::vector<int> sel_hi_;
};

static_assert(!std::is_copy_constructible_v<StreamingCoresetBuilder>);
static_assert(std::is_move_constructible_v<StreamingCoresetBuilder>);

/// Convenience: stream -> coreset in one call.
StreamingResult build_streaming_coreset(const Stream& stream, int dim,
                                        const CoresetParams& params,
                                        const StreamingOptions& options);

}  // namespace skc
