#include "skc/coreset/streaming.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>

#include "skc/common/check.h"
#include "skc/common/serial.h"
#include "skc/coreset/offline.h"
#include "skc/obs/trace.h"

namespace skc {

namespace {

/// Point-store eviction watermark: sampled points per cell before the cell
/// is declared provably heavy.
constexpr std::int64_t kPointWatermark = 64;

/// Mid-stream pruning frees guesses whose o is below (running OPT lower
/// bound) / kPruneSlack.  The 100x slack absorbs deletions shrinking the
/// bound later (a wrongly pruned guess just FAILs and a coarser o is
/// accepted).
constexpr double kPruneSlack = 100.0;

SamplingRate rate_or_one(double p) {
  return SamplingRate::from_probability(std::min(1.0, std::max(p, 1e-18)));
}

/// Seed of level `level`'s distinct-cell estimator.
std::uint64_t distinct_seed(const CoresetParams& params, int level) {
  return sketch_seed(params, SamplerPurpose::kCounting, 100 + level);
}

}  // namespace

StreamingCoresetBuilder::StreamingCoresetBuilder(int dim, const CoresetParams& params,
                                                 const StreamingOptions& options)
    : dim_(dim),
      params_(params),
      options_(options),
      grid_(std::make_unique<const HierarchicalGrid>(
          make_grid(dim, options.log_delta, params.seed))),
      hash_counting_(make_level_hashes(params, options.log_delta,
                                       SamplerPurpose::kCounting)),
      hash_coreset_(make_level_hashes(params, options.log_delta,
                                      SamplerPurpose::kCoreset)) {
  SKC_CHECK_MSG(dim <= HierarchicalGrid::kMaxWalkDim,
                "the finalize walk enumerates 2^d children; dimension too large");
  const int L = options.log_delta;
  double o_lo = options.o_min > 0 ? options.o_min : 1.0;
  double o_hi = options.o_max > 0
                    ? options.o_max
                    : max_opt_guess(options.max_points, dim, L, params.r);
  SKC_CHECK(o_lo <= o_hi);

  for (double o = o_lo; o <= o_hi * params.guess_factor; o *= params.guess_factor) {
    GuessState guess;
    guess.o = o;
    for (int i = 0; i <= L; ++i) {
      const double ti = part_threshold(*grid_, params.partition(), i, o);
      guess.psi.push_back(rate_or_one(options.counting_samples / std::max(ti, 1.0)));
      guess.phi.push_back(
          SamplingRate::from_probability(params.sampling_probability(*grid_, i, o)));
    }
    guesses_.push_back(std::move(guess));
  }

  // One CountMin and one point store per level for every guess.  T_i(o)
  // grows with o, so psi, phi and their keep bounds fall along the
  // o-ascending guesses (both constructors check it): the guesses keeping an
  // event are a prefix, guesses with equal counting bounds share a counter
  // column, and guesses with equal coreset bounds read one rate class.
  CellCountMinConfig cm;
  cm.width = options.countmin_width;
  cm.depth = options.countmin_depth;
  cm.exact = options.exact_storing;
  PointStoreConfig ps;
  ps.watermark = kPointWatermark;
  ps.max_live_points = options.max_live_points;
  ps.exact = options.exact_storing;
  counts_.reserve(static_cast<std::size_t>(L + 1));
  stores_.reserve(static_cast<std::size_t>(L + 1));
  for (int i = 0; i <= L; ++i) {
    std::vector<std::uint64_t> count_below, sample_below;
    count_below.reserve(guesses_.size());
    sample_below.reserve(guesses_.size());
    for (const GuessState& guess : guesses_) {
      count_below.push_back(guess.psi[static_cast<std::size_t>(i)].keep_below());
      sample_below.push_back(guess.phi[static_cast<std::size_t>(i)].keep_below());
    }
    counts_.emplace_back(*grid_, i, cm, sketch_seed(params, SamplerPurpose::kCounting, i),
                         std::move(count_below));
    stores_.emplace_back(*grid_, i, ps, std::move(sample_below));
  }

  distinct_.reserve(static_cast<std::size_t>(L));
  for (int i = 0; i < L; ++i) {
    distinct_.emplace_back(*grid_, i, options.distinct_budget, distinct_seed(params, i));
  }
}

void StreamingCoresetBuilder::update_batch(std::span<const StreamEvent> events) {
  const EventBatch batch(events, dim_);
  update_batch(batch, 0, batch.size());
}

void StreamingCoresetBuilder::update_batch(const EventBatch& batch, std::size_t begin,
                                           std::size_t count) {
  SKC_CHECK(batch.dim() == dim_ && begin + count <= batch.size());
  const std::size_t B = count;
  if (B == 0) return;
  const int L = grid_->log_delta();
  const auto dim = static_cast<std::size_t>(dim_);
  const auto levels = static_cast<std::size_t>(L + 1);
  const Coord* pts = batch.coords().data() + begin * dim;
  const StreamOp* ops = batch.ops().data() + begin;

  batch_delta_.resize(B);
  batch_h_count_.resize(levels * B);
  batch_h_core_.resize(levels * B);
  batch_idx_.resize(levels * B * dim);
  sel_idx_.resize(B * dim);
  sel_delta_.resize(B);
  sel_hi_.resize(B);

  for (std::size_t b = 0; b < B; ++b) {
    batch_delta_[b] = ops[b] == StreamOp::kInsert ? +1 : -1;
  }

  {
    // Span taxonomy (DESIGN.md §10): "grid" = per-level substream hashing
    // and cell indexing (§3.1), one SoA Horner sweep per (level, family)
    // and one grid pass per level, shared by every structure below;
    // "countmin", "point_store" and "distinct" = feeding each structure
    // family.
    SKC_TRACE_SPAN("grid");
    for (std::size_t i = 0; i < levels; ++i) {
      hash_counting_[i].hash_batch(pts, dim, B, batch_h_count_.data() + i * B);
      hash_coreset_[i].hash_batch(pts, dim, B, batch_h_core_.data() + i * B);
      grid_->cell_index_of_batch(pts, B, static_cast<int>(i),
                                batch_idx_.data() + i * B * dim);
    }
  }

  {
    SKC_TRACE_SPAN("countmin");
    for (std::size_t i = 0; i < levels; ++i) {
      CellCountMin& cm = counts_[i];
      const std::uint64_t* hc = batch_h_count_.data() + i * B;
      const std::int32_t* idx = batch_idx_.data() + i * B * dim;
      // Counting substream: gather the rows some live guess keeps, with
      // their kept prefix, and land them in one pass over the level.
      std::size_t nsel = 0;
      for (std::size_t b = 0; b < B; ++b) {
        const int hi = cm.kept_prefix(hc[b]);
        if (hi <= cm.lo()) continue;
        std::copy(idx + b * dim, idx + (b + 1) * dim,
                  sel_idx_.begin() + static_cast<std::ptrdiff_t>(nsel * dim));
        sel_delta_[nsel] = batch_delta_[b];
        sel_hi_[nsel] = hi;
        ++nsel;
      }
      if (nsel > 0) cm.update(sel_idx_.data(), sel_delta_.data(), sel_hi_.data(), nsel);
    }
  }
  {
    SKC_TRACE_SPAN("point_store");
    // Coreset substream, once per level: each store finds the rate class of
    // every event from its hash and skips those no live class keeps.  The
    // store also needs the points themselves (it carries the samples).
    for (std::size_t i = 0; i < levels; ++i) {
      stores_[i].update_batch(pts, batch_idx_.data() + i * B * dim, batch_h_core_.data() + i * B,
                              batch_delta_.data(), B);
    }
  }
  {
    SKC_TRACE_SPAN("distinct");
    for (std::size_t i = 0; i < distinct_.size(); ++i) {
      distinct_[i].update_batch(batch_idx_.data() + i * B * dim,
                                batch_delta_.data(), B);
    }
  }

  for (std::size_t b = 0; b < B; ++b) net_count_ += batch_delta_[b];
  const std::int64_t events_before = events_;
  events_ += static_cast<std::int64_t>(B);
  if (options_.prune_interval > 0 && !options_.exact_storing &&
      events_before / options_.prune_interval != events_ / options_.prune_interval) {
    maybe_prune();
  }
}

void StreamingCoresetBuilder::maybe_prune() {
  std::vector<double> cell_estimates;
  cell_estimates.reserve(distinct_.size());
  for (const DistinctCells& dc : distinct_) cell_estimates.push_back(dc.estimate());
  const double lb =
      opt_lower_bound_from_cells(*grid_, params_.k, params_.r, cell_estimates);
  if (lb <= 0.0) return;
  // Guesses are o-ascending, so the ones below the cut are a prefix.
  const auto cut = std::partition_point(
      guesses_.begin(), guesses_.end(),
      [lb](const GuessState& guess) { return guess.o * kPruneSlack < lb; });
  prune_prefix(static_cast<std::size_t>(cut - guesses_.begin()));
}

void StreamingCoresetBuilder::prune_prefix(std::size_t lo) {
  for (std::size_t g = 0; g < lo; ++g) guesses_[g].pruned = true;
  for (CellCountMin& cm : counts_) cm.trim(static_cast<int>(lo));
  for (CellPointStore& store : stores_) store.trim(static_cast<int>(lo));
}

void StreamingCoresetBuilder::check_mergeable(const StreamingCoresetBuilder& other) const {
  SKC_CHECK(other.dim_ == dim_);
  SKC_CHECK(other.options_.log_delta == options_.log_delta);
  SKC_CHECK(other.params_.seed == params_.seed);
  SKC_CHECK(other.options_.exact_storing == options_.exact_storing);
  SKC_CHECK(other.guesses_.size() == guesses_.size());
  SKC_CHECK(other.distinct_.size() == distinct_.size());
  for (std::size_t g = 0; g < guesses_.size(); ++g) {
    SKC_CHECK(guesses_[g].o == other.guesses_[g].o);
  }
}

void StreamingCoresetBuilder::merge_from(const StreamingCoresetBuilder& other) {
  check_mergeable(other);
  // A guess pruned on either side is pruned here (both pruned sets are
  // prefixes, so the union is the longer one): each level's CountMin and
  // point store merge trims itself to that prefix.
  const std::size_t pruned = std::max(pruned_guesses(), other.pruned_guesses());
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i].merge(other.counts_[i]);
  for (std::size_t i = 0; i < stores_.size(); ++i) stores_[i].merge(other.stores_[i]);
  prune_prefix(pruned);
  for (std::size_t i = 0; i < distinct_.size(); ++i) {
    distinct_[i].merge(other.distinct_[i]);
  }
  net_count_ += other.net_count_;
  events_ += other.events_;
}

void StreamingCoresetBuilder::consume(const EventBatch& batch) {
  for (std::size_t base = 0; base < batch.size(); base += kMaxBatch) {
    update_batch(batch, base, std::min(kMaxBatch, batch.size() - base));
  }
}

StreamingResult StreamingCoresetBuilder::finalize() const {
  const StreamingCoresetBuilder* self = this;
  return finalize({&self, 1});
}

StreamingResult StreamingCoresetBuilder::finalize(
    std::span<const StreamingCoresetBuilder* const> parts) {
  SKC_CHECK(!parts.empty());
  const StreamingCoresetBuilder& first = *parts.front();
  const HierarchicalGrid& grid = *first.grid_;
  const CoresetParams& params = first.params_;
  const int L = grid.log_delta();
  const auto levels = static_cast<std::size_t>(L + 1);
  const std::size_t nparts = parts.size();

  // What merge_from would add up: the net count, the union of the pruned
  // prefixes, and each level's CountMins and point stores, read in place
  // below (level_of(all, i) is level i's structure of every part).
  std::int64_t net_count = 0;
  std::size_t pruned = 0;
  std::vector<const CellCountMin*> counts(levels * nparts);
  std::vector<const CellPointStore*> stores(levels * nparts);
  for (std::size_t p = 0; p < nparts; ++p) {
    const StreamingCoresetBuilder& part = *parts[p];
    first.check_mergeable(part);
    net_count += part.net_count_;
    pruned = std::max(pruned, part.pruned_guesses());
    for (std::size_t i = 0; i < levels; ++i) {
      counts[i * nparts + p] = &part.counts_[i];
      stores[i * nparts + p] = &part.stores_[i];
    }
  }
  const auto level_of = [nparts](const auto& all, std::size_t i) {
    return std::span(all.data() + i * nparts, nparts);
  };

  StreamingResult result;
  const std::vector<GuessState>& guesses = first.guesses_;
  result.diagnostics.o_min = guesses.empty() ? 0.0 : guesses.front().o;
  result.diagnostics.o_max = guesses.empty() ? 0.0 : guesses.back().o;

  // OPT lower bound from distinct-cell counts: guesses below bound/10 cannot
  // be in the valid [OPT/10, OPT] window, so skip their decode cost.  The
  // estimators are small, so the parts' are merged into local copies.
  std::vector<double> cell_estimates;
  cell_estimates.reserve(first.distinct_.size());
  for (int i = 0; i < static_cast<int>(first.distinct_.size()); ++i) {
    DistinctCells sum(grid, i, first.options_.distinct_budget, distinct_seed(params, i));
    for (const StreamingCoresetBuilder* part : parts) {
      sum.merge(part->distinct_[static_cast<std::size_t>(i)]);
    }
    cell_estimates.push_back(sum.estimate());
  }
  result.opt_lower_bound = opt_lower_bound_from_cells(grid, params.k, params.r, cell_estimates);

  for (std::size_t g = 0; g < guesses.size(); ++g) {
    const GuessState& guess = guesses[g];
    result.diagnostics.guesses_tried.push_back(guess.o);
    if (g < pruned) {
      result.diagnostics.guess_outcomes.push_back(
          "pruned mid-stream (below OPT lower bound)");
      continue;
    }
    if (guess.o * 10.0 < result.opt_lower_bound) {
      result.diagnostics.guess_outcomes.push_back("pruned (below OPT lower bound)");
      continue;
    }

    // --- Algorithm 1 top-down over the summed CountMins (estimates are in
    //     sampled units, scaled by the inverse rate per level); a level whose
    //     sample store is saturated FAILs the guess before it is walked. ---
    SKC_TRACE_SPAN("recover");
    std::vector<int> cls(levels);
    HeavyWalk walk = walk_heavy_cells(
        grid, params.partition(), guess.o, static_cast<double>(net_count),
        [&](const CellKey& cell) {
          const auto li = static_cast<std::size_t>(cell.level);
          const double sampled = CellCountMin::summed_query(
              level_of(counts, li), static_cast<int>(g), cell);
          return sampled * guess.psi[li].weight();
        },
        [&](int i) -> const char* {
          const auto li = static_cast<std::size_t>(i);
          cls[li] = first.stores_[li].rate_class(static_cast<int>(g));
          return CellPointStore::summed_dead(level_of(stores, li), cls[li])
                     ? "sample store saturated"
                     : nullptr;
        });
    if (walk.fail) {
      result.diagnostics.guess_outcomes.push_back(walk.fail_reason);
      continue;
    }
    // Each crucial cell carries its complete samples or its incomplete flag
    // (a tombstoned cell's points are empty); one with mass but no sampled
    // points (expected at low phi) carries neither and contributes only its
    // tau.
    for (std::size_t li = 0; li < levels; ++li) {
      for (EstimatedPart& part : walk.parts[li]) {
        for (CrucialCell& cell : part.cells) {
          auto cp =
              CellPointStore::summed_cell(level_of(stores, li), cls[li], cell.cell);
          if (!cp) continue;
          cell.incomplete = !cp->complete;
          cell.samples = std::move(cp->points);
        }
      }
    }

    SKC_TRACE_SPAN("assemble");
    BuildAttempt attempt =
        assemble_coreset(grid, params, guess.o, walk, static_cast<double>(net_count));
    if (!attempt.ok) {
      result.diagnostics.guess_outcomes.push_back(attempt.fail_reason);
      continue;
    }
    result.diagnostics.guess_outcomes.push_back("ok");
    result.ok = true;
    result.coreset = std::move(attempt.coreset);
    return result;
  }
  return result;
}

std::size_t StreamingCoresetBuilder::memory_bytes() const {
  std::size_t total = 0;
  for (const CellCountMin& cm : counts_) total += cm.memory_bytes();
  for (const CellPointStore& store : stores_) total += store.memory_bytes();
  for (const DistinctCells& dc : distinct_) total += dc.memory_bytes();
  return total;
}

std::size_t StreamingCoresetBuilder::memory_bytes_per_guess() const {
  // Report the largest live guess (pruned guesses hold no memory and would
  // understate the per-guess footprint).  A guess is charged its CountMin
  // columns with the level hashes and, at each level, the records of its
  // rate class's view with their slots — the logical per-guess footprint
  // Theorem 4.5 bounds, even though sharing makes the physical sum smaller.
  std::size_t counts = 0;
  for (const CellCountMin& cm : counts_) counts += cm.memory_bytes_per_guess();
  std::vector<std::vector<std::size_t>> view_bytes(stores_.size());
  std::size_t best = 0;
  for (std::size_t g = pruned_guesses(); g < guesses_.size(); ++g) {
    std::size_t total = counts;
    for (std::size_t i = 0; i < stores_.size(); ++i) {
      const CellPointStore& store = stores_[i];
      std::vector<std::size_t>& bytes = view_bytes[i];
      if (bytes.empty()) bytes.assign(static_cast<std::size_t>(store.classes()), 0);
      const auto cls = static_cast<std::size_t>(store.rate_class(static_cast<int>(g)));
      if (bytes[cls] == 0) bytes[cls] = store.view_bytes(static_cast<int>(cls));
      total += bytes[cls];
    }
    best = std::max(best, total);
  }
  return best;
}

namespace {
// Bumped STRM1 -> STRM2 when point stores moved into the deduplicated pool
// (serialized once each instead of per guess), STRM2 -> STRM3 when the
// per-guess CountMins became one per level (every guess but the first now
// hashes with the level seed, so a STRM2 blob's counters would load into
// the wrong slots), STRM3 -> STRM4 when a level's CountMin kept one column
// per distinct keep bound instead of one per live guess (a STRM3 blob's
// counters would be read at the wrong strides), STRM4 -> STRM5 when the
// pool of one store per (level, phi) became one store per level holding
// every rate class: a STRM4 store record would be read as per-class views,
// and STRM5 -> STRM6 when a level's counter block came to be written as zero
// runs and literal runs instead of every counter: a STRM5 counter count
// would be read as a run count.
constexpr std::uint64_t kCheckpointMagic = 0x534b435354524d36ULL;  // "SKCSTRM6"
}

void StreamingCoresetBuilder::save(serial::Writer& out) const {
  out.put(kCheckpointMagic);
  out.put<std::int32_t>(dim_);
  out.put<std::int32_t>(options_.log_delta);
  out.put<std::uint64_t>(params_.seed);
  out.put<std::uint64_t>(guesses_.size());
  out.put<std::int64_t>(net_count_);
  out.put<std::int64_t>(events_);
  for (const GuessState& guess : guesses_) out.put<std::uint8_t>(guess.pruned ? 1 : 0);
  for (const CellCountMin& cm : counts_) cm.save(out);
  for (const CellPointStore& store : stores_) store.save(out);
  for (const DistinctCells& dc : distinct_) dc.save(out);
}

bool StreamingCoresetBuilder::load(serial::Reader& in) {
  std::uint64_t magic = 0;
  std::int32_t dim = 0, log_delta = 0;
  std::uint64_t seed = 0, nguesses = 0;
  if (!in.get(magic) || magic != kCheckpointMagic) return false;
  if (!in.get(dim) || dim != dim_) return false;
  if (!in.get(log_delta) || log_delta != options_.log_delta) return false;
  if (!in.get(seed) || seed != params_.seed) return false;
  if (!in.get(nguesses) || nguesses != guesses_.size()) return false;
  if (!in.get(net_count_) || !in.get(events_)) return false;
  if (events_ < 0 || events_ > kMaxEvents || net_count_ < -events_ ||
      net_count_ > events_) {
    return false;
  }
  // The pruned flags must be a prefix, and every level's lo must be its
  // length; anything else is refused here rather than trusted by trim().
  std::size_t pruned = 0;
  for (std::size_t g = 0; g < guesses_.size(); ++g) {
    std::uint8_t flag = 0;
    if (!in.get(flag)) return false;
    guesses_[g].pruned = flag != 0;
    if (guesses_[g].pruned && pruned++ != g) return false;
  }
  for (CellCountMin& cm : counts_) {
    if (!cm.load(in) || static_cast<std::size_t>(cm.lo()) != pruned) return false;
  }
  // A store's blob holds the classes of the unpruned guesses only.
  for (CellPointStore& store : stores_) {
    if (!store.load(in, static_cast<int>(pruned))) return false;
  }
  for (DistinctCells& dc : distinct_) {
    if (!dc.load(in)) return false;
  }
  return true;
}

void StreamingCoresetBuilder::save(std::ostream& out) const {
  serial::Writer blob;
  save(blob);
  out.write(blob.view().data(), static_cast<std::streamsize>(blob.size()));
}

bool StreamingCoresetBuilder::load(std::istream& in) {
  std::string blob;
  char chunk[1 << 16];
  while (const std::streamsize n = in.rdbuf()->sgetn(chunk, sizeof chunk)) {
    blob.append(chunk, static_cast<std::size_t>(n));
  }
  serial::Reader reader(blob);
  return load(reader) && reader.done();
}

StreamingResult build_streaming_coreset(const Stream& stream, int dim,
                                        const CoresetParams& params,
                                        const StreamingOptions& options) {
  StreamingCoresetBuilder builder(dim, params, options);
  builder.consume(EventBatch(stream, dim));
  return builder.finalize();
}

}  // namespace skc
