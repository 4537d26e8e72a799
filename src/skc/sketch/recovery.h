// Exact s-sparse recovery over a dynamic stream of integer-vector items.
//
// This is the substrate behind the paper's Storing structure (Lemma 4.2 /
// [HSYZ18] Lemma 19): a linear sketch of the multiplicity vector
// x : items -> Z that supports increments/decrements and, at query time,
// recovers the exact multiset {(item, count)} whenever the number of
// distinct items with nonzero count is at most the configured capacity.
//
// Construction (an invertible Bloom lookup table specialized to our needs):
//   * `reps` independent repetitions, each hashing items into `buckets`
//     cells via a lambda-wise polynomial hash of the item's field fold;
//   * each cell stores (count, per-coordinate weighted sums, fingerprint):
//       count  += delta
//       sum[j] += delta * item[j]
//       fp     += delta * fingerprint(item)      (mod 2^61-1)
//   * decoding peels: a cell with count c != 0 whose sums are all divisible
//     by c and whose fingerprint matches c * fp(sum/c) holds a single item;
//     remove its c copies from every repetition and repeat.
//
// The structure is linear, so two sketches built from the same seed can be
// merged by adding their cells — this is exactly what the distributed
// protocol (Lemma 4.6) does at the coordinator.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "skc/common/types.h"
#include "skc/hash/fingerprint.h"
#include "skc/hash/kwise_hash.h"

namespace skc {

struct RecoveredItem {
  std::vector<std::int64_t> item;
  std::int64_t count = 0;  // > 0 in a well-formed final state
};

class SparseRecovery {
 public:
  struct Config {
    int item_len = 1;          ///< entries per item vector
    std::int64_t capacity = 8; ///< max distinct items guaranteed recoverable
    int reps = 3;              ///< hash repetitions
    double bucket_factor = 1.5;///< buckets per rep = ceil(factor * capacity) + 8
    int hash_independence = 8; ///< lambda of the bucket hash
  };

  /// Two sketches constructed with equal (config, seed) are mergeable.
  SparseRecovery(const Config& config, std::uint64_t seed);

  const Config& config() const { return config_; }

  /// Applies x[item] += delta.  `item.size()` must equal item_len.
  void update(std::span<const std::int64_t> item, std::int64_t delta);

  /// Convenience for coordinate vectors.
  void update(std::span<const Coord> item, std::int64_t delta);

  /// Attempts full recovery.  Returns nullopt if the state is not
  /// decodable (more distinct items than capacity, or a count went
  /// negative).  Non-destructive.
  std::optional<std::vector<RecoveredItem>> decode() const;

  /// True if every cell is zero (empty multiset); cheap.
  bool drained() const;

  /// Adds another sketch built from the same (config, seed).
  void merge(const SparseRecovery& other);

  /// Sketch footprint in bytes (cells + hash descriptions).
  std::size_t memory_bytes() const;

  /// Serializes cells for communication-cost accounting (distributed mode).
  std::size_t serialized_bytes() const { return memory_bytes(); }

 private:
  struct Cell {
    std::int64_t count = 0;
    std::uint64_t fp = 0;  // field element
    // sums start at offset cell_index * item_len in sums_ (flat storage)
  };

  std::size_t bucket_of(int rep, std::uint64_t fold) const;
  void apply(std::span<const std::int64_t> item, std::int64_t delta,
             std::vector<Cell>& cells, std::vector<std::int64_t>& sums) const;

  Config config_;
  std::uint64_t seed_;
  int buckets_per_rep_;
  VectorFold fold_;
  Fingerprinter fp_;
  std::vector<KWiseHash> rep_hash_;
  std::vector<Cell> cells_;            // reps * buckets
  std::vector<std::int64_t> sums_;     // reps * buckets * item_len
};

}  // namespace skc
