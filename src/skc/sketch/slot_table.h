// Open-addressing slot tables over flat key rows.
//
// The owner keeps its records' keys in one flat array, `dim` int32 words
// per record (a cell index row or a point's coordinates), and a slot table
// maps a key to its record id.  A slot keeps the id and the key's 32-bit
// hash, whose high bits pick the home slot, so a rehash and the
// backward-shift erase never reread keys.  Linear probing on power-of-two
// sizes, kept at most half full.  CellPointStore holds two tables (cells
// and points), DistinctCells one (its kept cells).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace skc::slot_table {

inline constexpr std::uint32_t kNone = ~std::uint32_t{0};

/// One slot: a record id (kNone when empty) and its key's hash.
struct Slot {
  std::uint32_t id = kNone;
  std::uint32_t hash = 0;
};

using Slots = std::vector<Slot>;

/// 32-bit hash of a row of int32 words.  Deterministic, so equal histories
/// give equal tables.
inline std::uint32_t hash_row(const std::int32_t* w, std::size_t n) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ static_cast<std::uint32_t>(w[i])) * 0xff51afd7ed558ccdULL;
    h ^= h >> 32;
  }
  return static_cast<std::uint32_t>((h * 0xc4ceb9fe1a85ec53ULL) >> 32);
}

/// Home slot of a hash in a table of `size` slots: its high bits.
inline std::size_t home_slot(std::uint32_t hash, std::size_t size) {
  return static_cast<std::size_t>((std::uint64_t{hash} * size) >> 32);
}

/// Puts `s`, whose key is not in the table, at the first empty slot of its
/// probe run (a rehash: no key is compared).
inline void place(Slots& slots, Slot s) {
  const std::size_t mask = slots.size() - 1;
  std::size_t i = home_slot(s.hash, slots.size());
  while (slots[i].id != kNone) i = (i + 1) & mask;
  slots[i] = s;
}

/// Grows `slots` so that `count + 1` entries keep it at most half full.
inline void grow(Slots& slots, std::size_t count) {
  if ((count + 1) * 2 <= slots.size()) return;
  Slots bigger(std::max<std::size_t>(16, slots.size() * 2));
  for (const Slot& s : slots) {
    if (s.id != kNone) place(bigger, s);
  }
  slots.swap(bigger);
}

/// Empties slot `hole`.  Backward-shift deletion: each later entry of the
/// probe run moves into the hole unless its home slot lies cyclically after
/// the hole.
inline void erase(Slots& slots, std::size_t hole) {
  const std::size_t mask = slots.size() - 1;
  for (std::size_t j = (hole + 1) & mask; slots[j].id != kNone; j = (j + 1) & mask) {
    const std::size_t home = home_slot(slots[j].hash, slots.size());
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots[hole] = slots[j];
      hole = j;
    }
  }
  slots[hole] = Slot{};
}

/// The slot whose record's key (`dim` words of `rows` at the record id)
/// equals `key`, or the empty slot that ends its probe run.  `slots` must
/// not be empty.
inline std::size_t probe(const Slots& slots, const std::int32_t* rows, std::size_t dim,
                         const std::int32_t* key, std::uint32_t hash) {
  const std::size_t mask = slots.size() - 1;
  std::size_t i = home_slot(hash, slots.size());
  for (; slots[i].id != kNone; i = (i + 1) & mask) {
    const Slot& s = slots[i];
    if (s.hash == hash && std::equal(key, key + dim, rows + std::size_t{s.id} * dim)) break;
  }
  return i;
}

/// The slot holding record `id`, whose key hashes to `hash` (it must be in
/// the table).
inline std::size_t find_id(const Slots& slots, std::uint32_t id, std::uint32_t hash) {
  const std::size_t mask = slots.size() - 1;
  std::size_t i = home_slot(hash, slots.size());
  while (slots[i].id != id) i = (i + 1) & mask;
  return i;
}

}  // namespace skc::slot_table
