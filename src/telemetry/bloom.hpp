// Counting Bloom filter used by uFAB-C to recognise active VM-pairs.
//
// The paper's switch uses a 2-way-hashed 20 KB Bloom filter supporting ~20K
// distinct VM-pairs at <5% false positives (§4.2).  We implement a counting
// variant (4-bit saturating counters) so that explicit finish probes can
// remove entries, which the plain bit-vector form cannot.
//
// Only the nonzero counters are stored (DESIGN.md §8.7): one flat
// open-addressing table keyed by slot index, so a filter costs memory in
// proportion to the pairs it currently tracks, not to its configured size.
// Slots and counter arithmetic are those of a dense counter array, so every
// membership answer is the one the dense array gives.
#pragma once

#include <cstdint>
#include <vector>

namespace ufab::telemetry {

struct BloomConfig {
  /// Number of cells. The paper's 20 KB filter uses 1-bit cells => 163,840
  /// cells across 2 banks, which yields <5% false positives at 20K pairs.
  /// We keep the same cell count for false-positive fidelity; the counting
  /// variant costs 4 bits/cell (80 KB SRAM), accounted in the resource model.
  /// At most 2^28 (a stored cell packs its slot index with its counter).
  std::size_t counters = 163'840;
  /// Hash functions (the paper's switch uses 2 memory banks in parallel).
  int hashes = 2;
};

class CountingBloomFilter {
 public:
  explicit CountingBloomFilter(BloomConfig cfg = {});

  void insert(std::uint64_t key);

  /// Decrements counters for `key`; safe to call only for inserted keys
  /// (callers track membership out-of-band, as uFAB-E does on the edge).
  void remove(std::uint64_t key);

  /// True if `key` might be present (false positives possible, no false
  /// negatives while inserted).
  [[nodiscard]] bool maybe_contains(std::uint64_t key) const;

  [[nodiscard]] std::size_t inserted_count() const { return inserted_; }
  [[nodiscard]] std::size_t counter_count() const { return cfg_.counters; }

  /// Analytic false-positive probability at the current fill level.
  [[nodiscard]] double false_positive_rate() const;

  /// Empties the filter and releases its counter storage.
  void clear();

  /// Simulator memory held by this filter: the object plus its counter
  /// table.  Grows with the nonzero counters, up to 4 bytes per configured
  /// counter (DESIGN.md §8.7).
  [[nodiscard]] std::size_t memory_bytes() const {
    return sizeof(*this) + cells_.capacity() * sizeof(std::uint32_t);
  }

 private:
  [[nodiscard]] std::size_t slot(std::uint64_t key, int i) const;

  /// Table index of `slot`'s cell, or of the empty cell where it would go.
  [[nodiscard]] std::size_t find(std::uint32_t slot) const;
  /// First cell of `slot`'s probe sequence.
  [[nodiscard]] std::size_t home(std::uint32_t slot) const;
  /// Deletes the cell at `i`, shifting later cells of its probe run back so
  /// lookups never meet a hole (no tombstones).
  void erase_at(std::size_t i);
  /// Resizes the table to `capacity` cells and reinserts every live cell.
  void rehash(std::size_t capacity);

  BloomConfig cfg_;
  /// Open-addressing table (linear probing) of the nonzero counters: a cell
  /// is `slot << 4 | counter`, 0 when empty (a stored counter is never 0).
  /// Never larger than cfg_.counters cells.
  std::vector<std::uint32_t> cells_;
  std::size_t live_ = 0;  ///< Nonzero counters (occupied cells).
  std::size_t inserted_ = 0;
};

}  // namespace ufab::telemetry
