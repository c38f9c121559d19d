#include "src/telemetry/bloom.hpp"

#include <algorithm>
#include <cmath>

#include "src/core/assert.hpp"

namespace ufab::telemetry {

namespace {
constexpr std::uint32_t kCounterMax = 15;  // 4-bit saturating counters
constexpr std::uint32_t kCounterMask = 0xf;
constexpr int kSlotShift = 4;
constexpr std::size_t kMaxCounters = std::size_t{1} << (32 - kSlotShift);
/// First table size; the table doubles past 1/2 load, up to cfg_.counters.
/// A low load keeps probe runs short: each extra probe is a branch the CPU
/// cannot predict, which is the whole cost over a dense array.
constexpr std::size_t kInitialCells = 16;

std::uint64_t mix(std::uint64_t x, std::uint64_t salt) {
  x ^= salt;
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

CountingBloomFilter::CountingBloomFilter(BloomConfig cfg) : cfg_(cfg) {
  UFAB_CHECK(cfg_.counters > 0 && cfg_.hashes > 0);
  UFAB_CHECK_MSG(cfg_.counters <= kMaxCounters, "Bloom filter larger than 2^28 counters");
}

std::size_t CountingBloomFilter::slot(std::uint64_t key, int i) const {
  // Each "hash function" indexes its own bank, mirroring the two parallel
  // memory banks on the switch.
  const std::size_t bank_size = cfg_.counters / static_cast<std::size_t>(cfg_.hashes);
  const std::size_t bank_base = static_cast<std::size_t>(i) * bank_size;
  return bank_base + mix(key, 0xabcdef12u + static_cast<std::uint64_t>(i) * 0x9e37ULL) % bank_size;
}

std::size_t CountingBloomFilter::home(std::uint32_t slot) const {
  // Fibonacci-scramble the slot, then map it onto [0, size) by a
  // multiply-shift: the table size need not be a power of two.
  const std::uint32_t h = slot * 0x9e3779b1u;
  return static_cast<std::size_t>((static_cast<std::uint64_t>(h) * cells_.size()) >> 32);
}

std::size_t CountingBloomFilter::find(std::uint32_t slot) const {
  // Terminates: there is always an empty cell or the slot itself.  Below
  // cfg_.counters cells the load is at most 1/2; at that size every slot
  // has room.
  std::size_t i = home(slot);
  for (;;) {
    const std::uint32_t c = cells_[i];
    if (c == 0 || (c >> kSlotShift) == slot) return i;
    if (++i == cells_.size()) i = 0;
  }
}

void CountingBloomFilter::erase_at(std::size_t i) {
  const std::size_t n = cells_.size();
  std::size_t hole = i;
  cells_[hole] = 0;
  for (std::size_t j = i + 1 == n ? 0 : i + 1; cells_[j] != 0; j = j + 1 == n ? 0 : j + 1) {
    // The cell at j may fill the hole unless its home lies cyclically in
    // (hole, j]: then the hole precedes its probe start.
    const std::size_t h = home(cells_[j] >> kSlotShift);
    const bool stays = hole <= j ? (hole < h && h <= j) : (hole < h || h <= j);
    if (!stays) {
      cells_[hole] = cells_[j];
      cells_[j] = 0;
      hole = j;
    }
  }
  --live_;
}

void CountingBloomFilter::rehash(std::size_t capacity) {
  std::vector<std::uint32_t> old(capacity, 0);
  old.swap(cells_);
  for (const std::uint32_t c : old) {
    if (c != 0) cells_[find(c >> kSlotShift)] = c;
  }
}

void CountingBloomFilter::insert(std::uint64_t key) {
  for (int i = 0; i < cfg_.hashes; ++i) {
    // Room for one more cell first, in case this counter leaves zero: the
    // load stays at most 1/2 until the table spans every counter, where it
    // cannot overflow.
    if ((live_ + 1) * 2 > cells_.size() && cells_.size() < cfg_.counters) {
      rehash(std::min(cells_.empty() ? kInitialCells : 2 * cells_.size(), cfg_.counters));
    }
    const auto s = static_cast<std::uint32_t>(slot(key, i));
    std::uint32_t& c = cells_[find(s)];
    if (c == 0) {
      c = s << kSlotShift | 1;
      ++live_;
    } else if ((c & kCounterMask) < kCounterMax) {
      ++c;
    }
  }
  ++inserted_;
}

void CountingBloomFilter::remove(std::uint64_t key) {
  for (int i = 0; i < cfg_.hashes && live_ > 0; ++i) {
    const std::size_t at = find(static_cast<std::uint32_t>(slot(key, i)));
    const std::uint32_t c = cells_[at] & kCounterMask;
    if (c > 0 && c < kCounterMax) {  // saturated counters are sticky
      if (c == 1) {
        erase_at(at);
      } else {
        --cells_[at];
      }
    }
  }
  if (inserted_ > 0) --inserted_;
}

bool CountingBloomFilter::maybe_contains(std::uint64_t key) const {
  if (live_ == 0) return false;
  for (int i = 0; i < cfg_.hashes; ++i) {
    if (cells_[find(static_cast<std::uint32_t>(slot(key, i)))] == 0) return false;
  }
  return true;
}

double CountingBloomFilter::false_positive_rate() const {
  // Standard approximation with per-bank occupancy: p = (1 - e^{-n/m'})^k
  // where m' is the bank size and n the inserted keys.
  const double bank =
      static_cast<double>(cfg_.counters) / static_cast<double>(cfg_.hashes);
  const double n = static_cast<double>(inserted_);
  const double p_one = 1.0 - std::exp(-n / bank);
  return std::pow(p_one, cfg_.hashes);
}

void CountingBloomFilter::clear() {
  std::vector<std::uint32_t>().swap(cells_);
  live_ = 0;
  inserted_ = 0;
}

}  // namespace ufab::telemetry
