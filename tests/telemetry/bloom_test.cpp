// Differential and footprint tests for the sparse counting Bloom filter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "src/core/rng.hpp"
#include "src/harness/fabric.hpp"
#include "src/harness/schemes.hpp"
#include "src/telemetry/bloom.hpp"
#include "src/topo/builders.hpp"

namespace ufab::telemetry {
namespace {

/// The dense filter the sparse counter table replaced, kept verbatim as the
/// differential reference: one byte per configured counter, zero-filled.
class ReferenceBloom {
 public:
  explicit ReferenceBloom(BloomConfig cfg = {}) : cfg_(cfg) {
    counters_.assign(cfg_.counters, 0);
  }

  void insert(std::uint64_t key) {
    for (int i = 0; i < cfg_.hashes; ++i) {
      std::uint8_t& c = counters_[slot(key, i)];
      if (c < kCounterMax) ++c;
    }
    ++inserted_;
  }

  void remove(std::uint64_t key) {
    for (int i = 0; i < cfg_.hashes; ++i) {
      std::uint8_t& c = counters_[slot(key, i)];
      if (c > 0 && c < kCounterMax) --c;  // saturated counters are sticky
    }
    if (inserted_ > 0) --inserted_;
  }

  [[nodiscard]] bool maybe_contains(std::uint64_t key) const {
    for (int i = 0; i < cfg_.hashes; ++i) {
      if (counters_[slot(key, i)] == 0) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t inserted_count() const { return inserted_; }
  [[nodiscard]] std::size_t counter_count() const { return counters_.size(); }

  [[nodiscard]] double false_positive_rate() const {
    const double bank =
        static_cast<double>(counters_.size()) / static_cast<double>(cfg_.hashes);
    const double n = static_cast<double>(inserted_);
    const double p_one = 1.0 - std::exp(-n / bank);
    return std::pow(p_one, cfg_.hashes);
  }

  void clear() {
    counters_.assign(counters_.size(), 0);
    inserted_ = 0;
  }

  /// Counters at 15 (sticky) — lets scripts prove they reached saturation.
  [[nodiscard]] std::size_t saturated() const {
    std::size_t n = 0;
    for (const std::uint8_t c : counters_) n += c == kCounterMax ? 1 : 0;
    return n;
  }

 private:
  static constexpr std::uint8_t kCounterMax = 15;

  static std::uint64_t mix(std::uint64_t x, std::uint64_t salt) {
    x ^= salt;
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  [[nodiscard]] std::size_t slot(std::uint64_t key, int i) const {
    const std::size_t bank_size = counters_.size() / static_cast<std::size_t>(cfg_.hashes);
    const std::size_t bank_base = static_cast<std::size_t>(i) * bank_size;
    return bank_base +
           mix(key, 0xabcdef12u + static_cast<std::uint64_t>(i) * 0x9e37ULL) % bank_size;
  }

  BloomConfig cfg_;
  std::vector<std::uint8_t> counters_;
  std::size_t inserted_ = 0;
};

/// Shape of one differential script.
struct BloomScript {
  BloomConfig cfg;
  std::uint64_t seed;
  std::uint64_t key_space;  ///< Live keys are drawn from [1, key_space].
  int steps;
  int clear_per_mille;  ///< Chance per step of a clear().
};

/// Compares every observable of the two filters, probing `probes` keys.
void expect_same(const CountingBloomFilter& fast, const ReferenceBloom& ref,
                 const std::vector<std::uint64_t>& probes, int step) {
  ASSERT_EQ(fast.inserted_count(), ref.inserted_count()) << "step " << step;
  ASSERT_EQ(fast.counter_count(), ref.counter_count()) << "step " << step;
  ASSERT_EQ(fast.false_positive_rate(), ref.false_positive_rate()) << "step " << step;
  for (const std::uint64_t k : probes) {
    ASSERT_EQ(fast.maybe_contains(k), ref.maybe_contains(k)) << "step " << step << " key " << k;
  }
}

/// Drives both filters with one seeded script of inserts, removes of live
/// keys (the only removes callers make), spurious removes of absent keys,
/// and clears, checking membership of live, recently removed and random
/// keys after every step.  Returns the reference's peak saturated count.
std::size_t run_script(const BloomScript& s) {
  Rng rng(s.seed);
  CountingBloomFilter fast(s.cfg);
  ReferenceBloom ref(s.cfg);
  std::vector<std::uint64_t> live;
  std::size_t peak_saturated = 0;
  for (int step = 0; step < s.steps; ++step) {
    const std::uint64_t op = rng.below(1000);
    std::uint64_t touched = 1 + rng.below(s.key_space);
    if (op < static_cast<std::uint64_t>(s.clear_per_mille)) {
      fast.clear();
      ref.clear();
      live.clear();
    } else if (op < 550) {
      fast.insert(touched);
      ref.insert(touched);
      live.push_back(touched);
    } else if (op < 980) {
      if (!live.empty()) {
        const std::size_t at = rng.below(live.size());
        touched = live[at];
        live[at] = live.back();
        live.pop_back();
        fast.remove(touched);
        ref.remove(touched);
      }
    } else {
      fast.remove(touched);  // absent key: must leave both filters alike
      ref.remove(touched);
    }
    std::vector<std::uint64_t> probes = {touched, 1 + rng.below(s.key_space), rng()};
    for (int i = 0; i < 3 && !live.empty(); ++i) probes.push_back(live[rng.below(live.size())]);
    expect_same(fast, ref, probes, step);
    if (::testing::Test::HasFatalFailure()) return peak_saturated;
    if (step % 64 == 0) peak_saturated = std::max(peak_saturated, ref.saturated());
  }
  return peak_saturated;
}

TEST(BloomDifferential, DefaultConfigMatchesDenseReference) {
  run_script(BloomScript{BloomConfig{}, 1, 400, 20'000, 2});
  run_script(BloomScript{BloomConfig{}, 2, 1u << 30, 20'000, 0});
}

TEST(BloomDifferential, ForcedCollisionConfigsMatchDenseReference) {
  // {64, 2}: 32-counter banks; {6, 3}: three 2-counter banks, so almost
  // every counter is shared and the table fills its whole 6-cell span.
  for (const BloomConfig cfg : {BloomConfig{64, 2}, BloomConfig{6, 3}}) {
    for (const std::uint64_t seed : {3u, 4u}) {
      run_script(BloomScript{cfg, seed, 200, 20'000, 5});
      if (HasFatalFailure()) return;
    }
  }
}

TEST(BloomDifferential, StickySaturationMatchesDenseReference) {
  // Few distinct keys inserted many times with no clears: counters climb to
  // 15 and stick, and later removes must leave them there on both sides.
  for (const BloomConfig cfg : {BloomConfig{64, 2}, BloomConfig{6, 3}, BloomConfig{}}) {
    BloomScript s{cfg, 5, 8, 20'000, 0};
    s.steps = 4000;
    const std::size_t saturated = run_script(s);
    if (HasFatalFailure()) return;
    EXPECT_GT(saturated, 0u) << "script never saturated a counter (" << cfg.counters << ")";
  }
}

TEST(BloomDifferential, JunkKeySaturationMatchesDenseReference) {
  // The fault plane's Bloom saturation: thousands of raw 64-bit RNG keys,
  // never removed, on top of live pairs that keep coming and going.
  CountingBloomFilter fast;
  ReferenceBloom ref;
  Rng junk(41);
  Rng rng(17);
  std::vector<std::uint64_t> probes;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 5000; ++i) {
      const std::uint64_t k = junk();
      fast.insert(k);
      ref.insert(k);
      if (i % 97 == 0) probes.push_back(k);
    }
    for (std::uint64_t pair = 1; pair <= 200; ++pair) {
      fast.insert(pair);
      ref.insert(pair);
    }
    for (std::uint64_t pair = 1; pair <= 200; pair += 2) {
      fast.remove(pair);
      ref.remove(pair);
    }
    for (std::uint64_t pair = 1; pair <= 200; ++pair) probes.push_back(pair);
    for (int i = 0; i < 2000; ++i) probes.push_back(rng());
    expect_same(fast, ref, probes, round);
    if (HasFatalFailure()) return;
  }
  fast.clear();
  ref.clear();
  expect_same(fast, ref, probes, 3);
}

TEST(BloomFootprint, FreshAndClearedFiltersHoldUnderOneKilobyte) {
  CountingBloomFilter bloom;
  EXPECT_LE(bloom.memory_bytes(), 1024u);
  for (std::uint64_t k = 1; k <= 20'000; ++k) bloom.insert(k);
  EXPECT_GT(bloom.memory_bytes(), 1024u);
  // Worst case: one 4-byte cell per configured counter.
  EXPECT_LE(bloom.memory_bytes(), sizeof(bloom) + 4 * bloom.counter_count());
  bloom.clear();
  EXPECT_LE(bloom.memory_bytes(), 1024u);
  EXPECT_FALSE(bloom.maybe_contains(1));
}

TEST(BloomFootprint, EveryCounterNonzeroStaysWithinConfiguredSpan) {
  // Drive all 64 counters of a tiny filter nonzero: the table may not grow
  // past one cell per counter, and lookups must still terminate.
  CountingBloomFilter bloom(BloomConfig{64, 2});
  for (std::uint64_t k = 1; k <= 2000; ++k) bloom.insert(k);
  EXPECT_LE(bloom.memory_bytes(), sizeof(bloom) + 4 * 64);
  for (std::uint64_t k = 5000; k < 5100; ++k) EXPECT_TRUE(bloom.maybe_contains(k));
}

TEST(BloomFootprint, UfabOnK8FatTreeKeepsBloomStateUnderOneMegabyte) {
  // k=8, 1:2 oversubscribed: 512 instrumented egress ports.  A dense filter
  // per port would hold 512 x 160 KB; the sparse tables start empty.
  harness::Fabric fab([](sim::Simulator& s) { return topo::make_fat_tree(s, 8, 2); }, 1);
  harness::install_scheme(fab, harness::Scheme::kUfab);
  std::size_t bytes = 0;
  for (const auto& agent : fab.core_agents()) bytes += agent->bloom().memory_bytes();
  EXPECT_EQ(fab.core_agents().size(), 512u);
  EXPECT_LT(bytes, std::size_t{1} << 20);
}

}  // namespace
}  // namespace ufab::telemetry
