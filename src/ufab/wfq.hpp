// Hierarchical weighted-fair packet scheduler (uFAB-E Packet Scheduler, §4.1).
//
// The FPGA implementation constrains the WFQ engine to 8 weighted queues with
// distinct weight levels; VFs are binned into the nearest level and VFs
// sharing a level are served round-robin, as are VM-pair queues inside a VF.
// This scheduler reproduces that structure: deficit round robin across the 8
// levels (quantum proportional to the level weight, which doubles per level),
// round robin across tenants within a level, round robin across connections
// within a tenant.
//
// Like a hardware arbiter, it only looks at queues that may hold work. Each
// tenant queue keeps a bitset of entities that may be backlogged; tenants and
// levels count their set bits, so a pull skips empty levels and tenants and
// walks only set bits (DESIGN.md §8.6). The index is exact: next() returns
// what a scan of every entity would return, because a clear bit marks an
// entity whose predicate result would be rejected anyway.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/core/ids.hpp"
#include "src/obs/profiler.hpp"

namespace ufab::edge {

class WfqScheduler {
 public:
  static constexpr int kLevels = 8;

  /// `base_weight` maps to level 0; each further level doubles the weight.
  explicit WfqScheduler(double base_weight = 1.0, std::int32_t quantum_bytes = 1500)
      : base_weight_(base_weight), quantum_(quantum_bytes) {}

  /// Registers/updates a tenant's weight (its aggregate guarantee). Must be
  /// called before entities of the tenant are added.
  void set_tenant_weight(TenantId tenant, double weight);

  /// Adds a schedulable entity (a VM-pair connection) under a tenant, marked
  /// as possibly backlogged. Entity ids index a dense table: use small
  /// positive integers (0 means "none").
  void add(TenantId tenant, std::uint64_t entity);
  void remove(TenantId tenant, std::uint64_t entity);

  /// Marks `entity` as possibly backlogged again, in O(1). An entity that
  /// `sendable` reported idle is not evaluated again until this is called,
  /// so the caller must call it whenever such an entity may have gained work.
  /// Unknown entities are ignored.
  void activate(std::uint64_t entity);

  /// Returns the next entity allowed to send, or 0 if none is sendable.
  /// `sendable(entity)` is tri-state:
  ///   > 0  the wire size of the entity's next packet: it can send now;
  ///   == 0 it has backlog but is blocked (admission, pacing): keep asking;
  ///   < 0  it is idle: park it until activate().
  /// It must be a pure query (no side effects on scheduling), since a pull
  /// may evaluate it for several entities. Templated on the callable so each
  /// per-entity query is a direct call on the edge hot path.
  template <typename Sendable>
  std::uint64_t next(Sendable&& sendable) {
    UFAB_PROF_SCOPE(obs::ProfCat::kWfq);
    // No pending bit anywhere: nothing to evaluate, only DRR bookkeeping.
    std::size_t pending = 0;
    for (const Level& L : levels_) pending += L.pending_count;
    if (pending == 0) {
      idle_miss();
      return 0;
    }
    // The rotation and the fallback below revisit a level up to three times
    // in one pull. A level's scan result cannot change within the pull: the
    // predicate is pure and cursors move only on commit, which returns. So
    // each level is scanned at most once and the result reused.
    Found memo[kLevels];
    unsigned scanned = 0;
    const auto scan = [&](int li) -> const Found& {
      if ((scanned & (1u << li)) == 0) {
        memo[li] = find_sendable(levels_[li], sendable);
        scanned |= 1u << li;
      }
      return memo[li];
    };
    // Classic DRR adapted to pull-one semantics: the rotation pointer stays
    // on a level while its deficit lasts; moving onto a level grants its
    // quantum exactly once. A level with nothing sendable forfeits its
    // deficit, as in standard DRR where an emptied queue resets its counter.
    for (int i = 0; i < 2 * kLevels; ++i) {
      Level& L = levels_[rr_level_];
      if (!L.tenants.empty()) {
        const Found& f = scan(rr_level_);
        if (f.entity != 0 && L.deficit >= f.size) {
          commit(L, f);
          L.deficit -= f.size;
          return f.entity;
        }
        if (f.entity == 0) L.deficit = 0.0;
      }
      // Advance the rotation and grant the next level its quantum.
      rr_level_ = (rr_level_ + 1) % kLevels;
      Level& N = levels_[rr_level_];
      N.deficit = grant(rr_level_, N.deficit);
    }
    // Work-conserving fallback: never leave the wire idle because every level
    // is deficit-blocked — serve the first sendable entity and let its level
    // borrow (deficit goes negative, repaid on later rounds).
    for (int li = 0; li < kLevels; ++li) {
      Level& L = levels_[li];
      if (L.tenants.empty()) continue;
      const Found& f = scan(li);
      if (f.entity == 0) continue;
      commit(L, f);
      L.deficit -= f.size;
      return f.entity;
    }
    return 0;
  }

  [[nodiscard]] int level_of(TenantId tenant) const;
  [[nodiscard]] std::size_t entity_count() const { return entity_count_; }
  /// DRR state, for tests: a level's deficit and the rotation pointer.
  [[nodiscard]] double deficit(int level) const { return levels_[level].deficit; }
  [[nodiscard]] int rotation() const { return rr_level_; }

 private:
  struct TenantQueue {
    TenantId tenant;
    std::vector<std::uint64_t> entities;
    /// Bit i set: entities[i] may be backlogged (one bit per entity).
    std::vector<std::uint64_t> pending;
    std::size_t pending_count = 0;  ///< Set bits in `pending`.
    std::size_t cursor = 0;
  };
  struct Level {
    std::vector<TenantQueue> tenants;
    std::size_t cursor = 0;
    std::size_t pending_count = 0;  ///< Set bits over all tenants.
    double deficit = 0.0;
  };
  /// Where an entity lives, for O(1) activate().
  struct Slot {
    std::int32_t level = -1;  ///< -1: not scheduled.
    std::uint32_t tenant = 0;
    std::uint32_t index = 0;
  };

  /// A sendable entity located by find_sendable, with the round-robin
  /// positions needed to commit the scan (advance the cursors) only if the
  /// caller actually serves it.  Locate-then-commit keeps `sendable` invoked
  /// once per scanned entity.
  /// No member initializers: next()'s per-level memo stays uninitialized
  /// until a level is scanned (find_sendable value-initializes its result).
  struct Found {
    std::uint64_t entity;
    std::int32_t size;
    std::size_t tenant_off;  ///< Tenant offset from level.cursor.
    std::size_t entity_idx;  ///< Index into the tenant's entity list.
  };

  /// First sendable entity of `level` in round-robin order: tenants from the
  /// level cursor, entities from each tenant's cursor, both circular. Only
  /// set bits are evaluated; an idle result clears the entity's bit.
  template <typename Sendable>
  [[nodiscard]] Found find_sendable(Level& level, Sendable& sendable) {
    Found f{};
    if (level.pending_count == 0) return f;
    const std::size_t nt = level.tenants.size();
    for (std::size_t t = 0; t < nt; ++t) {
      TenantQueue& tq = level.tenants[(level.cursor + t) % nt];
      if (tq.pending_count == 0) continue;
      if (scan_bits(level, tq, tq.cursor, tq.entities.size(), sendable, f) ||
          scan_bits(level, tq, 0, tq.cursor, sendable, f)) {
        f.tenant_off = t;
        return f;
      }
    }
    return f;
  }

  /// Evaluates the set bits of `tq` in [lo, hi) in index order. Stops at the
  /// first sendable entity (filling `f`); clears the bits of idle ones.
  template <typename Sendable>
  static bool scan_bits(Level& level, TenantQueue& tq, std::size_t lo, std::size_t hi,
                        Sendable& sendable, Found& f) {
    for (std::size_t w = lo / 64; w * 64 < hi; ++w) {
      std::uint64_t bits = tq.pending[w];
      if (w == lo / 64) bits &= ~std::uint64_t{0} << (lo % 64);
      if (hi < (w + 1) * 64) bits &= (std::uint64_t{1} << (hi % 64)) - 1;
      while (bits != 0) {
        const auto b = static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::size_t i = w * 64 + b;
        const std::int32_t size = sendable(tq.entities[i]);
        if (size > 0) {
          f.entity = tq.entities[i];
          f.size = size;
          f.entity_idx = i;
          return true;
        }
        if (size < 0) {
          tq.pending[w] &= ~(std::uint64_t{1} << b);
          --tq.pending_count;
          --level.pending_count;
        }
      }
    }
    return false;
  }

  /// `deficit` after the rotation moves onto level `li`: its quantum (which
  /// doubles per level), capped at two quanta.
  [[nodiscard]] double grant(int li, double deficit) const {
    const double level_quantum = static_cast<double>(quantum_) * static_cast<double>(1 << li);
    return std::min(deficit + level_quantum, 2.0 * level_quantum);
  }

  /// A pull with no pending bit on any level: the DRR loop would evaluate
  /// nothing, only step the rotation 16 times (twice round, so it ends where
  /// it started) and fall through the fallback.  Its net effect, in O(levels):
  /// each level is granted twice, and each nonempty level forfeits its
  /// deficit whenever the rotation stands on it.  A nonempty level's last
  /// event is a forfeit — except the starting level, regranted on the last
  /// step — and an empty level just takes both grants.
  void idle_miss() {
    for (int li = 0; li < kLevels; ++li) {
      Level& L = levels_[li];
      if (L.tenants.empty()) {
        L.deficit = grant(li, grant(li, L.deficit));
      } else {
        L.deficit = li == rr_level_ ? grant(li, 0.0) : 0.0;
      }
    }
  }

  /// Advances the round-robin cursors past the entity `f` that was served.
  static void commit(Level& level, const Found& f) {
    TenantQueue& tq = level.tenants[(level.cursor + f.tenant_off) % level.tenants.size()];
    tq.cursor = (f.entity_idx + 1) % tq.entities.size();
    level.cursor = (level.cursor + f.tenant_off + 1) % level.tenants.size();
  }

  [[nodiscard]] int weight_to_level(double weight) const;
  TenantQueue* find_tenant(Level& level, TenantId tenant);
  /// Rewrites the slots of every entity in level `li` (after a tenant or
  /// entity erase shifted positions).
  void reindex(int li);

  double base_weight_;
  std::int32_t quantum_;
  Level levels_[kLevels];
  std::unordered_map<std::int32_t, int> tenant_level_;  // TenantId value -> level
  std::vector<Slot> slot_of_;                           // entity id -> position
  std::size_t entity_count_ = 0;
  int rr_level_ = 0;
};

}  // namespace ufab::edge
