// Unit tests for the hierarchical WFQ scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/rng.hpp"
#include "src/ufab/wfq.hpp"

namespace ufab::edge {
namespace {

/// The full-scan scheduler the backlog index replaced, kept verbatim (minus
/// the profiler scope) as the differential reference: every visit to a level
/// evaluates the predicate on its entities in round-robin order until one is
/// sendable, and a miss revisits levels up to three times.
class ReferenceWfq {
 public:
  static constexpr int kLevels = 8;

  explicit ReferenceWfq(double base_weight = 1.0, std::int32_t quantum_bytes = 1500)
      : base_weight_(base_weight), quantum_(quantum_bytes) {}

  void set_tenant_weight(TenantId tenant, double weight) {
    const int level = weight_to_level(weight);
    auto it = tenant_level_.find(tenant.value());
    if (it != tenant_level_.end() && it->second == level) return;
    // Move existing entities if the tenant changes level.
    std::vector<std::uint64_t> moved;
    if (it != tenant_level_.end()) {
      Level& old = levels_[it->second];
      if (TenantQueue* tq = find_tenant(old, tenant)) {
        moved = std::move(tq->entities);
        old.tenants.erase(old.tenants.begin() + (tq - old.tenants.data()));
        old.cursor = 0;
      }
    }
    tenant_level_[tenant.value()] = level;
    if (!moved.empty()) {
      levels_[level].tenants.push_back(TenantQueue{tenant, std::move(moved), 0});
    }
  }

  void add(TenantId tenant, std::uint64_t entity) {
    auto it = tenant_level_.find(tenant.value());
    const int level = it != tenant_level_.end() ? it->second : weight_to_level(base_weight_);
    if (it == tenant_level_.end()) tenant_level_[tenant.value()] = level;
    Level& L = levels_[level];
    TenantQueue* tq = find_tenant(L, tenant);
    if (tq == nullptr) {
      L.tenants.push_back(TenantQueue{tenant, {}, 0});
      tq = &L.tenants.back();
    }
    tq->entities.push_back(entity);
    ++entity_count_;
  }

  void remove(TenantId tenant, std::uint64_t entity) {
    auto it = tenant_level_.find(tenant.value());
    if (it == tenant_level_.end()) return;
    Level& L = levels_[it->second];
    TenantQueue* tq = find_tenant(L, tenant);
    if (tq == nullptr) return;
    auto pos = std::find(tq->entities.begin(), tq->entities.end(), entity);
    if (pos == tq->entities.end()) return;
    tq->entities.erase(pos);
    tq->cursor = 0;
    --entity_count_;
    if (tq->entities.empty()) {
      L.tenants.erase(L.tenants.begin() + (tq - L.tenants.data()));
      L.cursor = 0;
    }
  }

  template <typename Sendable>
  std::uint64_t next(Sendable&& sendable) {
    for (int i = 0; i < 2 * kLevels; ++i) {
      Level& L = levels_[rr_level_];
      if (!L.tenants.empty()) {
        const Found f = find_sendable(L, sendable);
        if (f.entity != 0 && L.deficit >= f.size) {
          commit(L, f);
          L.deficit -= f.size;
          return f.entity;
        }
        if (f.entity == 0) L.deficit = 0.0;
      }
      rr_level_ = (rr_level_ + 1) % kLevels;
      Level& N = levels_[rr_level_];
      const double level_quantum =
          static_cast<double>(quantum_) * static_cast<double>(1 << rr_level_);
      N.deficit = std::min(N.deficit + level_quantum, 2.0 * level_quantum);
    }
    for (int li = 0; li < kLevels; ++li) {
      Level& L = levels_[li];
      if (L.tenants.empty()) continue;
      const Found f = find_sendable(L, sendable);
      if (f.entity == 0) continue;
      commit(L, f);
      L.deficit -= f.size;
      return f.entity;
    }
    return 0;
  }

  [[nodiscard]] int level_of(TenantId tenant) const {
    auto it = tenant_level_.find(tenant.value());
    return it == tenant_level_.end() ? 0 : it->second;
  }
  [[nodiscard]] std::size_t entity_count() const { return entity_count_; }
  [[nodiscard]] double deficit(int level) const { return levels_[level].deficit; }
  [[nodiscard]] int rotation() const { return rr_level_; }

 private:
  struct TenantQueue {
    TenantId tenant;
    std::vector<std::uint64_t> entities;
    std::size_t cursor = 0;
  };
  struct Level {
    std::vector<TenantQueue> tenants;
    std::size_t cursor = 0;
    double deficit = 0.0;
  };
  struct Found {
    std::uint64_t entity = 0;
    std::int32_t size = 0;
    std::size_t tenant_off = 0;
    std::size_t entity_idx = 0;
  };

  template <typename Sendable>
  [[nodiscard]] Found find_sendable(Level& level, Sendable& sendable) const {
    Found f;
    const std::size_t nt = level.tenants.size();
    for (std::size_t t = 0; t < nt; ++t) {
      const TenantQueue& tq = level.tenants[(level.cursor + t) % nt];
      const std::size_t ne = tq.entities.size();
      for (std::size_t e = 0; e < ne; ++e) {
        const std::size_t ei = (tq.cursor + e) % ne;
        const std::uint64_t entity = tq.entities[ei];
        const std::int32_t size = sendable(entity);
        if (size > 0) {
          f.entity = entity;
          f.size = size;
          f.tenant_off = t;
          f.entity_idx = ei;
          return f;
        }
      }
    }
    return f;
  }

  static void commit(Level& level, const Found& f) {
    TenantQueue& tq = level.tenants[(level.cursor + f.tenant_off) % level.tenants.size()];
    tq.cursor = (f.entity_idx + 1) % tq.entities.size();
    level.cursor = (level.cursor + f.tenant_off + 1) % level.tenants.size();
  }

  [[nodiscard]] int weight_to_level(double weight) const {
    if (weight <= base_weight_) return 0;
    const int level = static_cast<int>(std::floor(std::log2(weight / base_weight_) + 0.5));
    return std::clamp(level, 0, kLevels - 1);
  }
  TenantQueue* find_tenant(Level& level, TenantId tenant) {
    for (auto& tq : level.tenants) {
      if (tq.tenant == tenant) return &tq;
    }
    return nullptr;
  }

  double base_weight_;
  std::int32_t quantum_;
  Level levels_[kLevels];
  std::unordered_map<std::int32_t, int> tenant_level_;
  std::size_t entity_count_ = 0;
  int rr_level_ = 0;
};

/// Runs `rounds` pulls with every entity always sendable at `pkt` bytes and
/// returns bytes served per entity.
std::map<std::uint64_t, std::int64_t> serve(WfqScheduler& wfq, int rounds, std::int32_t pkt) {
  std::map<std::uint64_t, std::int64_t> bytes;
  for (int i = 0; i < rounds; ++i) {
    const std::uint64_t e = wfq.next([pkt](std::uint64_t) { return pkt; });
    if (e == 0) break;
    bytes[e] += pkt;
  }
  return bytes;
}

TEST(Wfq, EmptySchedulerReturnsZero) {
  WfqScheduler wfq;
  EXPECT_EQ(wfq.next([](std::uint64_t) { return 1500; }), 0u);
}

TEST(Wfq, SingleEntityAlwaysServed) {
  WfqScheduler wfq;
  wfq.set_tenant_weight(TenantId{0}, 1.0);
  wfq.add(TenantId{0}, 7);
  const auto bytes = serve(wfq, 10, 1500);
  EXPECT_EQ(bytes.at(7), 15'000);
}

TEST(Wfq, EqualWeightsShareEqually) {
  WfqScheduler wfq(1.0);
  wfq.set_tenant_weight(TenantId{0}, 1.0);
  wfq.set_tenant_weight(TenantId{1}, 1.0);
  wfq.add(TenantId{0}, 1);
  wfq.add(TenantId{1}, 2);
  const auto bytes = serve(wfq, 1000, 1500);
  EXPECT_NEAR(static_cast<double>(bytes.at(1)) / static_cast<double>(bytes.at(2)), 1.0, 0.05);
}

TEST(Wfq, WeightedSharesFollowLevels) {
  WfqScheduler wfq(1.0);
  wfq.set_tenant_weight(TenantId{0}, 1.0);  // level 0
  wfq.set_tenant_weight(TenantId{1}, 4.0);  // level 2
  wfq.add(TenantId{0}, 1);
  wfq.add(TenantId{1}, 2);
  const auto bytes = serve(wfq, 5000, 1500);
  const double ratio = static_cast<double>(bytes.at(2)) / static_cast<double>(bytes.at(1));
  EXPECT_NEAR(ratio, 4.0, 0.8);
}

TEST(Wfq, WeightsQuantizedToEightLevels) {
  WfqScheduler wfq(1.0);
  EXPECT_EQ(wfq.level_of(TenantId{9}), 0);  // unknown tenant
  wfq.set_tenant_weight(TenantId{0}, 0.25);
  wfq.set_tenant_weight(TenantId{1}, 1.0);
  wfq.set_tenant_weight(TenantId{2}, 2.0);
  wfq.set_tenant_weight(TenantId{3}, 1000.0);  // clamped to top level
  EXPECT_EQ(wfq.level_of(TenantId{0}), 0);
  EXPECT_EQ(wfq.level_of(TenantId{1}), 0);
  EXPECT_EQ(wfq.level_of(TenantId{2}), 1);
  EXPECT_EQ(wfq.level_of(TenantId{3}), 7);
}

TEST(Wfq, RoundRobinWithinTenant) {
  WfqScheduler wfq;
  wfq.set_tenant_weight(TenantId{0}, 1.0);
  wfq.add(TenantId{0}, 1);
  wfq.add(TenantId{0}, 2);
  wfq.add(TenantId{0}, 3);
  const auto bytes = serve(wfq, 300, 1000);
  EXPECT_EQ(bytes.at(1), bytes.at(2));
  EXPECT_EQ(bytes.at(2), bytes.at(3));
}

TEST(Wfq, SkipsUnsendableEntities) {
  WfqScheduler wfq;
  wfq.set_tenant_weight(TenantId{0}, 1.0);
  wfq.add(TenantId{0}, 1);
  wfq.add(TenantId{0}, 2);
  // Entity 1 never sendable.
  std::int64_t served2 = 0;
  for (int i = 0; i < 50; ++i) {
    const auto e = wfq.next([](std::uint64_t ent) { return ent == 2 ? 1500 : 0; });
    ASSERT_NE(e, 1u);
    if (e == 2) ++served2;
  }
  EXPECT_EQ(served2, 50);
}

TEST(Wfq, RemoveStopsService) {
  WfqScheduler wfq;
  wfq.set_tenant_weight(TenantId{0}, 1.0);
  wfq.add(TenantId{0}, 1);
  wfq.remove(TenantId{0}, 1);
  EXPECT_EQ(wfq.next([](std::uint64_t) { return 1500; }), 0u);
  EXPECT_EQ(wfq.entity_count(), 0u);
}

TEST(Wfq, TenantWeightChangeMovesEntities) {
  WfqScheduler wfq(1.0);
  wfq.set_tenant_weight(TenantId{0}, 1.0);
  wfq.add(TenantId{0}, 1);
  wfq.set_tenant_weight(TenantId{0}, 128.0);  // move to level 7
  EXPECT_EQ(wfq.level_of(TenantId{0}), 7);
  // Still schedulable after the move.
  EXPECT_EQ(wfq.next([](std::uint64_t) { return 1500; }), 1u);
}

TEST(Wfq, WorkConservingUnderMixedLoad) {
  // Even when high-weight levels dominate, low levels are never starved.
  WfqScheduler wfq(1.0);
  wfq.set_tenant_weight(TenantId{0}, 1.0);
  wfq.set_tenant_weight(TenantId{1}, 128.0);
  wfq.add(TenantId{0}, 1);
  wfq.add(TenantId{1}, 2);
  const auto bytes = serve(wfq, 4000, 1500);
  EXPECT_GT(bytes.at(1), 0);
  EXPECT_GT(bytes.at(2), bytes.at(1));
}

TEST(Wfq, ParkedIdleEntityWaitsForActivate) {
  WfqScheduler wfq;
  wfq.set_tenant_weight(TenantId{0}, 1.0);
  for (std::uint64_t e = 1; e <= 3; ++e) wfq.add(TenantId{0}, e);
  bool backlog[4] = {false, true, false, true};
  int evals[4] = {};
  const auto sendable = [&](std::uint64_t e) -> std::int32_t {
    ++evals[e];
    return backlog[e] ? 1000 : -1;
  };
  EXPECT_EQ(wfq.next(sendable), 1u);
  EXPECT_EQ(wfq.next(sendable), 3u);  // 2 reports idle on the way and is parked
  EXPECT_EQ(evals[2], 1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(wfq.next(sendable), i % 2 == 0 ? 1u : 3u);
  EXPECT_EQ(evals[2], 1);  // never asked again while parked
  // Entity 2 gains work right after 1 was served: it resumes at its
  // round-robin position, ahead of 3.
  EXPECT_EQ(wfq.next(sendable), 1u);
  backlog[2] = true;
  wfq.activate(2);
  EXPECT_EQ(wfq.next(sendable), 2u);
  EXPECT_EQ(wfq.next(sendable), 3u);
  EXPECT_EQ(wfq.next(sendable), 1u);
  EXPECT_EQ(evals[2], 2);
}

TEST(Wfq, BlockedEntityKeepsBeingAsked) {
  WfqScheduler wfq;
  wfq.set_tenant_weight(TenantId{0}, 1.0);
  wfq.add(TenantId{0}, 1);
  bool blocked = true;
  int evals = 0;
  const auto sendable = [&](std::uint64_t) -> std::int32_t {
    ++evals;
    return blocked ? 0 : 1500;
  };
  EXPECT_EQ(wfq.next(sendable), 0u);
  EXPECT_EQ(wfq.next(sendable), 0u);
  EXPECT_EQ(evals, 2);  // one scan per pull, and a blocked entity stays armed
  blocked = false;      // no activate(): blocked is not idle
  EXPECT_EQ(wfq.next(sendable), 1u);
}

TEST(Wfq, ActivateIgnoresUnknownEntities) {
  WfqScheduler wfq;
  wfq.set_tenant_weight(TenantId{0}, 1.0);
  wfq.add(TenantId{0}, 2);
  wfq.activate(0);
  wfq.activate(1);
  wfq.activate(99);
  wfq.remove(TenantId{0}, 2);
  wfq.activate(2);
  EXPECT_EQ(wfq.next([](std::uint64_t) { return 1500; }), 0u);
}

/// Asserts that both schedulers hold the same DRR rotation and deficits.
void expect_same_drr(const WfqScheduler& fast, const ReferenceWfq& ref, int pull) {
  ASSERT_EQ(fast.rotation(), ref.rotation()) << "pull " << pull;
  for (int li = 0; li < WfqScheduler::kLevels; ++li) {
    ASSERT_EQ(fast.deficit(li), ref.deficit(li)) << "pull " << pull << " level " << li;
  }
}

TEST(Wfq, IdleMissMatchesReferenceRotation) {
  // Level 0 borrows through the work-conserving fallback (a 9000-byte packet
  // never fits its 3000-byte deficit cap), then loses its last tenant while
  // the deficit is still negative, leaving no pending bit anywhere.  All-idle
  // pulls must regrant it from below zero exactly as the stepped rotation
  // does, and zero the deficits of nonempty levels except the one the
  // rotation stands on.
  WfqScheduler fast(1.0);
  ReferenceWfq ref(1.0);
  for (const auto& [tenant, weight] : {std::pair{0, 1.0}, std::pair{1, 8.0}, std::pair{2, 64.0}}) {
    fast.set_tenant_weight(TenantId{tenant}, weight);
    ref.set_tenant_weight(TenantId{tenant}, weight);
  }
  for (const std::uint64_t e : {1u, 2u, 3u}) {
    fast.add(TenantId{static_cast<std::int32_t>(e - 1)}, e);
    ref.add(TenantId{static_cast<std::int32_t>(e - 1)}, e);
  }
  bool busy[4] = {false, true, false, false};
  const auto pred = [&busy](std::uint64_t e) -> std::int32_t {
    if (!busy[e]) return -1;
    return e == 1 ? 9000 : 1500;
  };
  ASSERT_EQ(fast.next(pred), 1u);  // the scan also parks idle entities 2, 3
  ASSERT_EQ(ref.next(pred), 1u);
  expect_same_drr(fast, ref, 0);
  fast.remove(TenantId{0}, 1);
  ref.remove(TenantId{0}, 1);
  busy[1] = false;
  ASSERT_EQ(fast.deficit(0), -6000.0);
  int pull = 1;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i, ++pull) {
      ASSERT_EQ(fast.next(pred), 0u);
      ASSERT_EQ(ref.next(pred), 0u);
      expect_same_drr(fast, ref, pull);
      if (round == 0 && i == 0) {
        EXPECT_EQ(fast.deficit(0), -3000.0);  // regranted twice, still borrowing
      }
    }
    // Served pulls move the rotation before the next idle stretch.  Then
    // the backlog drains; the stretch's first pull clears the stale bits.
    busy[2 + round % 2] = true;
    fast.activate(2);
    fast.activate(3);
    for (int i = 0; i < 4 + round; ++i, ++pull) {
      ASSERT_EQ(fast.next(pred), ref.next(pred)) << "pull " << pull;
      expect_same_drr(fast, ref, pull);
    }
    busy[2] = busy[3] = false;
  }
}

/// Shape of one differential script.
struct DiffShape {
  std::uint64_t seed;
  int tenants;
  std::uint64_t max_entities;  ///< Entity ids are 1..max_entities.
  int pulls;
};

/// Drives the indexed scheduler and the full-scan reference with one seeded
/// script of adds, removes, level moves, backlog flips and blocked/idle
/// predicate results, and checks that both pick the same entity every pull.
void run_differential(const DiffShape& shape) {
  Rng rng(shape.seed);
  WfqScheduler fast(1.0);
  ReferenceWfq ref(1.0);
  struct State {
    bool registered = false;
    TenantId tenant{0};
    bool backlog = false;
    bool blocked = false;
    std::int32_t size = 1500;
  };
  std::vector<State> st(shape.max_entities + 1);
  const auto random_weight = [&] { return static_cast<double>(1u << rng.below(9)); };
  const auto random_entity = [&] { return 1 + rng.below(shape.max_entities); };
  for (int t = 0; t < shape.tenants; ++t) {
    const double w = random_weight();
    fast.set_tenant_weight(TenantId{t}, w);
    ref.set_tenant_weight(TenantId{t}, w);
  }
  const auto add = [&](std::uint64_t e) {
    State& s = st[e];
    s.registered = true;
    s.tenant = TenantId{static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(shape.tenants)))};
    s.backlog = rng.below(2) == 0;
    s.blocked = rng.below(4) == 0;
    fast.add(s.tenant, e);
    ref.add(s.tenant, e);
  };
  for (std::uint64_t e = 1; e <= shape.max_entities; ++e) {
    if (rng.below(4) != 0) add(e);
  }

  std::int64_t fast_evals = 0;
  std::int64_t ref_evals = 0;
  int served = 0;
  int pull = 0;
  const auto pred = [&st](std::int64_t& evals) {
    return [&st, &evals](std::uint64_t ent) -> std::int32_t {
      ++evals;
      const State& x = st[ent];
      EXPECT_TRUE(x.registered);
      if (!x.backlog) return -1;
      if (x.blocked) return 0;
      return x.size;
    };
  };
  const auto pull_both = [&] {
    const std::uint64_t got = fast.next(pred(fast_evals));
    return std::pair{got, ref.next(pred(ref_evals))};
  };
  while (pull < shape.pulls) {
    const std::uint64_t op = rng.below(100);
    const std::uint64_t e = random_entity();
    State& s = st[e];
    if (op < 2) {
      if (!s.registered) add(e);
    } else if (op < 4) {
      if (s.registered) {
        fast.remove(s.tenant, e);
        ref.remove(s.tenant, e);
        s = State{};
      }
    } else if (op < 5) {
      const TenantId t{static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(shape.tenants)))};
      const double w = random_weight();
      fast.set_tenant_weight(t, w);
      ref.set_tenant_weight(t, w);
      ASSERT_EQ(fast.level_of(t), ref.level_of(t));
    } else if (op < 20) {
      // New work: the only transition that needs activate().
      if (!s.backlog) {
        s.backlog = true;
        fast.activate(e);
      }
    } else if (op < 23) {
      fast.activate(e);  // spurious re-arm: always allowed
    } else if (op < 30) {
      s.backlog = false;  // work drained elsewhere: needs no call
    } else if (op < 40) {
      s.blocked = !s.blocked;  // admission/pacing change: needs no call
    } else if (op == 40 && rng.below(4) == 0) {
      // An all-idle stretch: every backlog drains, and a run of pulls finds
      // nothing (after the first clears the stale bits, no level has any).
      for (State& x : st) x.backlog = false;
      for (std::uint64_t i = 1 + rng.below(40); i > 0; --i) {
        const auto [got, want] = pull_both();
        ASSERT_EQ(got, 0u) << "seed " << shape.seed << " pull " << pull;
        ASSERT_EQ(want, 0u) << "seed " << shape.seed << " pull " << pull;
        expect_same_drr(fast, ref, pull);
        if (::testing::Test::HasFatalFailure()) return;
      }
    } else {
      ++pull;
      const auto [got, want] = pull_both();
      ASSERT_EQ(got, want) << "seed " << shape.seed << " pull " << pull;
      if (got != 0) {
        ++served;
        State& x = st[got];
        if (rng.below(4) == 0) x.backlog = false;
        x.size = static_cast<std::int32_t>(64 + rng.below(1437));
      }
      expect_same_drr(fast, ref, pull);
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_EQ(fast.entity_count(), ref.entity_count());
  }
  EXPECT_GT(served, shape.pulls / 4);
  EXPECT_LT(fast_evals, ref_evals);
}

TEST(Wfq, BacklogIndexMatchesFullScanSmallTenants) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    run_differential(DiffShape{seed, 6, 48, 100'000});
    if (HasFatalFailure()) return;
  }
}

TEST(Wfq, BacklogIndexMatchesFullScanWideTenants) {
  // Up to ~150 entities per tenant: bitsets span several 64-bit words.
  run_differential(DiffShape{7, 2, 300, 100'000});
}

}  // namespace
}  // namespace ufab::edge
