// The calendar-queue future-event list must be observationally identical to
// the straightforward reference: a priority queue over the engine's canonical
// (time, h, k) keys — h the scheduling parent's identity (the root identity
// for setup code), k the parent's child counter, so ties keep FIFO order
// within one parent.  These tests drive both through the same randomized schedules
// — including events scheduled from inside running events, far-horizon events
// that live in the overflow tier, and same-time bursts — and require the
// exact same firing order.  Built without NDEBUG, every push also checks that
// no two pending events share a (time, h, k) key, so the engine's final
// slab-index compare never decides the order these tests compare.
//
// The remaining tests cover the closure slab the calendar keys point into:
// growth while a closure runs, LIFO slot reuse, and teardown of pending
// packet-owning closures on a sharded engine.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <queue>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/time.hpp"
#include "src/sim/packet.hpp"
#include "src/sim/simulator.hpp"

namespace ufab::sim {
namespace {

/// Reference future-event list: the semantics the simulator must preserve.
class ReferenceQueue {
 public:
  /// Schedules from setup code: a child of the root identity.
  void at(std::int64_t t, int label) {
    heap_.push(Ref{t, Simulator::kRootIdentity, root_k_++, label});
  }

  /// Pops every event in (time, h, k) order, invoking `child_fn(label)` to
  /// get the same follow-up events the simulator's callbacks schedule, keyed
  /// as children of the popped event.
  template <typename ChildFn>
  std::vector<int> drain(const ChildFn& child_fn) {
    std::vector<int> order;
    while (!heap_.empty()) {
      const Ref top = heap_.top();
      heap_.pop();
      order.push_back(top.label);
      const std::uint64_t parent = Simulator::event_identity(top.h, top.k);
      std::uint32_t k = 0;
      for (const auto& [dt, child_label] : child_fn(top.label)) {
        heap_.push(Ref{top.t + dt, parent, k++, child_label});
      }
    }
    return order;
  }

 private:
  struct Ref {
    std::int64_t t;
    std::uint64_t h;
    std::uint32_t k;
    int label;
    bool operator>(const Ref& o) const {
      if (t != o.t) return t > o.t;
      if (h != o.h) return h > o.h;
      return k > o.k;
    }
  };
  std::priority_queue<Ref, std::vector<Ref>, std::greater<>> heap_;
  std::uint32_t root_k_ = 0;
};

/// Children are a pure function of the parent label, so the reference and the
/// simulator generate identical follow-up schedules independently.  Labels
/// past the cutoff are leaves; without it the `% 5` chain would self-sustain
/// (300'000 is divisible by 5) and the schedule would never drain.
std::vector<std::pair<std::int64_t, int>> children_of(int label) {
  std::vector<std::pair<std::int64_t, int>> out;
  if (label >= 1'000'000) return out;
  if (label % 7 == 0) out.push_back({1, label + 100'000});            // same-ish time
  if (label % 11 == 0) out.push_back({700'000, label + 200'000});     // overflow horizon
  if (label % 5 == 0) out.push_back({(label % 97) * 13, label + 300'000});
  return out;
}

TEST(CalendarQueue, RandomizedOrderMatchesReference) {
  std::mt19937_64 rng(12345);
  // Offsets span same-bucket, cross-bucket, and far-overflow horizons
  // (the near window is ~0.5 ms wide).
  std::uniform_int_distribution<std::int64_t> offset(0, 2'000'000);

  Simulator sim;
  ReferenceQueue ref;
  std::vector<int> sim_order;

  // The recursive scheduling helper the simulator side uses.
  struct Scheduler {
    Simulator& sim;
    std::vector<int>& order;
    void fire(int label) {
      order.push_back(label);
      for (const auto& [dt, child] : children_of(label)) {
        sim.after(TimeNs{dt}, [this, child] { fire(child); });
      }
    }
  } scheduler{sim, sim_order};

  constexpr int kEvents = 5000;
  for (int i = 0; i < kEvents; ++i) {
    const std::int64_t t = offset(rng);
    sim.at(TimeNs{t}, [&scheduler, i] { scheduler.fire(i); });
    ref.at(t, i);
  }
  sim.run();
  const std::vector<int> ref_order = ref.drain(children_of);

  ASSERT_EQ(sim_order.size(), ref_order.size());
  EXPECT_EQ(sim_order, ref_order);
  EXPECT_EQ(sim.events_processed(), sim_order.size());
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(CalendarQueue, FifoTieBreakSurvivesOverflowMigration) {
  Simulator sim;
  std::vector<int> order;
  // All at the same instant, but scheduled on both sides of the near-horizon
  // window: the first batch goes to the overflow tier, then the clock moves
  // close enough that the second batch lands in the ring directly.  FIFO
  // order must still hold across the tiers.
  const TimeNs t{1'000'000};  // 1 ms out: beyond the ~0.5 ms window
  for (int i = 0; i < 5; ++i) {
    sim.at(t, [&order, i] { order.push_back(i); });
  }
  sim.run_until(TimeNs{900'000});  // now the target is inside the window
  for (int i = 5; i < 10; ++i) {
    sim.at(t, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(CalendarQueue, CursorRewindsForEarlierEvent) {
  Simulator sim;
  std::vector<int> order;
  // Peeking at a far event advances the bucket cursor; a later schedule into
  // an earlier (still future) bucket must rewind it or the event is lost.
  sim.at(TimeNs{10'000}, [&order] { order.push_back(1); });
  sim.run_until(TimeNs::zero());  // peeks, advancing the cursor to ~10 us
  sim.at(TimeNs{1'000}, [&order] { order.push_back(0); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(CalendarQueue, RecurringTimerCrossesWindowRepeatedly) {
  Simulator sim;
  // A self-rescheduling timer beyond the window exercises overflow push and
  // migration into the ring on every tick.
  int ticks = 0;
  struct Timer {
    Simulator& sim;
    int& ticks;
    void fire() {
      if (++ticks >= 200) return;
      sim.after(TimeNs{700'000}, [this] { fire(); });
    }
  } timer{sim, ticks};
  sim.after(TimeNs{700'000}, [&timer] { timer.fire(); });
  sim.run();
  EXPECT_EQ(ticks, 200);
  EXPECT_EQ(sim.now(), TimeNs{200 * 700'000});
  EXPECT_EQ(sim.events_processed(), 200u);
}

TEST(CalendarQueue, RunUntilBoundaryIsInclusive) {
  Simulator sim;
  std::vector<int> order;
  sim.at(TimeNs{100}, [&order] { order.push_back(0); });
  sim.at(TimeNs{200}, [&order] { order.push_back(1); });
  sim.at(TimeNs{201}, [&order] { order.push_back(2); });
  sim.run_until(TimeNs{200});
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(sim.now(), TimeNs{200});
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(CalendarQueue, SlabGrowsWhileAClosureRuns) {
  // One closure schedules more children than a slab chunk holds, so the slab
  // gains chunks while that closure is still executing from its own slot.
  // Its captures must still read back intact afterwards (under ASan a moved
  // or reused slot would be a use-after-free), and the children keep FIFO
  // order within each instant.
  constexpr int kChildren = 600;
  Simulator sim;
  std::vector<int> fired;
  std::array<std::uint64_t, 4> seen{};
  const std::array<std::uint64_t, 4> captured{0x0123456789ABCDEFull, 42, 7, ~0ull};
  sim.at(TimeNs{100}, [&sim, &fired, &seen, captured] {
    for (int i = 0; i < kChildren; ++i) {
      sim.after(TimeNs{1 + i % 3}, [&fired, i] { fired.push_back(i); });
    }
    seen = captured;
  });
  sim.run();
  EXPECT_EQ(seen, captured);
  EXPECT_GE(sim.shard_slab_chunks(0), 2u);
  std::vector<int> expected;
  for (int r = 0; r < 3; ++r) {
    for (int i = r; i < kChildren; i += 3) expected.push_back(i);
  }
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(sim.events_processed(), static_cast<std::uint64_t>(kChildren + 1));
}

TEST(CalendarQueue, RecurringOverflowTimerReusesOneSlabChunk) {
  // A far-horizon timer goes overflow -> ring -> fire 1e5 times; each firing
  // schedules its successor before its own slot is released, so two slots
  // alternate and the slab never grows past its first chunk.
  constexpr int kTicks = 100'000;
  Simulator sim;
  int ticks = 0;
  struct Timer {
    Simulator& sim;
    int& ticks;
    void fire() {
      if (++ticks >= kTicks) return;
      sim.after(TimeNs{700'000}, [this] { fire(); });
    }
  } timer{sim, ticks};
  sim.after(TimeNs{700'000}, [&timer] { timer.fire(); });
  sim.run();
  EXPECT_EQ(ticks, kTicks);
  EXPECT_EQ(sim.events_processed(), static_cast<std::uint64_t>(kTicks));
  EXPECT_EQ(sim.shard_slab_chunks(0), 1u);
}

/// An event capture owning one packet.  When the last such capture dies it
/// records every shard pool's in-use count, which shows whether pending
/// closures were destroyed while all pools were still alive and took every
/// packet home.  `live` is atomic: captures that fire before the cut die on
/// the shards' worker threads.
struct OwnedPacket {
  PacketPtr pkt;
  const Simulator* sim;
  std::atomic<int>* live;
  std::vector<std::size_t>* in_use_at_last;

  OwnedPacket(PacketPtr p, const Simulator* s, std::atomic<int>* l,
              std::vector<std::size_t>* out)
      : pkt(std::move(p)), sim(s), live(l), in_use_at_last(out) {}
  OwnedPacket(OwnedPacket&&) noexcept = default;
  OwnedPacket(const OwnedPacket&) = delete;
  OwnedPacket& operator=(const OwnedPacket&) = delete;
  OwnedPacket& operator=(OwnedPacket&&) = delete;
  ~OwnedPacket() {
    if (pkt == nullptr) return;  // moved from
    pkt.reset();
    if (live->fetch_sub(1) > 1) return;
    for (int i = 0; i < sim->shard_count(); ++i) {
      in_use_at_last->push_back(sim->shard_pool(i).in_use());
    }
  }
  void operator()() const {}
};

TEST(CalendarQueue, ShardedCutTeardownReturnsEveryPacket) {
  // Four threaded shards, each calendar holding packets born in every
  // shard's pool, cut by run_until with ring- and overflow-tier events still
  // pending.  Teardown must destroy those closures before any pool dies.
  constexpr int kShards = 4;
  std::atomic<int> live = 0;
  std::vector<std::size_t> in_use_at_last;
  {
    Simulator sim;
    sim.configure_shards(kShards, TimeNs{1'000}, ShardExec::kThreads);
    for (int owner = 0; owner < kShards; ++owner) {
      for (int born = 0; born < kShards; ++born) {
        for (int i = 0; i < 12; ++i) {
          PacketPtr pkt;
          {
            const auto scope = sim.scoped(born);
            pkt = make_packet(sim.packet_pool(), PacketKind::kData, VmPairId{VmId{1}, VmId{2}},
                              TenantId{0}, HostId{0}, HostId{1}, 1500);
          }
          // Fired before the cut, pending in the ring, or pending in overflow.
          const TimeNs t{i % 3 == 0 ? 10'000 + i : i % 3 == 1 ? 200'000 + i : 900'000 + i};
          const auto scope = sim.scoped(owner);
          ++live;
          sim.at(t, OwnedPacket(std::move(pkt), &sim, &live, &in_use_at_last));
        }
      }
    }
    sim.run_until(TimeNs{100'000});
    EXPECT_EQ(sim.pending(), static_cast<std::size_t>(kShards * kShards * 8));
    for (int s = 0; s < kShards; ++s) EXPECT_EQ(sim.shard_pool(s).in_use(), 32u);
  }
  EXPECT_EQ(live.load(), 0);
  EXPECT_EQ(in_use_at_last, std::vector<std::size_t>(kShards, 0));
}

}  // namespace
}  // namespace ufab::sim
