// The one link serializer (DESIGN.md §13): one resident delivery event per
// busy link, with serializer ends that are either virtual (push links,
// replayed lazily) or clocked (real calendar events, for pull sources,
// wire-loss filters and flapped links).  The two kinds must be
// indistinguishable from outside: the same packets through a push link and
// through a link whose wire-loss filter never fires (which forces clocked
// serializer ends) give identical delivery times, TX counters, rate
// estimates, queue depths, drops and ECN marks — also when the filter or a
// flap mark is attached mid-stream, and across a flap.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/sim/link.hpp"
#include "src/sim/node.hpp"
#include "src/sim/simulator.hpp"

namespace ufab::sim {
namespace {

using namespace ufab::time_literals;
using namespace ufab::unit_literals;

class SinkNode : public Node {
 public:
  explicit SinkNode(Simulator& sim) : Node(NodeId{0}, "sink"), sim_(sim) {}
  void receive(PacketPtr pkt) override {
    arrivals.push_back({sim_.now(), std::move(pkt)});
  }
  std::vector<std::pair<TimeNs, PacketPtr>> arrivals;

 private:
  Simulator& sim_;
};

PacketPtr make_data(std::int32_t bytes) {
  return Packet::make(PacketKind::kData, VmPairId{VmId{0}, VmId{1}}, TenantId{0}, HostId{0},
                      HostId{1}, bytes);
}

/// Forces clocked serializer ends without losing anything.
void attach_pass_filter(Link& link) {
  link.set_fault_filter([](const Packet&) { return false; });
}

/// A serial simulator with one link, virtual or clocked.
struct World {
  explicit World(bool clocked, TimeNs prop = 1_us, std::int64_t queue_limit = 1'000'000,
                 std::int64_t ecn_threshold = -1)
      : sink(sim) {
    link = std::make_unique<Link>(sim, LinkId{0}, "l", &sink,
                                  LinkConfig{10_Gbps, prop, queue_limit, ecn_threshold, 0.95});
    if (clocked) attach_pass_filter(*link);
  }
  Simulator sim;
  SinkNode sink;
  std::unique_ptr<Link> link;
};

TEST(FusedLink, ClockedMatchesVirtualDeliveryTimesAndCounters) {
  std::vector<std::pair<TimeNs, std::int32_t>> virtual_arrivals;
  for (const bool clocked : {false, true}) {
    World w(clocked);
    for (const std::int32_t bytes : {1500, 64, 1500, 9000, 300}) {
      w.link->enqueue(make_data(bytes));
    }
    w.sim.run();
    ASSERT_EQ(w.sink.arrivals.size(), 5u);
    if (!clocked) {
      for (const auto& [at, pkt] : w.sink.arrivals) {
        virtual_arrivals.push_back({at, pkt->size_bytes});
      }
      continue;
    }
    for (std::size_t i = 0; i < w.sink.arrivals.size(); ++i) {
      EXPECT_EQ(w.sink.arrivals[i].first, virtual_arrivals[i].first) << "packet " << i;
      EXPECT_EQ(w.sink.arrivals[i].second->size_bytes, virtual_arrivals[i].second);
    }
    EXPECT_EQ(w.link->tx_bytes_cum(), 1500 + 64 + 1500 + 9000 + 300);
    EXPECT_EQ(w.link->drops(), 0);
    EXPECT_EQ(w.link->pipe_depth(), 0u);
  }
}

TEST(FusedLink, OneResidentCalendarEventPerBusyLink) {
  // Long propagation: all eight packets serialize before the first arrives.
  // Both kinds hold them all behind a single head event; the clocked link
  // additionally ran one serializer-end event per packet.
  World virt(false, 100_us);
  World clocked(true, 100_us);
  for (int i = 0; i < 8; ++i) {
    virt.link->enqueue(make_data(1500));
    clocked.link->enqueue(make_data(1500));
  }
  // 8 x 1200 ns of serialization ends at 9.6 us; first delivery at 101.2 us.
  virt.sim.run_until(50_us);
  clocked.sim.run_until(50_us);
  EXPECT_EQ(virt.sim.pending(), 1u);  // the head departure only
  EXPECT_EQ(clocked.sim.pending(), 1u);
  EXPECT_EQ(virt.link->pipe_depth(), 8u);
  EXPECT_EQ(clocked.link->pipe_depth(), 8u);
  EXPECT_EQ(virt.link->tx_bytes_cum(), clocked.link->tx_bytes_cum());
  EXPECT_EQ(clocked.sim.events_processed(), 8u);
  virt.sim.run();
  clocked.sim.run();
  ASSERT_EQ(virt.sink.arrivals.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(virt.sink.arrivals[i].first, clocked.sink.arrivals[i].first);
  }
  // A virtual hop is one calendar event, a clocked hop two.
  EXPECT_EQ(virt.sim.events_processed(), 8u);
  EXPECT_EQ(clocked.sim.events_processed(), 16u);
}

TEST(FusedLink, TelemetryClockedMatchesVirtualMidStream) {
  World virt(false, 2_us);
  World clocked(true, 2_us);
  for (int i = 0; i < 6; ++i) {
    virt.link->enqueue(make_data(1500));
    clocked.link->enqueue(make_data(1500));
  }
  for (const TimeNs at : {TimeNs{1000}, TimeNs{1200}, TimeNs{2500}, TimeNs{5000}, TimeNs{9000}}) {
    virt.sim.run_until(at);
    clocked.sim.run_until(at);
    EXPECT_EQ(clocked.link->queue_bytes(), virt.link->queue_bytes()) << "at " << at.ns();
    EXPECT_EQ(clocked.link->tx_bytes_cum(), virt.link->tx_bytes_cum()) << "at " << at.ns();
    EXPECT_EQ(clocked.link->max_queue_bytes(), virt.link->max_queue_bytes()) << "at " << at.ns();
    EXPECT_DOUBLE_EQ(clocked.link->tx_rate().bits_per_sec(), virt.link->tx_rate().bits_per_sec())
        << "at " << at.ns();
  }
}

TEST(FusedLink, TailDropAndEcnClockedMatchVirtual) {
  // Tail drop: queue limit fits exactly two MTUs beyond the in-service
  // packet, so of five arrivals two must drop on both kinds of link.
  for (const bool clocked : {false, true}) {
    World w(clocked, 1_us, 3000);
    for (int i = 0; i < 5; ++i) w.link->enqueue(make_data(1500));
    w.sim.run();
    ASSERT_EQ(w.sink.arrivals.size(), 3u) << "clocked=" << clocked;
    EXPECT_EQ(w.link->drops(), 2) << "clocked=" << clocked;
  }
  // ECN: the mark pattern (which packets exceed the standing-queue
  // threshold at enqueue) must be identical packet by packet.
  World virt(false, 1_us, 1'000'000, 2000);
  World clocked(true, 1_us, 1'000'000, 2000);
  for (int i = 0; i < 4; ++i) {
    virt.link->enqueue(make_data(1500));
    clocked.link->enqueue(make_data(1500));
  }
  virt.sim.run();
  clocked.sim.run();
  ASSERT_EQ(virt.sink.arrivals.size(), 4u);
  ASSERT_EQ(clocked.sink.arrivals.size(), 4u);
  int marks = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(clocked.sink.arrivals[i].second->ecn_ce, virt.sink.arrivals[i].second->ecn_ce)
        << "packet " << i;
    marks += virt.sink.arrivals[i].second->ecn_ce ? 1 : 0;
  }
  EXPECT_GE(marks, 1);
  EXPECT_FALSE(virt.sink.arrivals[0].second->ecn_ce);
}

TEST(FusedLink, RapidFlapDoesNotWedgePipeline) {
  // An abort mid-serialization must free the pipe immediately and
  // neutralize the stale event (the head event of a virtual link, the
  // serializer end of a clocked one), so traffic after a fast re-enable
  // flows at once.
  for (const bool clocked : {false, true}) {
    World w(clocked);
    w.link->enqueue(make_data(1500));  // serializes during [0, 1200) ns
    w.sim.run_until(TimeNs{600});
    w.link->set_down(true);   // aborts mid-serialization
    w.link->set_down(false);  // immediate re-enable
    EXPECT_EQ(w.link->pipe_depth(), 0u);
    w.link->enqueue(make_data(1000));
    w.sim.run();
    ASSERT_EQ(w.sink.arrivals.size(), 1u) << "clocked=" << clocked;
    // New packet serializes during [600, 1400), arrives prop (1 us) later —
    // not at the aborted packet's old completion time.  The stale event
    // must not deliver anything.
    EXPECT_EQ(w.sink.arrivals[0].first, TimeNs{2400});
    EXPECT_EQ(w.link->drops(), 1);
    EXPECT_EQ(w.link->tx_bytes_cum(), 1000);
  }
}

TEST(FusedLink, SetDownKeepsPacketsAlreadyOnTheWire) {
  // Packets past their serializer end are propagating: they survive a
  // set_down and still arrive.
  for (const bool clocked : {false, true}) {
    World w(clocked, 100_us);
    for (int i = 0; i < 3; ++i) w.link->enqueue(make_data(1500));
    w.sim.run_until(10_us);  // all serialized (3.6 us), none delivered
    w.link->set_down(true);
    w.link->enqueue(make_data(1500));  // dropped on arrival: link is down
    w.sim.run();
    ASSERT_EQ(w.sink.arrivals.size(), 3u) << "clocked=" << clocked;
    EXPECT_EQ(w.sink.arrivals[2].first, TimeNs{103'600});
    EXPECT_EQ(w.link->drops(), 1);
    EXPECT_EQ(w.link->pipe_depth(), 0u);
  }
}

TEST(FusedLink, FlapMidPipelineDropsOnlyUnserializedSuffix) {
  // Mixed pipe at the moment of failure: one packet on the wire (kept), one
  // serializing plus one queued (both dropped).
  for (const bool clocked : {false, true}) {
    World w(clocked, 10_us);
    for (int i = 0; i < 3; ++i) w.link->enqueue(make_data(1500));  // ser-ends 1.2/2.4/3.6 us
    w.sim.run_until(TimeNs{1500});
    w.link->set_down(true);
    EXPECT_EQ(w.link->drops(), 2);
    EXPECT_EQ(w.link->pipe_depth(), 1u);  // the propagating packet
    w.link->set_down(false);
    w.link->enqueue(make_data(1000));  // serializes during [1500, 2300)
    w.sim.run();
    ASSERT_EQ(w.sink.arrivals.size(), 2u) << "clocked=" << clocked;
    EXPECT_EQ(w.sink.arrivals[0].first, TimeNs{11'200});  // survivor: 1.2 us + 10 us
    EXPECT_EQ(w.sink.arrivals[1].first, TimeNs{12'300});  // post-recovery packet
    EXPECT_EQ(w.link->tx_bytes_cum(), 1500 + 1000);
  }
}

TEST(FusedLink, ClockedModesTakeTwoEventsPerHop) {
  // Pull sources, wire-loss filters and flap marks clock the serializer
  // ends: a hop is one serializer-end event plus the delivery (none for a
  // packet lost on the wire); a virtual hop is the delivery alone.
  World pull(false);
  int remaining = 2;
  pull.link->set_source([&]() -> PacketPtr {
    if (remaining == 0) return nullptr;
    --remaining;
    return make_data(1000);
  });
  pull.link->kick();
  pull.sim.run();
  EXPECT_EQ(pull.sink.arrivals.size(), 2u);
  EXPECT_EQ(pull.sim.events_processed(), 4u);

  World flapped(false);
  flapped.link->mark_flapped();
  flapped.link->enqueue(make_data(1500));
  flapped.sim.run();
  EXPECT_EQ(flapped.sink.arrivals.size(), 1u);
  EXPECT_EQ(flapped.sim.events_processed(), 2u);

  World lossy(false);
  lossy.link->set_fault_filter([](const Packet&) { return true; });
  lossy.link->enqueue(make_data(1500));
  lossy.sim.run();
  EXPECT_EQ(lossy.sink.arrivals.size(), 0u);
  EXPECT_EQ(lossy.link->fault_drops(), 1);
  EXPECT_EQ(lossy.sim.events_processed(), 1u);

  World virt(false);
  virt.link->enqueue(make_data(1500));
  virt.sim.run();
  EXPECT_EQ(virt.sink.arrivals.size(), 1u);
  EXPECT_EQ(virt.sim.events_processed(), 1u);
  for (const World* w : {&pull, &flapped, &lossy, &virt}) EXPECT_EQ(w->link->pipe_depth(), 0u);
}

/// Observables of one link run, compared field by field.
struct LinkOutcome {
  std::vector<std::pair<TimeNs, std::int32_t>> arrivals;  ///< (time, bytes)
  std::vector<bool> ecn_marks;
  /// (queue_bytes, tx_rate bits/s) sampled after the mid-stream step.
  std::vector<std::pair<std::int64_t, double>> samples;
  std::int64_t drops = 0;
  std::int64_t fault_drops = 0;
  std::int64_t tx_bytes_cum = 0;
  std::int64_t max_queue_bytes = 0;

  bool operator==(const LinkOutcome&) const = default;
};

/// A burst against a short, ECN-marking queue (tail drops on both sides of
/// `mid`), with `attach` run on the link either before any traffic or at
/// `mid`.  A long propagation delay keeps packets on the wire at `mid`, so a
/// mid-stream attach meets every kind of pipe entry: propagating,
/// serializing, queued.  With `flap`, the link goes down 700 ns after `mid`
/// and back up 300 ns later, and two more packets follow.
template <typename Attach>
LinkOutcome run_with_attach(TimeNs mid, bool attach_mid_stream, const Attach& attach,
                            TimeNs prop = 5_us, bool flap = false) {
  World w(false, prop, 6000, 3000);
  if (!attach_mid_stream) attach(w);
  for (const std::int32_t bytes : {1500, 1500, 64, 1500, 1500, 1500, 1500}) {
    w.link->enqueue(make_data(bytes));
  }
  w.sim.run_until(mid);
  if (attach_mid_stream) attach(w);
  for (const std::int32_t bytes : {1500, 300, 1500, 1500, 9000}) {
    w.link->enqueue(make_data(bytes));
  }
  LinkOutcome out;
  if (flap) {
    w.sim.run_until(mid + TimeNs{700});
    w.link->set_down(true);
    w.sim.run_until(mid + TimeNs{1000});
    w.link->set_down(false);
    w.link->enqueue(make_data(1500));
    w.link->enqueue(make_data(700));
  }
  for (const std::int64_t dt : {1100, 1500, 4000, 9000}) {
    w.sim.run_until(mid + TimeNs{dt});
    out.samples.push_back({w.link->queue_bytes(), w.link->tx_rate().bits_per_sec()});
  }
  w.sim.run();
  for (const auto& [at, pkt] : w.sink.arrivals) {
    out.arrivals.push_back({at, pkt->size_bytes});
    out.ecn_marks.push_back(pkt->ecn_ce);
  }
  out.drops = w.link->drops();
  out.fault_drops = w.link->fault_drops();
  out.tx_bytes_cum = w.link->tx_bytes_cum();
  out.max_queue_bytes = w.link->max_queue_bytes();
  EXPECT_EQ(w.link->pipe_depth(), 0u);
  return out;
}

// The admitted burst finishes serializing at 1.2, 2.4, ~2.45, ~3.65 and
// ~4.85 us: the midpoints fall before the first serializer end, exactly on
// one, mid-serialization, and after the burst has fully serialized (packets
// still propagating).
constexpr std::int64_t kMidpoints[] = {600, 1200, 2000, 2400, 3000, 8000};

TEST(FusedLink, ClockedMatchesVirtualAcrossMidStreamSwitchAndFlap) {
  const auto nothing = [](World&) {};
  const auto pass_filter = [](World& w) { attach_pass_filter(*w.link); };
  const auto flap_mark = [](World& w) { w.link->mark_flapped(); };
  for (const bool flap : {false, true}) {
    for (const std::int64_t mid : kMidpoints) {
      const TimeNs m{mid};
      const LinkOutcome virt = run_with_attach(m, false, nothing, 5_us, flap);
      ASSERT_GT(virt.drops, 0) << "mid " << mid;
      EXPECT_EQ(run_with_attach(m, false, pass_filter, 5_us, flap), virt)
          << "mid " << mid << " flap " << flap;
      EXPECT_EQ(run_with_attach(m, true, pass_filter, 5_us, flap), virt)
          << "mid " << mid << " flap " << flap;
      EXPECT_EQ(run_with_attach(m, true, flap_mark, 5_us, flap), virt)
          << "mid " << mid << " flap " << flap;
    }
  }
}

TEST(FusedLink, MidStreamPinMatchesPinBeforeTraffic) {
  // A flap mark pins the link to clocked serializer ends; set mid-stream it
  // must change nothing observable.
  const auto mark = [](World& w) { w.link->mark_flapped(); };
  for (const std::int64_t mid : kMidpoints) {
    const LinkOutcome before = run_with_attach(TimeNs{mid}, false, mark);
    const LinkOutcome during = run_with_attach(TimeNs{mid}, true, mark);
    ASSERT_GT(before.drops, 0) << "mid " << mid;
    EXPECT_EQ(during, before) << "mid " << mid;
  }
}

TEST(FusedLink, MidStreamPinWithPropEqualToTxTime) {
  // With prop_delay equal to an MTU's 1.2 us serialization, the packet after
  // the entry serializing at the switch ends serializing exactly when that
  // entry is delivered, under the same parent event.  The two keys differ
  // only by the child slot the delivery takes; builds without NDEBUG check
  // that they never collide.
  const auto mark = [](World& w) { w.link->mark_flapped(); };
  for (const std::int64_t mid : {600, 1800}) {
    const LinkOutcome before = run_with_attach(TimeNs{mid}, false, mark, 1200_ns);
    const LinkOutcome during = run_with_attach(TimeNs{mid}, true, mark, 1200_ns);
    EXPECT_EQ(during, before) << "mid " << mid;
  }
}

TEST(FusedLink, MidStreamFaultFilterMatchesFilterBeforeTraffic) {
  // The filter drops every second packet leaving the wire after `mid`,
  // starting with the first or the second; one attached before traffic sees
  // the earlier exits too but passes them, so both runs must agree on
  // exactly which packets the wire loses.  Dropping the first exit loses the
  // entry that was serializing at the attach, whose head event (armed while
  // it was virtual) must then go stale without wedging the link.
  for (const int first_dropped : {1, 2}) {
    for (const std::int64_t mid : kMidpoints) {
      const auto filter = [mid, first_dropped](World& w) {
        w.link->set_fault_filter(
            [&sim = w.sim, mid, first_dropped, seen = 0](const Packet&) mutable {
              if (sim.now() <= TimeNs{mid}) return false;
              return ++seen % 2 == first_dropped % 2;
            });
      };
      const LinkOutcome before = run_with_attach(TimeNs{mid}, false, filter);
      const LinkOutcome during = run_with_attach(TimeNs{mid}, true, filter);
      ASSERT_GT(before.fault_drops, 0) << "mid " << mid;
      EXPECT_EQ(during, before) << "mid " << mid << " first dropped " << first_dropped;
    }
  }
}

TEST(FusedLink, SetDownAfterMidRunPinDeliversPropagatingPackets) {
  // A flap mark switches the serializing and queued packets to clocked
  // serializer ends while two packets are still propagating.  A set_down
  // then aborts the serializing packet; it must not cancel the head event,
  // or the propagating packets would be stranded.
  const auto run = [](bool mark_mid_run) {
    World w(false, 100_us);
    if (!mark_mid_run) w.link->mark_flapped();
    for (int i = 0; i < 4; ++i) {
      w.link->enqueue(make_packet(w.sim.packet_pool(), PacketKind::kData,
                                  VmPairId{VmId{0}, VmId{1}}, TenantId{0}, HostId{0},
                                  HostId{1}, 1500));
    }
    w.sim.run_until(TimeNs{3000});  // ser-ends 1.2/2.4 us passed, 3.6 us pending
    if (mark_mid_run) {
      w.link->mark_flapped();
      EXPECT_EQ(w.link->pipe_depth(), 4u);
    }
    w.link->set_down(true);
    w.sim.run();
    std::vector<TimeNs> at;
    for (const auto& [t, pkt] : w.sink.arrivals) at.push_back(t);
    EXPECT_EQ(w.link->drops(), 2);
    EXPECT_EQ(w.link->pipe_depth(), 0u);
    w.sink.arrivals.clear();
    const PacketPool& pool = w.sim.packet_pool();
    EXPECT_EQ(pool.allocated() - pool.free_count(), 0u) << "packets stranded in the link";
    return at;
  };
  const std::vector<TimeNs> reference = run(false);
  EXPECT_EQ(reference, (std::vector<TimeNs>{TimeNs{101'200}, TimeNs{102'400}}));
  EXPECT_EQ(run(true), reference);
}

}  // namespace
}  // namespace ufab::sim
