// Fused link pipelines (DESIGN.md §13): one resident calendar event per busy
// link, with delivery times, drop accounting, telemetry, and flap semantics
// byte-identical to the legacy two-event serializer.  Every push link fuses
// by default; the same scenarios are replayed on links pinned to the legacy
// serializer (pin_legacy) to pin equivalence, including pins and fault
// filters attached mid-stream, which hand live fused traffic over.
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

/// A serial simulator with one link, fused or pinned to the legacy serializer.
struct World {
  explicit World(bool fused, TimeNs prop = 1_us) : sink(sim) {
    link = std::make_unique<Link>(sim, LinkId{0}, "l", &sink,
                                  LinkConfig{10_Gbps, prop, 1'000'000, -1, 0.95});
    if (!fused) link->pin_legacy();
  }
  Simulator sim;
  SinkNode sink;
  std::unique_ptr<Link> link;
};

TEST(FusedLink, MatchesLegacyDeliveryTimesAndCounters) {
  std::vector<std::pair<TimeNs, std::int32_t>> legacy_arrivals;
  for (const bool fused : {false, true}) {
    World w(fused);
    for (const std::int32_t bytes : {1500, 64, 1500, 9000, 300}) {
      w.link->enqueue(make_data(bytes));
    }
    w.sim.run();
    ASSERT_EQ(w.sink.arrivals.size(), 5u);
    if (!fused) {
      for (const auto& [at, pkt] : w.sink.arrivals) {
        legacy_arrivals.push_back({at, pkt->size_bytes});
      }
      continue;
    }
    for (std::size_t i = 0; i < w.sink.arrivals.size(); ++i) {
      EXPECT_EQ(w.sink.arrivals[i].first, legacy_arrivals[i].first) << "packet " << i;
      EXPECT_EQ(w.sink.arrivals[i].second->size_bytes, legacy_arrivals[i].second);
    }
    EXPECT_EQ(w.link->tx_bytes_cum(), 1500 + 64 + 1500 + 9000 + 300);
    EXPECT_EQ(w.link->drops(), 0);
    EXPECT_EQ(w.link->pipe_depth(), 0u);
  }
}

TEST(FusedLink, OneResidentCalendarEventPerBusyLink) {
  // Long propagation: all eight packets serialize before the first arrives,
  // so the legacy engine holds one DeliverEvent per in-flight packet while
  // the fused pipe holds them all behind a single head event.
  World legacy(false, 100_us);
  World fused(true, 100_us);
  for (int i = 0; i < 8; ++i) {
    legacy.link->enqueue(make_data(1500));
    fused.link->enqueue(make_data(1500));
  }
  // 8 x 1200 ns of serialization ends at 9.6 us; first delivery at 101.2 us.
  legacy.sim.run_until(50_us);
  fused.sim.run_until(50_us);
  EXPECT_EQ(legacy.sim.pending(), 8u);  // one propagation event per packet
  EXPECT_EQ(fused.sim.pending(), 1u);   // the head departure only
  EXPECT_EQ(fused.link->pipe_depth(), 8u);
  EXPECT_EQ(fused.link->tx_bytes_cum(), legacy.link->tx_bytes_cum());
  legacy.sim.run();
  fused.sim.run();
  ASSERT_EQ(fused.sink.arrivals.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(fused.sink.arrivals[i].first, legacy.sink.arrivals[i].first);
  }
  // The fused run retires one calendar event per hop instead of two.
  EXPECT_LT(fused.sim.events_processed(), legacy.sim.events_processed());
}

TEST(FusedLink, TelemetryMatchesLegacyMidStream) {
  World legacy(false, 2_us);
  World fused(true, 2_us);
  for (int i = 0; i < 6; ++i) {
    legacy.link->enqueue(make_data(1500));
    fused.link->enqueue(make_data(1500));
  }
  for (const TimeNs at : {TimeNs{1000}, TimeNs{1200}, TimeNs{2500}, TimeNs{5000}, TimeNs{9000}}) {
    legacy.sim.run_until(at);
    fused.sim.run_until(at);
    EXPECT_EQ(fused.link->queue_bytes(), legacy.link->queue_bytes()) << "at " << at.ns();
    EXPECT_EQ(fused.link->tx_bytes_cum(), legacy.link->tx_bytes_cum()) << "at " << at.ns();
    EXPECT_EQ(fused.link->max_queue_bytes(), legacy.link->max_queue_bytes()) << "at " << at.ns();
    EXPECT_DOUBLE_EQ(fused.link->tx_rate().bits_per_sec(), legacy.link->tx_rate().bits_per_sec())
        << "at " << at.ns();
  }
}

TEST(FusedLink, TailDropAndEcnMatchLegacy) {
  // Tail drop: queue limit fits exactly two MTUs beyond the in-service
  // packet, so of five arrivals two must drop on both serializer paths.
  for (const bool fused : {false, true}) {
    World w(fused);
    w.link = std::make_unique<Link>(w.sim, LinkId{0}, "l", &w.sink,
                                    LinkConfig{10_Gbps, 1_us, 3000, -1, 0.95});
    if (!fused) w.link->pin_legacy();
    for (int i = 0; i < 5; ++i) w.link->enqueue(make_data(1500));
    w.sim.run();
    ASSERT_EQ(w.sink.arrivals.size(), 3u) << "fused=" << fused;
    EXPECT_EQ(w.link->drops(), 2) << "fused=" << fused;
  }
  // ECN: the mark pattern (which packets exceed the standing-queue
  // threshold at enqueue) must be identical packet by packet.
  World legacy(false);
  World marked(true);
  legacy.link = std::make_unique<Link>(legacy.sim, LinkId{0}, "l", &legacy.sink,
                                       LinkConfig{10_Gbps, 1_us, 1'000'000, 2000, 0.95});
  legacy.link->pin_legacy();
  marked.link = std::make_unique<Link>(marked.sim, LinkId{0}, "l", &marked.sink,
                                       LinkConfig{10_Gbps, 1_us, 1'000'000, 2000, 0.95});
  for (int i = 0; i < 4; ++i) {
    legacy.link->enqueue(make_data(1500));
    marked.link->enqueue(make_data(1500));
  }
  legacy.sim.run();
  marked.sim.run();
  ASSERT_EQ(marked.sink.arrivals.size(), 4u);
  int marks = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(marked.sink.arrivals[i].second->ecn_ce, legacy.sink.arrivals[i].second->ecn_ce)
        << "packet " << i;
    marks += marked.sink.arrivals[i].second->ecn_ce ? 1 : 0;
  }
  EXPECT_GE(marks, 1);
  EXPECT_FALSE(marked.sink.arrivals[0].second->ecn_ce);
}

TEST(FusedLink, RapidFlapDoesNotWedgePipeline) {
  // The fused variant of the PR 1 wedge-window regression: an abort mid-
  // serialization must free the pipe immediately and neutralize the stale
  // head event, so traffic after a fast re-enable flows at once.
  World w(true);
  w.link->enqueue(make_data(1500));  // serializes during [0, 1200) ns
  w.sim.run_until(TimeNs{600});
  w.link->set_down(true);   // aborts mid-serialization
  w.link->set_down(false);  // immediate re-enable
  EXPECT_EQ(w.link->pipe_depth(), 0u);
  w.link->enqueue(make_data(1000));
  w.sim.run();
  ASSERT_EQ(w.sink.arrivals.size(), 1u);
  // New packet serializes during [600, 1400), arrives prop (1 us) later —
  // not at the aborted packet's old completion time.  The stale head event
  // (2200 ns) must not deliver anything.
  EXPECT_EQ(w.sink.arrivals[0].first, TimeNs{2400});
  EXPECT_EQ(w.link->drops(), 1);
  EXPECT_EQ(w.link->tx_bytes_cum(), 1000);
}

TEST(FusedLink, SetDownKeepsPacketsAlreadyOnTheWire) {
  // Packets past their serializer-end are propagating: like legacy
  // DeliverEvents they survive a set_down and still arrive.
  World w(true, 100_us);
  for (int i = 0; i < 3; ++i) w.link->enqueue(make_data(1500));
  w.sim.run_until(10_us);  // all serialized (3.6 us), none delivered
  w.link->set_down(true);
  w.link->enqueue(make_data(1500));  // dropped on arrival: link is down
  w.sim.run();
  ASSERT_EQ(w.sink.arrivals.size(), 3u);
  EXPECT_EQ(w.sink.arrivals[2].first, TimeNs{103'600});
  EXPECT_EQ(w.link->drops(), 1);
  EXPECT_EQ(w.link->pipe_depth(), 0u);
}

TEST(FusedLink, FlapMidPipelineDropsOnlyUnserializedSuffix) {
  // Mixed pipe at the moment of failure: one packet on the wire (kept), one
  // in virtual serialization plus one queued (both dropped) — exactly the
  // packets the legacy engine would have dropped.
  World w(true, 10_us);
  for (int i = 0; i < 3; ++i) w.link->enqueue(make_data(1500));  // ser-ends 1.2/2.4/3.6 us
  w.sim.run_until(TimeNs{1500});
  w.link->set_down(true);
  EXPECT_EQ(w.link->drops(), 2);
  EXPECT_EQ(w.link->pipe_depth(), 1u);  // the propagating packet
  w.link->set_down(false);
  w.link->enqueue(make_data(1000));  // serializes during [1500, 2300)
  w.sim.run();
  ASSERT_EQ(w.sink.arrivals.size(), 2u);
  EXPECT_EQ(w.sink.arrivals[0].first, TimeNs{11'200});  // survivor: 1.2 us + 10 us
  EXPECT_EQ(w.sink.arrivals[1].first, TimeNs{12'300});  // post-recovery packet
  EXPECT_EQ(w.link->tx_bytes_cum(), 1500 + 1000);
}

TEST(FusedLink, LegacyOnlyModesStayOnLegacyPath) {
  // Pull sources, fault filters, and pinned links must not enter the pipe.
  World w(true);
  int remaining = 2;
  w.link->set_source([&]() -> PacketPtr {
    if (remaining == 0) return nullptr;
    --remaining;
    return make_data(1000);
  });
  w.link->kick();
  w.sim.run();
  EXPECT_EQ(w.sink.arrivals.size(), 2u);
  EXPECT_EQ(w.link->pipe_depth(), 0u);

  World pinned(true);
  pinned.link->pin_legacy();
  pinned.link->enqueue(make_data(1500));
  pinned.sim.run();
  EXPECT_EQ(pinned.sink.arrivals.size(), 1u);
  EXPECT_EQ(pinned.link->pipe_depth(), 0u);

  World filtered(true);
  filtered.link->set_fault_filter([](const Packet&) { return true; });
  filtered.link->enqueue(make_data(1500));
  filtered.sim.run();
  EXPECT_EQ(filtered.sink.arrivals.size(), 0u);
  EXPECT_EQ(filtered.link->fault_drops(), 1);
  EXPECT_EQ(filtered.link->pipe_depth(), 0u);
}

/// Observables of one link run, compared field by field.
struct LinkOutcome {
  std::vector<std::pair<TimeNs, std::int32_t>> arrivals;  ///< (time, bytes)
  std::int64_t drops = 0;
  std::int64_t fault_drops = 0;
  std::int64_t tx_bytes_cum = 0;
  std::int64_t max_queue_bytes = 0;

  bool operator==(const LinkOutcome&) const = default;
};

/// A burst against a short queue (tail drops on both sides of `mid`), with
/// `attach` run on the link either before any traffic or at `mid`.  A long
/// propagation delay keeps packets on the wire at `mid`, so a mid-stream
/// attach meets every kind of pipe entry: propagating, serializing, queued.
template <typename Attach>
LinkOutcome run_with_attach(TimeNs mid, bool attach_mid_stream, const Attach& attach,
                            TimeNs prop = 5_us) {
  World w(true, prop);
  w.link = std::make_unique<Link>(w.sim, LinkId{0}, "l", &w.sink,
                                  LinkConfig{10_Gbps, prop, 6000, -1, 0.95});
  if (!attach_mid_stream) attach(w);
  for (const std::int32_t bytes : {1500, 1500, 64, 1500, 1500, 1500, 1500}) {
    w.link->enqueue(make_data(bytes));
  }
  w.sim.run_until(mid);
  if (attach_mid_stream) attach(w);
  for (const std::int32_t bytes : {1500, 300, 1500, 1500, 9000}) {
    w.link->enqueue(make_data(bytes));
  }
  w.sim.run();
  LinkOutcome out;
  for (const auto& [at, pkt] : w.sink.arrivals) out.arrivals.push_back({at, pkt->size_bytes});
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

TEST(FusedLink, MidStreamPinMatchesPinBeforeTraffic) {
  const auto pin = [](World& w) { w.link->pin_legacy(); };
  for (const std::int64_t mid : kMidpoints) {
    const LinkOutcome before = run_with_attach(TimeNs{mid}, false, pin);
    const LinkOutcome during = run_with_attach(TimeNs{mid}, true, pin);
    ASSERT_GT(before.drops, 0) << "mid " << mid;
    EXPECT_EQ(during, before) << "mid " << mid;
  }
}

TEST(FusedLink, MidStreamPinWithPropEqualToTxTime) {
  // With prop_delay equal to an MTU's 1.2 us serialization, the packet after
  // a handed-over head ends serializing exactly when the head is delivered,
  // under the same parent event.  The two keys differ only by the child
  // slot the hand-over consumes for the parked delivery; builds without
  // NDEBUG check that they never collide.
  const auto pin = [](World& w) { w.link->pin_legacy(); };
  for (const std::int64_t mid : {600, 1800}) {
    const LinkOutcome before = run_with_attach(TimeNs{mid}, false, pin, 1200_ns);
    const LinkOutcome during = run_with_attach(TimeNs{mid}, true, pin, 1200_ns);
    EXPECT_EQ(during, before) << "mid " << mid;
  }
}

TEST(FusedLink, MidStreamFaultFilterMatchesFilterBeforeTraffic) {
  // The filter drops every second packet leaving the wire after `mid`; one
  // attached before traffic sees the earlier exits too but passes them, so
  // both runs must agree on exactly which packets the wire loses.
  for (const std::int64_t mid : kMidpoints) {
    const auto filter = [mid](World& w) {
      w.link->set_fault_filter([&sim = w.sim, mid, seen = 0](const Packet&) mutable {
        if (sim.now() <= TimeNs{mid}) return false;
        return ++seen % 2 == 0;
      });
    };
    const LinkOutcome before = run_with_attach(TimeNs{mid}, false, filter);
    const LinkOutcome during = run_with_attach(TimeNs{mid}, true, filter);
    ASSERT_GT(before.fault_drops, 0) << "mid " << mid;
    EXPECT_EQ(during, before) << "mid " << mid;
  }
}

TEST(FusedLink, SetDownAfterMidRunPinDeliversPropagatingPackets) {
  // A pin hands the serializing and queued packets to the legacy serializer
  // while two packets are still propagating in the fused pipe.  A set_down
  // then aborts the legacy in-flight packet; it must not cancel the pipe's
  // head event, or the propagating packets would be stranded.
  const auto run = [](bool pin_mid_run) {
    World w(true, 100_us);
    if (!pin_mid_run) w.link->pin_legacy();
    for (int i = 0; i < 4; ++i) {
      w.link->enqueue(make_packet(w.sim.packet_pool(), PacketKind::kData,
                                  VmPairId{VmId{0}, VmId{1}}, TenantId{0}, HostId{0},
                                  HostId{1}, 1500));
    }
    w.sim.run_until(TimeNs{3000});  // ser-ends 1.2/2.4 us passed, 3.6 us pending
    if (pin_mid_run) {
      w.link->pin_legacy();
      EXPECT_EQ(w.link->pipe_depth(), 2u);
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
