// The link serializer under fault injection (DESIGN.md §13): a flap schedule
// must produce identical recovery behaviour on any partition.  The fault
// plane marks flapped links on every partition, so they clock their
// serializer ends (a virtual cut link's eagerly posted crossings could not be
// recalled by set_down); the mark itself must be schedule-neutral.
#include <gtest/gtest.h>

#include "tests/faults/fault_world.hpp"

namespace ufab::faults {
namespace {

using namespace ufab::time_literals;
using namespace ufab::unit_literals;

struct FlapOutcome {
  std::int64_t link_downs = 0;
  std::int64_t drops = 0;
  double rate_during = 0.0;
  double rate_after = 0.0;
  std::uint64_t events = 0;

  bool operator==(const FlapOutcome&) const = default;
};

/// A backlogged pair across a leaf-spine whose ToR uplink flaps repeatedly
/// mid-stream; at 2 shards the flapped uplink is a cut link — the case the
/// fault plane's flap mark protects.
FlapOutcome run_flap_scenario(int shards) {
  FaultWorld w([](sim::Simulator& s) { return topo::make_leaf_spine(s, 2, 2, 2); }, {},
               fault_test_core_config(), 7, 42, shards);
  const TenantId t = w.fab.vms().add_tenant("A", 2_Gbps);
  const VmPairId pair{w.fab.vms().add_vm(t, HostId{0}), w.fab.vms().add_vm(t, HostId{2})};
  w.fab.keep_backlogged(pair, 0_ms, 30_ms);
  // uFAB source-routes the pair over one of the two spines; flap both ToR-0
  // uplinks so the outage hits the chosen trunk regardless of which spine the
  // edge picked.  The plane marks both flapped at arm time (before any
  // traffic), while every other link keeps virtual serializer ends.  Three 1 ms
  // outages, one per 4 ms period, each aborting in-flight serializations.
  const auto paths = w.fab.net().paths(HostId{0}, HostId{2});
  const LinkId up0 = paths[0].links[1];
  const LinkId up1 = paths[1].links[1];
  w.plane.flap(up0, 5_ms, 6_ms, 3, 4_ms);
  w.plane.flap(up1, 5_ms, 6_ms, 3, 4_ms);
  w.plane.arm();
  w.fab.sim().run_until(30_ms);

  FlapOutcome out;
  out.link_downs = w.plane.counters().link_downs;
  out.drops = w.fab.net().link(up0)->drops() + w.fab.net().link(up1)->drops();
  out.rate_during = w.pair_rate_gbps(pair, 5_ms, 17_ms);
  out.rate_after = w.pair_rate_gbps(pair, 20_ms, 30_ms);
  out.events = w.fab.sim().events_processed();
  return out;
}

TEST(FusedFaults, FlapRecoveryIdenticalAcrossSerializersAndPartitions) {
  // Golden outcome, captured when links still had two serializers: every
  // link pinned to the legacy two-event serializer and the fused default
  // (flapped links pinned) both produced these statistics, and the fused
  // default this event count.
  const FlapOutcome golden{6, 165, 6.6052266666666659, 8.9975040000000011, 248'728};
  const FlapOutcome one = run_flap_scenario(1);
  EXPECT_GT(one.drops, 0);         // the flap aborted live traffic
  EXPECT_GT(one.rate_after, 1.5);  // and the pair recovered
  EXPECT_EQ(one, golden);

  // Partition-invariance with faults armed: the flap mark applies on every
  // partition, so event counts and statistics stay bit-identical.
  EXPECT_EQ(run_flap_scenario(2), one);
}

}  // namespace
}  // namespace ufab::faults
