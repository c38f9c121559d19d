// Unidirectional link with an egress FIFO.
//
// A Link models one egress: a tail-drop FIFO, a serializer running at the
// link capacity, and the propagation delay to the peer node.  Switch egresses
// use the push queue; host NICs additionally register a pull source so the
// host's packet scheduler is consulted exactly when the wire goes idle (this
// is how the hierarchical WFQ of uFAB-E is enforced without a second queue).
//
// The link also owns the state the informative core reads: cumulative TX
// bytes (for sender-side rate differentiation, as in HPCC), a short-window
// rate estimate, instantaneous queue depth, and ECN marking.
//
// One serializer (DESIGN.md §13): the link keeps an in-order FIFO of the
// packets it has accepted (`pipe_`) — propagating, serializing and queued —
// and the calendar holds only the *head* delivery, one resident event per
// busy link.  Each entry carries the raw (h, k) ordering key of its
// serializer-end milestone, and its delivery fires under that milestone's
// first child key, so schedules, telemetry and shard handoffs are fixed by
// the causal tree alone.  A serializer end is one of two kinds:
//
//  * Virtual (push links, the default): the key is committed at enqueue and
//    the milestone's bookkeeping (cumulative TX, rate checkpoints, queue
//    accounting) replays lazily, exactly when the engine's key_fired()
//    predicate says it has passed.  A cut link posts its crossing eagerly.
//
//  * Clocked: the milestone is a real calendar event, because something must
//    happen exactly when the wire goes idle — the pull source is consulted
//    (host NICs), the wire-loss filter draws, or a flap may abort the
//    serialization before a cut link posts its crossing.  The event takes the
//    delivery's child slot, then starts the next packet under the next one.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "src/core/ids.hpp"
#include "src/core/ring_deque.hpp"
#include "src/core/time.hpp"
#include "src/core/units.hpp"
#include "src/sim/node.hpp"
#include "src/sim/packet.hpp"
#include "src/sim/simulator.hpp"

namespace ufab::obs {
class Obs;
enum class DropReason : std::uint8_t;
}  // namespace ufab::obs

namespace ufab::sim {

struct LinkConfig {
  Bandwidth capacity = Bandwidth::gbps(10);
  TimeNs prop_delay = TimeNs{1000};
  std::int64_t queue_limit_bytes = 2'000'000;
  /// ECN marking threshold on enqueue; <0 disables marking.
  std::int64_t ecn_threshold_bytes = -1;
  /// Target utilization eta: the "target capacity" C_l = eta * capacity that
  /// uFAB converges to (95% in the paper, leaving headroom for bursts).
  double target_utilization = 0.95;
};

class Link {
 public:
  /// Returns the next packet to transmit, or nullptr if nothing is ready.
  using PullSource = std::function<PacketPtr()>;

  Link(Simulator& sim, LinkId id, std::string name, Node* dst, LinkConfig cfg);

  /// Push-path entry (switch egress / host control packets). May tail-drop.
  void enqueue(PacketPtr pkt);

  /// Registers a pull source consulted when the queue is empty and the wire
  /// is idle (host NIC mode).  Pull links clock their serializer ends: the
  /// source must run exactly when the wire goes idle.
  void set_source(PullSource source) {
    UFAB_CHECK_MSG(pipe_.empty(), "set_source on a link with traffic");
    source_ = std::move(source);
    clocked_ = true;
  }

  /// Re-evaluates transmission; call after the pull source gains work.
  void kick();

  /// Administratively disables the link (failure injection); queued and
  /// serializing packets are dropped, future packets are dropped on arrival,
  /// and packets already on the wire still deliver.  Re-enabling takes
  /// effect immediately: a stale serializer-end or head event finds its
  /// entry gone and does nothing, so a rapid down->up flap cannot wedge it.
  void set_down(bool down);
  [[nodiscard]] bool down() const { return down_; }

  using FaultFilter = std::function<bool(const Packet&)>;

  /// Wire-loss fault hook (fault injection): consulted when a packet finishes
  /// serializing; returning true discards it instead of delivering (the
  /// packet still consumed link time, like corruption on the wire).  The
  /// filter's RNG draws must happen at wire exit in event order, so the link
  /// clocks its serializer ends from here on.  May be attached mid-run.
  void set_fault_filter(FaultFilter filter) {
    to_clocked();
    fault_filter_ = std::move(filter);
  }
  [[nodiscard]] std::int64_t fault_drops() const { return fault_drops_; }

  /// Marks a link the fault plane will flap.  A virtual cut link posts its
  /// crossing at commit time, which a later set_down could not recall, so a
  /// flapped link clocks its serializer ends — on every partition, because
  /// the flap schedule is partition-invariant and event counts must be too.
  /// May be called mid-run.
  void mark_flapped() { to_clocked(); }

  // --- telemetry / observability ---
  [[nodiscard]] LinkId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Bandwidth capacity() const { return cfg_.capacity; }
  [[nodiscard]] Bandwidth target_capacity() const {
    return cfg_.capacity * cfg_.target_utilization;
  }
  [[nodiscard]] TimeNs prop_delay() const { return cfg_.prop_delay; }
  [[nodiscard]] std::int64_t queue_limit_bytes() const { return cfg_.queue_limit_bytes; }
  [[nodiscard]] std::int64_t queue_bytes() const {
    advance();
    return queue_bytes_;
  }
  [[nodiscard]] std::int64_t max_queue_bytes() const { return max_queue_bytes_; }
  [[nodiscard]] std::int64_t tx_bytes_cum() const {
    advance();
    return tx_bytes_cum_;
  }
  [[nodiscard]] std::int64_t drops() const { return drops_; }
  [[nodiscard]] Node* peer() const { return dst_; }

  /// Bytes-over-window rate estimate from departure checkpoints.
  [[nodiscard]] Bandwidth tx_rate(TimeNs window = TimeNs{10'000}) const;

  void reset_max_queue() {
    advance();
    max_queue_bytes_ = queue_bytes_;
  }

  /// Packets in the pipe (propagating, serializing or queued) — the calendar
  /// holds at most one delivery event for all of them (tests).
  [[nodiscard]] std::size_t pipe_depth() const { return pipe_.size(); }

  /// Attaches the observability context (null detaches). Passive: recording
  /// never changes queueing or timing.
  void set_obs(obs::Obs* obs) { obs_ = obs; }

  /// Marks this link as a shard-cut link: delivered packets are posted to
  /// `shard`'s mailbox instead of scheduled locally (sharded engine only;
  /// -1 restores local delivery).  Set by Fabric::configure_sharding.
  void set_cross_shard_dst(int shard) {
    UFAB_CHECK_MSG(pipe_.empty(), "set_cross_shard_dst on a link with traffic");
    cross_shard_dst_ = shard;
  }
  [[nodiscard]] int cross_shard_dst() const { return cross_shard_dst_; }

 private:
  friend struct FusedLinkDeliver;

  /// One accepted packet.  `ser_end` plus the raw (h, k) key name its
  /// serializer-end milestone; on a clocked link only entries up to the
  /// serializing one (index mat_) have them yet.  `in_queue` tracks whether
  /// the packet still counts toward queue_bytes_ (cleared when its
  /// predecessor finishes serializing).  `pkt` is null on virtual cut links —
  /// the packet traveled with the eagerly posted crossing.
  struct PipeEntry {
    PacketPtr pkt;
    std::int32_t bytes = 0;
    bool in_queue = false;
    TimeNs ser_end = TimeNs::zero();
    std::uint64_t h = 0;
    std::uint32_t k = 0;
  };

  /// Tail-drop / ECN admission against the current queue_bytes_.  Returns
  /// false when the packet was dropped.
  bool admit(Packet& pkt);
  /// Replays, in order, every virtual serializer-end milestone that has
  /// passed, each at its own timestamp.  Lazy and idempotent; called before
  /// every read or commit of serializer state.  A no-op on clocked links.
  void advance() const;
  /// Adds a departure to the TX counters and rate checkpoints.
  void count_departure(std::int32_t bytes, TimeNs at) const;
  /// Arms the resident head event for the pipe's front entry, unless it is
  /// armed already or the front's clocked serializer end has yet to fire.
  void arm_head();
  void fire_head(std::uint64_t h, std::uint32_t k);
  /// Clocked path: dequeues the next entry or pulls one from the source, and
  /// starts serializing it under the current event's next child key.
  void start_next();
  void start_serializing(PipeEntry& e);
  void end_serializing(std::uint64_t h, std::uint32_t k);
  void erase_entry(std::size_t i);
  /// Switches the link to clocked serializer ends (once).  The entry being
  /// serialized gets a real event at its committed key; entries queued
  /// behind it are keyed when they start.
  void to_clocked();
  void check_pipe_order() const;  ///< Debug-only FIFO invariant sweep.
  void record_drop(const Packet& pkt, obs::DropReason reason);

  Simulator& sim_;
  LinkId id_;
  std::string name_;
  Node* dst_;
  LinkConfig cfg_;

  /// Every accepted packet, in serialization order; the first `mat_`
  /// entries are past their serializer end.  Mutable (with the bookkeeping
  /// below) because virtual replay happens lazily from const telemetry reads.
  mutable RingDeque<PipeEntry> pipe_;
  mutable std::size_t mat_ = 0;
  mutable std::int64_t queue_bytes_ = 0;
  std::int64_t max_queue_bytes_ = 0;
  bool down_ = false;
  bool clocked_ = false;     ///< Serializer ends are real calendar events.
  bool head_armed_ = false;  ///< The resident head event targets pipe_.front().
  /// The shard whose execution frontier decides which virtual milestones
  /// have fired; captured at the first virtual commit.
  Simulator::ShardHandle home_ = nullptr;
  PullSource source_;
  FaultFilter fault_filter_;
  obs::Obs* obs_ = nullptr;
  int cross_shard_dst_ = -1;  ///< Destination shard when this link is cut.

  mutable std::int64_t tx_bytes_cum_ = 0;
  std::int64_t drops_ = 0;
  std::int64_t fault_drops_ = 0;

  /// (time, cumulative bytes) checkpoints for windowed rate estimation.
  /// One per transmitted packet, trimmed to the rate window: a RingDeque so
  /// the steady-state push/trim cycle never touches the allocator (std::deque
  /// allocates a block every few dozen pushes on this per-packet path).
  mutable RingDeque<std::pair<TimeNs, std::int64_t>> checkpoints_;
};

}  // namespace ufab::sim
