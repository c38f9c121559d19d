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
// Two serializer implementations share that contract (DESIGN.md §13):
//
//  * Fused pipeline (every push link by default): the link keeps an in-order
//    FIFO of in-flight packets (`pipe_`) and the calendar holds only the
//    *head* departure — one resident event per busy link instead of one per
//    packet.  Serialization milestones become virtual: each pipe entry
//    carries the raw (h, k) ordering key its legacy serializer-end event
//    would have used, and bookkeeping (cumulative TX, rate checkpoints,
//    queue accounting) replays lazily, exactly when the engine's key_fired()
//    predicate says the legacy event would already have run.  Delivery
//    events reuse the byte-identical legacy keys, so schedules, telemetry,
//    and shard handoffs are indistinguishable from the two-event engine.
//
//  * Legacy two-event path: every packet hop schedules a serializer-end
//    closure plus a DeliverEvent one propagation delay later.  Only links
//    that need it use it — pull-source (host NIC) links, links with
//    wire-loss fault filters, links pinned by the fault plane, and links
//    with zero propagation delay — and it stays the reference the fused
//    pipeline is tested against (pin_legacy()).
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
  /// is idle (host NIC mode).  Pull links always use the legacy serializer
  /// (the source callback must run exactly when the wire goes idle).
  void set_source(PullSource source) {
    UFAB_CHECK_MSG(pipe_.empty(), "set_source on a link with fused traffic");
    source_ = std::move(source);
  }

  /// Re-evaluates transmission; call after the pull source gains work.
  void kick();

  /// Administratively disables the link (failure injection); queued and
  /// in-flight packets are dropped, future packets are dropped on arrival.
  /// Re-enabling takes effect immediately: the serializer is freed and any
  /// stale completion event is neutralized, so a rapid down->up flap does
  /// not leave the link wedged until the old event fires.
  void set_down(bool down);
  [[nodiscard]] bool down() const { return down_; }

  using FaultFilter = std::function<bool(const Packet&)>;

  /// Wire-loss fault hook (fault injection): consulted when a packet finishes
  /// serializing; returning true discards it instead of delivering (the
  /// packet still consumed link time, like corruption on the wire).  A
  /// filtered link uses the legacy serializer: the filter's RNG draws must
  /// happen at wire-exit time in event order.  May be attached mid-run: the
  /// link's fused traffic is handed over first (to_legacy()).
  void set_fault_filter(FaultFilter filter) {
    to_legacy();
    fault_filter_ = std::move(filter);
  }
  [[nodiscard]] std::int64_t fault_drops() const { return fault_drops_; }

  /// Pins this link to the legacy two-event serializer.  The fault plane
  /// pins every link it will flap: a fused *cut* link posts its cross-shard
  /// crossing at commit time, which cannot be recalled by a later
  /// set_down — and the pin must be partition-invariant (the fault schedule
  /// is), so event counts stay byte-identical across shard counts.  Tests
  /// and benches pin links to compare the fused pipeline against this
  /// reference.  May be called mid-run (to_legacy()).
  void pin_legacy() {
    to_legacy();
    pinned_legacy_ = true;
  }
  [[nodiscard]] bool pinned_legacy() const { return pinned_legacy_; }

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

  /// In-flight packets on the fused pipeline (0 on the legacy path) — the
  /// calendar holds at most one event for all of them (tests).
  [[nodiscard]] std::size_t pipe_depth() const { return pipe_.size(); }

  /// Attaches the observability context (null detaches). Passive: recording
  /// never changes queueing or timing.
  void set_obs(obs::Obs* obs) { obs_ = obs; }

  /// Marks this link as a shard-cut link: delivered packets are posted to
  /// `shard`'s mailbox instead of scheduled locally (sharded engine only;
  /// -1 restores local delivery).  Set by Fabric::configure_sharding.
  void set_cross_shard_dst(int shard) {
    UFAB_CHECK_MSG(pipe_.empty(), "set_cross_shard_dst on a link with fused traffic");
    cross_shard_dst_ = shard;
  }
  [[nodiscard]] int cross_shard_dst() const { return cross_shard_dst_; }

 private:
  friend struct FusedLinkDeliver;

  /// One in-flight packet on the fused pipeline.  `ser_end` plus the raw
  /// (h, k) key name the *virtual* serializer-end event this entry replaces;
  /// `in_queue` tracks whether the packet still counts toward queue_bytes_
  /// (cleared when its predecessor finishes serializing, exactly when legacy
  /// start_next would have popped it).  `pkt` is null on cut links — the
  /// packet traveled with the eagerly posted crossing.
  struct PipeEntry {
    PacketPtr pkt;
    std::int32_t bytes = 0;
    bool in_queue = false;
    TimeNs ser_end = TimeNs::zero();
    std::uint64_t h = 0;
    std::uint32_t k = 0;
  };

  [[nodiscard]] bool use_fused() const {
    return !pinned_legacy_ && !source_ && !fault_filter_ && cfg_.prop_delay.ns() > 0;
  }

  /// Tail-drop / ECN admission against the current queue_bytes_; shared by
  /// both serializer paths so the formulas can never drift apart.  Returns
  /// false when the packet was dropped.
  bool admit(Packet& pkt);
  void enqueue_fused(PacketPtr pkt);
  /// Replays every virtual serializer-end milestone the legacy engine would
  /// already have run, in order, each at its own timestamp.  Lazy and
  /// idempotent; called before every read or commit of serializer state.
  void advance() const;
  void fire_head(std::uint64_t epoch);
  /// Hands the fused pipeline's not-yet-serialized traffic to the legacy
  /// serializer: the entry mid-serialization becomes in_flight_ with its
  /// serializer-end event keyed as legacy would have keyed it, and the
  /// entries behind it become queue_.  Entries already past serializer end
  /// stay in the pipe and drain through the resident head event; a handed-
  /// over head is still delivered by that event (handed_over_).
  void to_legacy();
  void check_pipe_order() const;  ///< Debug-only FIFO invariant sweep.

  void start_next();
  /// `head_event` names the stale fused head event that delivers this
  /// packet (a serialization handed over by to_legacy()), or kNoHeadEvent.
  static constexpr std::uint64_t kNoHeadEvent = ~std::uint64_t{0};
  void finish_transmit(std::int32_t bytes, std::uint64_t epoch,
                       std::uint64_t head_event = kNoHeadEvent);
  void record_drop(const Packet& pkt, obs::DropReason reason);

  Simulator& sim_;
  LinkId id_;
  std::string name_;
  Node* dst_;
  LinkConfig cfg_;

  RingDeque<PacketPtr> queue_;
  /// Fused pipeline of in-flight packets, in serialization order; the first
  /// `mat_` entries' serializer-end milestones have been replayed.  Mutable
  /// (with the bookkeeping below) because replay happens lazily from const
  /// telemetry reads.
  mutable RingDeque<PipeEntry> pipe_;
  mutable std::size_t mat_ = 0;
  mutable std::int64_t queue_bytes_ = 0;
  std::int64_t max_queue_bytes_ = 0;
  bool busy_ = false;
  bool down_ = false;
  bool pinned_legacy_ = false;
  PacketPtr in_flight_;  // the packet currently being serialized (legacy path)
  /// Bumped when an in-flight serialization is aborted (set_down); the
  /// legacy serializer-end event compares its captured epoch and becomes a
  /// no-op.
  std::uint64_t epoch_ = 0;
  /// The fused head event's epoch, bumped when the entry it points at is
  /// dropped or handed to the legacy serializer.  Separate from epoch_: a
  /// legacy abort must not strand packets still propagating in the pipe.
  std::uint64_t pipe_epoch_ = 0;
  /// A handed-over head past its serializer end, waiting for the stale head
  /// event (epoch handed_over_epoch_) that fires at its legacy delivery key.
  /// A link is handed over at most once with its head serializing: it then
  /// stays legacy, so one slot suffices.
  PacketPtr handed_over_;
  std::uint64_t handed_over_epoch_ = 0;
  /// The shard whose execution frontier decides which virtual milestones
  /// have fired; captured at the first fused commit.
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
