#include "src/sim/link.hpp"

#include <algorithm>
#include <utility>

#include "src/core/assert.hpp"
#include "src/obs/obs.hpp"
#include "src/sim/node.hpp"

namespace ufab::sim {

namespace {
/// Retain enough checkpoints to answer rate queries up to this far back.
constexpr TimeNs kMaxRateWindow{200'000};  // 200 us
}  // namespace

void FusedLinkDeliver::operator()() { link->fire_head(h, k); }

Link::Link(Simulator& sim, LinkId id, std::string name, Node* dst, LinkConfig cfg)
    : sim_(sim), id_(id), name_(std::move(name)), dst_(dst), cfg_(cfg) {
  UFAB_CHECK(dst_ != nullptr);
  UFAB_CHECK(cfg_.capacity.bits_per_sec() > 0.0);
  // A delivery must follow its serializer end strictly: the head event finds
  // its entry materialized, and a cut link's crossing clears the lookahead.
  UFAB_CHECK_MSG(cfg_.prop_delay > TimeNs::zero(), "link propagation delay must be positive");
}

void Link::record_drop(const Packet& pkt, obs::DropReason reason) {
  if (obs_ == nullptr || !obs_->record_datapath()) return;
  obs::TraceEvent ev;
  ev.at = sim_.now();
  ev.kind = obs::EventKind::kDrop;
  ev.detail = static_cast<std::uint8_t>(reason);
  ev.track = obs::Track::link(id_);
  ev.pair = pkt.pair;
  ev.tenant = pkt.tenant;
  ev.link = id_;
  ev.seq = pkt.id;
  ev.a = static_cast<double>(pkt.size_bytes);
  obs_->record(ev);
}

bool Link::admit(Packet& pkt) {
  if (queue_bytes_ + pkt.size_bytes > cfg_.queue_limit_bytes) {
    ++drops_;
    record_drop(pkt, obs::DropReason::kTailDrop);
    return false;  // tail drop
  }
  if (cfg_.ecn_threshold_bytes >= 0 && pkt.ecn_capable &&
      queue_bytes_ > cfg_.ecn_threshold_bytes) {
    pkt.ecn_ce = true;
    if (obs_ != nullptr && obs_->record_datapath()) {
      obs::TraceEvent ev;
      ev.at = sim_.now();
      ev.kind = obs::EventKind::kEcnMark;
      ev.track = obs::Track::link(id_);
      ev.pair = pkt.pair;
      ev.tenant = pkt.tenant;
      ev.link = id_;
      ev.seq = pkt.id;
      ev.a = static_cast<double>(queue_bytes_);
      obs_->record(ev);
    }
  }
  return true;
}

void Link::enqueue(PacketPtr pkt) {
  UFAB_CHECK(pkt != nullptr);
  if (down_) {
    ++drops_;
    record_drop(*pkt, obs::DropReason::kLinkDown);
    return;
  }
  // Catch up on every milestone that has passed, so the admission checks see
  // the queue as it stands at this instant.
  advance();
  if (!admit(*pkt)) return;

  const std::int32_t bytes = pkt->size_bytes;
  const bool idle = (mat_ == pipe_.size());
  PipeEntry e;
  e.bytes = bytes;
  e.in_queue = !idle;
  // max_queue_bytes_ observes the packet even on an idle link (it passes
  // through the queue on its way to the wire); queue_bytes_ itself only
  // grows when the packet actually waits.
  max_queue_bytes_ = std::max(max_queue_bytes_, queue_bytes_ + bytes);
  if (!idle) queue_bytes_ += bytes;

  if (clocked_) {
    e.pkt = std::move(pkt);
    pipe_.push_back(std::move(e));
    if (idle) start_serializing(pipe_[mat_]);
    return;
  }

  if (home_ == nullptr) home_ = sim_.active_shard_handle();
  UFAB_CHECK_MSG(home_ == sim_.active_shard_handle(),
                 "virtual link committed from a foreign shard");
  // Commit the serializer-end milestone eagerly, under the key the clocked
  // path would give it.  Idle serializer: it starts now, as this context's
  // next child.  Busy: it starts when its predecessor's milestone passes, as
  // that milestone's second child (the first is the predecessor's delivery).
  if (idle) {
    const Simulator::ChildKey key = sim_.alloc_child_key();
    e.h = key.h;
    e.k = key.k;
    e.ser_end = sim_.now() + cfg_.capacity.tx_time(bytes);
  } else {
    const PipeEntry& prev = pipe_.back();
    e.h = Simulator::event_identity(prev.h, prev.k);
    e.k = 1;
    e.ser_end = prev.ser_end + cfg_.capacity.tx_time(bytes);
  }
  if (cross_shard_dst_ >= 0) {
    // Cut link: post the crossing eagerly under the delivery key, so the hop
    // still costs one event on every partition (event counts are compared
    // bit-exactly across shard counts).  It arrives at least tx + prop after
    // this commit (prop >= lookahead on cut links), so posting early never
    // outruns the conservative window protocol.
    sim_.post_cross_keyed(cross_shard_dst_, e.ser_end + cfg_.prop_delay, dst_, std::move(pkt),
                          Simulator::event_identity(e.h, e.k), 0);
    pipe_.push_back(std::move(e));
  } else {
    e.pkt = std::move(pkt);
    pipe_.push_back(std::move(e));
    arm_head();
  }
  check_pipe_order();
}

void Link::count_departure(std::int32_t bytes, TimeNs at) const {
  tx_bytes_cum_ += bytes;
  checkpoints_.push_back({at, tx_bytes_cum_});
  while (checkpoints_.size() > 2 && at - checkpoints_.front().first > kMaxRateWindow) {
    checkpoints_.pop_front();
  }
}

void Link::advance() const {
  if (clocked_) return;
  // Replay, in order, every virtual milestone whose (time, key) the link's
  // shard has passed.  Each replay performs exactly what a clocked serializer
  // end does at that instant: cumulative TX bytes, a rate checkpoint, and
  // the successor's dequeue.
  while (mat_ < pipe_.size()) {
    const PipeEntry& e = pipe_[mat_];
    if (!sim_.key_fired(home_, e.ser_end, e.h, e.k)) break;
    count_departure(e.bytes, e.ser_end);
    if (mat_ + 1 < pipe_.size()) {
      PipeEntry& next = pipe_[mat_ + 1];
      if (next.in_queue) {
        next.in_queue = false;
        queue_bytes_ -= next.bytes;
      }
    }
    ++mat_;
  }
  if (cross_shard_dst_ >= 0) {
    // Cut links have no local delivery: a materialized entry's packet is
    // already traveling in the mailbox, so the entry is fully retired.
    while (mat_ > 0) {
      pipe_.pop_front();
      --mat_;
    }
  }
}

void Link::arm_head() {
  if (head_armed_ || pipe_.empty() || (clocked_ && mat_ == 0)) return;
  const PipeEntry& front = pipe_.front();
  sim_.at_keyed(front.ser_end + cfg_.prop_delay, Simulator::event_identity(front.h, front.k), 0,
                FusedLinkDeliver{this, front.h, front.k});
  head_armed_ = true;
}

void Link::fire_head(std::uint64_t h, std::uint32_t k) {
  // A stale head: its entry was dropped (set_down, or lost on the wire after
  // a mid-run switch to clocked serializer ends).
  if (pipe_.empty() || pipe_.front().h != h || pipe_.front().k != k) return;
  advance();
  // The head's serializer end precedes its delivery by prop_delay > 0, so by
  // now it has passed.
  UFAB_CHECK(mat_ > 0);
  PipeEntry head = std::move(pipe_.front());
  pipe_.pop_front();
  --mat_;
  UFAB_CHECK(head.pkt != nullptr);
  // Re-arm for the next packet before delivering: receive() can re-enter
  // this link, and the pipe must look consistent when it does.
  head_armed_ = false;
  arm_head();
  check_pipe_order();
  dst_->receive(std::move(head.pkt));
}

void Link::start_next() {
  if (mat_ == pipe_.size()) {
    if (!source_) return;
    // Claim the wire before running the pull callback: source_() can
    // re-enter enqueue() on this link (the transport's probe cadence fires
    // while the NIC asks for the next data packet), and that packet must
    // queue behind the pulled one.
    pipe_.push_back(PipeEntry{});
    PacketPtr pkt = source_();
    if (pkt) {
      pipe_[mat_].bytes = pkt->size_bytes;
      pipe_[mat_].pkt = std::move(pkt);
    } else {
      erase_entry(mat_);
      // A re-entrant enqueue may have queued a packet; serialize it now
      // rather than leave it stranded until the next kick.
      if (mat_ == pipe_.size()) return;
    }
  }
  start_serializing(pipe_[mat_]);
}

void Link::start_serializing(PipeEntry& e) {
  if (e.in_queue) {
    e.in_queue = false;
    queue_bytes_ -= e.bytes;
  }
  const Simulator::ChildKey key = sim_.alloc_child_key();
  e.h = key.h;
  e.k = key.k;
  e.ser_end = sim_.now() + cfg_.capacity.tx_time(e.bytes);
  sim_.at_keyed(e.ser_end, e.h, e.k, [this, h = e.h, k = e.k] { end_serializing(h, k); });
}

void Link::end_serializing(std::uint64_t h, std::uint32_t k) {
  // A stale serializer end: set_down dropped its entry.
  if (mat_ == pipe_.size() || pipe_[mat_].h != h || pipe_[mat_].k != k) return;
  PipeEntry& e = pipe_[mat_];
  count_departure(e.bytes, sim_.now());
  PacketPtr lost;
  if (fault_filter_ && fault_filter_(*e.pkt)) {
    // Lost on the wire (fault injection): link time was consumed but the
    // packet never reaches the peer, and its delivery slot stays unused.
    ++fault_drops_;
    record_drop(*e.pkt, obs::DropReason::kWireFault);
    lost = std::move(e.pkt);
    if (mat_ == 0) head_armed_ = false;  // a head armed before a mid-run switch goes stale
    erase_entry(mat_);
  } else if (cross_shard_dst_ >= 0) {
    // The peer lives on another engine shard: the crossing takes the
    // delivery's child slot, so the merged schedule is partition-independent.
    UFAB_CHECK(mat_ == 0);
    sim_.post_cross(cross_shard_dst_, sim_.now() + cfg_.prop_delay, dst_, std::move(e.pkt));
    pipe_.pop_front();
  } else {
    // The delivery rides the resident head event under this event's first
    // child key.
    static_cast<void>(sim_.alloc_child_key());
    ++mat_;
    arm_head();
  }
  lost.reset();  // freed before the next pull, which may allocate
  if (!down_) start_next();
}

void Link::erase_entry(std::size_t i) {
  for (; i + 1 < pipe_.size(); ++i) pipe_[i] = std::move(pipe_[i + 1]);
  pipe_.pop_back();
}

void Link::to_clocked() {
  if (clocked_) return;
  advance();
  clocked_ = true;
  if (mat_ == pipe_.size()) return;  // nothing left to serialize
  UFAB_CHECK_MSG(cross_shard_dst_ < 0,
                 "virtual cut link switched to clocked serializer ends mid-run: its "
                 "crossings were posted at commit time and cannot be recalled");
  // The serializer-end event belongs to the link's shard, whichever shard
  // context (fault-plane setup runs at the root) makes the switch.
  const PipeEntry& e = pipe_[mat_];
  const auto scope = sim_.scoped(home_);
  sim_.at_keyed(e.ser_end, e.h, e.k, [this, h = e.h, k = e.k] { end_serializing(h, k); });
}

void Link::check_pipe_order() const {
#ifndef NDEBUG
  // The pipe must be a FIFO in serialization time: entries are committed in
  // arrival order and ser_end is nondecreasing front to back (on a clocked
  // link, up to the serializing entry; the queued ones have no ser_end yet).
  const std::size_t n = clocked_ ? std::min(pipe_.size(), mat_ + 1) : pipe_.size();
  for (std::size_t i = 1; i < n; ++i) {
    UFAB_CHECK_MSG(!(pipe_[i].ser_end < pipe_[i - 1].ser_end), "link pipe reordered");
  }
  UFAB_CHECK(mat_ <= pipe_.size());
#endif
}

void Link::kick() {
  if (!down_ && mat_ == pipe_.size()) start_next();
}

void Link::set_down(bool down) {
  if (down_ == down) return;
  down_ = down;
  if (!down_) {
    kick();
    return;
  }
  advance();
  if (mat_ < pipe_.size()) {
    // Drop the entries not yet past their serializer end: the suffix
    // [mat_+1, size) is queued and entry mat_ is serializing.  Entries
    // [0, mat_) are propagating and still deliver.
    UFAB_CHECK_MSG(clocked_ || cross_shard_dst_ < 0,
                   "set_down on a virtual cut link: its crossings were posted at "
                   "commit time and cannot be recalled — mark_flapped() it");
    const std::size_t sz = pipe_.size();
    drops_ += static_cast<std::int64_t>(sz - mat_);
    // Free queued packets front to back, then the serializing one (packet-
    // pool free order feeds later allocations).
    for (std::size_t i = mat_ + 1; i < sz; ++i) pipe_[i].pkt.reset();
    pipe_[mat_].pkt.reset();
    while (pipe_.size() > mat_) pipe_.pop_back();
    if (mat_ == 0) head_armed_ = false;  // it targeted a dropped entry
    check_pipe_order();
  }
  queue_bytes_ = 0;
}

Bandwidth Link::tx_rate(TimeNs window) const {
  advance();
  if (checkpoints_.empty()) return Bandwidth::zero();
  const TimeNs now = sim_.now();
  const TimeNs cutoff = now - window;
  // Find the most recent checkpoint at or before the cutoff.
  std::int64_t base_bytes = 0;
  TimeNs base_time = TimeNs::zero();
  bool found = false;
  for (std::size_t i = checkpoints_.size(); i-- > 0;) {
    const auto& cp = checkpoints_[i];
    if (cp.first <= cutoff) {
      base_bytes = cp.second;
      base_time = cp.first;
      found = true;
      break;
    }
  }
  if (!found) {
    base_time = checkpoints_.front().first;
    base_bytes = checkpoints_.front().second - 0;
    // Use the oldest checkpoint; subtract its own packet to avoid inflating.
  }
  const TimeNs span = now - base_time;
  if (span.ns() <= 0) return Bandwidth::zero();
  const std::int64_t bytes = tx_bytes_cum_ - base_bytes;
  return Bandwidth::bps(static_cast<double>(bytes) * 8e9 / static_cast<double>(span.ns()));
}

}  // namespace ufab::sim
