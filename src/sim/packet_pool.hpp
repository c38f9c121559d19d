// Packet freelist.
//
// Every simulated packet used to be a fresh heap allocation (plus two
// std::vector allocations for its routes) that was freed on delivery or drop.
// PacketPool turns that into reuse: packets are carved from stable arena
// chunks, and destruction through PacketPtr's deleter puts them back on the
// pool's freelist after a field reset — so the steady-state cost of
// Packet::make is a pointer pop plus the reset, with no allocator traffic.
// The reset is total (see Packet::reset_for_reuse): a recycled packet carries
// no telemetry, route, or probe state from its previous life, which
// tests/sim/packet_pool_test.cpp locks in.
//
// The pool also owns the run's packet-id counter.  Ids used to come from a
// process-wide global; a per-pool counter makes them deterministic per run
// regardless of what ran earlier in the process — a requirement once bench
// variants execute concurrently (harness::ParallelSweep).
//
// Sharded ownership handoff (DESIGN.md §12): a pool is owned by one shard,
// and a cross-shard packet now *travels* — the destination shard holds a
// packet whose origin_pool belongs to the source shard.  During threaded
// passes a release on a foreign thread must not touch the owner's freelist,
// so the engine arms a foreign-release guard: put() detects that the calling
// thread is not the owning shard and hands the packet to the engine's sink
// (a per-shard-pair return channel) instead; the owner drains it back at the
// next window boundary via put_direct().  With the guard disarmed (serial
// engine, sequential epochs, setup/teardown) put() is the plain freelist
// push it always was.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/shard_context.hpp"

namespace ufab::sim {

struct Packet;

class PacketPool {
 public:
  /// Routes a foreign-thread release (engine-provided; posts to the return
  /// channel from the *calling* shard back to this pool's owner shard).
  using ForeignSink = void (*)(void* ctx, PacketPool* owner, Packet* p);

  PacketPool();  // out of line: members hold the then-incomplete Packet
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;
  ~PacketPool();

  /// A reset packet with a fresh id, recycled when possible.  The caller
  /// wraps it in a PacketPtr (Packet::make does this).
  [[nodiscard]] Packet* take();

  /// Returns a packet to the freelist (called by PacketPtr's deleter).
  /// With the foreign guard armed, a call from a thread currently executing
  /// a different shard is rerouted to the sink instead of touching the
  /// freelist (one predictable branch on the unarmed hot path).
  void put(Packet* p) {
    if (sink_ != nullptr && ufab::current_shard_index() != owner_shard_) {
      sink_(sink_ctx_, this, p);
      return;
    }
    put_direct(p);
  }

  /// The plain freelist return, bypassing the foreign guard.  Engine-side
  /// drain paths use it when handing returned packets back to the owner.
  void put_direct(Packet* p);

  /// Arms (sink != nullptr) or disarms (nullptr) the foreign-release guard.
  /// Engine-only: armed just for threaded multi-shard execution.
  void set_foreign_guard(int owner_shard, ForeignSink sink, void* ctx) {
    owner_shard_ = owner_shard;
    sink_ = sink;
    sink_ctx_ = ctx;
  }

  [[nodiscard]] std::uint64_t next_packet_id() { return next_id_++; }

  // --- introspection (tests / benches) ---
  [[nodiscard]] std::size_t allocated() const { return allocated_; }
  [[nodiscard]] std::size_t free_count() const { return free_.size(); }
  /// Packets returned to the freelist for reuse (counted at put time).
  [[nodiscard]] std::uint64_t recycled_total() const { return recycled_; }
  /// Packets taken and not yet returned to this pool.
  [[nodiscard]] std::size_t in_use() const { return in_use_; }
  /// Most packets simultaneously live over the pool's lifetime (shard
  /// imbalance shows up here: a hot shard's pool peaks far above the rest).
  [[nodiscard]] std::size_t in_use_high_water() const { return in_use_hwm_; }
  /// The shard whose thread may touch the freelist directly (0 when the
  /// guard has never been armed).
  [[nodiscard]] int owner_shard() const { return owner_shard_; }

 private:
  static constexpr std::size_t kChunkPackets = 256;

  /// Stable storage: packets are carved from fixed arrays and never move.
  std::vector<std::unique_ptr<Packet[]>> chunks_;
  std::vector<Packet*> free_;  ///< LIFO freelist (best cache locality).
  std::size_t allocated_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t recycled_ = 0;
  std::size_t in_use_ = 0;
  std::size_t in_use_hwm_ = 0;

  // Foreign-release guard (armed only for threaded multi-shard runs).
  int owner_shard_ = 0;
  ForeignSink sink_ = nullptr;
  void* sink_ctx_ = nullptr;
};

}  // namespace ufab::sim
