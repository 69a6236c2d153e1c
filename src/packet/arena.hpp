// Pool allocator for in-flight packets (hot-path engineering, not paper
// semantics).
//
// The cycle engine used to pass Packet objects by value between the
// ingress queues, the per-cell arrival buffers, and the stage-FIFO ring
// entries. Every hop moved two heap-backed vectors (headers + plan), and
// every admit/retire pair hit the allocator. The arena replaces all of
// that with index addressing: a packet is allocated once at admission,
// referred to everywhere by a 32-bit PacketRef, and recycled through a
// freelist at egress/drop. Recycled slots keep their vectors' capacity,
// so a steady-state run performs no per-packet allocation at all.
//
// Invariants:
//  * get() references are invalidated by alloc() (slot storage may grow).
//    The simulator only allocates during admission, never while a
//    reference is held across stage processing.
//  * release() fully resets the packet's logical fields (see
//    Packet::reset_for_reuse) so no state leaks between the retiring and
//    the next packet in the slot; only vector *capacity* survives.
//  * Double release and use-after-release of a slot are programming
//    errors; release() throws Error on a slot that is not live.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "packet/packet.hpp"

namespace mp5 {

/// Checkpoint (de)serialization of one packet, every logical field
/// included (headers, the full access plan with phantom bookkeeping, and
/// the next_access cursor) — an in-flight packet restored from a
/// checkpoint must continue through the pipeline bit-identically.
///
/// The phantom FIFO slot (phantom_vidx) is derived state and not written:
/// the restoring simulator recomputes it from the FIFO rings. So is the
/// delivery write-back of a realistic phantom channel (`channel_phantoms`):
/// the format records phantom_delivered as it stood at admission, false
/// for every access of such a run, and the restore re-derives it.
inline void save_packet(ByteWriter& w, const Packet& pkt,
                        bool channel_phantoms = false) {
  w.u64(pkt.seq);
  w.u64(pkt.arrival_cycle);
  w.u32(pkt.port);
  w.u32(pkt.size_bytes);
  w.u64(pkt.flow);
  w.boolean(pkt.ecn_marked);
  w.u64(pkt.headers.size());
  for (const Value v : pkt.headers) w.i64(v);
  w.u64(pkt.plan.size());
  for (const PlannedAccess& a : pkt.plan) {
    w.u32(a.reg);
    w.u32(a.stage);
    w.u32(a.index);
    w.u32(a.pipeline);
    w.u8(static_cast<std::uint8_t>(a.guard));
    w.u32(a.guard_known_after_stage);
    w.i64(a.guard_slot);
    w.boolean(a.guard_negate);
    w.boolean(a.cancelled);
    w.boolean(a.done);
    w.u32(a.phantom_lane);
    w.u64(a.phantom_owner);
    w.boolean(a.phantom_dropped);
    w.boolean(!channel_phantoms && a.phantom_delivered);
  }
  w.u64(pkt.next_access);
}

inline void load_packet(ByteReader& r, Packet& pkt) {
  pkt.seq = r.u64();
  pkt.arrival_cycle = r.u64();
  pkt.port = r.u32();
  pkt.size_bytes = r.u32();
  pkt.flow = r.u64();
  pkt.ecn_marked = r.boolean();
  pkt.headers.resize(r.count(8));
  for (Value& v : pkt.headers) v = r.i64();
  pkt.plan.resize(r.count(8));
  for (PlannedAccess& a : pkt.plan) {
    a.reg = r.u32();
    a.stage = r.u32();
    a.index = r.u32();
    a.pipeline = r.u32();
    const std::uint8_t guard = r.u8();
    if (guard > static_cast<std::uint8_t>(GuardStatus::kConservative)) {
      throw Error("checkpoint: invalid GuardStatus value");
    }
    a.guard = static_cast<GuardStatus>(guard);
    a.guard_known_after_stage = r.u32();
    a.guard_slot = static_cast<int>(r.i64());
    a.guard_negate = r.boolean();
    a.cancelled = r.boolean();
    a.done = r.boolean();
    a.phantom_lane = r.u32();
    a.phantom_owner = static_cast<std::size_t>(r.u64());
    a.phantom_dropped = r.boolean();
    a.phantom_delivered = r.boolean();
  }
  pkt.next_access = static_cast<std::size_t>(r.u64());
}

class PacketArena {
public:
  PacketArena() = default;

  /// Grow the slot pool (and freelist) so the next `n` alloc() calls
  /// need no storage growth.
  void reserve(std::size_t n) {
    slots_.reserve(n);
    in_use_.reserve(n);
    free_.reserve(n);
  }

  /// Allocate a packet slot: recycled from the freelist when possible,
  /// fresh otherwise. The returned packet is default-state (recycled
  /// slots were reset at release; their vectors keep capacity).
  PacketRef alloc() {
    ++total_allocs_;
    PacketRef ref;
    if (!free_.empty()) {
      ref = free_.back();
      free_.pop_back();
      ++recycled_;
    } else {
      ref = static_cast<PacketRef>(slots_.size());
      slots_.emplace_back();
      in_use_.push_back(false);
    }
    in_use_[ref] = true;
    ++live_;
    if (live_ > peak_live_) peak_live_ = live_;
    return ref;
  }

  Packet& get(PacketRef ref) { return slots_[ref]; }
  const Packet& get(PacketRef ref) const { return slots_[ref]; }

  /// Return a slot to the freelist. The packet's logical fields are reset
  /// now (not lazily at the next alloc) so a stale read after release is
  /// loudly wrong rather than silently yesterday's packet.
  void release(PacketRef ref) {
    if (ref >= slots_.size() || !in_use_[ref]) {
      throw Error("PacketArena::release: slot is not live");
    }
    slots_[ref].reset_for_reuse();
    in_use_[ref] = false;
    free_.push_back(ref);
    --live_;
  }

  bool live(PacketRef ref) const {
    return ref < slots_.size() && in_use_[ref];
  }

  std::size_t live_count() const { return live_; }
  std::size_t slot_count() const { return slots_.size(); }
  std::uint64_t total_allocs() const { return total_allocs_; }
  std::uint64_t recycled_allocs() const { return recycled_; }
  std::size_t peak_live() const { return peak_live_; }

  /// Checkpoint serialization. Released slots were reset at release()
  /// time, so only live slots carry packet content; the freelist order is
  /// preserved exactly (it determines which slot the next alloc reuses,
  /// and FIFO entries address packets by slot index). `channel_phantoms`:
  /// see save_packet.
  void save(ByteWriter& w, bool channel_phantoms = false) const {
    w.u64(slots_.size());
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      w.boolean(in_use_[i]);
      if (in_use_[i]) save_packet(w, slots_[i], channel_phantoms);
    }
    w.u64(free_.size());
    for (const PacketRef ref : free_) w.u32(ref);
    w.u64(peak_live_);
    w.u64(total_allocs_);
    w.u64(recycled_);
  }

  void load(ByteReader& r) {
    const std::uint64_t slot_count = r.count(1);
    slots_.assign(static_cast<std::size_t>(slot_count), Packet{});
    in_use_.assign(static_cast<std::size_t>(slot_count), false);
    live_ = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (r.boolean()) {
        in_use_[i] = true;
        load_packet(r, slots_[i]);
        ++live_;
      }
    }
    free_.resize(static_cast<std::size_t>(r.count(4)));
    for (PacketRef& ref : free_) {
      ref = r.u32();
      if (ref >= slots_.size() || in_use_[ref]) {
        throw Error("checkpoint: arena freelist addresses a live slot");
      }
    }
    if (free_.size() + live_ != slots_.size()) {
      throw Error("checkpoint: arena slot accounting mismatch");
    }
    peak_live_ = static_cast<std::size_t>(r.u64());
    total_allocs_ = r.u64();
    recycled_ = r.u64();
  }

private:
  std::vector<Packet> slots_;
  std::vector<bool> in_use_;
  std::vector<PacketRef> free_;
  std::size_t live_ = 0;
  std::size_t peak_live_ = 0;
  std::uint64_t total_allocs_ = 0;
  std::uint64_t recycled_ = 0;
};

} // namespace mp5
