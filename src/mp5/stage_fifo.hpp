// The logical FIFO at the input of one (pipeline, stage) cell (§3.2).
//
// Physically k independent ring buffers (one per source pipeline, to
// absorb up to k same-cycle crossbar arrivals); logically a single FIFO
// with three operations:
//   push(pkt, fifo_id)         — phantom (or baseline data) tail append;
//                                 dropped when the bounded FIFO is full.
//                                 Returns the slot address (lane, vidx).
//   insert(pkt, addr, fifo_id) — replace a queued phantom in place with
//                                 its data packet. As in Figure 4, the
//                                 packet itself carries the address its
//                                 phantom's push returned
//                                 (PlannedAccess::phantom_lane/phantom_vidx);
//                                 the FIFO checks that the slot still holds
//                                 that packet's phantom, so a stale slot
//                                 (drained lane, dropped phantom) reads as
//                                 absent.
//   pop()                      — among the k lane heads, take the entry
//                                 with the smallest timestamp; a phantom
//                                 head blocks (that is how D4 enforces
//                                 arrival-order state access), a cancelled
//                                 phantom head costs one wasted cycle.
//
// A kBlocked pop changes nothing, and only an insert, cancel or drain can
// unblock the next pop (a pushed phantom or a purge of queued data behind
// the phantom head cannot) — so the simulator skips the repeated pops of
// a blocked FIFO until the FIFO changes and reports them through
// add_blocked_pops().
//
// Timestamps are the packets' global arrival sequence numbers. Within one
// lane, phantoms are pushed in arrival order, so every lane is seq-sorted
// and the smallest-head rule yields global arrival order. Each lane's head
// seq is cached in one contiguous array, so choosing the head scans k
// integers.
//
// The `ideal` mode implements the no-head-of-line-blocking upper bound of
// §3.5.2/§4.3.3: ordering is enforced per register index rather than per
// stage (as if there were one FIFO per index), and cancelled phantoms are
// reclaimed for free. Its slots name the per-index queue, searched by seq.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "packet/packet.hpp"

namespace mp5 {

class ByteReader;
class ByteWriter;
class Histogram;

namespace telemetry {
class Counter;
class Scope;
}

/// Address of one queued phantom: the lane it was pushed into and its
/// ring virtual index there — in ideal mode, the (reg, index) key of its
/// per-index queue instead. kNoFifoVidx addresses nothing.
struct FifoSlot {
  PipelineId lane = 0;
  std::uint64_t vidx = kNoFifoVidx;
};

class StageFifo {
public:
  /// capacity: per-lane entry budget; 0 = unbounded (the simulator's
  /// adaptive no-loss configuration, §4.3.1).
  StageFifo(std::uint32_t lanes, std::size_t capacity, bool ideal);

  /// Append a phantom to `lane`. Returns its slot, which the packet keeps
  /// for insert_data/cancel, or nullopt when the phantom was dropped
  /// (lane full).
  std::optional<FifoSlot> push_phantom(SeqNo seq, RegId reg, RegIndex index,
                                       PipelineId lane, Cycle now = 0);

  /// Enqueue cycle of the oldest lane-head entry, if any — the age input
  /// to the §3.4 starvation guard.
  std::optional<Cycle> oldest_head_enqueue() const;

  /// The queued phantom of packet `seq` at `slot`, or nullptr when the
  /// slot no longer holds it: the ring popped or drained past the slot, or
  /// the entry there belongs to another packet or is no longer a phantom.
  const FifoEntry* phantom_at(FifoSlot slot, SeqNo seq) const;

  /// Replace the packet's phantom at `slot` with the packet itself (by
  /// arena ref; the FIFO never dereferences packet contents). Returns
  /// false if the slot does not hold the phantom (phantom_at) — the caller
  /// must drop the data packet (§3.4 "handling packet drops").
  bool insert_data(FifoSlot slot, SeqNo seq, PacketRef ref);

  /// Cancel the phantom of a conservative access whose guard evaluated
  /// false (§3.3). Returns false, changing nothing, if the slot does not
  /// hold the phantom (it was dropped, or its lane was drained).
  bool cancel(FifoSlot slot, SeqNo seq);

  struct PopResult {
    enum class Kind : std::uint8_t {
      kIdle,    // FIFO empty: nothing to do
      kBlocked, // head is a phantom: wait for its data packet
      kWasted,  // head was a cancelled phantom: slot consumed reclaiming it
      kData,    // a data packet was dequeued into `ref`
    };
    Kind kind = Kind::kIdle;
    PacketRef ref = kNullPacketRef;
  };

  PopResult pop();

  /// The entry pop() would look at next: the smallest-seq lane head, or in
  /// ideal mode the oldest eligible data head, else the oldest index-queue
  /// head. nullptr when the FIFO is empty. Read-only (watchdog use).
  const FifoEntry* head() const;

  /// Count `n` blocked pops that were never executed: the simulator parks
  /// a cell whose head is a phantom and skips its visits until something
  /// mutates the FIFO, since each skipped visit would have popped kBlocked
  /// (see Mp5Simulator "Parked cells"). Feeds fifo.pop_blocked only.
  void add_blocked_pops(std::uint64_t n);

  std::size_t size() const { return live_entries_; }
  std::size_t high_water() const { return high_water_; }

  /// Attach the telemetry registry (see src/telemetry/): the FIFO caches
  /// pointers to the switch-wide "fifo.*" counters and the occupancy
  /// histogram, shared by every StageFifo instance of the run. Never
  /// called on a telemetry-disabled run — all hook pointers stay null and
  /// each hook is a single never-taken branch.
  void set_telemetry(const telemetry::Scope& sink);

  // -- fault injection & watchdog support --

  /// Clamp the effective per-lane capacity (forced FIFO pressure fault):
  /// while nonzero, push_phantom fails once the target lane already holds
  /// `cap` entries, even in the unbounded configuration. 0 disables.
  void set_pressure_capacity(std::size_t cap) { pressure_ = cap; }

  /// Empty the FIFO completely (lane death): every queued data packet is
  /// returned to the caller for drop accounting; phantoms and cancelled
  /// entries die with the lane, and every slot handed out so far goes
  /// stale.
  std::vector<PacketRef> drain_all();

  /// Remove every queued data packet matching `pred`, converting its slot
  /// to a cancelled entry (reclaimed by the normal wasted-pop path, so
  /// FIFO addressing stays intact). Used to purge packets doomed by a
  /// remote lane failure. Returns the extracted packet refs.
  std::vector<PacketRef> extract_data_if(
      const std::function<bool(PacketRef)>& pred);

  /// Visit every queued entry (any kind), in no particular order.
  void for_each_entry(const std::function<void(const FifoEntry&)>& fn) const;

  /// Visit every queued phantom with its slot, in no particular order
  /// (checkpoint restore hands each packet its slot back from these).
  void for_each_phantom(
      const std::function<void(const FifoEntry&, FifoSlot)>& fn) const;

  /// Watchdog: verify internal consistency — occupancy accounting, the
  /// cached lane heads, per-lane seq ordering (`check_order`; Invariant 1
  /// implies each source lane is seq-sorted, but injected phantom delays
  /// legitimately break it), and (ideal mode) the per-index queue keys
  /// and the eligible set. Throws
  /// InvariantError. That every queued phantom is addressed by exactly
  /// one packet is checked by Mp5Simulator::check_invariants, which holds
  /// the packets.
  void check_invariants(Cycle now, bool check_order = true) const;

  // -- checkpoint/restore --

  /// Serialize queued entries, a phantom directory (seq, lane, vidx) of
  /// every queued phantom sorted by seq — the packets hold the slots, so
  /// it is rebuilt from the rings — and occupancy stats.
  void save(ByteWriter& w) const;
  /// Restore into a freshly constructed (empty) StageFifo of the same
  /// configuration; throws Error on any structural mismatch, including a
  /// directory record that does not address a queued phantom or a queued
  /// phantom no record addresses.
  void load(ByteReader& r);

private:
  using IndexKey = std::uint64_t; // (reg << 32) | index

  static IndexKey make_key(RegId reg, RegIndex index) {
    return (static_cast<std::uint64_t>(reg) << 32) | index;
  }

  /// Index of the lane whose head has the smallest seq (lanes_.size()
  /// when every lane is empty) — the pop order of the non-ideal FIFO.
  std::size_t min_head_lane() const;
  FifoEntry* find_phantom(FifoSlot slot, SeqNo seq);

  /// One record of the checkpoint's phantom directory.
  struct DirRecord {
    SeqNo seq;
    PipelineId lane;
    std::uint64_t vidx; // 0 in ideal mode
    const FifoEntry* entry;
  };
  /// Every queued phantom with its slot, sorted by seq.
  std::vector<DirRecord> phantom_directory() const;
  PopResult pop_lanes();
  PopResult pop_ideal();
  /// Drop cancelled entries from the front of an ideal per-index queue
  /// (free in the ideal design) and register a data head as eligible.
  void ideal_settle_front(IndexKey key);

  bool ideal_;
  std::vector<RingFifo<FifoEntry>> lanes_;
  /// Seq of each lane's head entry, kInvalidSeqNo for an empty lane
  /// (updated at push into an empty lane, pop, drain and load).
  std::vector<SeqNo> head_seq_;
  /// Ideal mode: one FIFO per register index (each seq-ordered), plus the
  /// set of index heads that are data packets, ordered by seq.
  std::map<IndexKey, std::deque<FifoEntry>> queues_;
  std::map<SeqNo, IndexKey> eligible_;
  std::size_t live_entries_ = 0;
  std::size_t high_water_ = 0;
  std::size_t pressure_ = 0; // forced capacity clamp; 0 = off

  // -- telemetry hooks (registry-owned; null when telemetry is off) --
  telemetry::Counter* t_push_ = nullptr;
  telemetry::Counter* t_push_dropped_ = nullptr;
  telemetry::Counter* t_insert_ = nullptr;
  telemetry::Counter* t_cancel_ = nullptr;
  telemetry::Counter* t_pop_data_ = nullptr;
  telemetry::Counter* t_pop_wasted_ = nullptr;
  telemetry::Counter* t_pop_blocked_ = nullptr;
  Histogram* t_depth_ = nullptr; // occupancy sampled at each push
};

} // namespace mp5
