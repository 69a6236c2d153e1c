#include "mp5/stage_fifo.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "telemetry/telemetry.hpp"

namespace mp5 {
namespace {

/// Locate an entry by seq in a per-index queue. The queue is in push
/// order, which is seq order unless an injected phantom delay let a later
/// packet's phantom arrive first. Bisect as for a sorted queue, and scan
/// linearly only when that misses (such an out-of-order entry); the
/// bisection is hand-rolled because std::lower_bound requires a
/// partitioned range.
FifoEntry* find_by_seq(std::deque<FifoEntry>& queue, SeqNo seq) {
  std::size_t lo = 0, hi = queue.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (queue[mid].seq < seq) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < queue.size() && queue[lo].seq == seq) return &queue[lo];
  auto it = std::find_if(queue.begin(), queue.end(),
                         [seq](const FifoEntry& e) { return e.seq == seq; });
  return it == queue.end() ? nullptr : &*it;
}

} // namespace

StageFifo::StageFifo(std::uint32_t lanes, std::size_t capacity, bool ideal)
    : ideal_(ideal) {
  if (lanes == 0) throw ConfigError("StageFifo: lanes must be > 0");
  if (!ideal_) {
    lanes_.reserve(lanes);
    for (std::uint32_t i = 0; i < lanes; ++i) lanes_.emplace_back(capacity);
    head_seq_.assign(lanes, kInvalidSeqNo);
  }
}

void StageFifo::set_telemetry(const telemetry::Scope& sink) {
  t_push_ = &sink.counter("fifo.push");
  t_push_dropped_ = &sink.counter("fifo.push_dropped");
  t_insert_ = &sink.counter("fifo.insert");
  t_cancel_ = &sink.counter("fifo.cancel");
  t_pop_data_ = &sink.counter("fifo.pop_data");
  t_pop_wasted_ = &sink.counter("fifo.pop_wasted");
  t_pop_blocked_ = &sink.counter("fifo.pop_blocked");
  t_depth_ = &sink.histogram("fifo.depth_on_push", /*bucket_width=*/1.0,
                             /*buckets=*/64);
}

std::optional<FifoSlot> StageFifo::push_phantom(SeqNo seq, RegId reg,
                                                RegIndex index,
                                                PipelineId lane, Cycle now) {
  FifoEntry entry;
  entry.kind = FifoEntry::Kind::kPhantom;
  entry.lane = lane;
  entry.seq = seq;
  entry.enqueued = now;
  entry.reg = reg;
  entry.index = index;
  FifoSlot slot{lane, kNoFifoVidx};
  if (ideal_) {
    const IndexKey key = make_key(reg, index);
    if (pressure_ != 0) {
      auto it = queues_.find(key);
      if (it != queues_.end() && it->second.size() >= pressure_) {
        MP5_TELEM_INC(t_push_dropped_);
        return std::nullopt; // forced-pressure fault: treat queue as full
      }
    }
    queues_[key].push_back(std::move(entry));
    slot.vidx = key;
  } else {
    RingFifo<FifoEntry>& ring = lanes_[lane];
    if (pressure_ != 0 && ring.size() >= pressure_) {
      MP5_TELEM_INC(t_push_dropped_);
      return std::nullopt; // forced-pressure fault: treat the lane as full
    }
    const auto vidx = ring.push(std::move(entry));
    if (!vidx) {
      MP5_TELEM_INC(t_push_dropped_);
      return std::nullopt; // dropped: lane full
    }
    if (ring.size() == 1) head_seq_[lane] = seq;
    slot.vidx = *vidx;
  }
  ++live_entries_;
  high_water_ = std::max(high_water_, live_entries_);
  MP5_TELEM_INC(t_push_);
  MP5_TELEM_OBSERVE(t_depth_, static_cast<double>(live_entries_));
  return slot;
}

const FifoEntry* StageFifo::phantom_at(FifoSlot slot, SeqNo seq) const {
  return const_cast<StageFifo*>(this)->find_phantom(slot, seq);
}

FifoEntry* StageFifo::find_phantom(FifoSlot slot, SeqNo seq) {
  FifoEntry* entry = nullptr;
  if (ideal_) {
    auto it = queues_.find(slot.vidx);
    if (it != queues_.end()) entry = find_by_seq(it->second, seq);
  } else if (slot.lane < lanes_.size()) {
    entry = lanes_[slot.lane].find(slot.vidx);
  }
  if (entry == nullptr || entry->seq != seq ||
      entry->kind != FifoEntry::Kind::kPhantom) {
    return nullptr;
  }
  return entry;
}

bool StageFifo::insert_data(FifoSlot slot, SeqNo seq, PacketRef ref) {
  FifoEntry* entry = find_phantom(slot, seq);
  if (entry == nullptr) return false;
  entry->kind = FifoEntry::Kind::kData;
  entry->ref = ref;
  if (ideal_ && &queues_.at(slot.vidx).front() == entry) {
    eligible_[seq] = slot.vidx;
  }
  MP5_TELEM_INC(t_insert_);
  return true;
}

bool StageFifo::cancel(FifoSlot slot, SeqNo seq) {
  FifoEntry* entry = find_phantom(slot, seq);
  if (entry == nullptr) return false; // dropped or drained phantom
  MP5_TELEM_INC(t_cancel_);
  entry->kind = FifoEntry::Kind::kCancelled;
  if (ideal_) ideal_settle_front(slot.vidx); // free reclamation
  return true;
}

void StageFifo::ideal_settle_front(IndexKey key) {
  auto qit = queues_.find(key);
  if (qit == queues_.end()) return;
  auto& queue = qit->second;
  while (!queue.empty() &&
         queue.front().kind == FifoEntry::Kind::kCancelled) {
    queue.pop_front();
    --live_entries_;
  }
  if (queue.empty()) {
    queues_.erase(qit);
    return;
  }
  if (queue.front().kind == FifoEntry::Kind::kData) {
    eligible_[queue.front().seq] = key;
  }
}

std::optional<Cycle> StageFifo::oldest_head_enqueue() const {
  std::optional<Cycle> oldest;
  if (ideal_) {
    for (const auto& [key, queue] : queues_) {
      if (queue.empty()) continue;
      if (!oldest || queue.front().enqueued < *oldest) {
        oldest = queue.front().enqueued;
      }
    }
    return oldest;
  }
  for (const auto& lane : lanes_) {
    if (lane.empty()) continue;
    if (!oldest || lane.front().enqueued < *oldest) {
      oldest = lane.front().enqueued;
    }
  }
  return oldest;
}

StageFifo::PopResult StageFifo::pop() {
  PopResult result = ideal_ ? pop_ideal() : pop_lanes();
  switch (result.kind) {
    case PopResult::Kind::kData: MP5_TELEM_INC(t_pop_data_); break;
    case PopResult::Kind::kWasted: MP5_TELEM_INC(t_pop_wasted_); break;
    case PopResult::Kind::kBlocked: MP5_TELEM_INC(t_pop_blocked_); break;
    case PopResult::Kind::kIdle: break;
  }
  return result;
}

std::vector<PacketRef> StageFifo::drain_all() {
  std::vector<PacketRef> data;
  if (ideal_) {
    for (auto& [key, queue] : queues_) {
      for (auto& entry : queue) {
        if (entry.kind == FifoEntry::Kind::kData) {
          data.push_back(entry.ref);
        }
      }
    }
    queues_.clear();
    eligible_.clear();
  } else {
    for (auto& lane : lanes_) {
      while (!lane.empty()) {
        if (lane.front().kind == FifoEntry::Kind::kData) {
          data.push_back(lane.front().ref);
        }
        lane.pop_front();
      }
    }
    head_seq_.assign(lanes_.size(), kInvalidSeqNo);
  }
  live_entries_ = 0;
  return data;
}

std::vector<PacketRef> StageFifo::extract_data_if(
    const std::function<bool(PacketRef)>& pred) {
  std::vector<PacketRef> out;
  if (ideal_) {
    for (auto& [key, queue] : queues_) {
      for (auto& entry : queue) {
        if (entry.kind == FifoEntry::Kind::kData && pred(entry.ref)) {
          out.push_back(entry.ref);
          entry.ref = kNullPacketRef;
          entry.kind = FifoEntry::Kind::kCancelled;
          eligible_.erase(entry.seq);
        }
      }
    }
    if (!out.empty()) {
      // Reclaim any queue whose front just became cancelled (settling can
      // erase map entries, so iterate over a key snapshot).
      std::vector<IndexKey> keys;
      keys.reserve(queues_.size());
      for (const auto& [key, queue] : queues_) keys.push_back(key);
      for (const IndexKey key : keys) ideal_settle_front(key);
    }
  } else {
    for (auto& lane : lanes_) {
      if (lane.empty()) continue;
      for (std::uint64_t v = lane.front_vidx(); lane.contains(v); ++v) {
        auto& entry = lane.at(v);
        if (entry.kind == FifoEntry::Kind::kData && pred(entry.ref)) {
          out.push_back(entry.ref);
          entry.ref = kNullPacketRef;
          entry.kind = FifoEntry::Kind::kCancelled;
        }
      }
    }
  }
  return out;
}

void StageFifo::for_each_entry(
    const std::function<void(const FifoEntry&)>& fn) const {
  if (ideal_) {
    for (const auto& [key, queue] : queues_) {
      for (const auto& entry : queue) fn(entry);
    }
    return;
  }
  for (const auto& lane : lanes_) {
    if (lane.empty()) continue;
    for (std::uint64_t v = lane.front_vidx(); lane.contains(v); ++v) {
      fn(lane.at(v));
    }
  }
}

void StageFifo::check_invariants(Cycle now, bool check_order) const {
  std::size_t counted = 0;
  if (ideal_) {
    for (const auto& [key, queue] : queues_) {
      SeqNo prev = 0;
      bool first = true;
      for (const auto& entry : queue) {
        ++counted;
        if (entry.kind == FifoEntry::Kind::kEmpty) {
          throw InvariantError("fifo-entry", now, "empty entry queued");
        }
        if (make_key(entry.reg, entry.index) != key) {
          throw InvariantError("fifo-entry", now,
                               "seq " + std::to_string(entry.seq) +
                                   " queued under another index's queue");
        }
        if (check_order && !first && entry.seq <= prev) {
          throw InvariantError("invariant-1", now,
                               "per-index queue not in arrival order");
        }
        prev = entry.seq;
        first = false;
      }
    }
    for (const auto& [seq, key] : eligible_) {
      auto it = queues_.find(key);
      if (it == queues_.end() || it->second.empty() ||
          it->second.front().seq != seq ||
          it->second.front().kind != FifoEntry::Kind::kData) {
        throw InvariantError("eligible-set", now,
                             "eligible entry is not a data head");
      }
    }
  } else {
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      const auto& lane = lanes_[l];
      const SeqNo head = lane.empty() ? kInvalidSeqNo : lane.front().seq;
      if (head_seq_[l] != head) {
        throw InvariantError("fifo-head-cache", now,
                             "lane " + std::to_string(l) +
                                 " caches head seq " +
                                 std::to_string(head_seq_[l]) + " but holds " +
                                 std::to_string(head));
      }
      if (lane.empty()) continue;
      SeqNo prev = 0;
      bool first = true;
      for (std::uint64_t v = lane.front_vidx(); lane.contains(v); ++v) {
        const FifoEntry& entry = lane.at(v);
        ++counted;
        if (entry.kind == FifoEntry::Kind::kEmpty) {
          throw InvariantError("fifo-entry", now, "empty entry queued");
        }
        if (check_order && !first && entry.seq <= prev) {
          throw InvariantError(
              "invariant-1", now,
              "lane not in arrival order: seq " + std::to_string(entry.seq) +
                  " behind " + std::to_string(prev));
        }
        prev = entry.seq;
        first = false;
      }
    }
  }
  if (counted != live_entries_) {
    throw InvariantError("fifo-occupancy", now,
                         "live_entries=" + std::to_string(live_entries_) +
                             " but " + std::to_string(counted) +
                             " entries queued");
  }
}

namespace {

void save_entry(ByteWriter& w, const FifoEntry& entry) {
  w.u8(static_cast<std::uint8_t>(entry.kind));
  w.u64(entry.seq);
  w.u64(entry.enqueued);
  w.u32(entry.reg);
  w.u32(entry.index);
  w.u32(entry.ref);
}

FifoEntry load_entry(ByteReader& r) {
  FifoEntry entry;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(FifoEntry::Kind::kCancelled)) {
    throw Error("checkpoint: invalid FifoEntry kind");
  }
  entry.kind = static_cast<FifoEntry::Kind>(kind);
  entry.seq = r.u64();
  entry.enqueued = r.u64();
  entry.reg = r.u32();
  entry.index = r.u32();
  entry.ref = r.u32();
  return entry;
}

} // namespace

void StageFifo::for_each_phantom(
    const std::function<void(const FifoEntry&, FifoSlot)>& fn) const {
  if (ideal_) {
    for (const auto& [key, queue] : queues_) {
      for (const FifoEntry& entry : queue) {
        if (entry.kind == FifoEntry::Kind::kPhantom) {
          fn(entry, FifoSlot{entry.lane, key});
        }
      }
    }
    return;
  }
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    const auto& lane = lanes_[l];
    if (lane.empty()) continue;
    for (std::uint64_t v = lane.front_vidx(); lane.contains(v); ++v) {
      const FifoEntry& entry = lane.at(v);
      if (entry.kind == FifoEntry::Kind::kPhantom) {
        fn(entry, FifoSlot{static_cast<PipelineId>(l), v});
      }
    }
  }
}

std::vector<StageFifo::DirRecord> StageFifo::phantom_directory() const {
  std::vector<DirRecord> dir;
  for_each_phantom([&](const FifoEntry& entry, FifoSlot slot) {
    dir.push_back({entry.seq, slot.lane, ideal_ ? 0 : slot.vidx, &entry});
  });
  std::sort(dir.begin(), dir.end(),
            [](const DirRecord& a, const DirRecord& b) { return a.seq < b.seq; });
  return dir;
}

void StageFifo::save(ByteWriter& w) const {
  w.boolean(ideal_);
  if (ideal_) {
    // queues_ and eligible_ are std::maps: iteration order is already
    // deterministic.
    w.u64(queues_.size());
    for (const auto& [key, queue] : queues_) {
      w.u64(key);
      w.u64(queue.size());
      for (const FifoEntry& entry : queue) save_entry(w, entry);
    }
    w.u64(eligible_.size());
    for (const auto& [seq, key] : eligible_) {
      w.u64(seq);
      w.u64(key);
    }
  } else {
    w.u64(lanes_.size());
    for (const auto& lane : lanes_) {
      w.u64(lane.base_vidx());
      w.u64(lane.size());
      w.u64(lane.high_water_mark());
      if (lane.empty()) continue;
      for (std::uint64_t v = lane.front_vidx(); lane.contains(v); ++v) {
        save_entry(w, lane.at(v));
      }
    }
  }
  const std::vector<DirRecord> dir = phantom_directory();
  w.u64(dir.size());
  for (const DirRecord& rec : dir) {
    w.u64(rec.seq);
    w.u32(rec.lane);
    w.u64(rec.vidx);
  }
  w.u64(live_entries_);
  w.u64(high_water_);
}

void StageFifo::load(ByteReader& r) {
  if (r.boolean() != ideal_) {
    throw Error("checkpoint: StageFifo ideal-mode mismatch");
  }
  if (live_entries_ != 0) {
    throw Error("checkpoint: StageFifo::load target is not empty");
  }
  if (ideal_) {
    queues_.clear();
    eligible_.clear();
    const std::uint64_t nqueues = r.count(8);
    for (std::uint64_t q = 0; q < nqueues; ++q) {
      const IndexKey key = r.u64();
      auto& queue = queues_[key];
      const std::uint64_t nentries = r.count(8);
      for (std::uint64_t i = 0; i < nentries; ++i) {
        queue.push_back(load_entry(r));
      }
      if (queue.empty()) {
        throw Error("checkpoint: empty ideal queue serialized");
      }
    }
    const std::uint64_t neligible = r.count(16);
    for (std::uint64_t i = 0; i < neligible; ++i) {
      const SeqNo seq = r.u64();
      eligible_[seq] = r.u64();
    }
  } else {
    const std::uint64_t nlanes = r.count(8);
    if (nlanes != lanes_.size()) {
      throw Error("checkpoint: StageFifo lane count mismatch");
    }
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      auto& lane = lanes_[l];
      const std::uint64_t base = r.u64();
      const std::uint64_t size = r.u64();
      const std::uint64_t lane_hw = r.u64();
      if (size > lane_hw) {
        throw Error("checkpoint: StageFifo lane size exceeds high water");
      }
      // restore_base re-establishes the virtual-index origin, so each
      // push below reproduces the checkpointed run's vidx values exactly
      // (the directory below and the packets' slots address entries by
      // them).
      lane.restore_base(base, static_cast<std::size_t>(lane_hw));
      for (std::uint64_t i = 0; i < size; ++i) {
        FifoEntry entry = load_entry(r);
        entry.lane = static_cast<PipelineId>(l);
        if (!lane.push(entry)) {
          throw Error("checkpoint: StageFifo lane overflow on restore");
        }
      }
      head_seq_[l] = lane.empty() ? kInvalidSeqNo : lane.front().seq;
    }
  }
  // The directory must be exactly the one save() derives from the queued
  // phantoms: same seqs, same order, same slots. Ideal-mode entries do not
  // record their lane, so the directory supplies it.
  const std::vector<DirRecord> expect = phantom_directory();
  if (r.count(20) != expect.size()) {
    throw Error("checkpoint: FIFO directory does not cover every queued "
                "phantom");
  }
  for (const DirRecord& rec : expect) {
    const SeqNo seq = r.u64();
    const PipelineId lane = r.u32();
    const std::uint64_t vidx = r.u64();
    if (seq != rec.seq || vidx != rec.vidx || (!ideal_ && lane != rec.lane)) {
      throw Error("checkpoint: FIFO directory addresses a stale entry");
    }
    if (ideal_) const_cast<FifoEntry*>(rec.entry)->lane = lane;
  }
  live_entries_ = static_cast<std::size_t>(r.u64());
  high_water_ = static_cast<std::size_t>(r.u64());
}

std::size_t StageFifo::min_head_lane() const {
  // Empty lanes cache kInvalidSeqNo, which no queued entry carries.
  std::size_t best = lanes_.size();
  SeqNo best_seq = kInvalidSeqNo;
  for (std::size_t i = 0; i < head_seq_.size(); ++i) {
    if (head_seq_[i] < best_seq) {
      best = i;
      best_seq = head_seq_[i];
    }
  }
  return best;
}

const FifoEntry* StageFifo::head() const {
  if (!ideal_) {
    const std::size_t lane = min_head_lane();
    return lane == lanes_.size() ? nullptr : &lanes_[lane].front();
  }
  if (!eligible_.empty()) {
    const auto& [seq, key] = *eligible_.begin();
    return &queues_.at(key).front();
  }
  const FifoEntry* oldest = nullptr;
  for (const auto& [key, queue] : queues_) {
    if (oldest == nullptr || queue.front().seq < oldest->seq) {
      oldest = &queue.front();
    }
  }
  return oldest;
}

void StageFifo::add_blocked_pops([[maybe_unused]] std::uint64_t n) {
  MP5_TELEM_ADD(t_pop_blocked_, n);
}

StageFifo::PopResult StageFifo::pop_lanes() {
  PopResult result;
  const std::size_t lane = min_head_lane();
  if (lane == lanes_.size()) return result; // kIdle
  RingFifo<FifoEntry>& best = lanes_[lane];
  const FifoEntry& head = best.front();
  switch (head.kind) {
    case FifoEntry::Kind::kPhantom:
      result.kind = PopResult::Kind::kBlocked;
      return result;
    case FifoEntry::Kind::kCancelled:
      result.kind = PopResult::Kind::kWasted;
      break;
    case FifoEntry::Kind::kData:
      result.kind = PopResult::Kind::kData;
      result.ref = head.ref;
      break;
    case FifoEntry::Kind::kEmpty:
      throw Error("StageFifo::pop: empty entry at head");
  }
  best.pop_front();
  --live_entries_;
  head_seq_[lane] = best.empty() ? kInvalidSeqNo : best.front().seq;
  return result;
}

StageFifo::PopResult StageFifo::pop_ideal() {
  PopResult result;
  if (eligible_.empty()) {
    result.kind = live_entries_ == 0 ? PopResult::Kind::kIdle
                                     : PopResult::Kind::kBlocked;
    return result;
  }
  const auto [seq, key] = *eligible_.begin();
  eligible_.erase(eligible_.begin());
  auto& queue = queues_.at(key);
  if (queue.front().seq != seq ||
      queue.front().kind != FifoEntry::Kind::kData) {
    throw Error("StageFifo::pop_ideal: eligible set out of sync");
  }
  result.kind = PopResult::Kind::kData;
  result.ref = queue.front().ref;
  queue.pop_front();
  --live_entries_;
  ideal_settle_front(key);
  return result;
}

} // namespace mp5
