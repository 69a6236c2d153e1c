#include "native/backend.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <exception>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "native/cpus.hpp"
#include "native/spsc_ring.hpp"
#include "packet/packet.hpp" // kUnresolvedIndex

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace mp5::native {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint8_t kNoOwner = 0xff;
constexpr std::uint8_t kSkipState = 1; // resolved guard false at dispatch
constexpr std::uint8_t kNoted = 2;     // made the domain's D2 note

/// One planned stateful access of one in-flight packet. Written by the
/// dispatcher at admission, read by workers; the packet ref's ring
/// handoff orders the two.
struct PlanEntry {
  std::uint32_t ticket = 0;
  RegIndex index = kUnresolvedIndex; // resolved index (D2 accounting)
  std::uint32_t gate = 0;            // slot in done_[reg]
  std::uint16_t reg = 0;
  std::uint8_t owner = kNoOwner;     // workers <= 64
  std::uint8_t flags = 0;
};
static_assert(kCacheLine % sizeof(PlanEntry) == 0,
              "plan rows are padded to whole cache lines");

/// Allocator whose blocks start on a cache line, so a table with
/// line-multiple rows never puts two rows on one line.
template <class T>
struct LineAllocator {
  using value_type = T;
  LineAllocator() = default;
  template <class U>
  LineAllocator(const LineAllocator<U>&) {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kCacheLine}));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t{kCacheLine});
  }
  friend bool operator==(const LineAllocator&, const LineAllocator&) {
    return true;
  }
};

/// Refs waiting for room in one ring, in FIFO order. A partially
/// accepted batch only advances a consumed-prefix offset (no memmove per
/// push); the prefix is dropped once it is half the buffer, so a ring
/// that stays congested cannot grow the buffer without bound.
struct Pending {
  std::vector<std::uint32_t> refs;
  std::size_t off = 0;

  bool empty() const { return refs.size() == off; }

  void flush(SpscRing<std::uint32_t>& ring) {
    if (empty()) return;
    off += ring.push_batch(refs.data() + off, refs.size() - off);
    if (off == refs.size()) {
      refs.clear();
      off = 0;
    } else if (off >= refs.size() / 2) {
      refs.erase(refs.begin(),
                 refs.begin() + static_cast<std::ptrdiff_t>(off));
      off = 0;
    }
  }
};

/// Registers grouped into D2 shard domains. Two registers share a domain
/// when both are shardable, each has exactly one access whose index
/// resolves at arrival, their sizes are equal and their index operands
/// are identical: then every packet resolves both to the same index, and
/// one ownership map keeps the packet on one worker for both accesses.
/// Every other register is a domain of its own.
struct ShardDomains {
  std::vector<ir::RegisterSpec> specs; // per domain: its first register's
  std::vector<bool> shardable;         // per domain
  std::vector<RegId> of_access;        // access ordinal -> domain
  /// Nearest earlier access of the same shared domain, or -1.
  std::vector<std::int32_t> prev_twin;
};

bool same_operand(const ir::Operand& a, const ir::Operand& b) {
  if (a.is_const != b.is_const) return false;
  return a.is_const ? a.constant == b.constant : a.slot == b.slot;
}

ShardDomains group_domains(const Mp5Program& program) {
  const auto& regs = program.pvsm.registers;
  const auto& accesses = program.accesses;
  // The single access of each register, or -1 when it has none or several.
  std::vector<std::int32_t> sole(regs.size(), -1);
  std::vector<std::uint32_t> count(regs.size(), 0);
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    if (++count[accesses[i].reg] == 1) {
      sole[accesses[i].reg] = static_cast<std::int32_t>(i);
    } else {
      sole[accesses[i].reg] = -1;
    }
  }
  const auto groupable = [&](RegId r) {
    return program.shardable[r] && sole[r] >= 0 &&
           accesses[static_cast<std::size_t>(sole[r])].index_resolvable;
  };

  ShardDomains out;
  std::vector<RegId> of_reg(regs.size());
  std::vector<RegId> first_reg; // per domain
  std::vector<bool> shared;     // per domain: built from groupable registers
  for (RegId r = 0; r < regs.size(); ++r) {
    RegId d = 0;
    for (; d < first_reg.size(); ++d) {
      const RegId q = first_reg[d];
      if (shared[d] && groupable(r) && regs[q].size == regs[r].size &&
          same_operand(accesses[static_cast<std::size_t>(sole[q])].index,
                       accesses[static_cast<std::size_t>(sole[r])].index)) {
        break;
      }
    }
    if (d == first_reg.size()) {
      first_reg.push_back(r);
      shared.push_back(groupable(r));
      out.specs.push_back(regs[r]);
      out.shardable.push_back(program.shardable[r]);
    }
    of_reg[r] = d;
  }

  out.of_access.resize(accesses.size());
  out.prev_twin.assign(accesses.size(), -1);
  std::vector<std::int32_t> last(first_reg.size(), -1);
  for (std::size_t i = 0; i < accesses.size(); ++i) {
    const RegId d = of_reg[accesses[i].reg];
    out.of_access[i] = d;
    if (shared[d]) {
      out.prev_twin[i] = last[d];
      last[d] = static_cast<std::int32_t>(i);
    }
  }
  return out;
}

/// Plain-array register file over the backend's shared value table.
/// Stateless itself; cell-level exclusivity comes from shard ownership.
class ValuesRegFile final : public ir::RegFile {
public:
  explicit ValuesRegFile(std::vector<std::vector<Value>>* v) : v_(v) {}
  Value read(RegId reg, RegIndex index) override { return (*v_)[reg][index]; }
  void write(RegId reg, RegIndex index, Value v) override {
    (*v_)[reg][index] = v;
  }

private:
  std::vector<std::vector<Value>>* v_;
};

void pin_current_thread(std::uint32_t cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  // Best effort: failure only costs locality, never correctness.
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

} // namespace

struct NativeBackend::Impl {
  const Mp5Program& program;
  NativeOptions opts;
  std::size_t slots = 0;
  std::size_t declared = 0;  // declared fields occupy slots [0, declared)
  std::size_t naccesses = 0;
  std::size_t nregs = 0;

  // (stage, atom) -> ordinal into program.accesses, or -1 for stateless.
  std::vector<std::vector<std::int32_t>> atom_ordinal;

  // Shared register values + per-(reg, gate) completed-ticket counters.
  // done[r] has reg-size slots for shardable arrays and a single slot for
  // pinned arrays (whole-array serialization at the pin worker).
  std::vector<std::vector<Value>> values;
  std::vector<std::vector<std::uint32_t>> done;

  // Dispatcher-private.
  std::vector<std::vector<std::uint32_t>> next_ticket; // same shape as done
  ShardDomains domains;
  ShardedState state; // one D2 map per shard domain

  // Packet pool (ref-indexed plain arrays; ring handoffs order access).
  // A packet's plan row starts on its own cache line: the dispatcher
  // planning one packet never writes a line a worker is reading for
  // another. pos_stage/pos_atom/hopped are reset by the egressing worker,
  // so the dispatcher never writes them at all.
  std::vector<std::vector<Value>> headers;
  std::size_t plan_stride = 0; // PlanEntry slots per packet row
  std::vector<PlanEntry, LineAllocator<PlanEntry>> plans;
  std::vector<SeqNo> seq;
  std::vector<std::uint16_t> pos_stage;
  std::vector<std::uint16_t> pos_atom;
  std::vector<std::uint8_t> hopped;

  // Rings.
  std::vector<std::unique_ptr<SpscRing<std::uint32_t>>> dispatch_ring;
  std::vector<std::unique_ptr<SpscRing<std::uint32_t>>> egress_ring;
  std::vector<std::unique_ptr<SpscRing<std::uint32_t>>> xfer_ring; // from*W+to

  ValuesRegFile regfile{&values};
  /// More runnable threads (workers + dispatcher) than usable CPUs:
  /// spinning then burns scheduler quanta the thread we wait for needs,
  /// so idle paths yield immediately instead of pause-looping.
  bool oversubscribed = false;
  /// CPU worker i pins to: the i-th CPU of the affinity mask (mod size).
  std::vector<std::uint32_t> pin_cpus;
  /// The dispatcher admitted everything: workers drain, then exit.
  std::atomic<bool> stop{false};
  /// A thread failed: workers exit at once, abandoning in-flight packets.
  std::atomic<bool> failed{false};
  std::vector<std::exception_ptr> worker_error;
  std::vector<WorkerScratch> scratch;
  // Last: the workers use every member above; ~Impl joins them first.
  std::vector<std::thread> threads;

  Impl(const Mp5Program& prog, const NativeOptions& o)
      : program(prog), opts(o), domains(group_domains(prog)),
        state(domains.specs, domains.shardable, o.workers, o.policy,
              Rng(o.seed)) {
    validate();
    oversubscribed = opts.workers + 1u > usable_cpus();
    if (opts.pin_threads) pin_cpus = affinity_cpu_ids();
    slots = program.pvsm.num_slots();
    naccesses = program.accesses.size();
    nregs = program.pvsm.registers.size();
    for (std::size_t s = 0; s < slots; ++s) {
      if (program.pvsm.fields[s].declared) {
        if (s != declared) {
          throw Error("native: declared fields are not a slot prefix");
        }
        ++declared;
      }
    }
    build_atom_map();

    values = program.pvsm.initial_registers();
    done.resize(nregs);
    next_ticket.resize(nregs);
    for (RegId r = 0; r < nregs; ++r) {
      const std::size_t gates =
          program.shardable[r] ? program.pvsm.registers[r].size : 1;
      done[r].assign(gates, 0);
      next_ticket[r].assign(gates, 0);
    }

    const std::uint32_t pool = opts.pool_packets;
    headers.assign(pool, std::vector<Value>(slots, 0));
    constexpr std::size_t kPerLine = kCacheLine / sizeof(PlanEntry);
    plan_stride = (naccesses + kPerLine - 1) / kPerLine * kPerLine;
    plans.assign(static_cast<std::size_t>(pool) * plan_stride, PlanEntry{});
    seq.assign(pool, 0);
    pos_stage.assign(pool, 0);
    pos_atom.assign(pool, 0);
    hopped.assign(pool, 0);

    const std::uint32_t w = opts.workers;
    dispatch_ring.resize(w);
    egress_ring.resize(w);
    xfer_ring.resize(static_cast<std::size_t>(w) * w);
    for (std::uint32_t i = 0; i < w; ++i) {
      dispatch_ring[i] =
          std::make_unique<SpscRing<std::uint32_t>>(opts.ring_capacity);
      egress_ring[i] =
          std::make_unique<SpscRing<std::uint32_t>>(opts.ring_capacity);
      for (std::uint32_t j = 0; j < w; ++j) {
        if (i == j) continue;
        xfer_ring[static_cast<std::size_t>(i) * w + j] =
            std::make_unique<SpscRing<std::uint32_t>>(opts.ring_capacity);
      }
    }
    worker_error.resize(w);
    scratch.reserve(w);
    for (std::uint32_t i = 0; i < w; ++i) scratch.emplace_back(nregs);
  }

  ~Impl() { halt_workers(); }

  void validate() const {
    if (opts.workers < 1 || opts.workers > 64) {
      throw ConfigError("native: workers must be in [1, 64], got " +
                        std::to_string(opts.workers));
    }
    if (opts.batch < 1) throw ConfigError("native: batch must be >= 1");
    if (opts.ring_capacity < 2 * opts.batch) {
      throw ConfigError("native: ring_capacity must be at least 2x batch (" +
                        std::to_string(opts.ring_capacity) + " < 2*" +
                        std::to_string(opts.batch) + ")");
    }
    if (opts.pool_packets <
        2ull * opts.batch * opts.workers) {
      throw ConfigError(
          "native: pool_packets must be >= 2 * batch * workers (need " +
          std::to_string(2ull * opts.batch * opts.workers) + ", got " +
          std::to_string(opts.pool_packets) + ")");
    }
    if (program.pvsm.registers.size() > 0xffff ||
        program.accesses.size() > 0xffff ||
        program.pvsm.stages.size() > 0xfffe) {
      throw ConfigError("native: program too large for the packet plan");
    }
  }

  /// Each register is fused into exactly one stateful atom, so
  /// (pvsm stage, reg) identifies its access descriptor uniquely.
  void build_atom_map() {
    atom_ordinal.resize(program.pvsm.stages.size());
    std::size_t matched = 0;
    for (StageId s = 0; s < program.pvsm.stages.size(); ++s) {
      const auto& atoms = program.pvsm.stages[s].atoms;
      atom_ordinal[s].assign(atoms.size(), -1);
      for (std::size_t a = 0; a < atoms.size(); ++a) {
        if (!atoms[a].stateful()) continue;
        std::int32_t ord = -1;
        for (std::size_t i = 0; i < program.accesses.size(); ++i) {
          const auto& desc = program.accesses[i];
          if (desc.stage == s + 1 && desc.reg == atoms[a].reg) {
            ord = static_cast<std::int32_t>(i);
            break;
          }
        }
        if (ord < 0) {
          throw Error("native: no access descriptor for register '" +
                      program.pvsm.registers[atoms[a].reg].name +
                      "' in stage " + std::to_string(s));
        }
        atom_ordinal[s][a] = ord;
        ++matched;
      }
    }
    if (matched != program.accesses.size()) {
      throw Error("native: access descriptor count mismatch");
    }
  }

  PlanEntry* plan_of(std::uint32_t ref) {
    return plans.data() + static_cast<std::size_t>(ref) * plan_stride;
  }

  SpscRing<std::uint32_t>& xfer(std::uint32_t from, std::uint32_t to) {
    return *xfer_ring[static_cast<std::size_t>(from) * opts.workers + to];
  }

  // ---- worker side ------------------------------------------------------

  enum class Outcome { kParked, kForwarded, kEgressed };

  struct OutBufs {
    std::vector<Pending> to; // per destination worker
    Pending egress;

    explicit OutBufs(std::uint32_t workers) : to(workers) {}

    bool pending() const {
      return !egress.empty() ||
             std::any_of(to.begin(), to.end(),
                         [](const Pending& p) { return !p.empty(); });
    }
  };

  Outcome run_packet(std::uint32_t me, std::uint32_t ref, WorkerScratch& s,
                     OutBufs& outs) {
    auto& hdr = headers[ref];
    const auto& stages = program.pvsm.stages;
    const auto& specs = program.pvsm.registers;
    std::uint32_t st = pos_stage[ref];
    std::uint32_t at = pos_atom[ref];
    while (st < stages.size()) {
      const auto& atoms = stages[st].atoms;
      while (at < atoms.size()) {
        const ir::Atom& atom = atoms[at];
        const std::int32_t ord = atom_ordinal[st][at];
        if (ord < 0) {
          ir::exec_atom(atom, hdr, regfile, specs);
          ++at;
          continue;
        }
        PlanEntry& e = *(plan_of(ref) + ord);
        if (e.flags & kSkipState) {
          // Resolved guard was false at dispatch: the state access cannot
          // happen, but the atom's pure body still runs (its instructions
          // honour their own guards) — simulator pass-through parity.
          for (const auto& instr : atom.body) {
            if (instr.op == ir::TacOp::kRegRead ||
                instr.op == ir::TacOp::kRegWrite) {
              continue;
            }
            ir::exec_instr(instr, hdr, regfile, specs);
          }
          ++at;
          continue;
        }
        if (e.owner != me) {
          pos_stage[ref] = static_cast<std::uint16_t>(st);
          pos_atom[ref] = static_cast<std::uint16_t>(at);
          hopped[ref] = 1;
          ++s.stats.forwards;
          outs.to[e.owner].refs.push_back(ref);
          return Outcome::kForwarded;
        }
        std::uint32_t& done_ctr = done[e.reg][e.gate];
        if (done_ctr != e.ticket) {
          // An earlier-admitted claim on this index has not executed yet
          // (its packet is still in flight to this worker). Park; the
          // ticket makes arrival order exact no matter when we retry.
          pos_stage[ref] = static_cast<std::uint16_t>(st);
          pos_atom[ref] = static_cast<std::uint16_t>(at);
          ++s.stats.parks;
          ++s.reg_parks[e.reg];
          return Outcome::kParked;
        }
        bool performed = true;
        if (atom.guard != ir::kNoSlot) {
          const bool truthy =
              hdr[static_cast<std::size_t>(atom.guard)] != 0;
          performed = atom.guard_negate ? !truthy : truthy;
        }
        ir::exec_atom(atom, hdr, regfile, specs);
        ++done_ctr;
        ++s.reg_claimed[e.reg];
        if (performed) {
          ++s.stats.accesses;
          ++s.reg_performed[e.reg];
          if (hopped[ref]) ++s.reg_remote[e.reg];
        }
        ++at;
      }
      ++st;
      at = 0;
      ++s.stats.stages;
    }
    // Leave the ref's position at the start for its next packet, so
    // admission never writes these worker-read lines.
    pos_stage[ref] = 0;
    pos_atom[ref] = 0;
    hopped[ref] = 0;
    outs.egress.refs.push_back(ref);
    return Outcome::kEgressed;
  }

  void flush_outs(std::uint32_t me, OutBufs& outs) {
    for (std::uint32_t w = 0; w < opts.workers; ++w) {
      if (w != me) outs.to[w].flush(xfer(me, w));
    }
    outs.egress.flush(*egress_ring[me]);
  }

  void worker_main(std::uint32_t me) {
    if (!pin_cpus.empty()) pin_current_thread(pin_cpus[me % pin_cpus.size()]);
    WorkerScratch& s = scratch[me];
    OutBufs outs(opts.workers);
    std::vector<SpscRing<std::uint32_t>*> in;
    in.push_back(dispatch_ring[me].get());
    for (std::uint32_t from = 0; from < opts.workers; ++from) {
      if (from != me) in.push_back(&xfer(from, me));
    }
    std::deque<std::uint32_t> parked;
    std::vector<std::uint32_t> batch(opts.batch);
    const bool profiling = opts.profile;
    auto t_prev = profiling ? Clock::now() : Clock::time_point{};

    while (!failed.load(std::memory_order_relaxed)) {
      bool did = false;
      // Parked packets first, FIFO: the claim they wait on may have just
      // executed.
      for (std::size_t n = parked.size(); n > 0; --n) {
        const std::uint32_t ref = parked.front();
        parked.pop_front();
        const Outcome out = run_packet(me, ref, s, outs);
        if (out == Outcome::kParked) {
          parked.push_back(ref);
        } else {
          did = true;
        }
      }
      for (auto* ring : in) {
        const std::size_t n = ring->pop_batch(batch.data(), batch.size());
        for (std::size_t i = 0; i < n; ++i) {
          ++s.stats.hops;
          if (run_packet(me, batch[i], s, outs) == Outcome::kParked) {
            parked.push_back(batch[i]);
          }
        }
        did = did || n > 0;
      }
      flush_outs(me, outs);

      if (profiling) {
        const auto now = Clock::now();
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - t_prev)
                .count());
        (did ? s.stats.busy_ns : s.stats.idle_ns) += ns;
        t_prev = now;
      }
      if (!did) {
        if (stop.load(std::memory_order_acquire) && parked.empty() &&
            !outs.pending()) {
          bool drained = true;
          for (auto* ring : in) drained = drained && ring->empty_consumer();
          if (drained) return;
        }
        ++s.stats.idle_spins;
        if (oversubscribed || (s.stats.idle_spins & 0xfff) == 0) {
          std::this_thread::yield();
        } else {
          cpu_relax();
        }
      }
    }
  }

  void spawn_workers() {
    threads.reserve(opts.workers);
    for (std::uint32_t i = 0; i < opts.workers; ++i) {
      threads.emplace_back([this, i] {
        try {
          worker_main(i);
        } catch (...) {
          worker_error[i] = std::current_exception();
          failed.store(true, std::memory_order_release);
        }
      });
    }
  }

  void join_workers() {
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }

  /// Stop every worker now, abandoning in-flight packets, and join them.
  void halt_workers() {
    failed.store(true, std::memory_order_release);
    join_workers();
  }

  // ---- dispatcher side --------------------------------------------------

  void admit(std::uint32_t ref, const TraceItem& item, SeqNo n,
             std::vector<Pending>& outbuf) {
    auto& hdr = headers[ref];
    std::fill(hdr.begin(), hdr.end(), 0);
    const std::size_t nf = std::min(item.fields.size(), declared);
    for (std::size_t f = 0; f < nf; ++f) hdr[f] = item.fields[f];
    seq[ref] = n;

    // Address resolution (the D4 resolver): compute every preemptively
    // resolvable index and guard on the arrival headers.
    const auto& specs = program.pvsm.registers;
    for (const auto& instr : program.resolver) {
      ir::exec_instr(instr, hdr, regfile, specs);
    }

    PlanEntry* plan = plan_of(ref);
    std::uint8_t first_owner = kNoOwner;
    for (std::size_t i = 0; i < naccesses; ++i) {
      const AccessDescriptor& desc = program.accesses[i];
      PlanEntry& e = plan[i];
      e.reg = static_cast<std::uint16_t>(desc.reg);
      if (desc.guard != ir::kNoSlot && desc.guard_resolvable) {
        const bool truthy =
            hdr[static_cast<std::size_t>(desc.guard)] != 0;
        if (desc.guard_negate ? truthy : !truthy) {
          e.flags = kSkipState; // branch not taken: no claim, no ticket
          continue;
        }
      }
      // A later twin in a shard domain copies index and owner from the
      // nearest earlier twin that was not skipped, so each domain is
      // resolved, placed and noted once per packet.
      std::int32_t twin = domains.prev_twin[i];
      while (twin >= 0 && (plan[twin].flags & kSkipState)) {
        twin = domains.prev_twin[static_cast<std::size_t>(twin)];
      }
      if (twin >= 0) {
        e.index = plan[twin].index;
        e.owner = plan[twin].owner;
        e.flags = 0;
      } else {
        const RegId d = domains.of_access[i];
        e.index = desc.index_resolvable
                      ? ir::resolve_index(desc.index, hdr,
                                          specs[desc.reg].size)
                      : kUnresolvedIndex;
        e.owner = static_cast<std::uint8_t>(state.pipeline_of(d, e.index));
        state.note_resolved(d, e.index);
        e.flags = kNoted;
      }
      e.gate = program.shardable[desc.reg] ? e.index : 0;
      e.ticket = next_ticket[desc.reg][e.gate]++;
      if (first_owner == kNoOwner) first_owner = e.owner;
    }
    if (first_owner == kNoOwner) {
      // Stateless packet: spread round-robin.
      first_owner = static_cast<std::uint8_t>(n % opts.workers);
    }
    outbuf[first_owner].refs.push_back(ref);
  }

  /// The dispatcher's admit/reap loop. Returns when every packet has
  /// egressed, or early when a worker failed.
  void dispatch(TraceSource& source, NativeResult& result) {
    const std::uint32_t w = opts.workers;

    std::vector<std::uint32_t> free_refs(opts.pool_packets);
    for (std::uint32_t i = 0; i < opts.pool_packets; ++i) {
      free_refs[i] = opts.pool_packets - 1 - i;
    }
    std::vector<Pending> outbuf(w);
    std::vector<std::uint32_t> reap(opts.batch);

    if (const auto hint = source.size();
        opts.record_egress && hint.has_value()) {
      result.egress_fields.reserve(static_cast<std::size_t>(*hint));
    }

    const auto t0 = Clock::now();
    SeqNo admitted = 0;
    SeqNo reaped = 0;
    std::uint64_t last_rebalance = 0;
    const bool moving_policy = opts.policy == ShardingPolicy::kDynamic ||
                               opts.policy == ShardingPolicy::kIdealLpt;

    while (!failed.load(std::memory_order_acquire)) {
      bool did = false;

      // Admit while the pool and the first-hop rings have room.
      const TraceItem* item = nullptr;
      std::uint64_t fresh = 0;
      while (admitted - reaped < opts.pool_packets && !free_refs.empty() &&
             fresh < opts.batch && (item = source.peek()) != nullptr) {
        const std::uint32_t ref = free_refs.back();
        free_refs.pop_back();
        admit(ref, *item, admitted, outbuf);
        ++admitted;
        ++fresh;
        source.advance();
        did = true;
      }
      for (std::uint32_t i = 0; i < w; ++i) outbuf[i].flush(*dispatch_ring[i]);

      // Reap egressed packets: D2 in-flight accounting, optional egress
      // recording, ref recycling.
      for (std::uint32_t i = 0; i < w; ++i) {
        const std::size_t n =
            egress_ring[i]->pop_batch(reap.data(), reap.size());
        for (std::size_t p = 0; p < n; ++p) {
          const std::uint32_t ref = reap[p];
          const PlanEntry* plan = plan_of(ref);
          for (std::size_t a = 0; a < naccesses; ++a) {
            if (plan[a].flags & kNoted) {
              state.note_completed(domains.of_access[a], plan[a].index);
            }
          }
          if (opts.record_egress) {
            const SeqNo sq = seq[ref];
            if (result.egress_fields.size() <= sq) {
              result.egress_fields.resize(sq + 1);
            }
            result.egress_fields[sq].assign(headers[ref].begin(),
                                            headers[ref].begin() + declared);
          }
          free_refs.push_back(ref);
          ++reaped;
        }
        did = did || n > 0;
      }

      // Periodic D2 rebalance: ownership of quiescent (in-flight == 0)
      // indices migrates between workers; the dispatcher's ring handoffs
      // carry the happens-before edge from the old owner's last write to
      // the new owner's first read.
      if (moving_policy && opts.rebalance_packets > 0 &&
          reaped - last_rebalance >= opts.rebalance_packets) {
        result.shard_moves += state.rebalance();
        ++result.rebalances;
        last_rebalance = reaped;
      }

      if (admitted == reaped && source.peek() == nullptr) break;
      if (!did) {
        if (oversubscribed) std::this_thread::yield();
        else cpu_relax();
      }
    }

    const auto t1 = Clock::now();
    result.packets = admitted;
    result.seconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
            .count();
  }

  NativeResult run(TraceSource& source) {
    NativeResult result;
    try {
      spawn_workers();
      dispatch(source, result);
    } catch (...) {
      halt_workers();
      throw;
    }
    stop.store(true, std::memory_order_release);
    join_workers();
    for (std::uint32_t i = 0; i < opts.workers; ++i) {
      if (worker_error[i]) std::rethrow_exception(worker_error[i]);
    }
    if (const std::uint64_t left = state.in_flight_total(); left != 0) {
      throw Error("native: D2 in-flight counters did not balance (" +
                  std::to_string(left) + " accesses still in flight)");
    }

    result.pkts_per_sec =
        result.seconds > 0.0
            ? static_cast<double>(result.packets) / result.seconds
            : 0.0;
    result.oversubscribed = oversubscribed;
    result.final_registers = values;
    merge_profile(result);
    return result;
  }

  void merge_profile(NativeResult& result) {
    NativeProfile& prof = result.profile;
    prof.workers.reserve(opts.workers);
    for (const auto& s : scratch) prof.workers.push_back(s.stats);

    // A register serializes scaling only when its busiest owner did at
    // least 1.5x an even 1/cores share of its accesses; below that its
    // ownership is spread and more cores still help.
    const double named_share = 1.5 / static_cast<double>(opts.workers);
    prof.registers.resize(nregs);
    std::uint64_t best_serial = 0;
    for (RegId r = 0; r < nregs; ++r) {
      RegisterStats& rs = prof.registers[r];
      rs.name = program.pvsm.registers[r].name;
      for (std::uint32_t w = 0; w < opts.workers; ++w) {
        const WorkerScratch& s = scratch[w];
        rs.claimed += s.reg_claimed[r];
        rs.performed += s.reg_performed[r];
        rs.remote += s.reg_remote[r];
        rs.parks += s.reg_parks[r];
        if (s.reg_claimed[r] > rs.busiest_owner_accesses) {
          rs.busiest_owner_accesses = s.reg_claimed[r];
          rs.busiest_owner = w;
        }
      }
      if (rs.claimed > 0) {
        rs.owner_share = static_cast<double>(rs.busiest_owner_accesses) /
                         static_cast<double>(rs.claimed);
      }
      if (rs.owner_share >= named_share &&
          rs.busiest_owner_accesses > best_serial) {
        best_serial = rs.busiest_owner_accesses;
        prof.serializing_register = rs.name;
      }
    }
    if (result.packets > 0) {
      prof.serial_fraction = static_cast<double>(best_serial) /
                             static_cast<double>(result.packets);
    }
  }
};

NativeBackend::NativeBackend(const Mp5Program& program,
                             const NativeOptions& opts)
    : impl_(new Impl(program, opts)) {}

NativeBackend::~NativeBackend() { delete impl_; }

NativeResult NativeBackend::run(TraceSource& source) {
  return impl_->run(source);
}

} // namespace mp5::native
