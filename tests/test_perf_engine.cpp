// Tests for the hot-path engine work: the packet arena, the event walk,
// idle-cycle fast-forward and incremental D2 accounting.
//
// The contract under test is strict bit-identity: for every seed, design
// variant and fault plan, the event walk (the default) and the
// fast-forward optimization must produce a SimResult indistinguishable
// field-by-field from the lockstep reference walk stepping every cycle.
#include <gtest/gtest.h>

#include "apps/programs.hpp"
#include "baseline/presets.hpp"
#include "packet/arena.hpp"
#include "telemetry/telemetry.hpp"
#include "test_util.hpp"
#include "trace/workloads.hpp"

namespace mp5::test {
namespace {

// Field-by-field SimResult comparison with per-field failure messages.
void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.egressed, b.egressed);
  EXPECT_EQ(a.dropped_phantom, b.dropped_phantom);
  EXPECT_EQ(a.dropped_data, b.dropped_data);
  EXPECT_EQ(a.dropped_starved, b.dropped_starved);
  EXPECT_EQ(a.dropped_fault, b.dropped_fault);
  EXPECT_EQ(a.ecn_marked, b.ecn_marked);
  EXPECT_EQ(a.first_arrival, b.first_arrival);
  EXPECT_EQ(a.last_arrival, b.last_arrival);
  EXPECT_EQ(a.last_egress, b.last_egress);
  EXPECT_EQ(a.cycles_run, b.cycles_run);
  EXPECT_EQ(a.steers, b.steers);
  EXPECT_EQ(a.wasted_cycles, b.wasted_cycles);
  EXPECT_EQ(a.blocked_cycles, b.blocked_cycles);
  EXPECT_EQ(a.remap_moves, b.remap_moves);
  EXPECT_EQ(a.max_queue_depth, b.max_queue_depth);
  EXPECT_EQ(a.pipeline_failures, b.pipeline_failures);
  EXPECT_EQ(a.pipeline_recoveries, b.pipeline_recoveries);
  EXPECT_EQ(a.fault_remapped_indices, b.fault_remapped_indices);
  EXPECT_EQ(a.phantom_lost, b.phantom_lost);
  EXPECT_EQ(a.phantom_delayed, b.phantom_delayed);
  EXPECT_EQ(a.stalled_cycles, b.stalled_cycles);
  EXPECT_EQ(a.time_to_recover, b.time_to_recover);
  EXPECT_EQ(a.c1_violating_packets, b.c1_violating_packets);
  EXPECT_EQ(a.reordered_flow_packets, b.reordered_flow_packets);
  EXPECT_EQ(a.final_registers, b.final_registers);
  ASSERT_EQ(a.fault_drops.size(), b.fault_drops.size());
  for (std::size_t i = 0; i < a.fault_drops.size(); ++i) {
    EXPECT_EQ(a.fault_drops[i].seq, b.fault_drops[i].seq);
    EXPECT_EQ(a.fault_drops[i].state_touched, b.fault_drops[i].state_touched);
  }
  ASSERT_EQ(a.egress.size(), b.egress.size());
  for (std::size_t i = 0; i < a.egress.size(); ++i) {
    EXPECT_EQ(a.egress[i].seq, b.egress[i].seq);
    EXPECT_EQ(a.egress[i].egress_cycle, b.egress[i].egress_cycle);
    EXPECT_EQ(a.egress[i].flow, b.egress[i].flow);
    EXPECT_EQ(a.egress[i].headers, b.egress[i].headers);
  }
}

SimResult run_with(const Mp5Program& prog, const Trace& trace,
                   SimOptions opts) {
  opts.record_egress = true;
  opts.track_flow_reordering = true;
  Mp5Simulator sim(prog, opts);
  return sim.run(trace);
}

struct Variant {
  const char* name;
  SimOptions (*make)(std::uint32_t, std::uint64_t);
};

const Variant kVariants[] = {
    {"mp5", mp5_options},       {"no_d2", no_d2_options},
    {"no_d4", no_d4_options},   {"ideal", ideal_options},
};

/// A VectorTraceSource that counts peek() calls. The run loop peeks the
/// source at least once per stepped cycle, so a run that steps every cycle
/// peeks at least cycles_run times, and one that skips peeks far fewer.
class PeekCountingSource final : public TraceSource {
public:
  explicit PeekCountingSource(const Trace& trace) : inner_(trace) {}
  const TraceItem* peek() override {
    ++peeks_;
    return inner_.peek();
  }
  void advance() override { inner_.advance(); }
  std::uint64_t consumed() const override { return inner_.consumed(); }
  void skip_to(std::uint64_t n) override { inner_.skip_to(n); }
  std::optional<std::uint64_t> size() const override { return inner_.size(); }
  std::uint64_t peeks() const { return peeks_; }

private:
  VectorTraceSource inner_;
  std::uint64_t peeks_ = 0;
};

const SimEngine kWalks[] = {SimEngine::kEvent, SimEngine::kLockstep};

// --- event walk: bit-identity with the lockstep reference walk -----------

TEST(EventEngine, MatchesLockstepAcrossSeedsKsAndVariants) {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  for (const std::uint32_t k : {2u, 4u, 8u}) {
    SyntheticConfig config;
    config.stateful_stages = 4;
    config.reg_size = 256;
    config.pipelines = k;
    config.packets = 2000;
    for (const std::uint64_t seed : {1ull, 7ull}) {
      config.seed = seed;
      const auto trace = make_synthetic_trace(config);
      for (const auto& variant : kVariants) {
        SCOPED_TRACE(std::string(variant.name) + " k=" + std::to_string(k) +
                     " seed=" + std::to_string(seed));
        auto opts = variant.make(k, seed);
        opts.engine = SimEngine::kLockstep;
        const auto lockstep = run_with(prog, trace, opts);
        opts.engine = SimEngine::kEvent;
        expect_identical(lockstep, run_with(prog, trace, opts));
      }
    }
  }
}

TEST(EventEngine, MatchesLockstepOnSparseTraces) {
  // The sparse regime is where the event engine actually skips: cells sit
  // empty for long stretches and whole cycle ranges are jumped. cycles_run
  // must still land on exactly the lockstep count.
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 128));
  SyntheticConfig config;
  config.stateful_stages = 3;
  config.reg_size = 128;
  config.pipelines = 8;
  config.packets = 400;
  config.load = 0.01;
  const auto trace = make_synthetic_trace(config);

  auto opts = mp5_options(8, 1);
  opts.engine = SimEngine::kLockstep;
  opts.fast_forward = false; // the raw cycle-by-cycle reference walk
  const auto lockstep = run_with(prog, trace, opts);
  EXPECT_GT(lockstep.cycles_run, 4000u);
  opts.engine = SimEngine::kEvent;
  expect_identical(lockstep, run_with(prog, trace, opts));
  opts.fast_forward = true;
  expect_identical(lockstep, run_with(prog, trace, opts));
}

TEST(EventEngine, MatchesLockstepUnderLaneFailureAndRecovery) {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  SyntheticConfig config;
  config.stateful_stages = 4;
  config.reg_size = 256;
  config.pipelines = 8;
  config.packets = 3000;
  const auto trace = make_synthetic_trace(config);

  auto opts = mp5_options(8, 1);
  opts.engine = SimEngine::kLockstep;
  opts.faults.pipeline_faults.push_back(PipelineFault{2, 150, 600});
  opts.faults.pipeline_faults.push_back(PipelineFault{5, 300, kNeverRecovers});
  const auto lockstep = run_with(prog, trace, opts);
  EXPECT_GT(lockstep.dropped_fault, 0u); // the plan actually bites
  opts.engine = SimEngine::kEvent;
  expect_identical(lockstep, run_with(prog, trace, opts));
}

TEST(EventEngine, MatchesLockstepUnderPhantomChannelFaults) {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  SyntheticConfig config;
  config.stateful_stages = 4;
  config.reg_size = 256;
  config.pipelines = 4;
  config.packets = 3000;
  const auto trace = make_synthetic_trace(config);

  auto opts = mp5_options(4, 3);
  opts.engine = SimEngine::kLockstep;
  opts.realistic_phantom_channel = true;
  opts.faults.phantom_loss_rate = 0.02;
  opts.faults.phantom_delay_rate = 0.05;
  opts.faults.phantom_extra_delay = 12;
  const auto lockstep = run_with(prog, trace, opts);
  EXPECT_GT(lockstep.phantom_lost + lockstep.phantom_delayed, 0u);
  opts.engine = SimEngine::kEvent;
  expect_identical(lockstep, run_with(prog, trace, opts));
}

TEST(EventEngine, MatchesLockstepUnderStallsAndPressure) {
  // Stalled-but-empty cells are the one per-cycle effect the event walk
  // does not visit (it accounts them arithmetically), and stall windows
  // clamp the cycle skip — both must reproduce lockstep's stalled_cycles
  // exactly.
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  SyntheticConfig config;
  config.stateful_stages = 4;
  config.reg_size = 256;
  config.pipelines = 4;
  config.packets = 3000;
  const auto trace = make_synthetic_trace(config);

  auto opts = mp5_options(4, 5);
  opts.engine = SimEngine::kLockstep;
  opts.faults.stalls.push_back(StageStall{1, 2, 100, 180});
  opts.faults.stalls.push_back(StageStall{3, 1, 400, 450});
  opts.faults.fifo_pressure.push_back(FifoPressure{200, 260, 1});
  const auto lockstep = run_with(prog, trace, opts);
  EXPECT_GT(lockstep.stalled_cycles, 0u);
  opts.engine = SimEngine::kEvent;
  expect_identical(lockstep, run_with(prog, trace, opts));
}

TEST(EventEngine, SkipsUnderFaultPlansWhereLockstepCannot) {
  // A sparse trace plus a fault plan disables lockstep fast-forward
  // entirely; the event engine still skips (clamping at the stall window
  // and lane events) and must stay bit-identical — including
  // stalled_cycles accumulated across cycles where the switch is empty.
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 128));
  SyntheticConfig config;
  config.stateful_stages = 3;
  config.reg_size = 128;
  config.pipelines = 4;
  config.packets = 200;
  config.load = 0.005;
  const auto trace = make_synthetic_trace(config);

  auto opts = mp5_options(4, 11);
  opts.engine = SimEngine::kLockstep;
  opts.faults.stalls.push_back(StageStall{1, 1, 500, 9000});
  opts.faults.pipeline_faults.push_back(PipelineFault{2, 4000, 12000});
  const auto lockstep = run_with(prog, trace, opts);
  EXPECT_GT(lockstep.stalled_cycles, 1000u); // empty stalled cycles counted
  EXPECT_EQ(lockstep.pipeline_failures, 1u);
  opts.engine = SimEngine::kEvent;
  expect_identical(lockstep, run_with(prog, trace, opts));
}

TEST(EventEngine, IdenticalTelemetryAndTimeline) {
  // The event walk visits exactly the cells that do something, so the
  // event stream and every counter must match the lockstep run's.
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 128));
  SyntheticConfig config;
  config.stateful_stages = 3;
  config.reg_size = 128;
  config.pipelines = 4;
  config.packets = 500;
  const auto trace = make_synthetic_trace(config);

  const auto run_instrumented = [&](SimEngine engine,
                                    std::vector<TimelineEvent>& events,
                                    telemetry::Telemetry& telem) {
    auto opts = mp5_options(4, 2);
    opts.engine = engine;
    opts.telemetry = &telem;
    opts.timeline = [&events](const TimelineEvent& e) { events.push_back(e); };
    return run_with(prog, trace, opts);
  };
  std::vector<TimelineEvent> lockstep_events;
  std::vector<TimelineEvent> event_events;
  telemetry::Telemetry lockstep_telem;
  telemetry::Telemetry event_telem;
  const auto a =
      run_instrumented(SimEngine::kLockstep, lockstep_events, lockstep_telem);
  const auto b = run_instrumented(SimEngine::kEvent, event_events, event_telem);
  expect_identical(a, b);
  ASSERT_EQ(lockstep_events.size(), event_events.size());
  for (std::size_t i = 0; i < lockstep_events.size(); ++i) {
    EXPECT_EQ(lockstep_events[i].kind, event_events[i].kind);
    EXPECT_EQ(lockstep_events[i].cycle, event_events[i].cycle);
    EXPECT_EQ(lockstep_events[i].pipeline, event_events[i].pipeline);
    EXPECT_EQ(lockstep_events[i].stage, event_events[i].stage);
    EXPECT_EQ(lockstep_events[i].seq, event_events[i].seq);
  }
  EXPECT_EQ(lockstep_telem.counter_snapshot(), event_telem.counter_snapshot());
}

TEST(EventEngine, ExternalClockingMatchesRun) {
  // The fabric drives inner simulators through begin/step/finish; with an
  // event-engine inner sim the stepped walk must equal run() bit for bit.
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 128));
  SyntheticConfig config;
  config.stateful_stages = 3;
  config.reg_size = 128;
  config.pipelines = 4;
  config.packets = 600;
  const auto trace = make_synthetic_trace(config);

  auto opts = mp5_options(4, 6);
  opts.engine = SimEngine::kEvent;
  const auto whole = run_with(prog, trace, opts);

  opts.record_egress = true;
  opts.track_flow_reordering = true;
  Mp5Simulator sim(prog, opts);
  VectorTraceSource source(trace);
  sim.begin(source);
  Cycle c = 0;
  while (sim.has_work()) sim.step(c++);
  expect_identical(whole, sim.finish(c));
}

TEST(EventEngine, ParanoidChecksValidateActivityBitmap) {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  SyntheticConfig config;
  config.stateful_stages = 4;
  config.reg_size = 256;
  config.pipelines = 4;
  config.packets = 1500;
  const auto trace = make_synthetic_trace(config);

  auto opts = mp5_options(4, 4);
  opts.engine = SimEngine::kEvent;
  opts.paranoid_checks = true; // the watchdog cross-checks bit vs occupancy
  auto lockstep_opts = mp5_options(4, 4);
  lockstep_opts.engine = SimEngine::kLockstep;
  expect_identical(run_with(prog, trace, lockstep_opts),
                   run_with(prog, trace, opts));
}

TEST(EventEngine, EngineStringRoundTrip) {
  EXPECT_EQ(engine_from_string("lockstep"), SimEngine::kLockstep);
  EXPECT_EQ(engine_from_string("event"), SimEngine::kEvent);
  EXPECT_STREQ(to_string(SimEngine::kLockstep), "lockstep");
  EXPECT_STREQ(to_string(SimEngine::kEvent), "event");
  EXPECT_THROW(engine_from_string("warp"), ConfigError);
}

TEST(EventEngine, IsTheDefaultWalk) {
  EXPECT_EQ(SimOptions{}.engine, SimEngine::kEvent);
  for (const auto& variant : kVariants) {
    SCOPED_TRACE(variant.name);
    EXPECT_EQ(variant.make(4, 1).engine, SimEngine::kEvent);
  }
}

// --- idle-cycle fast-forward ---------------------------------------------

TEST(FastForward, IdenticalResultsOnSparseTrace) {
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 128));
  SyntheticConfig config;
  config.stateful_stages = 3;
  config.reg_size = 128;
  config.pipelines = 4;
  config.packets = 400;
  config.load = 0.01; // ~100 idle cycles between packets
  const auto trace = make_synthetic_trace(config);

  for (const SimEngine walk : kWalks) {
    SCOPED_TRACE(to_string(walk));
    auto opts = mp5_options(4, 1);
    opts.engine = walk;
    opts.fast_forward = false;
    const auto slow = run_with(prog, trace, opts);
    opts.fast_forward = true;
    const auto fast = run_with(prog, trace, opts);
    expect_identical(slow, fast);
    EXPECT_GT(slow.cycles_run, 5000u); // the sparse trace really is sparse
  }
}

TEST(FastForward, DisablingItStepsEveryCycleUnderEitherWalk) {
  // fast_forward = false must step every cycle under both walks (the
  // run loop peeks the source at least once per stepped cycle), and
  // fast_forward = true must skip under both.
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 128));
  SyntheticConfig config;
  config.stateful_stages = 3;
  config.reg_size = 128;
  config.pipelines = 4;
  config.packets = 300;
  config.load = 0.005;
  const auto trace = make_synthetic_trace(config);

  for (const SimEngine walk : kWalks) {
    SCOPED_TRACE(to_string(walk));
    auto opts = mp5_options(4, 3);
    opts.engine = walk;
    for (const bool ff : {false, true}) {
      SCOPED_TRACE(ff ? "fast_forward on" : "fast_forward off");
      opts.fast_forward = ff;
      Mp5Simulator sim(prog, opts);
      PeekCountingSource source(trace);
      const SimResult result = sim.run(source);
      EXPECT_GT(result.cycles_run, 10000u);
      if (ff) {
        EXPECT_LT(source.peeks(), result.cycles_run / 4);
      } else {
        EXPECT_GE(source.peeks(), result.cycles_run);
      }
    }
  }
}

TEST(FastForward, IdenticalUnderFaultPlan) {
  // A stage stall plus a lane fail/recover over a sparse trace: the event
  // walk skips between the fault boundaries, lockstep does not skip at
  // all. Skip on versus skip off must be bit-identical under both walks,
  // cycles_run and stalled_cycles included.
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 128));
  SyntheticConfig config;
  config.stateful_stages = 3;
  config.reg_size = 128;
  config.pipelines = 4;
  config.packets = 300;
  config.load = 0.01;
  const auto trace = make_synthetic_trace(config);

  for (const SimEngine walk : kWalks) {
    SCOPED_TRACE(to_string(walk));
    auto opts = mp5_options(4, 8);
    opts.engine = walk;
    opts.faults.stalls.push_back(StageStall{1, 2, 700, 4000});
    opts.faults.pipeline_faults.push_back(PipelineFault{3, 2500, 5000});
    opts.fast_forward = false;
    const auto slow = run_with(prog, trace, opts);
    EXPECT_GT(slow.stalled_cycles, 1000u);
    EXPECT_EQ(slow.pipeline_failures, 1u);
    EXPECT_EQ(slow.pipeline_recoveries, 1u);
    opts.fast_forward = true;
    expect_identical(slow, run_with(prog, trace, opts));
  }
}

TEST(FastForward, IdenticalUnderRealisticChannelAndRemap) {
  // Phantom-channel deliveries and remap boundaries are wake-up events the
  // fast-forward must not jump over.
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  SyntheticConfig config;
  config.stateful_stages = 4;
  config.reg_size = 256;
  config.pipelines = 4;
  config.packets = 300;
  config.load = 0.02;
  const auto trace = make_synthetic_trace(config);

  for (const SimEngine walk : kWalks) {
    for (const auto& variant : kVariants) {
      SCOPED_TRACE(std::string(variant.name) + " " + to_string(walk));
      auto opts = variant.make(4, 2);
      opts.engine = walk;
      opts.realistic_phantom_channel = opts.phantoms;
      opts.fast_forward = false;
      const auto slow = run_with(prog, trace, opts);
      opts.fast_forward = true;
      expect_identical(slow, run_with(prog, trace, opts));
    }
  }
}

// --- incremental D2 accounting -------------------------------------------

TEST(IncrementalSharding, SimResultMatchesReferenceRebalance) {
  // The incremental O(touched) rebalance must be decision-for-decision
  // identical to the full-scan reference, so routing the simulator through
  // either path yields the same SimResult, field by field.
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  for (const std::uint32_t k : {2u, 4u}) {
    SyntheticConfig config;
    config.stateful_stages = 4;
    config.reg_size = 256;
    config.pipelines = k;
    config.packets = 2000;
    for (const std::uint64_t seed : {1ull, 7ull}) {
      config.seed = seed;
      const auto trace = make_synthetic_trace(config);
      for (const auto& variant : kVariants) {
        SCOPED_TRACE(std::string(variant.name) + " k=" + std::to_string(k) +
                     " seed=" + std::to_string(seed));
        auto opts = variant.make(k, seed);
        opts.reference_rebalance = true;
        const auto reference = run_with(prog, trace, opts);
        opts.reference_rebalance = false;
        expect_identical(reference, run_with(prog, trace, opts));
      }
    }
  }
}

TEST(IncrementalSharding, SimResultMatchesReferenceUnderFaultPlan) {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  SyntheticConfig config;
  config.stateful_stages = 4;
  config.reg_size = 256;
  config.pipelines = 8;
  config.packets = 3000;
  const auto trace = make_synthetic_trace(config);

  auto opts = mp5_options(8, 1);
  opts.faults.pipeline_faults.push_back(PipelineFault{2, 150, 600});
  opts.faults.pipeline_faults.push_back(PipelineFault{5, 300, kNeverRecovers});
  opts.reference_rebalance = true;
  const auto reference = run_with(prog, trace, opts);
  EXPECT_GT(reference.fault_remapped_indices, 0u); // the plan actually bites
  opts.reference_rebalance = false;
  expect_identical(reference, run_with(prog, trace, opts));
}

TEST(FastForward, SkipsEmptyWindowRemapBoundariesBitIdentically) {
  // A sparse trace leaves many remap windows with an empty touched list.
  // window_dirty() lets fast-forward skip those boundaries entirely — the
  // results must match the cycle-by-cycle walk AND the full-scan reference
  // path (which steps every boundary) bit for bit.
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 128));
  SyntheticConfig config;
  config.stateful_stages = 3;
  config.reg_size = 128;
  config.pipelines = 4;
  config.packets = 300;
  config.load = 0.002; // ~500 idle cycles between packets: whole remap
                       // periods pass with nothing touched
  const auto trace = make_synthetic_trace(config);

  for (const SimEngine walk : kWalks) {
    for (const auto& variant : kVariants) {
      SCOPED_TRACE(std::string(variant.name) + " " + to_string(walk));
      auto opts = variant.make(4, 2);
      opts.engine = walk;
      opts.fast_forward = false;
      opts.reference_rebalance = true;
      const auto slow_reference = run_with(prog, trace, opts);
      // The trace spans several remap periods, so empty-window boundaries
      // really occur between the sparse arrivals.
      EXPECT_GT(slow_reference.cycles_run, 10 * opts.remap_period);
      opts.reference_rebalance = false;
      const auto slow = run_with(prog, trace, opts);
      expect_identical(slow_reference, slow);
      opts.fast_forward = true;
      expect_identical(slow, run_with(prog, trace, opts));
    }
  }
}

// --- packet arena --------------------------------------------------------

TEST(PacketArena, RecyclesSlotsWithoutStaleFields) {
  PacketArena arena;
  const PacketRef a = arena.alloc();
  {
    Packet& pkt = arena.get(a);
    pkt.seq = 41;
    pkt.arrival_cycle = 100;
    pkt.port = 7;
    pkt.size_bytes = 1500;
    pkt.flow = 12345;
    pkt.ecn_marked = true;
    pkt.headers = {1, 2, 3};
    pkt.plan.resize(2);
    pkt.next_access = 1;
  }
  arena.release(a);
  EXPECT_EQ(arena.live_count(), 0u);

  const PacketRef b = arena.alloc();
  EXPECT_EQ(b, a); // freelist reuse, not growth
  const Packet& pkt = arena.get(b);
  EXPECT_EQ(pkt.seq, kInvalidSeqNo);
  EXPECT_EQ(pkt.arrival_cycle, 0u);
  EXPECT_EQ(pkt.port, 0u);
  EXPECT_EQ(pkt.size_bytes, 64u);
  EXPECT_EQ(pkt.flow, 0u);
  EXPECT_FALSE(pkt.ecn_marked);
  EXPECT_TRUE(pkt.headers.empty());
  EXPECT_TRUE(pkt.plan.empty());
  EXPECT_EQ(pkt.next_access, 0u);
  EXPECT_EQ(arena.slot_count(), 1u);
  EXPECT_EQ(arena.recycled_allocs(), 1u);
}

TEST(PacketArena, ReleaseOfDeadSlotThrows) {
  PacketArena arena;
  const PacketRef a = arena.alloc();
  arena.release(a);
  EXPECT_THROW(arena.release(a), Error);
  EXPECT_FALSE(arena.live(a));
}

TEST(PacketArena, TracksPeakLive) {
  PacketArena arena;
  arena.reserve(8);
  std::vector<PacketRef> refs;
  for (int i = 0; i < 5; ++i) refs.push_back(arena.alloc());
  for (const auto r : refs) arena.release(r);
  for (int i = 0; i < 3; ++i) arena.alloc();
  EXPECT_EQ(arena.peak_live(), 5u);
  EXPECT_EQ(arena.live_count(), 3u);
  EXPECT_EQ(arena.total_allocs(), 8u);
  EXPECT_EQ(arena.recycled_allocs(), 3u);
  EXPECT_EQ(arena.slot_count(), 5u);
}

// The simulator's arena must end every run empty: each admitted packet is
// eventually egressed or dropped, and both paths release the slot.
TEST(PacketArena, SimulatorDrainsArenaAndRecycles) {
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  SyntheticConfig config;
  config.stateful_stages = 4;
  config.reg_size = 256;
  config.pipelines = 4;
  config.packets = 2000;
  const auto trace = make_synthetic_trace(config);
  Mp5Simulator sim(prog, mp5_options(4, 1));
  const auto result = sim.run(trace);
  EXPECT_EQ(result.egressed + result.dropped_data + result.dropped_starved +
                result.dropped_fault,
            result.offered);
  EXPECT_EQ(sim.arena().live_count(), 0u);
  // The pool stabilizes at the peak number of in-flight packets, far below
  // one slot per trace packet.
  EXPECT_LT(sim.arena().slot_count(), trace.size() / 2);
  EXPECT_GT(sim.arena().recycled_allocs(), 0u);
}

} // namespace
} // namespace mp5::test
