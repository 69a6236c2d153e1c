// Tests for the hot-path engine work: the packet arena, the event walk,
// idle-cycle fast-forward and incremental D2 accounting.
//
// The contract under test is strict bit-identity: for every seed, design
// variant and fault plan, the event walk (the default), with or without
// cycle skipping, must produce a SimResult indistinguishable field-by-field
// from the dense reference walk (SimEngine::kLockstep), which steps every
// cycle, visits every cell and rebalances through the full scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

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

// --- event walk: bit-identity with the dense reference walk --------------

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
  const auto lockstep = run_with(prog, trace, opts);
  EXPECT_GT(lockstep.cycles_run, 4000u);
  opts.engine = SimEngine::kEvent;
  opts.fast_forward = false;
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
  // A sparse trace plus a fault plan: the dense reference steps every
  // cycle, with fast_forward on or off; the event walk skips (clamping at
  // the stall window and lane events) exactly when fast_forward is on.
  // All runs must be bit-identical — including stalled_cycles accumulated
  // across cycles where the switch is empty.
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 128));
  SyntheticConfig config;
  config.stateful_stages = 3;
  config.reg_size = 128;
  config.pipelines = 4;
  config.packets = 2000; // long enough that most cycles lie outside the
  config.load = 0.005;   // stall window, where the event walk may skip
  const auto trace = make_synthetic_trace(config);

  auto opts = mp5_options(4, 11);
  opts.record_egress = true;
  opts.track_flow_reordering = true;
  opts.faults.stalls.push_back(StageStall{1, 1, 500, 9000});
  opts.faults.pipeline_faults.push_back(PipelineFault{2, 4000, 12000});
  const auto run_counting = [&](SimEngine walk, bool ff,
                                std::uint64_t& peeks) {
    SimOptions o = opts;
    o.engine = walk;
    o.fast_forward = ff;
    Mp5Simulator sim(prog, o);
    PeekCountingSource source(trace);
    SimResult result = sim.run(source);
    peeks = source.peeks();
    return result;
  };
  // The run loop peeks the source at least once per stepped cycle, so a
  // run that steps every cycle peeks at least cycles_run times.
  std::uint64_t ref_peeks = 0, ref_noff_peeks = 0;
  const auto reference = run_counting(SimEngine::kLockstep, true, ref_peeks);
  EXPECT_GT(reference.stalled_cycles, 1000u); // empty stalled cycles counted
  EXPECT_EQ(reference.pipeline_failures, 1u);
  EXPECT_GE(ref_peeks, reference.cycles_run); // the reference never skips
  expect_identical(reference,
                   run_counting(SimEngine::kLockstep, false, ref_noff_peeks));
  EXPECT_EQ(ref_peeks, ref_noff_peeks); // ... and ignores fast_forward

  std::uint64_t noff_peeks = 0, ff_peeks = 0;
  expect_identical(reference,
                   run_counting(SimEngine::kEvent, false, noff_peeks));
  EXPECT_GE(noff_peeks, reference.cycles_run);
  expect_identical(reference, run_counting(SimEngine::kEvent, true, ff_peeks));
  EXPECT_LT(ff_peeks, reference.cycles_run); // skips outside the window
}

TEST(EventEngine, IdenticalTelemetryAndTimeline) {
  // The event walk visits exactly the cells that do something, so the
  // event stream and every counter must match the dense reference's.
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

/// Externally clocked run in the style of a co-simulation loop: skip
/// only while drained(), to the next arrival, clamped to the next dirty
/// remap boundary and to the next cycle the fault plan observes (a lane
/// event, or a cycle covered by a stall window). Records drained() after
/// every step.
SimResult run_stepped(const Mp5Program& prog, const Trace& trace,
                      SimOptions opts, std::vector<bool>& drained_after) {
  opts.record_egress = true;
  opts.track_flow_reordering = true;
  Mp5Simulator sim(prog, opts);
  VectorTraceSource source(trace);
  sim.begin(source);
  const auto fault_clamp = [&opts](Cycle now, Cycle target) {
    for (const auto& f : opts.faults.pipeline_faults) {
      for (const Cycle c : {f.fail_at, f.recover_at}) {
        if (c >= now) target = std::min(target, c);
      }
    }
    for (const auto& st : opts.faults.stalls) {
      if (st.until > now) target = std::min(target, std::max(st.from, now));
    }
    return target;
  };
  Cycle now = 0;
  drained_after.clear();
  while (sim.has_work()) {
    if (sim.drained()) {
      if (const TraceItem* next = source.peek()) {
        Cycle target = static_cast<Cycle>(next->arrival_time);
        if (opts.remap_period != 0 && sim.state().window_dirty()) {
          const Cycle period = opts.remap_period;
          target = std::min(target, ((now + period) / period) * period - 1);
        }
        now = std::max(fault_clamp(now, target), now);
      }
    }
    sim.step(now++);
    drained_after.push_back(sim.drained());
  }
  return sim.finish(now);
}

TEST(EventEngine, ExternalClockingMatchesRun) {
  // The fabric and perfbench drive inner simulators through
  // begin/step/finish, skipping cycles while drained(). Under either walk,
  // with and without a fault plan, that stepped run must equal run() and
  // a run restored from a mid-run checkpoint bit for bit, and drained()
  // must read the same after every step under both walks (they keep one
  // activity bitmap).
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 128));
  SyntheticConfig config;
  config.stateful_stages = 3;
  config.reg_size = 128;
  config.pipelines = 4;
  config.packets = 600;
  config.load = 0.05; // drained stretches between bursts
  const auto trace = make_synthetic_trace(config);

  for (const bool faulty : {false, true}) {
    SCOPED_TRACE(faulty ? "fault plan" : "fault-free");
    auto opts = mp5_options(4, 6);
    if (faulty) {
      opts.faults.stalls.push_back(StageStall{2, 1, 300, 900});
      opts.faults.pipeline_faults.push_back(PipelineFault{1, 2000, 4000});
    }
    std::vector<bool> event_drained;
    opts.engine = SimEngine::kEvent;
    const auto event = run_stepped(prog, trace, opts, event_drained);
    EXPECT_NE(std::count(event_drained.begin(), event_drained.end(), true),
              0);
    if (faulty) {
      EXPECT_GT(event.stalled_cycles, 0u);
    }

    for (const SimEngine walk : kWalks) {
      SCOPED_TRACE(to_string(walk));
      opts.engine = walk;
      std::vector<bool> drained;
      expect_identical(event, run_stepped(prog, trace, opts, drained));
      EXPECT_EQ(drained, event_drained);
      const auto whole = run_with(prog, trace, opts);
      expect_identical(event, whole);

      std::vector<std::string> blobs;
      SimOptions copts = opts;
      copts.checkpoint_interval = std::max<Cycle>(1, whole.cycles_run / 2);
      copts.checkpoint_sink = [&blobs](Cycle, std::string&& blob) {
        blobs.push_back(std::move(blob));
      };
      (void)run_with(prog, trace, copts);
      ASSERT_FALSE(blobs.empty());
      SimOptions ropts = opts;
      ropts.record_egress = true;
      ropts.track_flow_reordering = true;
      Mp5Simulator restored(prog, ropts);
      VectorTraceSource source(trace);
      expect_identical(event, restored.resume(source, blobs.front()));
    }
  }
}

TEST(EventEngine, ParanoidChecksValidateActivityBitmap) {
  // The watchdog cross-checks every clear activity bit against the cell's
  // occupancy under both walks: the dense reference keeps the same bitmap.
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  SyntheticConfig config;
  config.stateful_stages = 4;
  config.reg_size = 256;
  config.pipelines = 4;
  config.packets = 1500;
  const auto trace = make_synthetic_trace(config);

  auto opts = mp5_options(4, 4);
  opts.paranoid_checks = true;
  opts.engine = SimEngine::kLockstep;
  const auto reference = run_with(prog, trace, opts);
  EXPECT_GT(reference.blocked_cycles, 0u); // the event walk parks cells
  opts.engine = SimEngine::kEvent;
  expect_identical(reference, run_with(prog, trace, opts));
}

// --- parked cells ----------------------------------------------------------
//
// With no per-event sink attached, the event walk parks a cell whose FIFO
// head is a blocked phantom and charges the skipped cycles at the next
// visit. Each scenario runs both walks with a counters-only telemetry
// registry (event_capacity = 0, so parking stays on) and the watchdog on,
// and requires identical SimResults and counter snapshots.

struct Counted {
  SimResult result;
  std::map<std::string, std::uint64_t> counters;
};

Counted run_counted(const Mp5Program& prog, const Trace& trace,
                    SimOptions opts) {
  telemetry::Telemetry telem(telemetry::Config{/*event_capacity=*/0});
  opts.telemetry = &telem;
  opts.paranoid_checks = true;
  Counted out;
  out.result = run_with(prog, trace, opts);
  out.counters = telem.counter_snapshot();
  return out;
}

/// Runs `opts` under both walks (parking on); returns the reference run.
SimResult expect_parked_walk_matches(const Mp5Program& prog,
                                     const Trace& trace, SimOptions opts) {
  opts.engine = SimEngine::kLockstep;
  Counted reference = run_counted(prog, trace, opts);
  opts.engine = SimEngine::kEvent;
  const Counted event = run_counted(prog, trace, opts);
  expect_identical(reference.result, event.result);
  EXPECT_EQ(reference.counters, event.counters);
  EXPECT_GT(reference.result.blocked_cycles, 0u); // cells really block
  EXPECT_EQ(reference.counters.at("fifo.pop_blocked"),
            reference.result.blocked_cycles);
  return std::move(reference.result);
}

const struct {
  const char* name;
  SimOptions (*make)(std::uint32_t, std::uint64_t);
} kQueueModes[] = {{"lanes", mp5_options}, {"ideal_queues", ideal_options}};

TEST(EventEngine, ParkedCellsMatchReferenceAcrossStallWindows) {
  // Stall windows open and close over cells parked on a blocked head: the
  // stalled cycles of a parked cell are charged by account_skipped_stalls
  // and must not be charged again as blocked when the cell wakes.
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 64));
  for (const double load : {0.05, 0.8}) {
    SyntheticConfig config;
    config.stateful_stages = 4;
    config.reg_size = 64;
    config.pipelines = 4;
    config.packets = 1500;
    config.load = load;
    const auto trace = make_synthetic_trace(config);
    for (const auto& mode : kQueueModes) {
      SCOPED_TRACE(std::string(mode.name) + " load " + std::to_string(load));
      auto opts = mode.make(4, 9);
      for (StageId st = 1; st <= 4; ++st) {
        opts.faults.stalls.push_back(StageStall{st % 4, st, 40u * st,
                                                40u * st + 300});
      }
      opts.faults.stalls.push_back(StageStall{2, 3, 100, 2000});
      opts.faults.stalls.push_back(StageStall{2, 3, 1500, 2500}); // overlaps
      const auto reference = expect_parked_walk_matches(prog, trace, opts);
      EXPECT_GT(reference.stalled_cycles, 0u);
    }
  }
}

TEST(EventEngine, ParkedCellsWakeOnGuardCancellation) {
  // A stateful predicate leaves conservative phantoms that are cancelled
  // once the guard resolves upstream. A cell parked on such a head must
  // wake for the cancel: its next pop is the wasted cycle of §3.3.
  const auto prog = compile_mp5(apps::stateful_predicate_source());
  for (const double load : {0.1, 1.0}) {
    Rng rng(29);
    const auto trace = trace_from_fields(
        random_fields(2000, 3, 64, rng), 4, load);
    for (const auto& mode : kQueueModes) {
      SCOPED_TRACE(std::string(mode.name) + " load " + std::to_string(load));
      const auto reference =
          expect_parked_walk_matches(prog, trace, mode.make(4, 29));
      if (std::string(mode.name) == "lanes") {
        EXPECT_GT(reference.wasted_cycles, 0u);
      }
    }
  }
}

TEST(EventEngine, ParkedCellsMatchReferenceUnderLaneFailure) {
  // A lane failure settles the dying lane's parked cells, and purging a
  // doomed packet from a surviving FIFO wakes that (possibly parked)
  // cell; after recovery the lane parks again.
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  SyntheticConfig config;
  config.stateful_stages = 4;
  config.reg_size = 256;
  config.pipelines = 8;
  config.packets = 3000;
  config.load = 0.6;
  const auto trace = make_synthetic_trace(config);
  for (const auto& mode : kQueueModes) {
    SCOPED_TRACE(mode.name);
    auto opts = mode.make(8, 1);
    opts.faults.pipeline_faults.push_back(PipelineFault{2, 150, 600});
    opts.faults.pipeline_faults.push_back(
        PipelineFault{5, 300, kNeverRecovers});
    const auto reference = expect_parked_walk_matches(prog, trace, opts);
    EXPECT_GT(reference.dropped_fault, 0u);
    EXPECT_EQ(reference.pipeline_recoveries, 1u);
  }
}

TEST(EventEngine, ParkedCellsMatchReferenceOnRealisticChannel) {
  // Delayed phantoms reach their FIFO late (possibly as pre-cancelled
  // zombies behind a parked head) and lost ones orphan their data packet;
  // every delivery and cancel wakes the cell.
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  SyntheticConfig config;
  config.stateful_stages = 4;
  config.reg_size = 256;
  config.pipelines = 4;
  config.packets = 3000;
  config.load = 0.5;
  const auto trace = make_synthetic_trace(config);
  for (const auto& mode : kQueueModes) {
    SCOPED_TRACE(mode.name);
    auto opts = mode.make(4, 3);
    opts.realistic_phantom_channel = true;
    opts.faults.phantom_loss_rate = 0.02;
    opts.faults.phantom_delay_rate = 0.05;
    opts.faults.phantom_extra_delay = 12;
    const auto reference = expect_parked_walk_matches(prog, trace, opts);
    EXPECT_GT(reference.phantom_lost, 0u);
    EXPECT_GT(reference.phantom_delayed, 0u);
  }
}

TEST(EventEngine, ParkedCellsSettleUnderExternalClocking) {
  // begin/step/finish: the stepped run settles its parked cells in
  // finish(), also when finish() ends the run with packets in flight.
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 128));
  SyntheticConfig config;
  config.stateful_stages = 3;
  config.reg_size = 128;
  config.pipelines = 4;
  config.packets = 600;
  config.load = 0.05;
  const auto trace = make_synthetic_trace(config);

  auto opts = mp5_options(4, 6);
  opts.faults.stalls.push_back(StageStall{2, 1, 300, 900});
  const auto stepped = [&](SimEngine walk, telemetry::Telemetry& telem) {
    SimOptions o = opts;
    o.engine = walk;
    o.telemetry = &telem;
    std::vector<bool> drained;
    return run_stepped(prog, trace, o, drained);
  };
  telemetry::Telemetry ref_telem(telemetry::Config{/*event_capacity=*/0});
  telemetry::Telemetry event_telem(telemetry::Config{/*event_capacity=*/0});
  const auto reference = stepped(SimEngine::kLockstep, ref_telem);
  EXPECT_GT(reference.blocked_cycles, 0u);
  expect_identical(reference, stepped(SimEngine::kEvent, event_telem));
  EXPECT_EQ(ref_telem.counter_snapshot(), event_telem.counter_snapshot());

  // Cut the run short mid-flight: from each cut cycle on, step until
  // packets are in flight, then finish there.
  for (const Cycle cut : {Cycle{57}, Cycle{313}, Cycle{1001}}) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    std::vector<SimResult> results;
    std::vector<std::map<std::string, std::uint64_t>> counters;
    for (const SimEngine walk : kWalks) {
      telemetry::Telemetry telem(telemetry::Config{/*event_capacity=*/0});
      SimOptions o = opts;
      o.engine = walk;
      o.telemetry = &telem;
      o.record_egress = true;
      Mp5Simulator sim(prog, o);
      VectorTraceSource source(trace);
      sim.begin(source);
      Cycle now = 0;
      while (now < cut || sim.live_packets() == 0) sim.step(now++);
      results.push_back(sim.finish(now));
      counters.push_back(telem.counter_snapshot());
    }
    expect_identical(results[0], results[1]);
    EXPECT_EQ(counters[0], counters[1]);
    EXPECT_LT(results[0].egressed, results[0].offered); // really mid-flight
  }
}

TEST(EventEngine, TimelineHookLeavesResultUnchanged) {
  // A timeline sink must see every per-cycle kBlocked event, so attaching
  // one turns parking off; the SimResult must not notice.
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  SyntheticConfig config;
  config.stateful_stages = 4;
  config.reg_size = 256;
  config.pipelines = 4;
  config.packets = 1500;
  config.load = 0.3;
  const auto trace = make_synthetic_trace(config);

  auto opts = mp5_options(4, 12);
  const auto parked = run_with(prog, trace, opts);
  std::uint64_t blocked_events = 0;
  opts.timeline = [&blocked_events](const TimelineEvent& e) {
    if (e.kind == TimelineEvent::Kind::kBlocked) ++blocked_events;
  };
  expect_identical(parked, run_with(prog, trace, opts));
  EXPECT_GT(blocked_events, 0u);
  EXPECT_EQ(blocked_events, parked.blocked_cycles);
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
  // The dense reference steps every cycle whatever fast_forward says (the
  // run loop peeks the source at least once per stepped cycle); the event
  // walk skips if and only if fast_forward is on.
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
      if (ff && walk == SimEngine::kEvent) {
        EXPECT_LT(source.peeks(), result.cycles_run / 4);
      } else {
        EXPECT_GE(source.peeks(), result.cycles_run);
      }
    }
  }
}

TEST(FastForward, IdenticalUnderFaultPlan) {
  // A stage stall plus a lane fail/recover over a sparse trace: the event
  // walk skips between the fault boundaries, the dense reference does not
  // skip at all. fast_forward on versus off must be bit-identical under
  // both walks, cycles_run and stalled_cycles included.
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
  // The event walk rebalances through the incremental O(touched) path and
  // the dense reference through the full scan; the two must make the same
  // decision at every boundary, so the SimResults match field by field. A
  // short remap period makes boundaries (and moves) frequent.
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
        opts.remap_period = 7;
        opts.engine = SimEngine::kLockstep;
        const auto reference = run_with(prog, trace, opts);
        if (opts.sharding == ShardingPolicy::kDynamic ||
            opts.sharding == ShardingPolicy::kIdealLpt) {
          EXPECT_GT(reference.remap_moves, 0u); // boundaries really move
        }
        opts.engine = SimEngine::kEvent;
        expect_identical(reference, run_with(prog, trace, opts));
      }
    }
  }
}

TEST(IncrementalSharding, SimResultMatchesReferenceUnderFaultPlan) {
  // Lane failures re-home indices between rebalances; both rebalance
  // paths must then see the same maps and in-flight counters.
  const auto prog = compile_mp5(apps::make_synthetic_source(4, 256));
  SyntheticConfig config;
  config.stateful_stages = 4;
  config.reg_size = 256;
  config.pipelines = 8;
  config.packets = 3000;
  const auto trace = make_synthetic_trace(config);

  auto opts = mp5_options(8, 1);
  opts.remap_period = 7;
  opts.faults.pipeline_faults.push_back(PipelineFault{2, 150, 600});
  opts.faults.pipeline_faults.push_back(PipelineFault{5, 300, kNeverRecovers});
  opts.engine = SimEngine::kLockstep;
  const auto reference = run_with(prog, trace, opts);
  EXPECT_GT(reference.fault_remapped_indices, 0u); // the plan actually bites
  EXPECT_GT(reference.remap_moves, 0u);
  opts.engine = SimEngine::kEvent;
  expect_identical(reference, run_with(prog, trace, opts));
}

TEST(FastForward, SkipsEmptyWindowRemapBoundariesBitIdentically) {
  // A sparse trace leaves many remap windows with an empty touched list.
  // window_dirty() lets the event walk skip those boundaries entirely —
  // the results must match the event walk stepping every cycle AND the
  // dense reference (which steps every boundary through the full-scan
  // rebalance) bit for bit.
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 128));
  SyntheticConfig config;
  config.stateful_stages = 3;
  config.reg_size = 128;
  config.pipelines = 4;
  config.packets = 300;
  config.load = 0.002; // ~500 idle cycles between packets: whole remap
                       // periods pass with nothing touched
  const auto trace = make_synthetic_trace(config);

  for (const auto& variant : kVariants) {
    SCOPED_TRACE(variant.name);
    auto opts = variant.make(4, 2);
    opts.engine = SimEngine::kLockstep;
    const auto reference = run_with(prog, trace, opts);
    // The trace spans several remap periods, so empty-window boundaries
    // really occur between the sparse arrivals.
    EXPECT_GT(reference.cycles_run, 10 * opts.remap_period);
    opts.engine = SimEngine::kEvent;
    opts.fast_forward = false;
    expect_identical(reference, run_with(prog, trace, opts));
    opts.fast_forward = true;
    expect_identical(reference, run_with(prog, trace, opts));
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
