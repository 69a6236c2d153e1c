// Robustness satellites: construction-time option validation, the
// ChannelKey packing-collision regression, drop-accounting conservation,
// and unit coverage for the fault-support primitives in StageFifo and
// ShardedState.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>

#include "apps/programs.hpp"
#include "baseline/presets.hpp"
#include "common/error.hpp"
#include "mp5/shard_map.hpp"
#include "mp5/simulator.hpp"
#include "mp5/stage_fifo.hpp"
#include "trace/trace_source.hpp"
#include "test_util.hpp"

namespace mp5::test {
namespace {

using Kind = StageFifo::PopResult::Kind;

// The FIFO stores opaque arena references; these tests use `ref == seq`.
PacketRef ref_for(SeqNo seq) { return static_cast<PacketRef>(seq); }

// --- SimOptions validation at construction ------------------------------

class OptionValidation : public ::testing::Test {
protected:
  Mp5Program prog_ = compile_mp5(apps::make_synthetic_source(1, 8));
};

TEST_F(OptionValidation, RejectsZeroPipelines) {
  SimOptions opts;
  opts.pipelines = 0;
  EXPECT_THROW(Mp5Simulator(prog_, opts), ConfigError);
}

TEST_F(OptionValidation, RejectsNaiveWithNonSinglePipelineSharding) {
  SimOptions opts;
  opts.naive_single_pipeline = true; // default sharding is kDynamic
  EXPECT_THROW(Mp5Simulator(prog_, opts), ConfigError);

  opts.sharding = ShardingPolicy::kSinglePipeline;
  EXPECT_NO_THROW(Mp5Simulator(prog_, opts));
  // The preset sets the matching policy for callers.
  EXPECT_NO_THROW(Mp5Simulator(prog_, naive_options(4, 1)));
}

TEST_F(OptionValidation, RejectsIdealQueuesWithoutIdealLpt) {
  SimOptions opts;
  opts.ideal_queues = true; // default sharding is kDynamic
  EXPECT_THROW(Mp5Simulator(prog_, opts), ConfigError);
  EXPECT_NO_THROW(Mp5Simulator(prog_, ideal_options(4, 1)));
}

TEST_F(OptionValidation, RejectsUnreachableEcnThreshold) {
  SimOptions opts;
  opts.pipelines = 4;
  opts.fifo_capacity = 4;  // stage occupancy can never exceed 4 * 4 = 16
  opts.ecn_threshold = 17; // so this threshold could never fire
  EXPECT_THROW(Mp5Simulator(prog_, opts), ConfigError);

  opts.ecn_threshold = 16;
  EXPECT_NO_THROW(Mp5Simulator(prog_, opts));
  opts.fifo_capacity = 0; // unbounded: any threshold is reachable
  opts.ecn_threshold = 1000;
  EXPECT_NO_THROW(Mp5Simulator(prog_, opts));
}

// --- ChannelKey regression ----------------------------------------------

/// The retired packed encoding of (seq, pipeline, stage).
std::uint64_t old_packed_key(SeqNo seq, PipelineId p, StageId st) {
  return (seq << 16) ^ (static_cast<std::uint64_t>(p) << 8) ^ st;
}

TEST(ChannelKey, OldPackedEncodingCollidedOnRealisticValues) {
  // seq << 16 overflows: two different phantoms shared one key, so the
  // channel index could delete or cancel the wrong in-flight phantom.
  EXPECT_EQ(old_packed_key(std::uint64_t{1} << 48, 0, 0),
            old_packed_key(0, 0, 0));
  // The XOR packing also aliased (pipeline, stage) with low seq bits.
  EXPECT_EQ(old_packed_key(0, 0, 256), old_packed_key(0, 1, 0));
  EXPECT_EQ(old_packed_key(1, 0, 0), old_packed_key(0, 256, 0));
}

TEST(ChannelKey, StructKeyKeepsCollidingTriplesDistinct) {
  using Key = Mp5Simulator::ChannelKey;
  const Key a{std::uint64_t{1} << 48, 0, 0};
  const Key b{0, 0, 0};
  const Key c{0, 0, 256};
  const Key d{0, 1, 0};
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(c == d);

  std::unordered_map<Key, int, Mp5Simulator::ChannelKeyHash> map;
  map[a] = 1;
  map[b] = 2;
  map[c] = 3;
  map[d] = 4;
  EXPECT_EQ(map.size(), 4u);
  EXPECT_EQ(map.at(a), 1);
  EXPECT_EQ(map.at(b), 2);
  EXPECT_EQ(map.at(c), 3);
  EXPECT_EQ(map.at(d), 4);
}

TEST(ChannelKey, EquivalenceHoldsAtSeqBeyondOldOverflow) {
  // End-to-end regression: phantoms whose seqs differ by 2^48 would have
  // aliased in the old index. Simulate enough distinct (pipeline, stage)
  // pairs on the realistic channel to exercise the struct key.
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 16));
  Rng rng(53);
  const auto trace = trace_from_fields(random_fields(600, 4, 16, rng), 4);
  SimOptions opts = mp5_options(4, 13);
  opts.realistic_phantom_channel = true;
  const auto report = run_and_check(prog, trace, opts);
  EXPECT_TRUE(report.equivalent()) << report.first_difference;
}

// --- drop-accounting conservation ---------------------------------------

TEST(DropAccounting, BoundedFifoConservesPacketsAcrossSeeds) {
  // offered == egressed + dropped_data + dropped_starved + dropped_fault
  // must hold exactly for every seed, even when bounded FIFOs shed load.
  const auto prog = compile_mp5(apps::make_synthetic_source(2, 8));
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed * 1000 + 7);
    const auto trace = trace_from_fields(random_fields(1200, 3, 8, rng), 4);
    SimOptions opts = mp5_options(4, seed);
    opts.fifo_capacity = 2;
    opts.paranoid_checks = true;
    Mp5Simulator sim(prog, opts);
    const SimResult result = sim.run(trace);
    EXPECT_EQ(result.offered, result.egressed + result.dropped_data +
                                  result.dropped_starved +
                                  result.dropped_fault)
        << "seed " << seed;
    EXPECT_DOUBLE_EQ(result.drop_fraction(),
                     static_cast<double>(result.offered - result.egressed) /
                         static_cast<double>(result.offered))
        << "seed " << seed;
    EXPECT_GT(result.dropped_data, 0u) << "seed " << seed
                                       << ": capacity 2 should shed load";
    // Each dropped data packet lost its phantom first.
    EXPECT_GE(result.dropped_phantom, result.dropped_data) << "seed " << seed;
  }
}

TEST(DropAccounting, StarvationGuardDropsAreCounted) {
  const auto prog = compile_mp5(apps::stateful_predicate_source());
  Rng rng(61);
  const auto trace = trace_from_fields(random_fields(1500, 3, 4, rng), 4);
  SimOptions opts = mp5_options(4, 2);
  opts.starvation_threshold = 2;
  opts.paranoid_checks = true;
  Mp5Simulator sim(prog, opts);
  const SimResult result = sim.run(trace);
  EXPECT_EQ(result.offered, result.egressed + result.dropped_data +
                                result.dropped_starved +
                                result.dropped_fault);
}

// --- StageFifo fault-support primitives ---------------------------------

TEST(StageFifoFaults, DrainAllReturnsDataAndEmptiesEverything) {
  StageFifo fifo(2, 0, /*ideal=*/false);
  const auto s0 = fifo.push_phantom(0, 0, 0, 0);
  const auto s1 = fifo.push_phantom(1, 0, 1, 1);
  const auto s2 = fifo.push_phantom(2, 0, 2, 0);
  ASSERT_TRUE(s0);
  ASSERT_TRUE(s1);
  ASSERT_TRUE(s2);
  ASSERT_TRUE(fifo.insert_data(*s1, 1, ref_for(1)));
  ASSERT_TRUE(fifo.cancel(*s2, 2));

  const auto data = fifo.drain_all();
  ASSERT_EQ(data.size(), 1u); // phantoms and zombies die silently
  EXPECT_EQ(data[0], ref_for(1));
  EXPECT_EQ(fifo.size(), 0u);
  EXPECT_EQ(fifo.phantom_at(*s0, 0), nullptr);
  EXPECT_EQ(fifo.pop().kind, Kind::kIdle);
  // The FIFO is reusable after a drain.
  const auto s7 = fifo.push_phantom(7, 0, 0, 0);
  ASSERT_TRUE(s7);
  ASSERT_TRUE(fifo.insert_data(*s7, 7, ref_for(7)));
  EXPECT_EQ(fifo.pop().ref, ref_for(7));
}

TEST(StageFifoFaults, ExtractDataIfLeavesReclaimableZombies) {
  StageFifo fifo(1, 0, /*ideal=*/false);
  std::vector<FifoSlot> slots;
  for (SeqNo s = 0; s < 3; ++s) {
    const auto slot = fifo.push_phantom(s, 0, 0, 0);
    ASSERT_TRUE(slot);
    slots.push_back(*slot);
  }
  for (SeqNo s = 0; s < 3; ++s) {
    ASSERT_TRUE(fifo.insert_data(slots[s], s, ref_for(s)));
  }

  const auto extracted =
      fifo.extract_data_if([](PacketRef r) { return r == ref_for(1); });
  ASSERT_EQ(extracted.size(), 1u);
  EXPECT_EQ(extracted[0], ref_for(1));
  // The dropped packet's cancel finds a zombie, not its phantom: no-op.
  EXPECT_FALSE(fifo.cancel(slots[1], 1));
  // FIFO addressing stays intact: seq 0 pops, the extracted slot costs
  // one wasted pop, then seq 2 pops.
  EXPECT_EQ(fifo.pop().ref, ref_for(0));
  EXPECT_EQ(fifo.pop().kind, Kind::kWasted);
  EXPECT_EQ(fifo.pop().ref, ref_for(2));
}

TEST(StageFifoFaults, PressureClampForcesPushFailures) {
  StageFifo fifo(1, 0, /*ideal=*/false); // unbounded by configuration
  fifo.set_pressure_capacity(2);
  EXPECT_TRUE(fifo.push_phantom(0, 0, 0, 0));
  EXPECT_TRUE(fifo.push_phantom(1, 0, 0, 0));
  EXPECT_FALSE(fifo.push_phantom(2, 0, 0, 0)); // clamped
  fifo.set_pressure_capacity(0);               // clamp lifted
  EXPECT_TRUE(fifo.push_phantom(3, 0, 0, 0));
}

TEST(StageFifoFaults, IdealModeSupportsDrainExtractAndPressure) {
  StageFifo fifo(2, 0, /*ideal=*/true);
  fifo.set_pressure_capacity(1);
  const auto s0 = fifo.push_phantom(0, 0, 5, 0);
  ASSERT_TRUE(s0);
  EXPECT_FALSE(fifo.push_phantom(1, 0, 5, 0)); // same index: clamped
  const auto s2 = fifo.push_phantom(2, 0, 6, 0); // other index: own queue
  ASSERT_TRUE(s2);
  fifo.set_pressure_capacity(0);
  ASSERT_TRUE(fifo.insert_data(*s0, 0, ref_for(0)));
  ASSERT_TRUE(fifo.insert_data(*s2, 2, ref_for(2)));

  const auto extracted =
      fifo.extract_data_if([](PacketRef r) { return r == ref_for(0); });
  ASSERT_EQ(extracted.size(), 1u);
  EXPECT_EQ(fifo.pop().ref, ref_for(2));
  EXPECT_EQ(fifo.pop().kind, Kind::kIdle);

  const auto s5 = fifo.push_phantom(5, 0, 7, 0);
  ASSERT_TRUE(s5);
  ASSERT_TRUE(fifo.insert_data(*s5, 5, ref_for(5)));
  const auto data = fifo.drain_all();
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0], ref_for(5));
  EXPECT_EQ(fifo.size(), 0u);
}

TEST(StageFifoFaults, CheckInvariantsPassesOnHealthyFifo) {
  StageFifo fifo(2, 0, /*ideal=*/false);
  const auto s0 = fifo.push_phantom(0, 0, 0, 0);
  ASSERT_TRUE(s0);
  ASSERT_TRUE(fifo.push_phantom(1, 0, 1, 1));
  ASSERT_TRUE(fifo.insert_data(*s0, 0, ref_for(0)));
  EXPECT_NO_THROW(fifo.check_invariants(/*now=*/10));

  StageFifo ideal(2, 0, /*ideal=*/true);
  const auto i0 = ideal.push_phantom(0, 0, 3, 0);
  ASSERT_TRUE(i0);
  ASSERT_TRUE(ideal.push_phantom(1, 0, 3, 0));
  ASSERT_TRUE(ideal.insert_data(*i0, 0, ref_for(0)));
  EXPECT_NO_THROW(ideal.check_invariants(/*now=*/10));
}

// --- packet-held phantom slots in the simulator ---------------------------

TEST(PhantomSlots, ZombieDeliveryWritesNothingBack) {
  // A phantom cancelled while still on the realistic channel arrives as a
  // zombie. Its packet was dropped (a data packet that overtook its
  // delayed phantom; the arena slot may already hold a later packet) or
  // lives on with every access cancelled by a stateful guard. Either way
  // the delivery must not hand the packet a slot: the paranoid check runs
  // every cycle, and a written-back slot would address a cancelled entry.
  struct Case {
    const char* name;
    std::string source;
    std::size_t fields;
  };
  // The guarded access sits mid-pipeline, so a packet whose phantom was
  // cancelled on the channel is still in flight when the zombie arrives.
  const std::string guarded_mid_pipeline = R"(
    struct Packet { int key; int v; int a; int b; int c; int out; };
    int gate[64] = {0};
    int acc[64] = {0};
    void f(struct Packet p) {
      gate[p.key % 64] = gate[p.key % 64] + 1;
      if (gate[p.key % 64] & 1) {
        acc[p.v % 64] = acc[p.v % 64] + p.v;
      }
      p.a = p.v * 3 + p.key;
      p.b = p.a * p.a + p.v;
      p.c = p.b * p.b + p.a;
      p.out = p.c * p.c + p.b;
    }
  )";
  const Case cases[] = {
      {"overtaken", apps::make_synthetic_source(2, 32), 3},
      {"guard-cancelled", guarded_mid_pipeline, 6},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto prog = compile_mp5(c.source);
    Rng rng(131);
    const auto trace =
        trace_from_fields(random_fields(3000, c.fields, 32, rng), 4, 0.6);
    SimOptions opts = mp5_options(4, 9);
    opts.realistic_phantom_channel = true;
    opts.faults.phantom_delay_rate = 0.3;
    opts.faults.phantom_extra_delay = 6;
    opts.record_egress = true;
    opts.paranoid_checks = true;

    // Zombie deliveries: a phantom push followed at once by its cancel.
    std::uint64_t zombies = 0;
    TimelineEvent last_push;
    SimOptions topts = opts;
    topts.timeline = [&](const TimelineEvent& e) {
      if (e.kind == TimelineEvent::Kind::kPhantomPush) last_push = e;
      if (e.kind == TimelineEvent::Kind::kCancel && e.cycle != 0 &&
          e.cycle == last_push.cycle && e.seq == last_push.seq &&
          e.pipeline == last_push.pipeline && e.stage == last_push.stage) {
        ++zombies;
      }
    };
    SimResult traced;
    ASSERT_NO_THROW(traced = Mp5Simulator(prog, topts).run(trace));
    EXPECT_GT(zombies, 0u);
    EXPECT_GT(traced.phantom_delayed, 0u);
    EXPECT_EQ(traced.offered, traced.egressed + traced.dropped_data +
                                  traced.dropped_starved +
                                  traced.dropped_fault);

    const SimResult event = Mp5Simulator(prog, opts).run(trace);
    SimOptions ref_opts = opts;
    ref_opts.engine = SimEngine::kLockstep;
    const SimResult reference = Mp5Simulator(prog, ref_opts).run(trace);
    std::string why;
    EXPECT_TRUE(same_results(reference, event, &why)) << why;
    EXPECT_TRUE(same_results(reference, traced, &why)) << why;
  }
}

TEST(PhantomSlots, ParanoidCheckFiresOnCorruptedSlot) {
  // Corrupt the slot a just-admitted packet holds for a phantom two or
  // more stages ahead (so the packet cannot reach it during the next
  // cycle) and step once: the cycle-end watchdog must name the
  // phantom-directory invariant, for a slot pointing elsewhere in the
  // ring and for a slot dropped altogether.
  const auto prog = compile_mp5(apps::make_synthetic_source(3, 16));
  Rng rng(137);
  const auto trace = trace_from_fields(random_fields(400, 4, 16, rng), 4);
  for (const bool ideal : {false, true}) {
    for (const bool drop_slot : {false, true}) {
      SCOPED_TRACE(std::string(ideal ? "ideal" : "lanes") +
                   (drop_slot ? " / slot dropped" : " / slot shifted"));
      SimOptions opts = ideal ? ideal_options(4, 3) : mp5_options(4, 3);
      opts.paranoid_checks = true;
      Mp5Simulator sim(prog, opts);
      VectorTraceSource source(trace);
      sim.begin(source);
      PlannedAccess* victim = nullptr;
      Cycle now = 0;
      for (; now < 50 && victim == nullptr; ++now) {
        sim.step(now);
        const PacketArena& arena = sim.arena();
        for (PacketRef ref = 0; ref < arena.slot_count(); ++ref) {
          if (!arena.live(ref)) continue;
          // The test owns the simulator: writing through the arena's
          // const view is how it reaches a packet's private bookkeeping.
          auto& pkt = const_cast<Packet&>(arena.get(ref));
          if (pkt.arrival_cycle != now) continue;
          for (PlannedAccess& e : pkt.plan) {
            if (e.stage >= 2 && e.phantom_vidx != kNoFifoVidx) victim = &e;
          }
        }
      }
      ASSERT_NE(victim, nullptr);
      if (drop_slot) {
        victim->phantom_vidx = kNoFifoVidx;
      } else {
        victim->phantom_vidx += 1;
      }
      try {
        sim.step(now);
        ADD_FAILURE() << "corrupted slot went unnoticed";
      } catch (const InvariantError& err) {
        EXPECT_EQ(err.invariant(), "phantom-directory") << err.what();
      }
    }
  }
}

// --- ShardedState lane liveness -----------------------------------------

std::vector<ir::RegisterSpec> one_reg(std::size_t size) {
  ir::RegisterSpec spec;
  spec.name = "r";
  spec.size = size;
  return {spec};
}

TEST(ShardMapFaults, FailPipelineRehomesEveryActiveIndex) {
  ShardedState state(one_reg(256), {true}, 4, ShardingPolicy::kDynamic,
                     Rng(1));
  std::size_t on_dead = 0;
  for (RegIndex i = 0; i < 256; ++i) {
    if (state.pipeline_of(0, i) == 2) ++on_dead;
  }
  ASSERT_GT(on_dead, 0u);

  const std::size_t moved = state.fail_pipeline(2);
  EXPECT_EQ(moved, on_dead);
  EXPECT_FALSE(state.alive(2));
  EXPECT_EQ(state.alive_count(), 3u);
  for (RegIndex i = 0; i < 256; ++i) {
    EXPECT_NE(state.pipeline_of(0, i), 2u) << "index " << i;
  }
}

TEST(ShardMapFaults, RehomingSpreadsAcrossSurvivorsWithColdCounters) {
  // Regression: with all access counters zero (e.g. right after a remap
  // window reset), re-homing must still spread the dead lane's indices
  // across the survivors instead of resolving every least-loaded tie to
  // the first alive lane — that turned lane 0 into a post-failure
  // hotspot capping degraded throughput well below (k-1)/k.
  ShardedState state(one_reg(300), {true}, 4, ShardingPolicy::kDynamic,
                     Rng(7));
  state.fail_pipeline(1);
  std::vector<std::size_t> count(4, 0);
  for (RegIndex i = 0; i < 300; ++i) ++count[state.pipeline_of(0, i)];
  EXPECT_EQ(count[1], 0u);
  for (const PipelineId p : {0u, 2u, 3u}) {
    EXPECT_GT(count[p], 60u) << "lane " << p << " left underloaded";
    EXPECT_LT(count[p], 140u) << "lane " << p << " became a hotspot";
  }
}

TEST(ShardMapFaults, InFlightGuardBlocksRemapOfUndrainedLane) {
  ShardedState state(one_reg(64), {true}, 2, ShardingPolicy::kDynamic,
                     Rng(1));
  RegIndex on_one = 0;
  while (state.pipeline_of(0, on_one) != 1) ++on_one;
  state.note_resolved(0, on_one); // a packet is in flight to this index
  EXPECT_THROW(state.fail_pipeline(1), Error);
}

TEST(ShardMapFaults, PinMovesOffDeadLaneAndRecoveryRestores) {
  ShardedState state(one_reg(16), {true}, 3, ShardingPolicy::kDynamic,
                     Rng(2));
  ASSERT_EQ(state.pin_pipeline(), 0u);
  state.fail_pipeline(0);
  EXPECT_NE(state.pin_pipeline(), 0u);
  EXPECT_TRUE(state.alive(state.pin_pipeline()));

  state.recover_pipeline(0);
  EXPECT_TRUE(state.alive(0));
  EXPECT_EQ(state.alive_count(), 3u);
  // Double-recover and double-fail are programming errors.
  EXPECT_THROW(state.recover_pipeline(0), Error);
  state.fail_pipeline(1);
  EXPECT_THROW(state.fail_pipeline(1), Error);
}

TEST(ShardMapFaults, LastSurvivorCannotFail) {
  ShardedState state(one_reg(8), {true}, 2, ShardingPolicy::kDynamic, Rng(3));
  state.fail_pipeline(0);
  EXPECT_THROW(state.fail_pipeline(1), Error);
}

TEST(ShardMapFaults, RebalanceNeverTargetsDeadLane) {
  ShardedState state(one_reg(64), {true}, 4, ShardingPolicy::kDynamic,
                     Rng(4));
  state.fail_pipeline(3);
  for (int round = 0; round < 10; ++round) {
    for (RegIndex i = 0; i < 64; ++i) {
      state.note_resolved(0, i);
      state.note_completed(0, i);
    }
    state.rebalance();
    for (RegIndex i = 0; i < 64; ++i) {
      ASSERT_NE(state.pipeline_of(0, i), 3u) << "round " << round;
    }
  }
}

} // namespace
} // namespace mp5::test
