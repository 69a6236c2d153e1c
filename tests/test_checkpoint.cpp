// mp5-checkpoint v1 (ISSUE 6): framing robustness and the bit-identity
// contract — restoring any emitted checkpoint, under any engine
// configuration, must reproduce the uninterrupted run's SimResult
// field-by-field, for every matrix cell and fault plan.
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "apps/programs.hpp"
#include "baseline/presets.hpp"
#include "baseline/replicated.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"
#include "fuzz/differ.hpp"
#include "metrics/sim_result.hpp"
#include "mp5/checkpoint.hpp"
#include "mp5/simulator.hpp"
#include "trace/trace_source.hpp"
#include "trace/workloads.hpp"
#include "test_util.hpp"

namespace mp5 {
namespace {

TEST(CheckpointFraming, RoundTrips) {
  const std::string frame = frame_checkpoint(0xDEADBEEF, 1234, "payload!");
  const CheckpointInfo info = parse_checkpoint(frame);
  EXPECT_EQ(info.fingerprint, 0xDEADBEEFu);
  EXPECT_EQ(info.cycle, 1234u);
  EXPECT_EQ(info.payload, "payload!");
  EXPECT_EQ(framed_size(frame), frame.size());
}

TEST(CheckpointFraming, SplitsConcatenatedFrames) {
  const std::string a = frame_checkpoint(1, 10, "first payload");
  const std::string b = frame_checkpoint(1, 20, "second");
  const std::string file = a + b;
  const std::size_t split = framed_size(file);
  ASSERT_EQ(split, a.size());
  EXPECT_EQ(parse_checkpoint(std::string_view(file).substr(0, split)).cycle,
            10u);
  EXPECT_EQ(parse_checkpoint(std::string_view(file).substr(split)).cycle,
            20u);
  EXPECT_THROW(framed_size(std::string_view(file).substr(0, 20)), Error);
  EXPECT_THROW(framed_size(std::string_view(a).substr(0, a.size() - 1)),
               Error);
}

void expect_error_containing(const std::string& blob, const char* needle) {
  try {
    parse_checkpoint(blob);
    FAIL() << "expected Error mentioning '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointFraming, RejectsCorruption) {
  const std::string frame = frame_checkpoint(7, 99, "some payload bytes");
  const std::size_t header = kCheckpointMagic.size() + 4 + 8 + 8 + 8;

  std::string flipped = frame;
  flipped[header + 3] ^= 0x01; // one payload bit
  expect_error_containing(flipped, "checksum mismatch");

  std::string flipped_cycle = frame;
  flipped_cycle[kCheckpointMagic.size() + 4 + 8] ^= 0x01; // header field
  expect_error_containing(flipped_cycle, "checksum mismatch");

  expect_error_containing(frame.substr(0, 20), "truncated");
  expect_error_containing(frame.substr(0, frame.size() - 5),
                          "checksum mismatch");

  std::string bad_magic = frame;
  bad_magic[0] = 'X';
  expect_error_containing(bad_magic, "bad magic");

  // A well-formed frame from a future format version: correct checksum,
  // version field = 2. Must be rejected by version, not by checksum.
  ByteWriter w;
  w.bytes(kCheckpointMagic.data(), kCheckpointMagic.size());
  w.u32(2);
  w.u64(7);
  w.u64(99);
  w.u64(4);
  w.bytes("abcd", 4);
  w.u64(fnv1a(w.buffer()));
  expect_error_containing(w.take(), "unsupported checkpoint version");
}

TEST(CheckpointFingerprint, CoversSemanticsNotEngineKnobs) {
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(3, 64));
  SimOptions base;
  const std::uint64_t fp = config_fingerprint(prog, base);

  // Engine knobs are excluded by design: a checkpoint taken under the
  // event walk restores into a dense-reference / no-fast-forward run.
  SimOptions engine = base;
  engine.engine = SimEngine::kLockstep;
  engine.fast_forward = false;
  engine.checkpoint_interval = 1000;
  engine.max_cycles = 42;
  engine.paranoid_checks = true;
  EXPECT_EQ(config_fingerprint(prog, engine), fp);

  SimOptions k8 = base;
  k8.pipelines = 8;
  EXPECT_NE(config_fingerprint(prog, k8), fp);

  SimOptions seeded = base;
  seeded.seed = 2;
  EXPECT_NE(config_fingerprint(prog, seeded), fp);

  SimOptions faulty = base;
  faulty.faults.pipeline_faults.push_back({1, 100, 500});
  EXPECT_NE(config_fingerprint(prog, faulty), fp);
}

TEST(CheckpointFingerprint, CoversVariantAndStaleness) {
  // The design variant and its staleness bound are semantic state layout:
  // a checkpoint taken under one must never restore under another
  // (ISSUE 10 satellite).
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(3, 64));
  const std::uint64_t mp5_fp = config_fingerprint(prog, mp5_options(4, 1));
  const std::uint64_t scr_fp = config_fingerprint(prog, scr_options(4, 1));
  const std::uint64_t rel64_fp =
      config_fingerprint(prog, relaxed_options(4, 1, 64));
  const std::uint64_t rel128_fp =
      config_fingerprint(prog, relaxed_options(4, 1, 128));
  EXPECT_NE(scr_fp, mp5_fp);
  EXPECT_NE(rel64_fp, mp5_fp);
  EXPECT_NE(rel64_fp, scr_fp);
  EXPECT_NE(rel128_fp, rel64_fp);

  // Engine knobs stay excluded for the replicated variants too.
  SimOptions noff = scr_options(4, 1);
  noff.fast_forward = false;
  noff.checkpoint_interval = 1000;
  EXPECT_EQ(config_fingerprint(prog, noff), scr_fp);
}

// -- bit-identity property test --------------------------------------------

struct NamedPlan {
  const char* name;
  FaultPlan plan;
  bool phantom_channel = false;
};

std::vector<NamedPlan> fault_plans() {
  std::vector<NamedPlan> plans;
  plans.push_back({"fault-free", {}, false});
  {
    FaultPlan p;
    p.pipeline_faults.push_back({1, 60, 240});
    plans.push_back({"lane-fail-recover", p, false});
  }
  {
    FaultPlan p;
    p.stalls.push_back({0, 1, 30, 120});
    p.fifo_pressure.push_back({50, 150, 2});
    plans.push_back({"stall-and-pressure", p, false});
  }
  {
    FaultPlan p;
    p.phantom_loss_rate = 0.2;
    p.phantom_delay_rate = 0.2;
    p.phantom_extra_delay = 3;
    plans.push_back({"phantom-loss-delay", p, true});
  }
  return plans;
}

TEST(CheckpointRestore, BitIdentityAcrossMatrixAndFaultPlans) {
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(3, 64));
  Rng rng(21);
  const Trace trace = test::trace_from_fields(
      test::random_fields(500, prog.pvsm.num_slots(), 64, rng),
      /*pipelines=*/4, /*load=*/0.9);

  std::vector<fuzz::SimConfig> cells = fuzz::quick_config_matrix();
  {
    fuzz::SimConfig bounded; // drops via bounded FIFOs must checkpoint too
    bounded.fifo_capacity = 4;
    cells.push_back(bounded);
  }

  for (const fuzz::SimConfig& cell : cells) {
    for (const NamedPlan& plan : fault_plans()) {
      SCOPED_TRACE(cell.name() + " / " + plan.name);
      SimOptions opts = cell.to_options();
      opts.faults = plan.plan;
      opts.realistic_phantom_channel = plan.phantom_channel;

      const SimResult baseline = Mp5Simulator(prog, opts).run(trace);

      // Re-run with periodic checkpoints: the cadence must be invisible.
      std::vector<std::pair<Cycle, std::string>> blobs;
      SimOptions copts = opts;
      copts.checkpoint_interval =
          std::max<std::uint64_t>(1, baseline.cycles_run / 4);
      copts.checkpoint_sink = [&blobs](Cycle c, std::string&& blob) {
        blobs.emplace_back(c, std::move(blob));
      };
      const SimResult ckpt_run = Mp5Simulator(prog, copts).run(trace);
      std::string why;
      ASSERT_TRUE(same_results(baseline, ckpt_run, &why))
          << "checkpointing run diverged from the plain run: " << why;
      ASSERT_FALSE(blobs.empty());

      // Every emitted checkpoint must restore to the identical SimResult.
      for (const auto& [cycle, blob] : blobs) {
        Mp5Simulator restored(prog, opts);
        VectorTraceSource source(trace);
        const SimResult result = restored.resume(source, blob);
        EXPECT_TRUE(same_results(baseline, result, &why))
            << "restore at cycle " << cycle << " diverged: " << why;
      }
    }
  }
}

TEST(CheckpointRestore, CrossEngineRestore) {
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(3, 64));
  Rng rng(31);
  const Trace trace = test::trace_from_fields(
      test::random_fields(400, prog.pvsm.num_slots(), 64, rng), 4);

  SimOptions opts; // event walk, fast_forward=true
  opts.record_egress = true;
  opts.paranoid_checks = true;
  const SimResult baseline = Mp5Simulator(prog, opts).run(trace);

  std::vector<std::string> blobs;
  SimOptions copts = opts;
  copts.checkpoint_interval =
      std::max<std::uint64_t>(1, baseline.cycles_run / 2);
  copts.checkpoint_sink = [&blobs](Cycle, std::string&& blob) {
    blobs.push_back(std::move(blob));
  };
  (void)Mp5Simulator(prog, copts).run(trace);
  ASSERT_FALSE(blobs.empty());

  // The fingerprint excludes engine knobs, so an event-walk checkpoint
  // restores into the event walk stepping every cycle and into the dense
  // reference — and still reproduces the uninterrupted result
  // bit-for-bit.
  for (const char* variant : {"noff", "reference"}) {
    SCOPED_TRACE(variant);
    SimOptions vopts = opts;
    if (std::string(variant) == "noff") vopts.fast_forward = false;
    if (std::string(variant) == "reference") {
      vopts.engine = SimEngine::kLockstep;
    }
    Mp5Simulator sim(prog, vopts);
    VectorTraceSource source(trace);
    const SimResult result = sim.resume(source, blobs.front());
    std::string why;
    EXPECT_TRUE(same_results(baseline, result, &why)) << why;
  }

  // The reverse direction: a checkpoint captured mid-run by the dense
  // reference restores under the event walk (the activity bitmap is
  // rebuilt from the restored occupancy).
  std::vector<std::string> ls_blobs;
  SimOptions ls_copts = opts;
  ls_copts.engine = SimEngine::kLockstep;
  ls_copts.checkpoint_interval =
      std::max<std::uint64_t>(1, baseline.cycles_run / 2);
  ls_copts.checkpoint_sink = [&ls_blobs](Cycle, std::string&& blob) {
    ls_blobs.push_back(std::move(blob));
  };
  (void)Mp5Simulator(prog, ls_copts).run(trace);
  ASSERT_FALSE(ls_blobs.empty());
  {
    Mp5Simulator sim(prog, opts); // event walk
    VectorTraceSource source(trace);
    const SimResult result = sim.resume(source, ls_blobs.front());
    std::string why;
    EXPECT_TRUE(same_results(baseline, result, &why)) << why;
  }

  // Checkpoints taken while cells are parked on a blocked phantom head:
  // the event walk settles their skipped blocked cycles before it writes
  // the blob, so every blob is byte-identical to the dense reference's at
  // the same boundary and restores under either walk.
  EXPECT_GT(baseline.blocked_cycles, 0u);
  const auto checkpoints_every_7 = [&](SimEngine walk) {
    std::vector<std::string> out;
    SimOptions o = opts;
    o.engine = walk;
    o.checkpoint_interval = 7;
    o.checkpoint_sink = [&out](Cycle, std::string&& blob) {
      out.push_back(std::move(blob));
    };
    (void)Mp5Simulator(prog, o).run(trace);
    return out;
  };
  const std::vector<std::string> parked_blobs =
      checkpoints_every_7(SimEngine::kEvent);
  ASSERT_GT(parked_blobs.size(), 4u);
  EXPECT_EQ(parked_blobs, checkpoints_every_7(SimEngine::kLockstep));
  for (std::size_t i = 0; i < parked_blobs.size(); i += 3) {
    for (const SimEngine walk : {SimEngine::kEvent, SimEngine::kLockstep}) {
      SCOPED_TRACE("blob " + std::to_string(i) + " under " + to_string(walk));
      SimOptions vopts = opts;
      vopts.engine = walk;
      Mp5Simulator sim(prog, vopts);
      VectorTraceSource source(trace);
      const SimResult result = sim.resume(source, parked_blobs[i]);
      std::string why;
      EXPECT_TRUE(same_results(baseline, result, &why)) << why;
    }
  }
}

TEST(CheckpointRestore, RejectsMismatchAndReuse) {
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(3, 64));
  Rng rng(41);
  const Trace trace = test::trace_from_fields(
      test::random_fields(200, prog.pvsm.num_slots(), 64, rng), 4);

  SimOptions opts;
  opts.record_egress = true;
  std::vector<std::string> blobs;
  SimOptions copts = opts;
  copts.checkpoint_interval = 40;
  copts.checkpoint_sink = [&blobs](Cycle, std::string&& blob) {
    blobs.push_back(std::move(blob));
  };
  (void)Mp5Simulator(prog, copts).run(trace);
  ASSERT_FALSE(blobs.empty());
  const std::string& blob = blobs.front();

  // Same payload, different fingerprint: the restore must refuse instead
  // of trusting the payload to fit.
  const CheckpointInfo info = parse_checkpoint(blob);
  const std::string reframed = frame_checkpoint(
      info.fingerprint ^ 1, info.cycle, std::string(info.payload));
  {
    Mp5Simulator sim(prog, opts);
    VectorTraceSource source(trace);
    EXPECT_THROW(sim.resume(source, reframed), Error);
  }

  // A simulator that already ran cannot be restored into.
  {
    Mp5Simulator sim(prog, opts);
    (void)sim.run(trace);
    VectorTraceSource source(trace);
    EXPECT_THROW(sim.resume(source, blob), Error);
  }

  // Garbage blobs fail framing validation before touching the payload.
  {
    Mp5Simulator sim(prog, opts);
    VectorTraceSource source(trace);
    EXPECT_THROW(sim.resume(source, "definitely not a checkpoint"), Error);
  }
}

// -- replicated-variant checkpointing (ISSUE 10) ---------------------------

SimResult run_replicated(const Mp5Program& prog, const Trace& trace,
                         SimOptions opts) {
  opts.record_egress = true;
  opts.paranoid_checks = true;
  if (opts.variant == DesignVariant::kScr) {
    return ScrSimulator(prog, opts).run(trace);
  }
  return RelaxedSimulator(prog, opts).run(trace);
}

TEST(CheckpointRestore, ReplicatedBitIdentity) {
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(3, 64));
  Rng rng(51);
  const Trace trace = test::trace_from_fields(
      test::random_fields(400, prog.pvsm.num_slots(), 64, rng),
      /*pipelines=*/4, /*load=*/0.9);

  for (const SimOptions& base :
       {scr_options(4, 1), relaxed_options(4, 1, 32)}) {
    SCOPED_TRACE(to_string(base.variant));
    const SimResult baseline = run_replicated(prog, trace, base);

    std::vector<std::pair<Cycle, std::string>> blobs;
    SimOptions copts = base;
    copts.record_egress = true;
    copts.paranoid_checks = true;
    copts.checkpoint_interval =
        std::max<std::uint64_t>(1, baseline.cycles_run / 4);
    copts.checkpoint_sink = [&blobs](Cycle c, std::string&& blob) {
      blobs.emplace_back(c, std::move(blob));
    };
    SimResult ckpt_run;
    if (base.variant == DesignVariant::kScr) {
      ckpt_run = ScrSimulator(prog, copts).run(trace);
    } else {
      ckpt_run = RelaxedSimulator(prog, copts).run(trace);
    }
    std::string why;
    ASSERT_TRUE(same_results(baseline, ckpt_run, &why))
        << "checkpointing run diverged from the plain run: " << why;
    ASSERT_FALSE(blobs.empty());

    // Every emitted checkpoint restores to the identical SimResult, with
    // fast-forward either on or off in the restoring simulator.
    for (const auto& [cycle, blob] : blobs) {
      for (const bool ff : {true, false}) {
        SimOptions ropts = base;
        ropts.record_egress = true;
        ropts.paranoid_checks = true;
        ropts.fast_forward = ff;
        std::unique_ptr<ReplicatedSimulator> sim;
        if (base.variant == DesignVariant::kScr) {
          sim = std::make_unique<ScrSimulator>(prog, ropts);
        } else {
          sim = std::make_unique<RelaxedSimulator>(prog, ropts);
        }
        const SimResult result = sim->resume(trace, blob);
        EXPECT_TRUE(same_results(baseline, result, &why))
            << "restore at cycle " << cycle << " (ff=" << ff
            << ") diverged: " << why;
      }
    }
  }
}

TEST(CheckpointRestore, ReplicatedRefusesCrossVariantRestore) {
  const Mp5Program prog = test::compile_mp5(apps::make_synthetic_source(3, 64));
  Rng rng(61);
  const Trace trace = test::trace_from_fields(
      test::random_fields(300, prog.pvsm.num_slots(), 64, rng), 4);

  std::vector<std::string> blobs;
  SimOptions copts = scr_options(4, 1);
  copts.record_egress = true;
  copts.checkpoint_interval = 40;
  copts.checkpoint_sink = [&blobs](Cycle, std::string&& blob) {
    blobs.push_back(std::move(blob));
  };
  (void)ScrSimulator(prog, copts).run(trace);
  ASSERT_FALSE(blobs.empty());
  const std::string& scr_blob = blobs.front();

  // An SCR checkpoint must not restore into a relaxed simulator, into the
  // MP5 simulator, or into SCR at a different pipeline count.
  {
    RelaxedSimulator sim(prog, relaxed_options(4, 1, 32));
    EXPECT_THROW((void)sim.resume(trace, scr_blob), Error);
  }
  {
    SimOptions mp5 = mp5_options(4, 1);
    Mp5Simulator sim(prog, mp5);
    VectorTraceSource source(trace);
    EXPECT_THROW((void)sim.resume(source, scr_blob), Error);
  }
  {
    ScrSimulator sim(prog, scr_options(8, 1));
    EXPECT_THROW((void)sim.resume(trace, scr_blob), Error);
  }

  // Two relaxed runs differing only in Δ must refuse each other's blobs.
  std::vector<std::string> rel_blobs;
  SimOptions rel_copts = relaxed_options(4, 1, 64);
  rel_copts.record_egress = true;
  rel_copts.checkpoint_interval = 40;
  rel_copts.checkpoint_sink = [&rel_blobs](Cycle, std::string&& blob) {
    rel_blobs.push_back(std::move(blob));
  };
  (void)RelaxedSimulator(prog, rel_copts).run(trace);
  ASSERT_FALSE(rel_blobs.empty());
  {
    RelaxedSimulator sim(prog, relaxed_options(4, 1, 128));
    EXPECT_THROW((void)sim.resume(trace, rel_blobs.front()), Error);
  }

  // Reuse and garbage are refused like the MP5 path.
  {
    ScrSimulator sim(prog, scr_options(4, 1));
    (void)sim.run(trace);
    EXPECT_THROW((void)sim.resume(trace, scr_blob), Error);
  }
  {
    ScrSimulator sim(prog, scr_options(4, 1));
    EXPECT_THROW((void)sim.resume(trace, "not a checkpoint"), Error);
  }
}

// -- checkpoint byte stability across FIFO addressing ----------------------
//
// The mp5-checkpoint v1 payload is a file format: changing how the stage
// FIFOs address a packet's phantom (a hash directory keyed by seq, or a
// slot held by the packet) must not change a single byte of it. Each
// digest below is the FNV-1a of every checkpoint blob of a run,
// concatenated, recorded from the seq-keyed-directory implementation.

struct DigestSetup {
  const char* name;
  SimOptions opts;
  std::uint64_t digest;
};

std::vector<DigestSetup> digest_setups() {
  SimOptions realistic = mp5_options(8, 1);
  realistic.realistic_phantom_channel = true;
  realistic.faults.phantom_loss_rate = 0.02;
  realistic.faults.phantom_delay_rate = 0.2;
  realistic.faults.phantom_extra_delay = 4;
  return {
      {"lanes-dense-k8", mp5_options(8, 1), 0xe509c6e102d71e04ull},
      {"ideal", ideal_options(8, 1), 0x36e9bb05ecf11a4aull},
      {"realistic-channel-delayed", realistic, 0xdd824b03ffb956e8ull},
  };
}

TEST(CheckpointBytes, DigestsMatchSeqKeyedDirectoryImplementation) {
  const apps::AppSpec app = apps::flowlet_app();
  const Mp5Program prog = test::compile_mp5(app.source);
  FlowWorkloadConfig wl;
  wl.pipelines = 8;
  wl.packets = 3000;
  wl.load = 1.0;
  wl.seed = 7;
  const Trace trace = make_flow_trace(wl, app.filler);

  for (const DigestSetup& setup : digest_setups()) {
    SCOPED_TRACE(setup.name);
    SimOptions opts = setup.opts;
    opts.record_egress = true;
    opts.paranoid_checks = true;
    const SimResult baseline = Mp5Simulator(prog, opts).run(trace);
    EXPECT_GT(baseline.blocked_cycles, 0u);

    std::vector<std::pair<Cycle, std::string>> blobs;
    SimOptions copts = opts;
    copts.checkpoint_interval = 97;
    copts.checkpoint_sink = [&blobs](Cycle c, std::string&& blob) {
      blobs.emplace_back(c, std::move(blob));
    };
    const SimResult ckpt_run = Mp5Simulator(prog, copts).run(trace);
    std::string why;
    ASSERT_TRUE(same_results(baseline, ckpt_run, &why)) << why;
    ASSERT_GT(blobs.size(), 4u);

    // Pick the checkpoint to resume from: one taken with phantoms queued
    // (and, on the realistic channel, phantoms still in flight). The blob
    // at cycle b holds the state after cycle b - 1: a blocked pop in that
    // cycle saw a queued phantom head, and a phantom of a packet admitted
    // before b that is delivered at or after b was in flight.
    std::set<Cycle> blocked_cycles;
    std::vector<Cycle> admit_cycle;
    std::vector<std::pair<Cycle, SeqNo>> pushes;
    SimOptions topts = opts;
    topts.timeline = [&](const TimelineEvent& e) {
      if (e.kind == TimelineEvent::Kind::kAdmit) {
        admit_cycle.resize(std::max<std::size_t>(admit_cycle.size(),
                                                 e.seq + 1));
        admit_cycle[e.seq] = e.cycle;
      } else if (e.kind == TimelineEvent::Kind::kBlocked) {
        blocked_cycles.insert(e.cycle);
      } else if (e.kind == TimelineEvent::Kind::kPhantomPush) {
        pushes.emplace_back(e.cycle, e.seq);
      }
    };
    (void)Mp5Simulator(prog, topts).run(trace);
    const auto in_flight_at = [&](Cycle b) {
      for (const auto& [cycle, seq] : pushes) {
        if (cycle >= b && admit_cycle.at(seq) < b) return true;
      }
      return false;
    };
    std::size_t pick = blobs.size();
    const std::size_t mid = blobs.size() / 2;
    const auto distance = [mid](std::size_t i) {
      return i > mid ? i - mid : mid - i;
    };
    for (std::size_t i = 1; i < blobs.size(); ++i) {
      const Cycle b = blobs[i].first;
      if (blocked_cycles.count(b - 1) == 0) continue;
      if (opts.realistic_phantom_channel && !in_flight_at(b)) continue;
      if (pick == blobs.size() || distance(i) < distance(pick)) pick = i;
    }
    ASSERT_LT(pick, blobs.size()) << "no checkpoint with queued phantoms";
    if (opts.realistic_phantom_channel) {
      EXPECT_GT(baseline.phantom_delayed, 0u);
    }

    std::string all;
    for (const auto& [cycle, blob] : blobs) all += blob;
    const std::uint64_t digest = fnv1a(all);
    EXPECT_EQ(digest, setup.digest)
        << std::hex << "digest 0x" << digest << std::dec << " over "
        << blobs.size() << " blobs";

    // Restore-and-resume from the picked blob is bit-identical to the
    // uninterrupted run.
    Mp5Simulator restored(prog, opts);
    VectorTraceSource source(trace);
    const SimResult resumed = restored.resume(source, blobs[pick].second);
    EXPECT_TRUE(same_results(baseline, resumed, &why)) << why;
  }
}

} // namespace
} // namespace mp5
