// Self-tests of the benchmark: its declared metrics, its correctness gate,
// its oversubscription guard, its phase-by-phase compile, and the
// traced/untraced identity of every workload.
#include <sched.h>

#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/programs.hpp"
#include "banzai/ir.hpp"
#include "bench/compile_phases.hpp"
#include "bench/host.hpp"
#include "bench/workloads.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "domino/compiler.hpp"
#include "domino/parser.hpp"
#include "mp5/simulator.hpp"

namespace {

using namespace perfbench;

struct Declared {
  std::string name;
  std::string unit;
  std::string better;
};

/// The entries of one array section of BENCHMARK.json (a flat scan: no
/// value in the file contains a bracket).
std::vector<Declared> declared_section(const std::string& json,
                                       const std::string& section) {
  const auto key = json.find("\"" + section + "\"");
  if (key == std::string::npos) return {};
  const auto open = json.find('[', key);
  const auto close = json.find(']', open);
  const std::string body = json.substr(open, close - open);
  std::vector<Declared> out;
  const std::regex object("\\{[^}]*\\}");
  const std::regex field("\"(name|unit|better)\"\\s*:\\s*\"([^\"]*)\"");
  for (auto it = std::sregex_iterator(body.begin(), body.end(), object);
       it != std::sregex_iterator(); ++it) {
    const std::string obj = it->str();
    Declared d;
    for (auto f = std::sregex_iterator(obj.begin(), obj.end(), field);
         f != std::sregex_iterator(); ++f) {
      const std::string which = (*f)[1];
      if (which == "name") d.name = (*f)[2];
      if (which == "unit") d.unit = (*f)[2];
      if (which == "better") d.better = (*f)[2];
    }
    out.push_back(d);
  }
  return out;
}

std::string read_benchmark_json() {
  std::ifstream in(PERFBENCH_JSON);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void expect_same_metrics(const std::vector<MetricSpec>& code,
                         const std::vector<Declared>& json,
                         const std::string& section) {
  ASSERT_EQ(code.size(), json.size()) << section;
  for (std::size_t i = 0; i < code.size(); ++i) {
    EXPECT_EQ(code[i].name, json[i].name) << section << " entry " << i;
    EXPECT_EQ(code[i].unit, json[i].unit) << code[i].name;
    EXPECT_EQ(code[i].better, json[i].better) << code[i].name;
  }
}

TEST(Metrics, NamesFollowGrammarAndMatchBenchmarkJson) {
  const std::regex name("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> seen;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& m : *list) {
      EXPECT_TRUE(std::regex_match(m.name, name)) << m.name;
      EXPECT_TRUE(std::regex_match(m.unit, unit)) << m.unit;
      EXPECT_TRUE(m.better == "higher" || m.better == "lower") << m.name;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
    }
  }
  const std::string json = read_benchmark_json();
  ASSERT_FALSE(json.empty()) << "cannot read " << PERFBENCH_JSON;
  expect_same_metrics(end_to_end_metrics(),
                      declared_section(json, "end_to_end"), "end_to_end");
  expect_same_metrics(per_layer_metrics(),
                      declared_section(json, "per_layer"), "per_layer");
  const auto workloads = declared_section(json, "workloads");
  ASSERT_EQ(workloads.size(), workload_specs().size());
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    EXPECT_EQ(workloads[i].name, workload_specs()[i].name);
    EXPECT_TRUE(std::regex_match(workloads[i].name, name));
  }
}

/// A small flowlet run on the simulator, recorded for the oracle.
struct SmallSimRun {
  mp5::domino::Ast ast;
  mp5::Mp5Program program;
  mp5::Trace trace;
  mp5::SimResult result;
};

SmallSimRun small_sim_run() {
  SmallSimRun run;
  const std::string source = mp5::apps::flowlet_app().source;
  run.ast = mp5::domino::parse(source);
  run.program = mp5::transform(
      mp5::domino::compile(run.ast, mp5::banzai::MachineSpec{}, 1).pvsm);
  mp5::Rng rng(7);
  mp5::LineRateClock clock(4, 1.0);
  for (std::uint64_t n = 0; n < 2000; ++n) {
    mp5::TraceItem item;
    item.arrival_time = clock.next(64);
    item.port = static_cast<std::uint32_t>(n % 64);
    item.flow = n % 128;
    for (std::size_t f = 0; f < run.ast.fields.size(); ++f) {
      item.fields.push_back(rng.next_in(0, 63));
    }
    run.trace.push_back(std::move(item));
  }
  mp5::SimOptions opts;
  opts.pipelines = 4;
  opts.record_egress = true;
  mp5::Mp5Simulator sim(run.program, opts);
  run.result = sim.run(run.trace);
  return run;
}

TEST(CorrectnessGate, FailsOnCorruptedRegisterOrEgress) {
  SmallSimRun run = small_sim_run();
  ASSERT_TRUE(check_sim_against_oracle(run.ast, run.program, run.trace,
                                       run.result));

  mp5::SimResult bad_register = run.result;
  bad_register.final_registers[0][5] += 1;
  const auto reg_check = check_sim_against_oracle(run.ast, run.program,
                                                  run.trace, bad_register);
  EXPECT_FALSE(reg_check);
  EXPECT_NE(reg_check.first_difference.find("register"), std::string::npos)
      << reg_check.first_difference;

  mp5::SimResult bad_egress = run.result;
  const auto slot = static_cast<std::size_t>(
      run.program.pvsm.slot_of(run.ast.fields.back()));
  bad_egress.egress[100].headers[slot] += 1;
  EXPECT_FALSE(check_sim_against_oracle(run.ast, run.program, run.trace,
                                        bad_egress));

  mp5::SimResult missing = run.result;
  missing.egress.pop_back();
  EXPECT_FALSE(
      check_sim_against_oracle(run.ast, run.program, run.trace, missing));
}

/// Restricts the calling thread to its first allowed CPU until destroyed.
class OneCpuMask {
public:
  OneCpuMask() {
    CPU_ZERO(&saved_);
    sched_getaffinity(0, sizeof(saved_), &saved_);
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    applied_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~OneCpuMask() { sched_setaffinity(0, sizeof(saved_), &saved_); }
  OneCpuMask(const OneCpuMask&) = delete;
  OneCpuMask& operator=(const OneCpuMask&) = delete;
  bool applied() const { return applied_; }

private:
  cpu_set_t saved_;
  bool applied_ = false;
};

TEST(OversubscriptionGuard, FiresUnderOneCpuMask) {
  OneCpuMask mask;
  ASSERT_TRUE(mask.applied());
  const HostFingerprint host = host_fingerprint("test");
  EXPECT_EQ(host.affinity_cpus, 1u);
  EXPECT_EQ(usable_cpus(host), 1u);
  EXPECT_FALSE(oversubscription_refusal(host, 1).has_value());
  const auto refusal = oversubscription_refusal(host, 3);
  ASSERT_TRUE(refusal.has_value());
  EXPECT_NE(refusal->find("1 are usable"), std::string::npos) << *refusal;

  RunOptions opts;
  opts.workload = "native-flowlet";
  opts.seconds = 0.01;
  opts.scale = 0.001;
  EXPECT_THROW(run_workload(opts, host), mp5::ConfigError);
}

TEST(OversubscriptionGuard, CgroupQuotaCapsUsableCpus) {
  HostFingerprint host;
  host.affinity_cpus = 4;
  host.cgroup_cpus = 1.5;
  EXPECT_EQ(usable_cpus(host), 1u);
  EXPECT_TRUE(oversubscription_refusal(host, 3).has_value());
  host.cgroup_cpus.reset();
  EXPECT_FALSE(oversubscription_refusal(host, 3).has_value());
}

TEST(CpuRotation, PinsOneCpuAtATimeAndRestoresTheMask) {
  cpu_set_t before;
  CPU_ZERO(&before);
  ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);
  {
    CpuRotation rotation;
    for (int i = 0; i < CPU_COUNT(&before) + 1; ++i) {
      rotation.next();
      cpu_set_t now;
      CPU_ZERO(&now);
      ASSERT_EQ(sched_getaffinity(0, sizeof(now), &now), 0);
      EXPECT_EQ(CPU_COUNT(&now), 1);
    }
  }
  cpu_set_t after;
  CPU_ZERO(&after);
  ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
}

TEST(CompileByPhase, MatchesCompileForAllApps) {
  for (const auto& app : mp5::apps::real_apps()) {
    SCOPED_TRACE(app.name);
    SpanRecorder spans;
    PhaseStats stats;
    mp5::domino::Ast ast;
    const auto phased = compile_by_phase(app.source, spans, stats, ast);
    const auto whole =
        mp5::domino::compile(app.source, mp5::banzai::MachineSpec{}, 1);
    EXPECT_EQ(phased.serialized, whole.serialized);
    EXPECT_EQ(mp5::ir::to_string(phased.pvsm), mp5::ir::to_string(whole.pvsm));
    ASSERT_EQ(phased.pvsm.fields.size(), whole.pvsm.fields.size());
    for (std::size_t i = 0; i < whole.pvsm.fields.size(); ++i) {
      EXPECT_EQ(phased.pvsm.fields[i].name, whole.pvsm.fields[i].name);
      EXPECT_EQ(phased.pvsm.fields[i].declared, whole.pvsm.fields[i].declared);
    }
    ASSERT_EQ(phased.pvsm.registers.size(), whole.pvsm.registers.size());
    for (std::size_t r = 0; r < whole.pvsm.registers.size(); ++r) {
      EXPECT_EQ(phased.pvsm.registers[r].name, whole.pvsm.registers[r].name);
      EXPECT_EQ(phased.pvsm.registers[r].size, whole.pvsm.registers[r].size);
      EXPECT_EQ(phased.pvsm.registers[r].init, whole.pvsm.registers[r].init);
    }
    EXPECT_EQ(stats.stages, whole.pvsm.stages.size());
    EXPECT_GT(stats.tokens, 0u);
    // compile, lex, parse, sema, lower, optimize, pipeline.
    ASSERT_EQ(spans.spans().size(), 7u);
    for (std::size_t i = 1; i < spans.spans().size(); ++i) {
      EXPECT_EQ(spans.spans()[i].parent, spans.spans()[0].id);
    }
  }
}

/// Per-layer metrics each workload must measure (nonzero).
const std::map<std::string, std::vector<std::string>> kLayerProbes = {
    {"sim-dense",
     {"trace.items", "mp5.sim.construct_ms", "mp5.sim.step_ns_p50",
      "mp5.sim.cycles_run", "mp5.fifo.push", "mp5.shard.rebalance_runs"}},
    {"sim-sparse",
     {"trace.items", "mp5.sim.step_ns_p50", "mp5.sim.host_ns_per_cycle",
      "mp5.sim.cycles_run", "mp5.fifo.push"}},
    {"native-flowlet",
     {"trace.items", "native.construct_ms", "native.w0.busy_frac",
      "native.w1.busy_frac", "native.owner_share.saved_hop"}},
    {"fabric-conga",
     {"fabric.construct_ms", "fabric.workload_ns_per_pkt",
      "fabric.cycles_run", "fabric.link_pkts", "mp5.sim.steers",
      "mp5.fifo.push"}},
};

TEST(TracedRun, ResultsEqualUntracedOnEveryWorkload) {
  const HostFingerprint host = host_fingerprint("test");
  for (const auto& spec : workload_specs()) {
    SCOPED_TRACE(spec.name);
    if (oversubscription_refusal(host, spec.threads)) continue;
    RunOptions opts;
    opts.workload = spec.name;
    opts.seed = 3;
    opts.seconds = 0.01;
    opts.scale = 0.01;
    opts.min_reps = 2;
    opts.trace = true;
    const RunReport report = run_workload(opts, host);
    // Each half ran twice; every traced repetition was checked against
    // the untraced results (registers, egress, counters).
    EXPECT_EQ(report.reps, 4u);
    EXPECT_TRUE(report.correct);
    for (const auto& why : report.failures) ADD_FAILURE() << why;
    EXPECT_EQ(report.failed, 0u);
    EXPECT_GT(report.attempted, 0u);
    EXPECT_EQ(report.metrics.size(), per_layer_metrics().size());
    EXPECT_EQ(report.metrics.count("telemetry.overhead_frac"), 1u);
    EXPECT_GT(report.metrics.at("domino.stages"), 0.0);
    EXPECT_GT(report.metrics.at("mp5.transform_us"), 0.0);
    for (const auto& name : kLayerProbes.at(spec.name)) {
      EXPECT_GT(report.metrics.at(name), 0.0) << name;
    }
  }
}

TEST(UntracedRun, ReportsEveryEndToEndMetric) {
  const HostFingerprint host = host_fingerprint("test");
  RunOptions opts;
  opts.workload = "sim-sparse";
  opts.seconds = 0.01;
  opts.scale = 0.01;
  opts.min_reps = 2;
  const RunReport report = run_workload(opts, host);
  EXPECT_TRUE(report.correct);
  ASSERT_EQ(report.metrics.size(), end_to_end_metrics().size());
  for (const auto& [name, value] : report.metrics) {
    EXPECT_GT(value, 0.0) << name;
  }
}

TEST(RunWorkload, RejectsUnknownWorkload) {
  RunOptions opts;
  opts.workload = "no-such-workload";
  EXPECT_THROW(run_workload(opts, host_fingerprint("test")),
               mp5::ConfigError);
}

} // namespace
