#include "bench/workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <set>

#include "apps/programs.hpp"
#include "bench/compile_phases.hpp"
#include "bench/spans.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "domino/compiler.hpp"
#include "domino/parser.hpp"
#include "fabric/fabric.hpp"
#include "mp5/simulator.hpp"
#include "native/backend.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace_source.hpp"

namespace perfbench {

using namespace mp5;

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"pkts_per_s", "pkts/s", "higher"},
      {"cpu_ns_per_pkt", "ns", "lower"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mib", "MiB", "lower"},
      {"norm_throughput", "ratio", "higher"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"domino.lex_us", "us", "lower"},
      {"domino.parse_us", "us", "lower"},
      {"domino.sema_us", "us", "lower"},
      {"domino.lower_us", "us", "lower"},
      {"domino.optimize_us", "us", "lower"},
      {"domino.pipeline_us", "us", "lower"},
      {"domino.tokens", "count", "lower"},
      {"domino.lowered_instrs", "count", "lower"},
      {"domino.stages", "count", "lower"},
      {"mp5.transform_us", "us", "lower"},
      {"trace.pull_ns_per_pkt", "ns", "lower"},
      {"trace.items", "count", "higher"},
      {"mp5.sim.construct_ms", "ms", "lower"},
      {"mp5.sim.step_ns_p50", "ns", "lower"},
      {"mp5.sim.step_ns_p99", "ns", "lower"},
      {"mp5.sim.finish_ms", "ms", "lower"},
      {"mp5.sim.host_ns_per_cycle", "ns", "lower"},
      {"mp5.sim.cycles_run", "count", "lower"},
      {"mp5.sim.steers", "count", "lower"},
      {"mp5.sim.blocked_cycles", "count", "lower"},
      {"mp5.sim.wasted_cycles", "count", "lower"},
      {"mp5.sim.max_queue_depth", "count", "lower"},
      {"mp5.fifo.push", "count", "lower"},
      {"mp5.fifo.pop_blocked", "count", "lower"},
      {"mp5.fifo.pop_wasted", "count", "lower"},
      {"mp5.shard.rebalance_runs", "count", "lower"},
      {"mp5.shard.rebalance_moves", "count", "lower"},
      {"mp5.shard.touched_indices", "count", "lower"},
      {"native.construct_ms", "ms", "lower"},
      {"native.forward_frac", "ratio", "lower"},
      {"native.parks_per_kpkt", "1/kpkt", "lower"},
      {"native.idle_spins_per_pkt", "1/pkt", "lower"},
      {"native.w0.busy_frac", "ratio", "higher"},
      {"native.w1.busy_frac", "ratio", "higher"},
      {"native.remote_frac.last_time", "ratio", "lower"},
      {"native.remote_frac.saved_hop", "ratio", "lower"},
      {"native.owner_share.last_time", "ratio", "lower"},
      {"native.owner_share.saved_hop", "ratio", "lower"},
      {"native.shard_moves", "count", "lower"},
      {"native.rebalances", "count", "lower"},
      {"fabric.construct_ms", "ms", "lower"},
      {"fabric.workload_ns_per_pkt", "ns", "lower"},
      {"fabric.cycles_run", "count", "lower"},
      {"fabric.host_ns_per_cycle", "ns", "lower"},
      {"fabric.switch_egressed", "count", "higher"},
      {"fabric.link_pkts", "count", "higher"},
      {"fabric.reordered_packets", "count", "lower"},
      {"telemetry.overhead_frac", "ratio", "lower"},
  };
  return specs;
}

const std::vector<WorkloadSpec>& workload_specs() {
  // native-flowlet keeps two workers and the dispatcher thread busy.
  static const std::vector<WorkloadSpec> specs = {
      {"sim-dense", 1},
      {"sim-sparse", 1},
      {"native-flowlet", 3},
      {"fabric-conga", 1},
  };
  return specs;
}

namespace {

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

template <typename T>
double quantile(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(
      std::min<double>(q * static_cast<double>(values.size()),
                       static_cast<double>(values.size() - 1)));
  std::nth_element(values.begin(), values.begin() + k, values.end());
  return static_cast<double>(values[k]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// What one repetition measured.
struct Sample {
  double setup_s = 0.0; // start to the first admitted packet
  double run_s = 0.0;   // first admitted packet to the end of the run
  double cpu_s = 0.0;   // process user+sys time over the run call
  std::uint64_t offered = 0;
  std::uint64_t done = 0; // packets correctly completed (before checks)
};

/// The traced half's spans and per-layer samples (one per repetition,
/// reported as medians).
struct Traced {
  SpanRecorder spans;
  std::map<std::string, std::vector<double>> layers;
  void add(const std::string& name, double value) {
    layers[name].push_back(value);
  }
};

/// Decorates the source handed to a run: notes when the first packet is
/// admitted (the end of set-up) and, when traced, sums the time spent in
/// the source's peek/advance calls.
class TimedSource final : public TraceSource {
public:
  TimedSource(TraceSource& inner, bool time_pulls)
      : inner_(inner), time_pulls_(time_pulls) {}

  const TraceItem* peek() override {
    if (!time_pulls_) return inner_.peek();
    const auto t0 = Clock::now();
    const TraceItem* item = inner_.peek();
    pull_ns_ += static_cast<double>((Clock::now() - t0).count());
    return item;
  }
  void advance() override {
    if (!admitted_) {
      admitted_ = true;
      first_admit_ = Clock::now();
    }
    if (!time_pulls_) {
      inner_.advance();
      return;
    }
    const auto t0 = Clock::now();
    inner_.advance();
    pull_ns_ += static_cast<double>((Clock::now() - t0).count());
  }
  std::uint64_t consumed() const override { return inner_.consumed(); }
  void skip_to(std::uint64_t n) override { inner_.skip_to(n); }
  std::optional<std::uint64_t> size() const override { return inner_.size(); }

  Clock::time_point first_admit() const { return first_admit_; }
  double pull_ns() const { return pull_ns_; }

private:
  TraceSource& inner_;
  bool time_pulls_;
  bool admitted_ = false;
  Clock::time_point first_admit_{};
  double pull_ns_ = 0.0;
};

/// mp5sim's uniform line-rate traffic, streamed: fixed 64 B packets on the
/// line-rate clock at `load`, port n mod 64, flow n mod 128, every declared
/// field uniform in [0, 1024) from one Rng seeded with the run seed.
class LineRateSource final : public TraceSource {
public:
  LineRateSource(std::uint64_t packets, std::uint32_t pipelines, double load,
                 std::size_t fields, std::uint64_t seed)
      : packets_(packets), rng_(seed), clock_(pipelines, load) {
    item_.fields.resize(fields);
    generate();
  }
  const TraceItem* peek() override { return n_ < packets_ ? &item_ : nullptr; }
  void advance() override {
    ++n_;
    generate();
  }
  std::uint64_t consumed() const override { return n_; }
  void skip_to(std::uint64_t n) override {
    if (n < n_) throw Error("LineRateSource: cannot rewind");
    while (n_ < n) advance();
  }
  std::optional<std::uint64_t> size() const override { return packets_; }

private:
  void generate() {
    if (n_ >= packets_) return;
    item_.arrival_time = clock_.next(64);
    item_.port = static_cast<std::uint32_t>(n_ % 64);
    item_.flow = n_ % 128;
    for (auto& field : item_.fields) field = rng_.next_in(0, 1023);
  }

  std::uint64_t packets_;
  std::uint64_t n_ = 0;
  Rng rng_;
  LineRateClock clock_;
  TraceItem item_;
};

Trace drain(TraceSource& source) {
  Trace trace;
  if (const auto n = source.size()) trace.reserve(*n);
  for (const TraceItem* item; (item = source.peek()) != nullptr;
       source.advance()) {
    trace.push_back(*item);
  }
  return trace;
}

struct App {
  domino::Ast ast;
  Mp5Program program;
};

/// Compile and transform `source` for the MP5 target: through the public
/// compile() when untraced, phase by phase with spans when traced.
App build_app(const std::string& source, Traced* traced) {
  App app;
  if (traced == nullptr) {
    app.ast = domino::parse(source);
    app.program = transform(
        domino::compile(app.ast, banzai::MachineSpec{}, /*reserve_stages=*/1)
            .pvsm);
    return app;
  }
  PhaseStats stats;
  const auto compiled =
      compile_by_phase(source, traced->spans, stats, app.ast);
  traced->add("domino.lex_us", stats.lex_us);
  traced->add("domino.parse_us", stats.parse_us);
  traced->add("domino.sema_us", stats.sema_us);
  traced->add("domino.lower_us", stats.lower_us);
  traced->add("domino.optimize_us", stats.optimize_us);
  traced->add("domino.pipeline_us", stats.pipeline_us);
  traced->add("domino.tokens", static_cast<double>(stats.tokens));
  traced->add("domino.lowered_instrs",
              static_cast<double>(stats.lowered_instrs));
  traced->add("domino.stages", static_cast<double>(stats.stages));
  auto span = traced->spans.open("transform", "mp5");
  app.program = transform(compiled.pvsm);
  traced->add("mp5.transform_us", span.end() / 1e3);
  return app;
}

/// Sum of a registry counter over every scope ("fifo.push" and, in a
/// fabric, "fabric.leaf0.fifo.push", ...).
double counter_total(const telemetry::Telemetry& telem,
                     const std::string& suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, counter] : telem.counters()) {
    if (name == suffix ||
        (name.size() > suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
             0 &&
         name[name.size() - suffix.size() - 1] == '.')) {
      total += counter.value();
    }
  }
  return static_cast<double>(total);
}

void add_registry_metrics(Traced& traced, const telemetry::Telemetry& telem) {
  for (const char* name : {"fifo.push", "fifo.pop_blocked", "fifo.pop_wasted",
                           "shard.rebalance_runs", "shard.rebalance_moves",
                           "shard.touched_indices"}) {
    traced.add(std::string("mp5.") + name, counter_total(telem, name));
  }
}

/// Why checks failed and which repetitions they condemn.
struct Verdict {
  std::vector<std::string> failures;
  /// Repetitions (numbered untraced first, then traced) whose outputs
  /// differ from the first repetition's.
  std::set<std::size_t> mismatched;
  /// The first repetition's outputs differ from the reference, so every
  /// repetition's do.
  bool all_mismatched = false;
};

class Workload {
public:
  virtual ~Workload() = default;
  /// One repetition from scratch: set up, then run. Untraced when
  /// `traced` is null.
  virtual Sample rep(Traced* traced) = 0;
  /// Check the first repetition's outputs against the reference (every
  /// later repetition was compared with the first when it ended).
  virtual void check() = 0;
  /// The simulated §4.3 normalized throughput, or the delivered share of
  /// the offered packets for workloads that have no single switch clock.
  virtual double norm_throughput() const = 0;
  const Verdict& verdict() const { return verdict_; }

protected:
  /// Keep the run's first result; compare every later one with it as soon
  /// as its repetition ends, outside the timed region, so memory does not
  /// grow with the number of repetitions. Traced repetitions come after
  /// the untraced ones, so this also requires traced results to equal
  /// untraced ones.
  template <typename Result, typename Same>
  void keep(std::optional<Result>& first, Result&& result, bool traced,
            Same same) {
    const std::size_t index = reps_++;
    if (!first.has_value()) {
      first.emplace(std::move(result));
      return;
    }
    std::string why;
    if (!same(*first, result, &why)) {
      verdict_.failures.push_back(
          std::string(traced ? "traced" : "untraced") + " repetition " +
          std::to_string(index) + " differs from repetition 0: " + why);
      verdict_.mismatched.insert(index);
    }
  }
  void fail_all(std::string why) {
    verdict_.failures.push_back(std::move(why));
    verdict_.all_mismatched = true;
  }

private:
  Verdict verdict_;
  std::size_t reps_ = 0;
};

// ---------------------------------------------------------------------------
// sim-dense / sim-sparse: flowlet on an 8-pipeline Mp5Simulator.
// ---------------------------------------------------------------------------

class SimWorkload final : public Workload {
public:
  static constexpr std::uint32_t kPipelines = 8;

  SimWorkload(double load, std::uint64_t packets, std::uint64_t seed)
      : load_(load), packets_(packets), seed_(seed),
        source_(apps::flowlet_app().source) {}

  Sample rep(Traced* traced) override {
    Sample sample;
    sample.offered = packets_;
    const auto start = Clock::now();
    const App app = build_app(source_, traced);
    LineRateSource generator(packets_, kPipelines, load_,
                             app.ast.fields.size(), seed_);
    TimedSource source(generator, traced != nullptr);
    SimOptions opts = options();
    SimResult result;
    Clock::time_point end;
    if (traced == nullptr) {
      Mp5Simulator sim(app.program, opts);
      const double cpu0 = cpu_seconds();
      result = sim.run(source);
      end = Clock::now();
      sample.cpu_s = cpu_seconds() - cpu0;
    } else {
      telemetry::Telemetry telem(telemetry::Config{/*event_capacity=*/0});
      opts.telemetry = &telem;
      auto construct = traced->spans.open("construct", "mp5.sim");
      Mp5Simulator sim(app.program, opts);
      traced->add("mp5.sim.construct_ms", construct.end() / 1e6);
      const double cpu0 = cpu_seconds();
      result = run_stepped(sim, source, opts, *traced);
      end = Clock::now();
      sample.cpu_s = cpu_seconds() - cpu0;
      add_registry_metrics(*traced, telem);
      traced->add("trace.pull_ns_per_pkt",
                  ratio(source.pull_ns(), static_cast<double>(packets_)));
      traced->add("trace.items", static_cast<double>(source.consumed()));
      traced->add("mp5.sim.cycles_run",
                  static_cast<double>(result.cycles_run));
      traced->add("mp5.sim.steers", static_cast<double>(result.steers));
      traced->add("mp5.sim.blocked_cycles",
                  static_cast<double>(result.blocked_cycles));
      traced->add("mp5.sim.wasted_cycles",
                  static_cast<double>(result.wasted_cycles));
      traced->add("mp5.sim.max_queue_depth",
                  static_cast<double>(result.max_queue_depth));
    }
    sample.setup_s = seconds_between(start, source.first_admit());
    sample.run_s = seconds_between(source.first_admit(), end);
    sample.done = result.egressed;
    keep(first_, std::move(result), traced != nullptr,
         [](const SimResult& a, const SimResult& b, std::string* why) {
           return same_results(a, b, why);
         });
    return sample;
  }

  void check() override {
    const App app = build_app(source_, nullptr);
    LineRateSource generator(packets_, kPipelines, load_,
                             app.ast.fields.size(), seed_);
    const Trace trace = drain(generator);
    SimOptions opts = options();
    opts.record_egress = true;
    Mp5Simulator sim(app.program, opts);
    SimResult reference = sim.run(trace);
    const auto oracle =
        check_sim_against_oracle(app.ast, app.program, trace, reference);
    if (!oracle) fail_all("AstInterp oracle: " + oracle.first_difference);
    // The timed repetitions ran without egress recording; every other
    // field, final registers included, must equal the checked run's.
    reference.egress.clear();
    std::string why;
    if (!same_results(*first_, reference, &why)) {
      fail_all("repetition 0 differs from the oracle-checked run: " + why);
    }
  }

  double norm_throughput() const override {
    return first_->normalized_throughput();
  }

private:
  SimOptions options() const {
    SimOptions opts;
    opts.pipelines = kPipelines;
    opts.seed = seed_;
    return opts;
  }

  /// The begin/step/finish walk, timing every step. Cycles are skipped
  /// exactly where run()'s fast-forward skips them (drained switch, next
  /// arrival ahead, clamped to the next remap boundary while the shard
  /// window is dirty or telemetry is attached), so the result is
  /// bit-identical to run()'s.
  static SimResult run_stepped(Mp5Simulator& sim, TraceSource& source,
                               const SimOptions& opts, Traced& traced) {
    std::vector<std::uint32_t> step_ns;
    auto run_span = traced.spans.open("run", "mp5.sim");
    const auto run_start = Clock::now();
    sim.begin(source);
    Cycle now = 0;
    auto t_prev = Clock::now();
    while (sim.has_work()) {
      if (opts.fast_forward && sim.drained()) {
        if (const TraceItem* next = source.peek()) {
          Cycle target = static_cast<Cycle>(next->arrival_time);
          if (opts.remap_period != 0 &&
              (sim.state().window_dirty() || opts.telemetry != nullptr)) {
            const Cycle period = opts.remap_period;
            target = std::min(target, ((now + period) / period) * period - 1);
          }
          now = std::max(target, now);
        }
      }
      sim.step(now);
      ++now;
      const auto t = Clock::now();
      step_ns.push_back(static_cast<std::uint32_t>(
          std::min<std::int64_t>((t - t_prev).count(), UINT32_MAX)));
      t_prev = t;
    }
    auto finish_span = traced.spans.open("finish", "mp5.sim");
    SimResult result = sim.finish(now);
    traced.add("mp5.sim.finish_ms", finish_span.end() / 1e6);
    const double run_ns =
        static_cast<double>((Clock::now() - run_start).count());
    run_span.end();
    traced.add("mp5.sim.step_ns_p50", quantile(step_ns, 0.50));
    traced.add("mp5.sim.step_ns_p99", quantile(step_ns, 0.99));
    traced.add("mp5.sim.host_ns_per_cycle",
               ratio(run_ns, static_cast<double>(result.cycles_run)));
    return result;
  }

  double load_;
  std::uint64_t packets_;
  std::uint64_t seed_;
  std::string source_;
  std::optional<SimResult> first_;
};

// ---------------------------------------------------------------------------
// native-flowlet: flowlet on NativeBackend, 2 workers + the dispatcher.
// ---------------------------------------------------------------------------

class NativeWorkload final : public Workload {
public:
  using Registers = std::vector<std::vector<Value>>;
  static constexpr std::uint32_t kWorkers = 2;

  NativeWorkload(std::uint64_t packets, std::uint64_t seed)
      : packets_(packets), seed_(seed), source_(apps::flowlet_app().source) {}

  Sample rep(Traced* traced) override {
    Sample sample;
    sample.offered = packets_;
    const auto start = Clock::now();
    const App app = build_app(source_, traced);
    SyntheticTraceSource generator(spec(app.ast.fields.size()));
    TimedSource source(generator, traced != nullptr);
    native::NativeOptions opts = options();
    opts.profile = traced != nullptr;
    std::unique_ptr<native::NativeBackend> backend;
    if (traced == nullptr) {
      backend = std::make_unique<native::NativeBackend>(app.program, opts);
    } else {
      auto construct = traced->spans.open("construct", "native");
      backend = std::make_unique<native::NativeBackend>(app.program, opts);
      traced->add("native.construct_ms", construct.end() / 1e6);
    }
    const double cpu0 = cpu_seconds();
    native::NativeResult result;
    {
      std::optional<SpanRecorder::Scope> run_span;
      if (traced != nullptr) run_span.emplace(traced->spans, "run", "native");
      result = backend->run(source);
    }
    const auto end = Clock::now();
    sample.cpu_s = cpu_seconds() - cpu0;
    sample.setup_s = seconds_between(start, source.first_admit());
    sample.run_s = seconds_between(source.first_admit(), end);
    sample.done = result.packets;
    if (traced != nullptr) add_layer_metrics(*traced, source, result);
    keep(first_, std::move(result.final_registers), traced != nullptr,
         [](const Registers& a, const Registers& b, std::string* why) {
           if (a != b) *why = "final registers differ";
           return a == b;
         });
    return sample;
  }

  void check() override {
    const App app = build_app(source_, nullptr);
    SyntheticTraceSource generator(spec(app.ast.fields.size()));
    const Trace trace = drain(generator);
    native::NativeOptions opts = options();
    opts.record_egress = true;
    native::NativeBackend backend(app.program, opts);
    VectorTraceSource replay(trace);
    const native::NativeResult reference = backend.run(replay);
    const auto oracle =
        native::check_against_oracle(app.ast, app.program, trace, reference);
    if (!oracle) fail_all("AstInterp oracle: " + oracle.first_difference);
    if (*first_ != reference.final_registers) {
      fail_all(
          "repetition 0: final registers differ from the oracle-checked run");
    }
  }

  double norm_throughput() const override { return 1.0; }

private:
  SyntheticSpec spec(std::size_t fields) const {
    SyntheticSpec spec;
    spec.packets = packets_;
    spec.pipelines = kWorkers;
    spec.field_count = static_cast<std::uint32_t>(fields);
    spec.seed = seed_;
    return spec;
  }

  native::NativeOptions options() const {
    native::NativeOptions opts;
    opts.workers = kWorkers;
    opts.policy = ShardingPolicy::kDynamic;
    // Unpinned: the pin path ignores the affinity mask.
    opts.pin_threads = false;
    opts.seed = seed_;
    return opts;
  }

  static void add_layer_metrics(Traced& traced, const TimedSource& source,
                                const native::NativeResult& result) {
    const double packets = static_cast<double>(result.packets);
    traced.add("trace.pull_ns_per_pkt", ratio(source.pull_ns(), packets));
    traced.add("trace.items", static_cast<double>(source.consumed()));
    double forwards = 0.0, parks = 0.0, idle_spins = 0.0;
    const auto& workers = result.profile.workers;
    for (std::size_t w = 0; w < workers.size(); ++w) {
      forwards += static_cast<double>(workers[w].forwards);
      parks += static_cast<double>(workers[w].parks);
      idle_spins += static_cast<double>(workers[w].idle_spins);
      traced.add("native.w" + std::to_string(w) + ".busy_frac",
                 ratio(static_cast<double>(workers[w].busy_ns),
                       static_cast<double>(workers[w].busy_ns +
                                           workers[w].idle_ns)));
    }
    traced.add("native.forward_frac", ratio(forwards, packets));
    traced.add("native.parks_per_kpkt", ratio(parks * 1000.0, packets));
    traced.add("native.idle_spins_per_pkt", ratio(idle_spins, packets));
    for (const auto& reg : result.profile.registers) {
      traced.add("native.remote_frac." + reg.name,
                 ratio(static_cast<double>(reg.remote),
                       static_cast<double>(reg.performed)));
      traced.add("native.owner_share." + reg.name, reg.owner_share);
    }
    traced.add("native.shard_moves", static_cast<double>(result.shard_moves));
    traced.add("native.rebalances", static_cast<double>(result.rebalances));
  }

  std::uint64_t packets_;
  std::uint64_t seed_;
  std::string source_;
  std::optional<Registers> first_;
};

// ---------------------------------------------------------------------------
// fabric-conga: 4 leaves x 4 spines x 16 hosts/leaf, CONGA.
// ---------------------------------------------------------------------------

class FabricCongaWorkload final : public Workload {
public:
  FabricCongaWorkload(std::uint64_t flows, std::uint64_t seed)
      : flows_(flows), seed_(seed) {}

  Sample rep(Traced* traced) override {
    Sample sample;
    const fabric::FabricOptions base = options();
    std::unique_ptr<telemetry::Telemetry> telem;
    if (traced != nullptr) {
      // The fabric compiles CONGA inside its constructor; compile the same
      // source here to time the compiler's phases.
      build_app(apps::conga_app().source, traced);
      drain_workload(*traced, base);
      telem = std::make_unique<telemetry::Telemetry>(
          telemetry::Config{/*event_capacity=*/0});
    }
    fabric::FabricOptions opts = base;
    opts.telemetry = telem.get();
    const auto start = Clock::now();
    std::optional<fabric::FabricSimulator> sim;
    if (traced == nullptr) {
      sim.emplace(opts);
    } else {
      auto construct = traced->spans.open("construct", "fabric");
      sim.emplace(opts);
      traced->add("fabric.construct_ms", construct.end() / 1e6);
    }
    const auto run_start = Clock::now();
    const double cpu0 = cpu_seconds();
    fabric::FabricResult result;
    {
      std::optional<SpanRecorder::Scope> run_span;
      if (traced != nullptr) run_span.emplace(traced->spans, "run", "fabric");
      result = sim->run();
    }
    const auto end = Clock::now();
    sample.cpu_s = cpu_seconds() - cpu0;
    sample.setup_s = seconds_between(start, run_start);
    sample.run_s = seconds_between(run_start, end);
    sample.offered = result.injected;
    sample.done = result.delivered;
    if (traced != nullptr) {
      add_layer_metrics(*traced, result, sample.run_s);
      add_registry_metrics(*traced, *telem);
    }
    keep(first_, std::move(result), traced != nullptr,
         [](const fabric::FabricResult& a, const fabric::FabricResult& b,
            std::string* why) { return same_fabric_results(a, b, why); });
    return sample;
  }

  void check() override {
    // No oracle models a whole fabric; the references are the conservation
    // ledger, full delivery, and bit-identical reruns (compared in keep()).
    if (!first_->conserved() || first_->truncated) {
      fail_all("repetition 0: conservation ledger does not balance");
    }
  }

  double norm_throughput() const override {
    return first_->delivered_fraction;
  }

private:
  fabric::FabricOptions options() const {
    fabric::FabricOptions opts;
    opts.topology.leaves = 4;
    opts.topology.spines = 4;
    opts.topology.hosts_per_leaf = 16;
    opts.lb = fabric::LbMode::kConga;
    opts.workload.flows = flows_;
    // Below the generator's default of 1.0 flows/cycle: at 1.0 some seeds
    // (1 and 5 of 1-8) serialize a leaf on one hot CONGA register index and
    // build a 40K-50K-deep FIFO backlog, which makes a run's work depend on
    // its seed. At 0.7, seeds 1-34 all stay below 34 packets deep.
    opts.workload.flow_rate = 0.7;
    opts.workload.seed = seed_;
    opts.seed = seed_;
    return opts;
  }

  static void drain_workload(Traced& traced,
                             const fabric::FabricOptions& opts) {
    auto span = traced.spans.open("workload-drain", "fabric");
    fabric::FabricWorkload workload(opts.workload,
                                    opts.topology.num_hosts());
    while (workload.peek() != nullptr) workload.advance();
    traced.add("fabric.workload_ns_per_pkt",
               ratio(span.end(), static_cast<double>(workload.emitted())));
  }

  static void add_layer_metrics(Traced& traced,
                                const fabric::FabricResult& result,
                                double run_s) {
    traced.add("fabric.cycles_run", static_cast<double>(result.cycles_run));
    traced.add("fabric.host_ns_per_cycle",
               ratio(run_s * 1e9, static_cast<double>(result.cycles_run)));
    double egressed = 0.0, cycles = 0.0, steers = 0.0, blocked = 0.0,
           wasted = 0.0, depth = 0.0;
    for (const auto& sw : result.switches) {
      egressed += static_cast<double>(sw.sim.egressed);
      cycles += static_cast<double>(sw.sim.cycles_run);
      steers += static_cast<double>(sw.sim.steers);
      blocked += static_cast<double>(sw.sim.blocked_cycles);
      wasted += static_cast<double>(sw.sim.wasted_cycles);
      depth = std::max(depth, static_cast<double>(sw.sim.max_queue_depth));
    }
    double link_pkts = 0.0;
    for (const auto& link : result.links) {
      link_pkts += static_cast<double>(link.packets);
    }
    traced.add("fabric.switch_egressed", egressed);
    traced.add("fabric.link_pkts", link_pkts);
    traced.add("fabric.reordered_packets",
               static_cast<double>(result.reordered_packets));
    traced.add("mp5.sim.cycles_run", cycles);
    traced.add("mp5.sim.steers", steers);
    traced.add("mp5.sim.blocked_cycles", blocked);
    traced.add("mp5.sim.wasted_cycles", wasted);
    traced.add("mp5.sim.max_queue_depth", depth);
  }

  std::uint64_t flows_;
  std::uint64_t seed_;
  std::optional<fabric::FabricResult> first_;
};

std::uint64_t scaled(std::uint64_t n, double scale) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(static_cast<double>(n) * scale)));
}

// Input sizes: each repetition takes about half a second to a second on a
// 4-CPU Xeon, so a 10 s run collects ~10 repetitions per workload.
std::unique_ptr<Workload> make_workload(const RunOptions& opts) {
  if (opts.workload == "sim-dense") {
    return std::make_unique<SimWorkload>(1.0, scaled(400'000, opts.scale),
                                         opts.seed);
  }
  if (opts.workload == "sim-sparse") {
    return std::make_unique<SimWorkload>(0.02, scaled(100'000, opts.scale),
                                         opts.seed);
  }
  if (opts.workload == "native-flowlet") {
    return std::make_unique<NativeWorkload>(scaled(2'000'000, opts.scale),
                                            opts.seed);
  }
  if (opts.workload == "fabric-conga") {
    return std::make_unique<FabricCongaWorkload>(scaled(80'000, opts.scale),
                                            opts.seed);
  }
  throw ConfigError("unknown workload '" + opts.workload + "'");
}

/// Repeat the workload until `seconds` have passed (at least `min_reps`),
/// each repetition on the next CPU when `rotate_cpus` is set.
std::vector<Sample> timed_reps(Workload& workload, Traced* traced,
                               double seconds, std::size_t min_reps,
                               bool rotate_cpus) {
  std::vector<Sample> samples;
  std::optional<CpuRotation> rotation;
  if (rotate_cpus) rotation.emplace();
  const auto start = Clock::now();
  while (samples.size() < min_reps ||
         seconds_between(start, Clock::now()) < seconds) {
    if (rotation) rotation->next();
    std::optional<SpanRecorder::Scope> span;
    if (traced != nullptr) {
      span.emplace(traced->spans,
                   "repetition " + std::to_string(samples.size()), "bench");
    }
    samples.push_back(workload.rep(traced));
    const Sample& s = samples.back();
    std::fprintf(stderr,
                 "mp5bench: %s repetition %zu: setup %.6f s, run %.6f s, "
                 "%llu/%llu packets\n",
                 traced != nullptr ? "traced" : "untraced", samples.size() - 1,
                 s.setup_s, s.run_s, static_cast<unsigned long long>(s.done),
                 static_cast<unsigned long long>(s.offered));
  }
  return samples;
}

double median_of(const std::vector<Sample>& samples,
                 const std::function<double(const Sample&)>& f) {
  std::vector<double> values;
  for (const Sample& s : samples) values.push_back(f(s));
  return median(values);
}

double pkts_per_s(const Sample& s) {
  return ratio(static_cast<double>(s.done), s.run_s);
}

} // namespace

native::OracleCheck check_sim_against_oracle(const domino::Ast& ast,
                                             const Mp5Program& program,
                                             const Trace& trace,
                                             const SimResult& result) {
  // check_against_oracle compares per-packet egress fields and registers;
  // a lossless simulator run egresses every packet once, sorted by seq.
  native::NativeResult as_native;
  as_native.final_registers = result.final_registers;
  as_native.egress_fields.reserve(result.egress.size());
  for (std::size_t i = 0; i < result.egress.size(); ++i) {
    if (result.egress[i].seq != i) {
      native::OracleCheck check;
      check.equivalent = false;
      check.first_difference = "egress record " + std::to_string(i) +
                               " has seq " +
                               std::to_string(result.egress[i].seq);
      return check;
    }
    as_native.egress_fields.push_back(result.egress[i].headers);
  }
  return native::check_against_oracle(ast, program, trace, as_native);
}

RunReport run_workload(const RunOptions& options, const HostFingerprint& host) {
  const auto spec = std::find_if(
      workload_specs().begin(), workload_specs().end(),
      [&](const WorkloadSpec& s) { return s.name == options.workload; });
  if (spec == workload_specs().end()) {
    throw ConfigError("unknown workload '" + options.workload + "'");
  }
  if (const auto refusal = oversubscription_refusal(host, spec->threads)) {
    throw ConfigError(options.workload + ": " + *refusal);
  }
  const auto workload = make_workload(options);

  const double half = options.trace ? options.seconds / 2.0 : options.seconds;
  // The native backend's threads inherit the creating thread's mask, so
  // only single-threaded workloads rotate.
  const bool rotate = spec->threads == 1;
  const std::vector<Sample> untraced =
      timed_reps(*workload, nullptr, half, options.min_reps, rotate);
  const double rss = peak_rss_mib();
  std::optional<Traced> traced;
  std::vector<Sample> traced_samples;
  if (options.trace) {
    traced.emplace();
    traced_samples =
        timed_reps(*workload, &*traced, half, options.min_reps, rotate);
  }

  RunReport report;
  for (const auto& spec_metric : options.trace ? per_layer_metrics()
                                               : end_to_end_metrics()) {
    report.metrics[spec_metric.name] = 0.0;
  }
  const auto set = [&report](const std::string& name, double value) {
    const auto it = report.metrics.find(name);
    if (it == report.metrics.end()) {
      throw Error("metric '" + name + "' is not declared");
    }
    it->second = value;
  };

  // Correctness, outside the timed region.
  std::vector<Sample> all = untraced;
  all.insert(all.end(), traced_samples.begin(), traced_samples.end());
  workload->check();
  const Verdict& verdict = workload->verdict();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const bool mismatched =
        verdict.all_mismatched || verdict.mismatched.count(i) != 0;
    report.attempted += all[i].offered;
    report.failed += mismatched ? all[i].offered : all[i].offered - all[i].done;
  }
  report.failures = verdict.failures;
  if (report.failed > 0 && report.failures.empty()) {
    report.failures.push_back(std::to_string(report.failed) +
                              " packets dropped or not delivered");
  }
  report.correct = report.failures.empty();
  report.reps = all.size();

  if (!options.trace) {
    set("pkts_per_s", median_of(untraced, pkts_per_s));
    set("cpu_ns_per_pkt", median_of(untraced, [](const Sample& s) {
          return ratio(s.cpu_s * 1e9, static_cast<double>(s.done));
        }));
    set("setup_s", median_of(untraced, [](const Sample& s) {
          return s.setup_s;
        }));
    set("peak_rss_mib", rss);
    set("norm_throughput", workload->norm_throughput());
    return report;
  }

  for (const auto& [name, values] : traced->layers) set(name, median(values));
  set("telemetry.overhead_frac",
      1.0 - ratio(median_of(traced_samples, pkts_per_s),
                  median_of(untraced, pkts_per_s)));
  if (!options.trace_out.empty()) {
    std::ofstream out(options.trace_out);
    if (!out) {
      throw ConfigError("cannot write trace file '" + options.trace_out + "'");
    }
    traced->spans.write_chrome_trace(
        out, {{"workload", options.workload},
              {"seed", std::to_string(options.seed)},
              {"cpu_model", host.cpu_model},
              {"affinity_cpus", std::to_string(host.affinity_cpus)},
              {"compiler", host.compiler},
              {"build_type", host.build_type},
              {"git_revision", host.git_revision}});
  }
  return report;
}

} // namespace perfbench
