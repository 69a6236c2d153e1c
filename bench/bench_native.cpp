// Native multicore backend throughput (ISSUE 9): real packets per second
// for compiled PVSM programs executed directly on CPU cores.
//
//   * cores sweep 1/2/4/8 on a serializing app (counter: one scalar
//     register, cannot shard) and a sparse-state app (flowlet: per-flow
//     arrays shard across workers);
//   * batch-size sweep (ring push/pop amortization) at a fixed core count.
//
// Row names are stable keys for tools/compare_bench.py; the committed
// snapshot lives in bench/baselines/BENCH_native.json. The gate is the
// usual loose 0.75 threshold: it catches an order-of-magnitude collapse
// of the ring/ticket hot path, not runner noise. Note the hardware
// caveat: on hosts with fewer hardware threads than workers + 1
// (dispatcher), workers time-share cores, so multi-core rows measure
// scheduling overhead rather than scaling (the profiler's
// serializing-register attribution stays valid either way).
#include <iostream>

#include "bench_util.hpp"
#include "domino/parser.hpp"
#include "native/backend.hpp"
#include "native/cpus.hpp"
#include "trace/trace_source.hpp"

using namespace mp5;
using namespace mp5::bench;

namespace {

double run_native(const Mp5Program& program, std::size_t fields,
                  std::uint64_t packets, native::NativeOptions opts,
                  std::string* serializing = nullptr) {
  SyntheticSpec spec;
  spec.packets = packets;
  spec.pipelines = opts.workers;
  spec.field_count = static_cast<std::uint32_t>(fields);
  spec.field_bound = 4096;
  spec.seed = 1;
  SyntheticTraceSource source(spec);
  opts.pin_threads = false; // shared CI runners
  native::NativeBackend backend(program, opts);
  const auto result = backend.run(source);
  if (serializing != nullptr) {
    *serializing = result.profile.serializing_register;
  }
  return result.pkts_per_sec;
}

} // namespace

int main() {
  print_header("Native multicore backend: pkts/s vs cores and batch size",
               "NFOS-style software switch");
  std::cout << "usable CPUs: " << native::usable_cpus()
            << " (workers + dispatcher beyond this time-share cores)\n\n";

  BenchReport report("native");
  struct AppCase {
    const char* name;
    std::string source;
    std::size_t fields;
    std::uint64_t packets;
  };
  std::vector<AppCase> cases;
  {
    const auto ast = domino::parse(apps::packet_counter_source());
    cases.push_back({"counter", apps::packet_counter_source(),
                     ast.fields.size(), 2000000});
  }
  for (const auto& app : apps::real_apps()) {
    if (app.name == "flowlet") {
      const auto ast = domino::parse(app.source);
      cases.push_back({"flowlet", app.source, ast.fields.size(), 500000});
    }
  }

  TextTable table({"app", "cores", "batch", "pkts/s", "serializing reg"});
  for (const auto& app : cases) {
    const Mp5Program program = compile_for_mp5(app.source);
    for (const std::uint32_t cores : {1u, 2u, 4u, 8u}) {
      native::NativeOptions opts;
      opts.workers = cores;
      std::string serializing;
      const double rate =
          run_native(program, app.fields, app.packets, opts, &serializing);
      table.add_row({app.name, TextTable::integer(cores),
                     TextTable::integer(opts.batch), TextTable::num(rate, 0),
                     serializing});
      report
          .row("native:" + std::string(app.name) + ":cores" +
               std::to_string(cores))
          .metric("pkts_per_second", rate)
          .label("app", app.name)
          .label("cores", std::to_string(cores))
          .label("serializing_register", serializing);
    }
    for (const std::uint32_t batch : {8u, 32u, 128u, 512u}) {
      native::NativeOptions opts;
      opts.workers = 2;
      opts.batch = batch;
      opts.ring_capacity = 2 * batch > 1024 ? 2 * batch : 1024;
      const double rate = run_native(program, app.fields, app.packets, opts);
      table.add_row({app.name, "2", TextTable::integer(batch),
                     TextTable::num(rate, 0), ""});
      report
          .row("native:" + std::string(app.name) + ":batch" +
               std::to_string(batch))
          .metric("pkts_per_second", rate)
          .label("app", app.name)
          .label("batch", std::to_string(batch));
    }
  }
  table.print(std::cout);
  finish_report(report);
  return 0;
}
