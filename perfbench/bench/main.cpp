// mp5bench: run one benchmark workload and print its metrics.
//
//   mp5bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out file.json] [--git-rev <rev>]
//
// Workloads: sim-dense, sim-sparse, native-flowlet, fabric-conga.
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (and, with --trace-out, writes the spans as Chrome trace-event JSON).
// Standard output ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The line before it is the host fingerprint. Exit status: 0 when every
// output check passed, 1 when one failed (the result line is still
// printed), 2 on a usage error or a refused workload (no result line).
#include <iostream>
#include <sstream>
#include <string>

#include "bench/host.hpp"
#include "bench/workloads.hpp"
#include "common/error.hpp"
#include "telemetry/json_writer.hpp"

namespace {

using perfbench::RunOptions;

struct Args {
  RunOptions run;
  std::string git_rev;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw mp5::ConfigError(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      args.run.workload = next();
      have_workload = true;
    } else if (arg == "--seed") {
      args.run.seed = std::stoull(next());
    } else if (arg == "--seconds") {
      args.run.seconds = std::stod(next());
      if (!(args.run.seconds > 0.0)) {
        throw mp5::ConfigError("--seconds must be positive");
      }
    } else if (arg == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") throw mp5::ConfigError("--trace expects 0 or 1");
      args.run.trace = v == "1";
    } else if (arg == "--trace-out") {
      args.run.trace_out = next();
    } else if (arg == "--git-rev") {
      args.git_rev = next();
    } else {
      throw mp5::ConfigError("unknown argument '" + arg + "'");
    }
  }
  if (!have_workload) throw mp5::ConfigError("--workload is required");
  return args;
}

std::string fingerprint_json(const perfbench::HostFingerprint& host) {
  std::ostringstream os;
  mp5::telemetry::JsonWriter w(os);
  w.begin_object();
  w.kv("affinity_cpus", host.affinity_cpus);
  w.key("cgroup_cpus");
  if (host.cgroup_cpus.has_value()) {
    w.value(*host.cgroup_cpus);
  } else {
    w.null();
  }
  w.kv("cpu_model", host.cpu_model);
  w.kv("compiler", host.compiler);
  w.kv("build_type", host.build_type);
  w.kv("release", host.release);
  w.kv("git_revision", host.git_revision);
  w.end_object();
  return os.str();
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const auto host = perfbench::host_fingerprint(args.git_rev);
  if (!host.release) {
    std::cerr << "mp5bench: warning: " << host.build_type
              << " build; timings are only comparable between Release builds\n";
  }
  const perfbench::RunReport report = perfbench::run_workload(args.run, host);
  for (const auto& why : report.failures) {
    std::cerr << "mp5bench: check failed: " << why << "\n";
  }

  const auto& specs = args.run.trace ? perfbench::per_layer_metrics()
                                     : perfbench::end_to_end_metrics();
  std::cout << "host " << fingerprint_json(host) << "\n";
  std::ostringstream line;
  mp5::telemetry::JsonWriter w(line);
  w.begin_object();
  w.kv("correct", report.correct);
  w.kv("attempted", report.attempted);
  w.kv("failed", report.failed);
  w.key("metrics").begin_object();
  for (const auto& spec : specs) {
    w.key(spec.name).begin_object();
    w.kv("value", report.metrics.at(spec.name));
    w.kv("unit", spec.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << line.str() << std::endl;
  return report.correct ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "mp5bench: " << e.what() << "\n";
    return 2;
  }
}
