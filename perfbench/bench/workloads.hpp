// The benchmark's workloads, metrics and the loop that runs them.
//
// A run repeats one workload from scratch (set-up, then the timed run)
// until its time is used, reports medians over the repetitions, and then,
// outside the timed region, checks every repetition's outputs against a
// reference that is not the code under test. A traced run (trace = true)
// spends half its time untraced and half traced, so it can report the
// tracing overhead and require both halves to produce identical results.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench/host.hpp"
#include "domino/ast.hpp"
#include "metrics/sim_result.hpp"
#include "mp5/transform.hpp"
#include "native/oracle.hpp"
#include "trace/trace.hpp"

namespace perfbench {

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better; // "higher" or "lower"
};

/// Printed by every untraced run.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Printed by every traced run; 0 for a layer the workload does not use.
const std::vector<MetricSpec>& per_layer_metrics();

struct WorkloadSpec {
  std::string name;
  /// Threads the workload keeps busy (the oversubscription guard's need).
  std::uint32_t threads = 1;
};
const std::vector<WorkloadSpec>& workload_specs();

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies the workload's input size; the self-tests run small inputs.
  double scale = 1.0;
  /// Repetitions per half even when the time is used up.
  std::size_t min_reps = 3;
  /// Chrome trace-event file written by a traced run (empty = none).
  std::string trace_out;
};

struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One line per failed check.
  std::vector<std::string> failures;
  std::map<std::string, double> metrics;
  std::size_t reps = 0;
};

/// Run one workload. Throws mp5::ConfigError on an unknown workload name
/// and when the oversubscription guard refuses it on this host.
RunReport run_workload(const RunOptions& options, const HostFingerprint& host);

/// The simulator workloads' correctness gate: replays `trace` through the
/// AstInterp oracle and compares every egressed packet's declared fields
/// and the final registers with `result` (recorded with record_egress).
mp5::native::OracleCheck check_sim_against_oracle(
    const mp5::domino::Ast& ast, const mp5::Mp5Program& program,
    const mp5::Trace& trace, const mp5::SimResult& result);

} // namespace perfbench
