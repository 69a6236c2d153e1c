// Host fingerprint and the oversubscription guard.
//
// Benchmark numbers are only comparable between runs on the same kind of
// host, so every result records where it was measured. The guard refuses a
// workload whose threads outnumber the CPUs the process may run on: the
// native backend spins while it waits, and time-sharing its threads on too
// few CPUs measures the scheduler, about 20x slower, not the backend.
#pragma once

#include <sched.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct HostFingerprint {
  /// CPUs in this process's affinity mask (sched_getaffinity).
  std::uint32_t affinity_cpus = 0;
  /// CPUs' worth of cgroup CPU quota (quota / period); empty when none.
  std::optional<double> cgroup_cpus;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  /// True for an optimized build without assertions (Release).
  bool release = false;
  std::string git_revision;
};

HostFingerprint host_fingerprint(const std::string& git_revision);

/// CPUs the process can actually use at once: the affinity mask, further
/// capped by the cgroup quota when one is set.
std::uint32_t usable_cpus(const HostFingerprint& host);

/// Empty when `threads` fit on the usable CPUs; otherwise why the workload
/// must not be reported.
std::optional<std::string> oversubscription_refusal(
    const HostFingerprint& host, std::uint32_t threads);

/// Moves the calling thread to the next CPU of its affinity mask on every
/// next() call, round robin, and restores the mask when destroyed. On a
/// shared host the CPUs differ in speed for minutes at a time (one CPU of
/// four ran sim-dense 10-15% faster than the others in three rounds), so a
/// single-threaded run that stayed on whichever CPU the scheduler picked
/// would carry that CPU's speed into its median. Threads created while the
/// caller is pinned inherit the one-CPU mask: use only around
/// single-threaded work.
class CpuRotation {
public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void next();

private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

} // namespace perfbench
