// How many CPUs this process may actually run on.
//
// std::thread::hardware_concurrency() counts the machine's CPUs, not the
// ones a process is allowed to use: under `taskset -c 0` or a cgroup CPU
// quota it still reports every core, so a backend sized from it spins
// workers that the scheduler can only time-share. These helpers read the
// calling thread's affinity mask instead (Linux; elsewhere they fall back
// to hardware_concurrency()).
#pragma once

#include <cstdint>
#include <vector>

namespace mp5::native {

/// CPUs in the calling thread's affinity mask, capped by the cgroup CPU
/// quota (cgroup v2 `cpu.max`, else v1 `cpu.cfs_quota_us`) when one is
/// set. Always >= 1.
std::uint32_t usable_cpus();

/// Ids of the CPUs in the calling thread's affinity mask, ascending
/// (empty when the mask cannot be read).
std::vector<std::uint32_t> affinity_cpu_ids();

} // namespace mp5::native
