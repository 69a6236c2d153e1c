#include "native/cpus.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

namespace mp5::native {
namespace {

/// CPUs' worth of cgroup quota (quota / period), or nullopt when unlimited
/// or unreadable.
std::optional<double> cgroup_cpu_quota() {
  if (std::ifstream v2("/sys/fs/cgroup/cpu.max"); v2) {
    // "<quota> <period>", or "max <period>" when unlimited.
    std::string quota;
    double period = 0.0;
    if (v2 >> quota >> period && quota != "max" && period > 0.0) {
      return std::stod(quota) / period;
    }
    return std::nullopt;
  }
  std::ifstream quota_file("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  std::ifstream period_file("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  double quota = -1.0; // -1 = unlimited
  double period = 0.0;
  if (quota_file >> quota && period_file >> period && quota > 0.0 &&
      period > 0.0) {
    return quota / period;
  }
  return std::nullopt;
}

} // namespace

std::vector<std::uint32_t> affinity_cpu_ids() {
  std::vector<std::uint32_t> ids;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return ids;
  for (std::uint32_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) ids.push_back(cpu);
  }
#endif
  return ids;
}

std::uint32_t usable_cpus() {
  auto cpus = static_cast<std::uint32_t>(affinity_cpu_ids().size());
  if (cpus == 0) cpus = std::thread::hardware_concurrency();
  // Read once per process: every backend construction asks, and the
  // quota is set from outside, unlike the mask a process sets itself.
  static const std::optional<double> quota = cgroup_cpu_quota();
  if (quota) {
    const auto quota_cpus = static_cast<std::uint32_t>(std::floor(*quota));
    cpus = std::min(cpus, std::max<std::uint32_t>(quota_cpus, 1));
  }
  return std::max<std::uint32_t>(cpus, 1);
}

} // namespace mp5::native
