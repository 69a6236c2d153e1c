#include "bench/host.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

std::uint32_t affinity_cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::uint32_t>(CPU_COUNT(&set));
}

/// cgroup v2 "cpu.max" ("<quota> <period>" or "max <period>"), then v1
/// "cpu.cfs_quota_us" / "cpu.cfs_period_us" (quota -1 = unlimited).
std::optional<double> cgroup_cpu_quota() {
  if (std::ifstream v2("/sys/fs/cgroup/cpu.max"); v2) {
    std::string quota;
    double period = 0.0;
    if (v2 >> quota >> period && quota != "max" && period > 0.0) {
      return std::stod(quota) / period;
    }
    return std::nullopt;
  }
  std::ifstream quota_file("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  std::ifstream period_file("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  double quota = -1.0;
  double period = 0.0;
  if (quota_file >> quota && period_file >> period && quota > 0.0 &&
      period > 0.0) {
    return quota / period;
  }
  return std::nullopt;
}

std::string cpu_model_name() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

} // namespace

HostFingerprint host_fingerprint(const std::string& git_revision) {
  HostFingerprint host;
  host.affinity_cpus = affinity_cpu_count();
  host.cgroup_cpus = cgroup_cpu_quota();
  host.cpu_model = cpu_model_name();
#if defined(__clang__)
  host.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  host.compiler = std::string("gcc ") + __VERSION__;
#else
  host.compiler = "unknown";
#endif
  host.build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  host.release = host.build_type == "Release";
#else
  host.release = false;
#endif
  host.git_revision = git_revision.empty() ? "unknown" : git_revision;
  return host;
}

std::uint32_t usable_cpus(const HostFingerprint& host) {
  std::uint32_t cpus = host.affinity_cpus;
  if (host.cgroup_cpus.has_value()) {
    const auto quota_cpus =
        static_cast<std::uint32_t>(std::floor(*host.cgroup_cpus));
    cpus = std::min(cpus, std::max<std::uint32_t>(quota_cpus, 1));
  }
  return cpus;
}

std::optional<std::string> oversubscription_refusal(
    const HostFingerprint& host, std::uint32_t threads) {
  const std::uint32_t cpus = usable_cpus(host);
  if (cpus >= threads) return std::nullopt;
  std::ostringstream os;
  os << "workload needs " << threads << " CPUs for its threads but only "
     << cpus << " are usable (affinity mask " << host.affinity_cpus;
  if (host.cgroup_cpus.has_value()) {
    os << ", cgroup quota " << *host.cgroup_cpus;
  }
  os << "); its spinning threads would time-share and the number would "
        "measure the scheduler, so it is not reported";
  return os.str();
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_ % cpus_.size()], &one);
  ++next_;
  sched_setaffinity(0, sizeof(one), &one);
}

} // namespace perfbench
