// Process-level readings for the pipeline benchmark: CPU time, page
// faults (getrusage) and peak resident set size (VmHWM).
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <fstream>
#include <string>

namespace perfbench {

struct Usage {
  double cpu_seconds = 0;  // user + system, all threads
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;

  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_seconds = static_cast<double>(ru.ru_utime.tv_sec) +
                    static_cast<double>(ru.ru_utime.tv_usec) * 1e-6 +
                    static_cast<double>(ru.ru_stime.tv_sec) +
                    static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
    u.major_faults = static_cast<std::uint64_t>(ru.ru_majflt);
    return u;
  }

  Usage operator-(const Usage& o) const {
    return {cpu_seconds - o.cpu_seconds, minor_faults - o.minor_faults,
            major_faults - o.major_faults};
  }
  Usage& operator+=(const Usage& o) {
    cpu_seconds += o.cpu_seconds;
    minor_faults += o.minor_faults;
    major_faults += o.major_faults;
    return *this;
  }
};

/// Peak resident set size of this process so far, in MiB (VmHWM from
/// /proc/self/status); 0 when the field cannot be read.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
    }
  }
  return 0;
}

}  // namespace perfbench
