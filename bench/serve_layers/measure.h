// Clocks, sample statistics and process probes shared by the
// bench_serve_layers workloads. Everything here is measured from outside
// the library: wall time from the steady clock, CPU from the POSIX
// per-process and per-thread CPU clocks.
#ifndef HOTSPOT_BENCH_SERVE_LAYERS_MEASURE_H_
#define HOTSPOT_BENCH_SERVE_LAYERS_MEASURE_H_

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <vector>

namespace hotspot::bench {

/// Steady-clock nanoseconds (same epoch as pipeline::SteadyNowNs).
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU seconds of every thread of the process (pool workers, pipeline
/// stage threads and fleet routers included).
inline double ProcessCpuSeconds() {
  return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

/// CPU seconds of the calling thread only.
inline double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

/// Peak resident set size of the process so far, in MB.
inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

/// Live thread count of the process (entries of /proc/self/task).
inline int ThreadCount() {
  std::error_code error;
  int count = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", error), end;
       !error && it != end; it.increment(error)) {
    ++count;
  }
  return count;
}

/// Quantile with linear interpolation between closest ranks (the
/// "inclusive" definition numpy and Python's statistics module default
/// to), q in [0, 1]. 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

}  // namespace hotspot::bench

#endif  // HOTSPOT_BENCH_SERVE_LAYERS_MEASURE_H_
