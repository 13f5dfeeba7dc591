#ifndef HOTSPOT_BENCH_HOST_FINGERPRINT_H_
#define HOTSPOT_BENCH_HOST_FINGERPRINT_H_

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "ml/flat_tree.h"
#include "util/thread_pool.h"

#ifndef HOTSPOT_BENCH_BUILD_TYPE
#define HOTSPOT_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef HOTSPOT_BENCH_SANITIZE
#define HOTSPOT_BENCH_SANITIZE ""
#endif

namespace hotspot::bench {

/// The `model name` line of /proc/cpuinfo, with characters JSON would
/// need escaped dropped; "unknown" where the file or the line is absent.
inline std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) != 0 || colon == std::string::npos) {
      continue;
    }
    std::string model;
    for (const char c : line.substr(colon + 1)) {
      if (c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20) {
        model += c;
      }
    }
    const size_t first = model.find_first_not_of(' ');
    if (first != std::string::npos) return model.substr(first);
  }
  return "unknown";
}

/// Writes the `"host"` member of a BENCH_micro_*.json export (one line,
/// trailing comma): CPU model, hardware threads, pool threads, the
/// flat-tree kernel tier this host runs, build type and sanitizer — what a
/// reader must match before comparing two checked-in numbers.
inline void WriteHostJson(std::FILE* file) {
  const char* simd = "scalar";
  if (ml::FlatForest::SimdSupported()) {
    simd = ml::FlatForest::Avx512Supported() ? "avx512f" : "avx2";
  }
  const char* sanitizer = HOTSPOT_BENCH_SANITIZE;
  std::fprintf(file,
               "  \"host\": {\"cpu_model\": \"%s\", \"hardware_threads\": %u, "
               "\"pool_threads\": %d, \"simd\": \"%s\", "
               "\"build_type\": \"%s\", \"sanitizer\": \"%s\"},\n",
               CpuModel().c_str(), std::thread::hardware_concurrency(),
               util::NumThreads(), simd, HOTSPOT_BENCH_BUILD_TYPE,
               sanitizer[0] != '\0' ? sanitizer : "none");
}

}  // namespace hotspot::bench

#endif  // HOTSPOT_BENCH_HOST_FINGERPRINT_H_
