#ifndef HOTSPOT_BENCH_HOST_FINGERPRINT_H_
#define HOTSPOT_BENCH_HOST_FINGERPRINT_H_

#include <cstdio>
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

/// Writes the `"host"` member of a BENCH_micro_*.json export (one line,
/// trailing comma): hardware threads, pool threads, the flat-tree kernel
/// tier this host runs, build type and sanitizer — what a reader must
/// match before comparing two checked-in numbers.
inline void WriteHostJson(std::FILE* file) {
  const char* simd = "scalar";
  if (ml::FlatForest::SimdSupported()) {
    simd = ml::flat_detail::SimdBlockRows() > ml::flat_detail::kBlockRows
               ? "avx512f"
               : "avx2";
  }
  const char* sanitizer = HOTSPOT_BENCH_SANITIZE;
  std::fprintf(file,
               "  \"host\": {\"hardware_threads\": %u, \"pool_threads\": %d, "
               "\"simd\": \"%s\", \"build_type\": \"%s\", "
               "\"sanitizer\": \"%s\"},\n",
               std::thread::hardware_concurrency(), util::NumThreads(), simd,
               HOTSPOT_BENCH_BUILD_TYPE,
               sanitizer[0] != '\0' ? sanitizer : "none");
}

}  // namespace hotspot::bench

#endif  // HOTSPOT_BENCH_HOST_FINGERPRINT_H_
