#ifndef HOTSPOT_UTIL_THREAD_POOL_H_
#define HOTSPOT_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hotspot::util {

/// Upper bound on pool workers; HOTSPOT_NUM_THREADS is clamped to it.
inline constexpr int kMaxThreads = 256;

/// The degree of parallelism the parallel helpers use by default: the
/// HOTSPOT_NUM_THREADS environment variable when set to a positive integer
/// (clamped to kMaxThreads), otherwise std::thread::hardware_concurrency().
/// A value of 1 means "run the exact serial code path" — ParallelFor then
/// executes the body inline on the calling thread and never touches the
/// pool. Re-read on every call so tests can toggle the variable.
int NumThreads();

/// A persistent task pool shared by every parallel site in the library.
/// Workers are started lazily and the set only grows (up to kMaxThreads);
/// the process-wide instance lives until exit. Thread-safe.
class ThreadPool {
 public:
  /// The process-wide pool used by ParallelFor / ParallelMap.
  static ThreadPool& Global();

  ThreadPool() = default;
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Ensures at least `count` workers exist (clamped to kMaxThreads).
  void EnsureWorkers(int count);

  int num_workers() const;

  /// Enqueues one task for any worker to run.
  void Submit(std::function<void()> task);

 private:
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable task_ready_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
};

/// True while the calling thread is executing the body of a parallel
/// construct; nested ParallelFor / ParallelMap calls then run serially
/// (which both avoids deadlock and keeps scheduling simple).
bool InParallelRegion();

/// Runs body(i) for every i in [begin, end), distributing contiguous
/// chunks over NumThreads() threads. The caller participates, so progress
/// never depends on pool availability.
///
/// Determinism contract: the body must write only to state owned by index
/// i (rows, slots, tree t, ...). Under that contract the result is
/// bitwise-identical to the serial loop at every thread count, because
/// each index runs exactly once and no cross-index accumulation happens
/// inside the parallel region. Reductions must be expressed as
/// ParallelMap + an ordered serial combine.
///
/// If any body invocation throws, the first exception (one arbitrary
/// winner) is rethrown on the calling thread exactly once after all
/// workers have drained; remaining chunks are abandoned.
void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& body);

/// Ordered parallel map: returns {fn(begin), ..., fn(end-1)} with results
/// in index order regardless of execution order. T must be default
/// constructible and movable. Combine the returned vector serially to get
/// a deterministic reduction.
template <typename T, typename Fn>
std::vector<T> ParallelMap(int64_t begin, int64_t end, Fn&& fn) {
  std::vector<T> results(static_cast<size_t>(end > begin ? end - begin : 0));
  ParallelFor(begin, end, [&](int64_t i) {
    results[static_cast<size_t>(i - begin)] = fn(i);
  });
  return results;
}

}  // namespace hotspot::util

#endif  // HOTSPOT_UTIL_THREAD_POOL_H_
