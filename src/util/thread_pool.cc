#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <utility>

namespace hotspot::util {

namespace {

thread_local bool tls_in_parallel_region = false;

/// Shared state of one ParallelFor call. Workers pull chunks from `next`
/// until the range is exhausted; the first exception wins and drains the
/// remaining chunks.
struct Region {
  std::atomic<int64_t> next{0};
  int64_t end = 0;
  int64_t chunk = 1;
  const std::function<void(int64_t)>* body = nullptr;

  std::mutex mutex;
  std::condition_variable helpers_done;
  int pending_helpers = 0;
  std::exception_ptr error;

  void Run() {
    bool was_in_region = tls_in_parallel_region;
    tls_in_parallel_region = true;
    for (;;) {
      int64_t start = next.fetch_add(chunk, std::memory_order_relaxed);
      if (start >= end) break;
      int64_t stop = std::min(start + chunk, end);
      try {
        for (int64_t i = start; i < stop; ++i) (*body)(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mutex);
          if (!error) error = std::current_exception();
        }
        // Abandon the rest of the range so all threads wind down fast.
        next.store(end, std::memory_order_relaxed);
        break;
      }
    }
    tls_in_parallel_region = was_in_region;
  }
};

}  // namespace

int NumThreads() {
  if (const char* env = std::getenv("HOTSPOT_NUM_THREADS")) {
    char* parse_end = nullptr;
    long parsed = std::strtol(env, &parse_end, 10);
    if (parse_end != env && *parse_end == '\0' && parsed >= 1) {
      return static_cast<int>(
          std::min<long>(parsed, static_cast<long>(kMaxThreads)));
    }
  }
  unsigned hardware = std::thread::hardware_concurrency();
  if (hardware == 0) return 1;
  return static_cast<int>(std::min<unsigned>(hardware, kMaxThreads));
}

bool InParallelRegion() { return tls_in_parallel_region; }

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool();  // leaked: outlives all users
  return *pool;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::EnsureWorkers(int count) {
  count = std::min(count, kMaxThreads);
  std::lock_guard<std::mutex> lock(mutex_);
  while (static_cast<int>(workers_.size()) < count) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

int ThreadPool::num_workers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ParallelFor(int64_t begin, int64_t end,
                 const std::function<void(int64_t)>& body) {
  if (end <= begin) return;
  int64_t count = end - begin;
  int threads = NumThreads();
  if (count < threads) threads = static_cast<int>(count);

  // Serial path: exact inline execution, no pool, natural exception flow.
  // Nested parallel constructs also land here.
  if (threads <= 1 || tls_in_parallel_region) {
    for (int64_t i = begin; i < end; ++i) body(i);
    return;
  }

  auto region = std::make_shared<Region>();
  region->next.store(begin, std::memory_order_relaxed);
  region->end = end;
  region->chunk = std::max<int64_t>(1, count / (4 * threads));
  region->body = &body;
  region->pending_helpers = threads - 1;

  ThreadPool& pool = ThreadPool::Global();
  pool.EnsureWorkers(threads - 1);
  for (int t = 0; t < threads - 1; ++t) {
    pool.Submit([region] {
      region->Run();
      std::lock_guard<std::mutex> lock(region->mutex);
      if (--region->pending_helpers == 0) region->helpers_done.notify_all();
    });
  }

  region->Run();  // the caller takes its share of chunks

  std::unique_lock<std::mutex> lock(region->mutex);
  region->helpers_done.wait(lock,
                            [&] { return region->pending_helpers == 0; });
  if (region->error) std::rethrow_exception(region->error);
}

}  // namespace hotspot::util
