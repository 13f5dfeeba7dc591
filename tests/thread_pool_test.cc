#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "scoped_num_threads.h"

namespace hotspot::util {
namespace {

using hotspot::ScopedNumThreads;

TEST(NumThreads, RespectsEnvVariable) {
  ScopedNumThreads env("3");
  EXPECT_EQ(NumThreads(), 3);
}

TEST(NumThreads, OneIsAccepted) {
  ScopedNumThreads env("1");
  EXPECT_EQ(NumThreads(), 1);
}

TEST(NumThreads, ClampsToMaxThreads) {
  ScopedNumThreads env("100000");
  EXPECT_EQ(NumThreads(), kMaxThreads);
}

TEST(NumThreads, InvalidValuesFallBackToHardware) {
  int hardware = static_cast<int>(std::thread::hardware_concurrency());
  if (hardware == 0) hardware = 1;
  int expected = std::min(hardware, kMaxThreads);
  {
    ScopedNumThreads env("abc");
    EXPECT_EQ(NumThreads(), expected);
  }
  {
    ScopedNumThreads env("0");
    EXPECT_EQ(NumThreads(), expected);
  }
  {
    ScopedNumThreads env("-4");
    EXPECT_EQ(NumThreads(), expected);
  }
  {
    ScopedNumThreads env("");
    EXPECT_EQ(NumThreads(), expected);
  }
}

TEST(ParallelFor, EmptyRangeNeverCallsBody) {
  ScopedNumThreads env("8");
  std::atomic<int> calls{0};
  ParallelFor(5, 5, [&](int64_t) { ++calls; });
  ParallelFor(7, 3, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ScopedNumThreads env("8");
  constexpr int kCount = 10000;
  std::vector<int> hits(kCount, 0);
  // Each index only writes its own slot, per the determinism contract.
  ParallelFor(0, kCount, [&](int64_t i) { ++hits[static_cast<size_t>(i)]; });
  for (int i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)], 1) << "index " << i;
  }
}

TEST(ParallelFor, RangeSmallerThanThreadCount) {
  ScopedNumThreads env("8");
  std::vector<int> hits(3, 0);
  ParallelFor(0, 3, [&](int64_t i) { ++hits[static_cast<size_t>(i)]; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ParallelFor, NonZeroBegin) {
  ScopedNumThreads env("4");
  std::vector<int> hits(10, 0);
  ParallelFor(4, 10, [&](int64_t i) { ++hits[static_cast<size_t>(i)]; });
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)], i >= 4 ? 1 : 0);
  }
}

TEST(ParallelFor, WorkerExceptionSurfacesToCallerExactlyOnce) {
  ScopedNumThreads env("8");
  int caught = 0;
  try {
    ParallelFor(0, 10000, [&](int64_t i) {
      if (i == 4321) throw std::runtime_error("boom");
    });
  } catch (const std::runtime_error& error) {
    ++caught;
    EXPECT_STREQ(error.what(), "boom");
  }
  EXPECT_EQ(caught, 1);
}

TEST(ParallelFor, SerialPathExceptionPropagates) {
  ScopedNumThreads env("1");
  EXPECT_THROW(
      ParallelFor(0, 10,
                  [&](int64_t i) {
                    if (i == 5) throw std::runtime_error("serial boom");
                  }),
      std::runtime_error);
}

TEST(ParallelFor, NestedParallelForDoesNotDeadlockAndCoversAll) {
  ScopedNumThreads env("8");
  constexpr int kOuter = 8;
  constexpr int kInner = 8;
  std::atomic<int> total{0};
  ParallelFor(0, kOuter, [&](int64_t) {
    // Inside a parallel region nested constructs run serially.
    EXPECT_TRUE(InParallelRegion());
    ParallelFor(0, kInner, [&](int64_t) { ++total; });
  });
  EXPECT_EQ(total.load(), kOuter * kInner);
}

TEST(ParallelFor, EnvOneBypassesThePool) {
  ScopedNumThreads env("1");
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  ParallelFor(0, 64, [&](int64_t) {
    // Exact serial fallback: runs inline on the caller, not as a region.
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_FALSE(InParallelRegion());
    ++calls;  // safe: single-threaded by construction
  });
  EXPECT_EQ(calls, 64);
}

TEST(ParallelFor, EnvThreadCountCoversTheRange) {
  ScopedNumThreads env("4");
  std::vector<int> hits(100, 0);
  ParallelFor(0, 100, [&](int64_t i) { ++hits[static_cast<size_t>(i)]; });
  for (int hit : hits) ASSERT_EQ(hit, 1);
}

TEST(ParallelMap, ReturnsResultsInIndexOrder) {
  ScopedNumThreads env("8");
  std::vector<int64_t> squares =
      ParallelMap<int64_t>(0, 1000, [](int64_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 1000u);
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(squares[static_cast<size_t>(i)], i * i);
  }
}

TEST(ParallelMap, EmptyRange) {
  ScopedNumThreads env("8");
  std::vector<int> none = ParallelMap<int>(3, 3, [](int64_t) { return 1; });
  EXPECT_TRUE(none.empty());
}

TEST(ThreadPool, GlobalPoolGrowsOnDemand) {
  ThreadPool& pool = ThreadPool::Global();
  pool.EnsureWorkers(2);
  EXPECT_GE(pool.num_workers(), 2);
  int before = pool.num_workers();
  pool.EnsureWorkers(1);  // never shrinks
  EXPECT_EQ(pool.num_workers(), before);
}

}  // namespace
}  // namespace hotspot::util
