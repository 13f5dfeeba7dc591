// One timed pass of each bench_serve_layers workload, with its
// correctness gate. A pass builds what it serves on (a fresh pipeline or
// fleet, pre-cloned bundles) before its clock starts and checks its
// outputs after the clock stops.
#ifndef HOTSPOT_BENCH_SERVE_LAYERS_WORKLOADS_H_
#define HOTSPOT_BENCH_SERVE_LAYERS_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <vector>

#include "fixture.h"
#include "pipeline/stage.h"
#include "trace.h"

namespace hotspot::bench {

/// Fleet width: one shard per hardware thread of the reference host.
inline constexpr int kFleetShards = 4;

/// Batch PredictAtDay scores per end day — what every served batch must
/// equal bit for bit.
using Reference = std::map<int, std::vector<float>>;

/// What one pass measured.
struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;      ///< process CPU, every thread
  int64_t rows = 0;        ///< distinct KPI rows delivered
  /// One latency per result the workload emits: served batches (replay,
  /// burst), promotions (swap) or the retrained model's first forecast.
  std::vector<double> latency_ms;
  int64_t attempted = 0;   ///< rows + expected batches + promotions/retrains
  int64_t failed = 0;      ///< lost rows + wrong or missing results

  // --- layer diagnostics (serving passes) ---
  /// Stage accounting in dataflow order, summed over fleet shards
  /// (high-water marks: the maximum).
  std::vector<pipeline::StageStats> stages;
  double producer_cpu_s = 0.0;  ///< main-thread CPU in Push + FlushInput
  int64_t push_attempts = 0;    ///< Push calls, re-offers included
  int64_t routed = 0;
  int ingress_high_water = 0;   ///< fleet: max over shards, in blocks
  std::vector<double> straggler_ms;  ///< fleet: first→last shard tee
  /// Paced: how late the producer woke for each gapped hour (host
  /// wake-up noise; never timed as the fleet's). Closed loop: how long
  /// each hour took to be accepted.
  std::vector<double> step_lag_ms;
  int threads = 0;  ///< process threads sampled at the middle step
};

/// replay: one ServingPipeline, closed loop, rows hour-major.
PassResult ReplayPass(const Fixture& fixture, const Feed& feed,
                      const Reference& reference, TraceLog* trace);

/// burst's pacing: each hour of the feed is offered 2 ms after the
/// previous hour's offer ended. The gap is a compression, not an operator's
/// rate: a real feed leaves an hour between hours. What it keeps is hours
/// that arrive spaced out, so the fleet mostly meets an hour with the last
/// one absorbed: on the reference host a shard's ingest and features
/// stages spend ≈0.3 ms on an hour at the default size, and at their
/// deepest its queues hold two to three hours of rows (five at a 1 ms gap;
/// README.md).
inline constexpr uint64_t kBurstGapNs = 2'000'000;

/// --smoke's gap: its 60 sectors are light, and the pass stays short.
inline constexpr uint64_t kSmokeGapNs = 250'000;

/// How a fleet pass offers its feed.
struct FleetLoad {
  /// Nonzero: paced. Each hour is offered this long after the previous
  /// offer ended, followed by FlushInput(); after a week closes the
  /// producer waits until the week's batches are served (see FleetPass).
  /// Zero: closed loop, hours back to back. Either way a row shed for
  /// overload is re-offered after a yield.
  uint64_t gap_ns = 0;
  bool paced() const { return gap_ns > 0; }
  /// Promote a pre-cloned bundle on every shard at each day's first hour.
  bool promote_daily = false;
};

/// burst / swap: a kFleetShards-shard ForecastFleet.
PassResult FleetPass(const Fixture& fixture, const Feed& feed,
                     const Reference& reference, const FleetLoad& load,
                     TraceLog* trace);

/// retrain: one TrainBundle of the fixture's shape, then the new model's
/// first forecast at the training day, checked against `reference_scores`.
PassResult RetrainPass(const Fixture& fixture,
                       const std::vector<float>& reference_scores,
                       TraceLog* trace);

}  // namespace hotspot::bench

#endif  // HOTSPOT_BENCH_SERVE_LAYERS_WORKLOADS_H_
