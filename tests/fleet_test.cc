// The sharded serving fleet's lockdown suite: shard-map routing
// properties (total, stable, partitioning), fleet output bitwise-equal to
// a single ForecastService over the whole universe for shard counts
// 1/2/7 across the thread matrix, admission-control fault injection (a
// stalled shard sheds only its own load while every other shard stays
// bit-for-bit correct, with obs counters accounting for every offered
// row), and the RCU hot-swap contract: a writer promoting bundles in a
// tight loop while reader threads predict concurrently, every prediction
// matching exactly one generation's expected output — no torn reads, no
// drops — plus generation tags threaded through live fleet streams.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "core/forecast_service.h"
#include "core/study.h"
#include "fleet/forecast_fleet.h"
#include "fleet/shard_map.h"
#include "obs/pipeline_context.h"
#include "serialize/bundle.h"
#include "thread_matrix.h"
#include "util/thread_pool.h"

namespace hotspot {
namespace {

using fleet::FleetOptions;
using fleet::FleetPrediction;
using fleet::ForecastFleet;
using fleet::HashShardMap;
using fleet::PartitionShardMap;
using fleet::ShardSectors;
using pipeline::ServingPipeline;

using PushVerdict = ForecastFleet::PushVerdict;

// ---------------------------------------------------------------------------
// Fixtures (the pipeline_test recipe: small single-city study, GBDT
// bundles, complete forward-fill-imputed KPIs).

simnet::GeneratorConfig SmallConfig() {
  simnet::GeneratorConfig config;
  config.topology.target_sectors = 60;
  config.topology.num_cities = 1;
  config.weeks = 9;
  config.seed = 77;
  return config;
}

const Study& SharedStudy() {
  static const Study* study = new Study(BuildStudy(StudyInput(SmallConfig())));
  return *study;
}

/// Trains one GBDT bundle variant; distinct iteration counts give
/// distinct models, which is what lets the swap tests attribute every
/// prediction to exactly one installed bundle.
std::unique_ptr<serialize::ForecastBundle> TrainVariant(
    const Study& study, int num_iterations) {
  ForecastConfig config;
  config.model = ModelKind::kGbdt;
  config.t = 55;
  config.h = 1;
  config.w = 3;
  config.gbdt.num_iterations = num_iterations;
  config.gbdt.num_leaves = 15;
  config.gbdt.max_bins = 32;
  Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
  std::unique_ptr<serialize::ForecastBundle> bundle =
      forecaster.TrainBundle(config);
  bundle->score = study.score_config;
  return bundle;
}

/// The fleet's source bundle (and the single-service reference model).
const serialize::ForecastBundle& BaseBundle() {
  static const serialize::ForecastBundle* bundle =
      TrainVariant(SharedStudy(), 10).release();
  return *bundle;
}

ServingPipeline::Options ServingOptionsFor(const Study& study) {
  ServingPipeline::Options options;
  options.num_sectors = study.num_sectors();
  options.num_kpis = study.network.num_kpis();
  options.calendar = &study.network.calendar_matrix;
  options.score = study.score_config;
  options.history_weeks = study.num_weeks() + 1;
  return options;
}

FleetOptions FleetOptionsFor(const Study& study, int num_shards) {
  FleetOptions options;
  options.num_shards = num_shards;
  options.serving = ServingOptionsFor(study);
  return options;
}

/// The batch references: PredictAtDay at every servable end day.
std::vector<std::vector<float>> BatchScores(
    const Study& study, const serialize::ForecastBundle& bundle) {
  ForecastService service(serialize::CloneBundle(bundle));
  std::vector<std::vector<float>> scores;
  for (int end_day = service.window_days(); end_day <= study.num_days();
       ++end_day) {
    scores.push_back(service.PredictAtDay(study.features, end_day));
  }
  return scores;
}

/// Streams the study's KPI tensor hour-major through the fleet. Overload
/// rejects are retried (yield + re-offer), which turns admission control
/// into the blocking backpressure the equivalence tests need: lossless
/// delivery, every row eventually routed.
std::vector<FleetPrediction> RunFleetServe(const Study& study,
                                           ForecastFleet* fleet) {
  const int hours = study.network.num_hours();
  for (int j = 0; j < hours; ++j) {
    for (int i = 0; i < study.num_sectors(); ++i) {
      PushVerdict verdict;
      while ((verdict = fleet->Push(i, j, study.network.kpis.Slice(i, j),
                                    study.network.kpis.dim2())) ==
             PushVerdict::kRejectedOverload) {
        std::this_thread::yield();
      }
      EXPECT_EQ(verdict, PushVerdict::kRouted);
    }
  }
  fleet->Finish();
  return fleet->TakePredictions();
}

void ExpectFleetBitwiseEqualToBatch(
    const std::vector<FleetPrediction>& served,
    const std::vector<std::vector<float>>& batch, int window_days,
    const std::string& tag) {
  ASSERT_EQ(served.size(), batch.size()) << tag;
  for (size_t b = 0; b < served.size(); ++b) {
    EXPECT_EQ(served[b].end_day, window_days + static_cast<int>(b)) << tag;
    ASSERT_EQ(served[b].scores.size(), batch[b].size()) << tag;
    EXPECT_EQ(std::memcmp(served[b].scores.data(), batch[b].data(),
                          batch[b].size() * sizeof(float)),
              0)
        << tag << " end_day=" << served[b].end_day;
  }
}

bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

// ---------------------------------------------------------------------------
// ShardMap properties

TEST(ShardMap, HashRoutingIsTotalAndStable) {
  for (int num_shards : {1, 2, 7}) {
    HashShardMap map(num_shards);
    HashShardMap remap(num_shards);  // an independent instance
    for (int sector = 0; sector < 10000; ++sector) {
      const int shard = map.ShardOf(sector);
      ASSERT_GE(shard, 0);
      ASSERT_LT(shard, num_shards);
      // Pure function of (sector, num_shards): the same sector lands on
      // the same shard on every call and on every instance — routing
      // survives process restarts with no persisted state.
      EXPECT_EQ(map.ShardOf(sector), shard);
      EXPECT_EQ(remap.ShardOf(sector), shard);
    }
  }
  // The hash actually spreads a contiguous id range: over 10k sectors on
  // 7 shards, every shard owns a healthy slice (this is a property of the
  // fixed splitmix64 finalizer, so the bound is deterministic).
  HashShardMap seven(7);
  std::vector<int> population(7, 0);
  for (int sector = 0; sector < 10000; ++sector) {
    ++population[static_cast<size_t>(seven.ShardOf(sector))];
  }
  for (int shard = 0; shard < 7; ++shard) {
    EXPECT_GT(population[static_cast<size_t>(shard)], 10000 / 7 / 2)
        << "shard " << shard;
  }
}

TEST(ShardMap, PartitionRoutesByTableWithStableHashFallback) {
  // An operator-style geo partition: sectors 0-9 on shard 2, 10-19 on
  // shard 0, 20-29 on shard 1.
  std::vector<int> table;
  for (int sector = 0; sector < 30; ++sector) {
    table.push_back(sector < 10 ? 2 : sector < 20 ? 0 : 1);
  }
  PartitionShardMap map(table, 3);
  EXPECT_EQ(map.num_shards(), 3);
  for (int sector = 0; sector < 30; ++sector) {
    EXPECT_EQ(map.ShardOf(sector), table[static_cast<size_t>(sector)]);
  }
  // Beyond the table the map stays total via the stable hash, agreeing
  // with HashShardMap so growth past the partition is still deterministic.
  HashShardMap hash(3);
  for (int sector = 30; sector < 100; ++sector) {
    const int shard = map.ShardOf(sector);
    ASSERT_GE(shard, 0);
    ASSERT_LT(shard, 3);
    EXPECT_EQ(shard, hash.ShardOf(sector));
  }
}

TEST(ShardMap, ShardSectorsPartitionsTheUniverse) {
  const int num_sectors = 137;
  for (int num_shards : {1, 2, 7}) {
    HashShardMap map(num_shards);
    std::vector<std::vector<int>> populations =
        ShardSectors(map, num_sectors);
    ASSERT_EQ(static_cast<int>(populations.size()), num_shards);
    std::set<int> seen;
    for (int shard = 0; shard < num_shards; ++shard) {
      const std::vector<int>& sectors =
          populations[static_cast<size_t>(shard)];
      for (size_t local = 0; local < sectors.size(); ++local) {
        // Owned by the shard the map says, ascending (the local-id
        // contract), and never claimed twice.
        EXPECT_EQ(map.ShardOf(sectors[local]), shard);
        if (local > 0) {
          EXPECT_LT(sectors[local - 1], sectors[local]);
        }
        EXPECT_TRUE(seen.insert(sectors[local]).second);
      }
    }
    // Total: every sector of the universe is owned by exactly one shard.
    EXPECT_EQ(static_cast<int>(seen.size()), num_sectors);
  }
}

// ---------------------------------------------------------------------------
// Fleet ↔ single-service equivalence

TEST(ForecastFleet, BitwiseEqualSingleServiceAcrossShardCountsAndThreads) {
  const Study& study = SharedStudy();
  const std::vector<std::vector<float>> batch =
      BatchScores(study, BaseBundle());
  const int window_days = BaseBundle().window_days;
  for (int num_shards : {1, 2, 7}) {
    testing_util::ForEachThreadCount([&](const std::string& threads) {
      ForecastFleet fleet(serialize::CloneBundle(BaseBundle()),
                          FleetOptionsFor(study, num_shards));
      std::vector<FleetPrediction> served = RunFleetServe(study, &fleet);
      const std::string tag = "shards=" + std::to_string(num_shards) +
                              " threads=" + threads;
      ExpectFleetBitwiseEqualToBatch(served, batch, window_days, tag);
      // No promotions ran: every row must report generation 0.
      for (const FleetPrediction& prediction : served) {
        for (uint64_t generation : prediction.generations) {
          ASSERT_EQ(generation, 0u) << tag;
        }
      }
    });
  }
}

TEST(ForecastFleet, PartitionMapWithEmptyShardStaysBitwiseEqual) {
  const Study& study = SharedStudy();
  const std::vector<std::vector<float>> batch =
      BatchScores(study, BaseBundle());
  // Shard 1 owns nothing: even sectors on shard 0, odd on shard 2.
  std::vector<int> table;
  for (int sector = 0; sector < study.num_sectors(); ++sector) {
    table.push_back(sector % 2 == 0 ? 0 : 2);
  }
  FleetOptions options = FleetOptionsFor(study, 3);
  options.shard_map = std::make_shared<PartitionShardMap>(table, 3);
  ForecastFleet fleet(serialize::CloneBundle(BaseBundle()), options);
  EXPECT_EQ(fleet.num_shards(), 3);
  EXPECT_TRUE(fleet.shard_sectors(1).empty());
  EXPECT_EQ(fleet.service(1), nullptr);
  std::vector<FleetPrediction> served = RunFleetServe(study, &fleet);
  ExpectFleetBitwiseEqualToBatch(served, batch, BaseBundle().window_days,
                                 "partition-with-empty-shard");
  // The empty shard has no service to promote.
  serialize::Status status =
      fleet.PromoteBundle(1, serialize::CloneBundle(BaseBundle()));
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.error.find("no sectors"), std::string::npos);
}

// ---------------------------------------------------------------------------
// FlushInput: mid-stream flush of producer-side and pipeline buffers

TEST(ForecastFleet, FlushInputDeliversBufferedRowsToTheShardPipelines) {
  const Study& study = SharedStudy();
  const std::vector<std::vector<float>> batch =
      BatchScores(study, BaseBundle());
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  FleetOptions options = FleetOptionsFor(study, 2);
  // A block budget larger than the entire stream: no block ever fills,
  // so without an explicit flush every row stays buffered in the shard
  // pipelines' input blocks — the shard ingestors see nothing.
  options.serving.row_block_rows =
      study.num_sectors() * study.network.num_hours() + 1;
  ForecastFleet fleet(serialize::CloneBundle(BaseBundle()), options);
  const int hours = study.network.num_hours();
  for (int j = 0; j < hours; ++j) {
    for (int i = 0; i < study.num_sectors(); ++i) {
      ASSERT_EQ(fleet.Push(i, j, study.network.kpis.Slice(i, j),
                           study.network.kpis.dim2()),
                PushVerdict::kRouted);
    }
  }
  const uint64_t total_rows = static_cast<uint64_t>(hours) *
                              static_cast<uint64_t>(study.num_sectors());
  EXPECT_EQ(context.metrics().counter("stream/rows_accepted").Total(), 0u);
  fleet.FlushInput();
  // The flush hands every shard's input block to its worker, behind the
  // rows already queued — every routed row must reach a shard ingestor
  // without Finish().
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  uint64_t accepted = 0;
  while ((accepted =
              context.metrics().counter("stream/rows_accepted").Total()) <
             total_rows &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(accepted, total_rows)
      << "FlushInput left rows buffered short of the ingestors";
  // The watermark-held serving tail drains at Finish; the whole stream
  // must be bit-for-bit the batch answers.
  fleet.Finish();
  ExpectFleetBitwiseEqualToBatch(fleet.TakePredictions(), batch,
                                 BaseBundle().window_days,
                                 "flush-delivers-buffered");
}

TEST(ForecastFleet, FlushInputDuringLiveStreamKeepsBitwiseEquality) {
  const Study& study = SharedStudy();
  const std::vector<std::vector<float>> batch =
      BatchScores(study, BaseBundle());
  FleetOptions options = FleetOptionsFor(study, 2);
  options.serving.row_block_rows = 8;    // many blocks in flight
  options.serving.row_queue_blocks = 4;  // flushes land while workers drain
  ForecastFleet fleet(serialize::CloneBundle(BaseBundle()), options);
  const int hours = study.network.num_hours();
  for (int j = 0; j < hours; ++j) {
    for (int i = 0; i < study.num_sectors(); ++i) {
      PushVerdict verdict;
      while ((verdict = fleet.Push(i, j, study.network.kpis.Slice(i, j),
                                   study.network.kpis.dim2())) ==
             PushVerdict::kRejectedOverload) {
        std::this_thread::yield();
      }
      ASSERT_EQ(verdict, PushVerdict::kRouted);
    }
    // Flush while the shard workers are actively draining: pins (under
    // TSan) that flushing from the producer thread — every pipeline's
    // only writer — races nothing, and that it never reorders or drops
    // rows already admitted.
    if (j % 7 == 0) fleet.FlushInput();
  }
  fleet.FlushInput();
  fleet.Finish();
  ExpectFleetBitwiseEqualToBatch(fleet.TakePredictions(), batch,
                                 BaseBundle().window_days, "flush-live");
}

TEST(ForecastFleet, FlushInputServesAQuietFeedsReadyBatch) {
  const Study& study = SharedStudy();
  const std::vector<std::vector<float>> batch =
      BatchScores(study, BaseBundle());
  const int end_day = BaseBundle().window_days;
  // Features finalize at week close, so the first end-day becomes
  // servable with the last hour of the week holding its final window
  // hour.
  const int servable_hour =
      ((kHoursPerDay * end_day - 1) / kHoursPerWeek + 1) * kHoursPerWeek - 1;
  ASSERT_LT(servable_hour, study.network.num_hours());
  ForecastFleet fleet(serialize::CloneBundle(BaseBundle()),
                      FleetOptionsFor(study, 2));
  // An in-order feed up to that hour, then the feed goes quiet: one
  // FlushInput and no more rows. Every shard must serve the batch
  // without waiting for the next hour's rows.
  for (int j = 0; j <= servable_hour; ++j) {
    for (int i = 0; i < study.num_sectors(); ++i) {
      PushVerdict verdict;
      while ((verdict = fleet.Push(i, j, study.network.kpis.Slice(i, j),
                                   study.network.kpis.dim2())) ==
             PushVerdict::kRejectedOverload) {
        std::this_thread::yield();
      }
      ASSERT_EQ(verdict, PushVerdict::kRouted);
    }
  }
  fleet.FlushInput();
  std::vector<FleetPrediction> served;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (served.empty() && std::chrono::steady_clock::now() < deadline) {
    served = fleet.TakePredictions();
    if (served.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_FALSE(served.empty())
      << "batch " << end_day << " not served after FlushInput";
  EXPECT_EQ(served.front().end_day, end_day);
  ASSERT_EQ(served.front().scores.size(), batch[0].size());
  EXPECT_EQ(std::memcmp(served.front().scores.data(), batch[0].data(),
                        batch[0].size() * sizeof(float)),
            0);
  fleet.Finish();
}

/// Threads of this process: one /proc/self/task entry each.
int LiveThreads() {
  int threads = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++threads;
  }
  return threads;
}

TEST(ForecastFleet, RunsOneWorkerThreadPerShard) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task on this platform";
  }
  const Study& study = SharedStudy();
  // The pool starts its workers on first use: start them all now, so the
  // count below sees only the fleet's own threads.
  util::ParallelFor(0, 1 << 10, [](int64_t) {});
  const int before = LiveThreads();
  ForecastFleet fleet(serialize::CloneBundle(BaseBundle()),
                      FleetOptionsFor(study, 4));
  for (int shard = 0; shard < fleet.num_shards(); ++shard) {
    ASSERT_FALSE(fleet.shard_sectors(shard).empty()) << "shard " << shard;
  }
  EXPECT_EQ(LiveThreads(), before + 4);
  fleet.Finish();
}

// ---------------------------------------------------------------------------
// Fault injection / admission control

/// The fault harness: a service whose predict path can be remotely
/// stalled. Installed into one shard's pipeline through the
/// FleetOptions::shard_options_for_test seam, it parks that shard's
/// predict stage on a gate until Release() — the controlled "one replica
/// went dark" failure the admission-control contract is tested against.
class FaultInjectingService {
 public:
  void InstallOnShard(int target_shard, FleetOptions* options) {
    options->shard_options_for_test =
        [this, target_shard](int shard, ServingPipeline::Options* serving) {
          if (shard != target_shard) return;
          // Small blocks, so the stall fills the victim's ingress (and
          // sheds) within a few simulated days.
          serving->row_block_rows = 8;
          serving->predict_fault_for_test = [this](int) { Wait(); };
        };
  }

  void Engage() {
    std::lock_guard<std::mutex> lock(mutex_);
    engaged_ = true;
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      engaged_ = false;
    }
    released_.notify_all();
  }

 private:
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    released_.wait(lock, [&] { return !engaged_; });
  }

  std::mutex mutex_;
  std::condition_variable released_;
  bool engaged_ = false;
};

TEST(ForecastFleet, StalledShardShedsOnlyItsLoadOthersStayBitwiseEqual) {
  const Study& study = SharedStudy();
  const std::vector<std::vector<float>> batch =
      BatchScores(study, BaseBundle());
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);

  const int num_shards = 4;
  const int stalled = 2;
  FleetOptions options = FleetOptionsFor(study, num_shards);
  options.serving.row_block_rows = 8;
  options.serving.row_queue_blocks = 32;
  FaultInjectingService fault;
  fault.Engage();
  fault.InstallOnShard(stalled, &options);
  ForecastFleet fleet(serialize::CloneBundle(BaseBundle()), options);
  ASSERT_FALSE(fleet.shard_sectors(stalled).empty());

  const int hours = study.network.num_hours();
  const int release_hour = 24 * 10;  // well past the first shed rows
  uint64_t offered = 0;
  uint64_t routed = 0;
  uint64_t rejected = 0;
  for (int j = 0; j < hours; ++j) {
    if (j == release_hour) fault.Release();
    for (int i = 0; i < study.num_sectors(); ++i) {
      const PushVerdict verdict = fleet.Push(
          i, j, study.network.kpis.Slice(i, j), study.network.kpis.dim2());
      ++offered;
      if (verdict == PushVerdict::kRouted) {
        ++routed;
      } else {
        // Admission control may only ever shed the dark shard's rows.
        ASSERT_EQ(verdict, PushVerdict::kRejectedOverload);
        ASSERT_EQ(fleet.ShardOf(i), stalled)
            << "healthy shard shed a row at hour " << j;
        ++rejected;
      }
    }
    if (j % 4 == 3) {
      // Pace the producer against the healthy shards (a live feed's
      // natural cadence): never let a merely-descheduled worker look like
      // an overloaded one. The stalled shard gets no such courtesy while
      // the fault is engaged — but once released it rejoins the pacing
      // set, so the tail of the stream is guaranteed to route and the
      // recovered shard's watermark reaches the final end day even on a
      // starved single-CPU host.
      for (int shard = 0; shard < num_shards; ++shard) {
        if (shard == stalled && j < release_hour) continue;
        while (fleet.IngressStats(shard).depth > 2) {
          std::this_thread::yield();
        }
      }
    }
  }
  fleet.Finish();

  // The stall engaged: the victim shed real load, and only the victim.
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(offered, routed + rejected);
  EXPECT_EQ(context.metrics().counter("fleet/rows_offered").Total(), offered);
  EXPECT_EQ(context.metrics().counter("fleet/rows_routed").Total(), routed);
  EXPECT_EQ(
      context.metrics().counter("fleet/rows_rejected_overload").Total(),
      rejected);
  EXPECT_EQ(context.metrics().counter("fleet/rows_rejected_width").Total(),
            0u);
  uint64_t per_shard_routed = 0;
  for (int shard = 0; shard < num_shards; ++shard) {
    const uint64_t shard_rejected =
        context.metrics()
            .counter(obs::ShardMetricName(shard, "rows_rejected"))
            .Total();
    per_shard_routed += context.metrics()
                            .counter(obs::ShardMetricName(shard, "rows_routed"))
                            .Total();
    EXPECT_EQ(shard_rejected, shard == stalled ? rejected : 0u)
        << "shard " << shard;
  }
  EXPECT_EQ(per_shard_routed, routed);
  EXPECT_GE(fleet.IngressStats(stalled).high_water, 32);

  // Every batch completed (the victim catches up through gap fill after
  // release), and every healthy shard's sectors are bit-for-bit the batch
  // answers — shedding was surgical.
  std::vector<FleetPrediction> served = fleet.TakePredictions();
  ASSERT_EQ(served.size(), batch.size());
  for (size_t b = 0; b < served.size(); ++b) {
    for (int sector = 0; sector < study.num_sectors(); ++sector) {
      if (fleet.ShardOf(sector) == stalled) continue;
      EXPECT_TRUE(SameBits(served[b].scores[static_cast<size_t>(sector)],
                           batch[b][static_cast<size_t>(sector)]))
          << "end_day=" << served[b].end_day << " sector=" << sector;
    }
  }
}

TEST(ForecastFleet, AdmissionVerdictsForMalformedAndFinishedRows) {
  const Study& study = SharedStudy();
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  ForecastFleet fleet(serialize::CloneBundle(BaseBundle()),
                      FleetOptionsFor(study, 2));
  std::vector<float> bad_row(
      static_cast<size_t>(study.network.num_kpis() + 1), 0.0f);
  EXPECT_EQ(fleet.Push(0, 0, bad_row), PushVerdict::kRejectedWidth);
  // Out-of-range sectors are verdicts, not aborts: one bad row from an
  // external feed must not take the fleet down.
  EXPECT_EQ(fleet.Push(-1, 0, study.network.kpis.Slice(0, 0),
                       study.network.kpis.dim2()),
            PushVerdict::kRejectedSector);
  EXPECT_EQ(fleet.Push(study.num_sectors(), 0,
                       study.network.kpis.Slice(0, 0),
                       study.network.kpis.dim2()),
            PushVerdict::kRejectedSector);
  EXPECT_EQ(fleet.Push(0, 0, study.network.kpis.Slice(0, 0),
                       study.network.kpis.dim2()),
            PushVerdict::kRouted);
  fleet.Finish();
  EXPECT_EQ(fleet.Push(0, 1, study.network.kpis.Slice(0, 1),
                       study.network.kpis.dim2()),
            PushVerdict::kRejectedFinished);
  EXPECT_EQ(context.metrics().counter("fleet/rows_offered").Total(), 5u);
  EXPECT_EQ(context.metrics().counter("fleet/rows_routed").Total(), 1u);
  EXPECT_EQ(context.metrics().counter("fleet/rows_rejected_width").Total(),
            1u);
  EXPECT_EQ(
      context.metrics().counter("fleet/rows_rejected_sector").Total(), 2u);
  EXPECT_EQ(
      context.metrics().counter("fleet/rows_rejected_finished").Total(), 1u);
}

// ---------------------------------------------------------------------------
// RCU hot bundle swap

TEST(ForecastService, SwapLinearizabilityTortureAcrossThreads) {
  const Study& study = SharedStudy();
  // Distinct models, one per generation slot: the bundle installed at
  // generation g is variants[g % kVariants], so every prediction's
  // reported generation names exactly one expected score vector.
  constexpr int kVariants = 3;
  const int end_day = BaseBundle().window_days;
  std::vector<std::unique_ptr<serialize::ForecastBundle>> variants;
  std::vector<std::vector<float>> expected;
  for (int v = 0; v < kVariants; ++v) {
    variants.push_back(TrainVariant(study, 10 - 3 * v));
    ForecastService reference(serialize::CloneBundle(*variants.back()));
    expected.push_back(reference.PredictAtDay(study.features, end_day));
  }
  for (int v = 1; v < kVariants; ++v) {
    ASSERT_NE(std::memcmp(expected[0].data(),
                          expected[static_cast<size_t>(v)].data(),
                          expected[0].size() * sizeof(float)),
              0)
        << "variant " << v << " must score differently from variant 0";
  }

  constexpr int kPromotions = 1000;
  constexpr int kReaders = 4;
  constexpr int kMinReadsPerReader = 50;
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    ForecastService service(serialize::CloneBundle(*variants[0]));
    std::atomic<bool> writer_done{false};
    std::thread writer([&] {
      for (int k = 1; k <= kPromotions; ++k) {
        uint64_t generation = 0;
        serialize::Status status = service.PromoteBundle(
            serialize::CloneBundle(
                *variants[static_cast<size_t>(k % kVariants)]),
            &generation);
        EXPECT_TRUE(status.ok) << status.error;
        EXPECT_EQ(generation, static_cast<uint64_t>(k));
      }
      writer_done.store(true, std::memory_order_release);
    });
    std::atomic<uint64_t> total_reads{0};
    std::atomic<uint64_t> torn_reads{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&] {
        std::set<uint64_t> generations_seen;
        uint64_t reads = 0;
        while (!writer_done.load(std::memory_order_acquire) ||
               reads < kMinReadsPerReader) {
          uint64_t generation = ~uint64_t{0};
          std::vector<float> scores =
              service.PredictAtDay(study.features, end_day, &generation);
          // Linearizability: the whole batch must be the exact output of
          // the one bundle its generation tag names — any mix of two
          // bundles (a torn read) cannot match either expected vector.
          const std::vector<float>& want =
              expected[static_cast<size_t>(generation % kVariants)];
          if (generation > kPromotions || scores.size() != want.size() ||
              std::memcmp(scores.data(), want.data(),
                          want.size() * sizeof(float)) != 0) {
            torn_reads.fetch_add(1, std::memory_order_relaxed);
          }
          generations_seen.insert(generation);
          ++reads;
        }
        total_reads.fetch_add(reads, std::memory_order_relaxed);
        EXPECT_GE(generations_seen.size(), 1u);
      });
    }
    writer.join();
    for (std::thread& reader : readers) reader.join();
    EXPECT_EQ(torn_reads.load(), 0u) << "threads=" << threads;
    EXPECT_EQ(service.generation(), static_cast<uint64_t>(kPromotions));
    EXPECT_GE(total_reads.load(),
              static_cast<uint64_t>(kReaders * kMinReadsPerReader));
  });
}

TEST(ForecastFleet, PromoteUnderLiveStreamTagsEveryRowWithItsGeneration) {
  const Study& study = SharedStudy();
  std::unique_ptr<serialize::ForecastBundle> next = TrainVariant(study, 6);
  const std::vector<std::vector<float>> batch_old =
      BatchScores(study, BaseBundle());
  const std::vector<std::vector<float>> batch_new = BatchScores(study, *next);

  ForecastFleet fleet(serialize::CloneBundle(BaseBundle()),
                      FleetOptionsFor(study, 2));
  const int hours = study.network.num_hours();
  const int promote_hour = hours / 2;
  for (int j = 0; j < hours; ++j) {
    if (j == promote_hour) {
      // Promote shard 0 mid-stream, under live load. Shard 1 keeps its
      // original bundle for the whole run.
      uint64_t generation = 0;
      serialize::Status status = fleet.PromoteBundle(
          0, serialize::CloneBundle(*next), &generation);
      ASSERT_TRUE(status.ok) << status.error;
      EXPECT_EQ(generation, 1u);
    }
    for (int i = 0; i < study.num_sectors(); ++i) {
      PushVerdict verdict;
      while ((verdict = fleet.Push(i, j, study.network.kpis.Slice(i, j),
                                   study.network.kpis.dim2())) ==
             PushVerdict::kRejectedOverload) {
        std::this_thread::yield();
      }
      ASSERT_EQ(verdict, PushVerdict::kRouted);
    }
  }
  fleet.Finish();
  std::vector<FleetPrediction> served = fleet.TakePredictions();
  ASSERT_EQ(served.size(), batch_old.size());

  uint64_t new_generation_rows = 0;
  uint64_t previous_shard0_generation = 0;
  for (size_t b = 0; b < served.size(); ++b) {
    uint64_t shard0_generation = ~uint64_t{0};
    for (int sector = 0; sector < study.num_sectors(); ++sector) {
      const size_t s = static_cast<size_t>(sector);
      const uint64_t generation = served[b].generations[s];
      if (fleet.ShardOf(sector) == 1) {
        // Never promoted: every shard-1 row stays generation 0.
        ASSERT_EQ(generation, 0u);
      } else {
        // A shard's batch is served by one bundle: every shard-0 row of
        // this end-day must carry the same tag (no torn batches)...
        if (shard0_generation == ~uint64_t{0}) {
          shard0_generation = generation;
        }
        ASSERT_EQ(generation, shard0_generation)
            << "end_day=" << served[b].end_day;
        if (generation == 1) ++new_generation_rows;
      }
      // ...and every row's score is the exact answer of the bundle its
      // tag names — the generation attributes each row to one model.
      const std::vector<std::vector<float>>& reference =
          generation == 0 ? batch_old : batch_new;
      ASSERT_TRUE(SameBits(served[b].scores[s], reference[b][s]))
          << "end_day=" << served[b].end_day << " sector=" << sector
          << " generation=" << generation;
    }
    // Generations only move forward along the served stream.
    ASSERT_GE(shard0_generation, previous_shard0_generation);
    previous_shard0_generation = shard0_generation;
  }
  // The promotion landed mid-stream: the new bundle actually served rows
  // (the tail of the stream is scored long after the swap).
  EXPECT_GT(new_generation_rows, 0u);
  EXPECT_EQ(served.back().generations[static_cast<size_t>(
                fleet.shard_sectors(0).front())],
            1u);
}

TEST(ForecastFleet, PromotionFailuresAreAtomicAndNamed) {
  const Study& study = SharedStudy();
  ForecastFleet fleet(serialize::CloneBundle(BaseBundle()),
                      FleetOptionsFor(study, 2));
  // Out-of-range shard.
  serialize::Status status =
      fleet.PromoteBundle(9, serialize::CloneBundle(BaseBundle()));
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.error.find("out of range"), std::string::npos);
  // Serving-universe mismatch: a bundle with a different window cannot
  // serve the traffic this fleet was sized for.
  std::unique_ptr<serialize::ForecastBundle> wrong_window =
      serialize::CloneBundle(BaseBundle());
  wrong_window->window_days = BaseBundle().window_days + 1;
  status = fleet.PromoteBundle(0, std::move(wrong_window));
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.error.find("window_days"), std::string::npos);
  // Atomic: the shard still serves its original bundle at generation 0.
  ASSERT_NE(fleet.service(0), nullptr);
  EXPECT_EQ(fleet.service(0)->generation(), 0u);
  // And a healthy fleet-wide promotion still works afterwards.
  status = fleet.PromoteBundleAll(BaseBundle());
  EXPECT_TRUE(status.ok) << status.error;
  EXPECT_EQ(fleet.service(0)->generation(), 1u);
  EXPECT_EQ(fleet.service(1)->generation(), 1u);
  fleet.Finish();
}

// ---------------------------------------------------------------------------
// Fleet health aggregation

TEST(ForecastFleet, HealthAggregatesEveryShard) {
  const Study& study = SharedStudy();
  std::vector<int> table;
  for (int sector = 0; sector < study.num_sectors(); ++sector) {
    table.push_back(sector % 2 == 0 ? 0 : 2);
  }
  FleetOptions options = FleetOptionsFor(study, 3);
  options.shard_map = std::make_shared<PartitionShardMap>(table, 3);
  ForecastFleet fleet(serialize::CloneBundle(BaseBundle()), options);
  ASSERT_TRUE(
      fleet.PromoteBundle(0, serialize::CloneBundle(BaseBundle())).ok);
  fleet::FleetHealth health = fleet.Health();
  ASSERT_EQ(health.shards.size(), 3u);
  int covered = 0;
  for (const fleet::ShardHealth& shard : health.shards) {
    covered += shard.num_sectors;
    EXPECT_EQ(shard.num_sectors,
              static_cast<int>(fleet.shard_sectors(shard.shard).size()));
  }
  EXPECT_EQ(covered, study.num_sectors());
  EXPECT_EQ(health.shards[0].generation, 1u);  // promoted above
  EXPECT_EQ(health.shards[1].generation, 0u);  // empty shard: no service
  EXPECT_EQ(health.shards[2].generation, 0u);
  // The bundle carries fingerprints, so the populated shards monitor.
  EXPECT_TRUE(health.shards[0].report.monitoring_enabled);
  EXPECT_FALSE(health.shards[1].report.monitoring_enabled);
  EXPECT_TRUE(health.shards[2].report.monitoring_enabled);
  EXPECT_EQ(health.overall, monitor::AlertState::kOk);
  fleet.Finish();
}

// ---------------------------------------------------------------------------
// Flight-recorder audit trail

TEST(ForecastFleet, HeterogeneousBundlesPerShardWithFlightAudit) {
  // Partition-style heterogeneous serving: two shards, each promoted to a
  // *different* bundle before the stream. Every row must be scored by its
  // own shard's model, and the flight recorder must hold both promotion
  // events with the right shard and generation tags.
  const Study& study = SharedStudy();
  std::unique_ptr<serialize::ForecastBundle> bundle_a =
      TrainVariant(study, 6);
  std::unique_ptr<serialize::ForecastBundle> bundle_b =
      TrainVariant(study, 4);
  const std::vector<std::vector<float>> batch_a =
      BatchScores(study, *bundle_a);
  const std::vector<std::vector<float>> batch_b =
      BatchScores(study, *bundle_b);
  ASSERT_NE(std::memcmp(batch_a[0].data(), batch_b[0].data(),
                        batch_a[0].size() * sizeof(float)),
            0)
      << "the two shard bundles must score differently";

  // The promotions are recorded first, then the stream's admission
  // rejects (one per re-offered row) and backpressure events; the ring
  // must be big enough that none of them overwrites the promotions.
  obs::PipelineContext context(/*flight_capacity=*/1 << 17);
  obs::PipelineContext::ScopedInstall install(&context);
  ForecastFleet fleet(serialize::CloneBundle(BaseBundle()),
                      FleetOptionsFor(study, 2));
  uint64_t generation = 0;
  ASSERT_TRUE(
      fleet.PromoteBundle(0, std::move(bundle_a), &generation).ok);
  EXPECT_EQ(generation, 1u);
  ASSERT_TRUE(
      fleet.PromoteBundle(1, std::move(bundle_b), &generation).ok);
  EXPECT_EQ(generation, 1u);

  std::vector<FleetPrediction> served = RunFleetServe(study, &fleet);
  ASSERT_EQ(served.size(), batch_a.size());
  for (size_t b = 0; b < served.size(); ++b) {
    for (int sector = 0; sector < study.num_sectors(); ++sector) {
      const size_t s = static_cast<size_t>(sector);
      ASSERT_EQ(served[b].generations[s], 1u);
      const std::vector<std::vector<float>>& reference =
          fleet.ShardOf(sector) == 0 ? batch_a : batch_b;
      ASSERT_TRUE(SameBits(served[b].scores[s], reference[b][s]))
          << "end_day=" << served[b].end_day << " sector=" << sector
          << " shard=" << fleet.ShardOf(sector);
    }
  }

  // The audit trail: one shard-tagged promotion event per shard, each
  // carrying the generation the predictions above reported. A wrapped
  // ring fails here, as a wrap, not below as a missing promotion.
  ASSERT_EQ(context.flight().dropped(), 0u)
      << "flight ring too small for the stream; promotions overwritten";
  std::vector<bool> promoted(2, false);
  for (const obs::FlightEventRecord& event : context.flight().Snapshot()) {
    if (event.kind != obs::FlightEventKind::kPromotion) continue;
    if (event.a < 0) continue;  // the service-level record of the same swap
    ASSERT_GE(event.a, 0);
    ASSERT_LT(event.a, 2);
    EXPECT_FALSE(promoted[static_cast<size_t>(event.a)])
        << "duplicate promotion event for shard " << event.a;
    promoted[static_cast<size_t>(event.a)] = true;
    EXPECT_EQ(event.b, 1) << "shard " << event.a;
  }
  EXPECT_TRUE(promoted[0]);
  EXPECT_TRUE(promoted[1]);
}

TEST(ForecastFleet, SwapStormFlightLogReconcilesWithCounters) {
  // The flight-recorder torture from the issue: writers on every fleet
  // and pipeline thread (promotions, admission rejects, backpressure,
  // high-water marks) while a promoter hammers shard 0 with 1000 swaps
  // under live streaming load. With a ring big enough to retain
  // everything, the dumped log must reconcile exactly with the fleet/
  // counters, and the promotion events must cover exactly the generation
  // tags observable in predictions. Runs under TSan in CI.
  const Study& study = SharedStudy();
  constexpr int kPromotions = 1000;
  std::vector<std::unique_ptr<serialize::ForecastBundle>> variants;
  variants.push_back(TrainVariant(study, 10));
  variants.push_back(TrainVariant(study, 7));

  obs::PipelineContext context(/*flight_capacity=*/1 << 17);
  obs::PipelineContext::ScopedInstall install(&context);
  ForecastFleet fleet(serialize::CloneBundle(BaseBundle()),
                      FleetOptionsFor(study, 2));

  std::thread promoter([&] {
    for (int k = 1; k <= kPromotions; ++k) {
      uint64_t generation = 0;
      serialize::Status status = fleet.PromoteBundle(
          0,
          serialize::CloneBundle(*variants[static_cast<size_t>(k % 2)]),
          &generation);
      EXPECT_TRUE(status.ok) << status.error;
      EXPECT_EQ(generation, static_cast<uint64_t>(k));
    }
  });
  const int hours = study.network.num_hours();
  for (int j = 0; j < hours; ++j) {
    for (int i = 0; i < study.num_sectors(); ++i) {
      PushVerdict verdict;
      while ((verdict = fleet.Push(i, j, study.network.kpis.Slice(i, j),
                                   study.network.kpis.dim2())) ==
             PushVerdict::kRejectedOverload) {
        std::this_thread::yield();
      }
      ASSERT_EQ(verdict, PushVerdict::kRouted);
    }
  }
  promoter.join();
  fleet.Finish();
  std::vector<FleetPrediction> served = fleet.TakePredictions();
  ASSERT_FALSE(served.empty());

  // Nothing may have been overwritten at this capacity, so every
  // reconciliation below is an exact equality, not a bound.
  ASSERT_EQ(context.flight().dropped(), 0u)
      << "flight ring too small for the storm; reconciliation would be "
         "lossy";
  uint64_t shard_promotions = 0;
  uint64_t service_promotions = 0;
  uint64_t admission_rejects = 0;
  std::set<int64_t> promoted_generations;
  uint64_t previous_sequence = 0;
  bool first_event = true;
  for (const obs::FlightEventRecord& event : context.flight().Snapshot()) {
    if (!first_event) {
      EXPECT_GT(event.sequence, previous_sequence);
    }
    previous_sequence = event.sequence;
    first_event = false;
    switch (event.kind) {
      case obs::FlightEventKind::kPromotion:
        if (event.a == 0) {
          ++shard_promotions;
          EXPECT_TRUE(promoted_generations.insert(event.b).second)
              << "generation " << event.b << " promoted twice";
        } else if (event.a == -1) {
          ++service_promotions;
        } else {
          ADD_FAILURE() << "promotion on unexpected shard " << event.a;
        }
        break;
      case obs::FlightEventKind::kAdmissionReject:
        ++admission_rejects;
        EXPECT_EQ(event.a,
                  static_cast<int64_t>(PushVerdict::kRejectedOverload));
        break;
      default:
        break;  // backpressure / high-water / health traffic is fine
    }
  }
  EXPECT_EQ(shard_promotions, static_cast<uint64_t>(kPromotions));
  EXPECT_EQ(service_promotions, static_cast<uint64_t>(kPromotions));
  for (int k = 1; k <= kPromotions; ++k) {
    EXPECT_TRUE(promoted_generations.count(k)) << "generation " << k;
  }
  // The log reconciles with the counters: one promotion counter tick and
  // one reject counter tick per corresponding flight event.
  EXPECT_EQ(context.metrics().counter("serve/promotions").Total(),
            static_cast<uint64_t>(kPromotions));
  EXPECT_EQ(
      context.metrics().counter("fleet/rows_rejected_overload").Total(),
      admission_rejects);
  EXPECT_EQ(context.metrics().counter("fleet/rows_offered").Total(),
            context.metrics().counter("fleet/rows_routed").Total() +
                admission_rejects);

  // Every generation tag observable in predictions names a promotion the
  // flight log recorded (generation 0 is the construction-time bundle).
  for (const FleetPrediction& batch : served) {
    for (size_t s = 0; s < batch.generations.size(); ++s) {
      const uint64_t generation = batch.generations[s];
      if (fleet.ShardOf(static_cast<int>(s)) != 0) {
        ASSERT_EQ(generation, 0u);
        continue;
      }
      ASSERT_LE(generation, static_cast<uint64_t>(kPromotions));
      if (generation > 0) {
        ASSERT_TRUE(
            promoted_generations.count(static_cast<int64_t>(generation)))
            << "prediction tagged with unrecorded generation "
            << generation;
      }
    }
  }
}

}  // namespace
}  // namespace hotspot
