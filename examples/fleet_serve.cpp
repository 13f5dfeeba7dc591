// Sharded serving with a hot bundle swap, end to end.
//
//   1. Train a GBDT hot-spot forecaster on a small synthetic study and
//      pack it into a ForecastBundle (the deployable artifact).
//   2. Stand up a fleet::ForecastFleet: the sector universe sharded
//      across 4 independent ForecastService replicas by a stable hash,
//      each behind its own ServingPipeline (one worker thread per shard),
//      fed through its bounded ingress queue with admission control.
//   3. Stream the study's KPI tensor hour-major through Fleet::Push —
//      every row is routed to the shard owning its sector; a saturated
//      shard sheds with a visible verdict instead of stalling the feed.
//   4. Mid-stream, train an improved bundle and PromoteBundle it onto
//      every shard while the fleet keeps serving: an RCU pointer swap —
//      in-flight batches finish on the old model, new batches pick up the
//      new one, and every prediction carries the generation tag of the
//      bundle that produced it.
//   5. Read the per-shard health roll-up, and let a TelemetryExporter
//      render the fleet/ obs counters as a structured frame on stderr
//      (the "hotspot.telemetry.v1" NDJSON schema) instead of hand-printed
//      counters. The flight recorder keeps the promotion events — one per
//      shard, tagged with the installed generation — for the post-run
//      audit trail.
//
// Early scores (generation 0) are bitwise-identical to the first
// bundle's batch PredictAtDay() answers; the example checks that, and
// that post-swap rows report the new generation.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/example_fleet_serve
#include <cstdio>
#include <cstring>
#include <thread>

#include "hotspot.h"

int main() {
  using namespace hotspot;

  // 1. Train, as an offline job would.
  simnet::GeneratorConfig generator;
  generator.topology.target_sectors = 60;
  generator.topology.num_cities = 1;
  generator.weeks = 9;
  generator.seed = 11;
  Study study = BuildStudy(StudyInput(generator), StudyOptions{});

  Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
  ForecastConfig config;
  config.model = ModelKind::kGbdt;
  config.t = 55;
  config.h = 1;
  config.w = 3;
  config.gbdt.num_iterations = 10;
  config.gbdt.num_leaves = 15;
  config.gbdt.max_bins = 32;
  std::unique_ptr<serialize::ForecastBundle> bundle =
      forecaster.TrainBundle(config);
  bundle->score = study.score_config;

  // The batch reference for the pre-swap generation, served separately.
  ForecastService reference(serialize::CloneBundle(*bundle));

  // 2. The fleet: 4 shards, stable-hash routing (swap in a
  // PartitionShardMap for geo/archetype partitions), each shard a full
  // serving pipeline over its own slice of the universe.
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);

  // Telemetry frames stream to stderr while the fleet serves; the final
  // frame (emitted by Stop below) carries the fleet/ counter totals that
  // this example used to print by hand.
  obs::TelemetryOptions telemetry;
  telemetry.period = std::chrono::milliseconds(250);
  telemetry.to_stderr = true;
  obs::TelemetryExporter exporter(&context, telemetry);

  fleet::FleetOptions options;
  options.num_shards = 4;
  options.serving.num_sectors = study.num_sectors();
  options.serving.num_kpis = study.network.num_kpis();
  options.serving.calendar = &study.network.calendar_matrix;
  options.serving.score = study.score_config;
  options.serving.history_weeks = study.num_weeks() + 1;
  fleet::ForecastFleet fleet(std::move(bundle), options);
  for (int shard = 0; shard < fleet.num_shards(); ++shard) {
    std::printf("shard %d owns %zu sectors\n", shard,
                fleet.shard_sectors(shard).size());
  }

  // 3 + 4. Stream hour-major; halfway through, hot-swap a retrained
  // bundle onto every shard while rows keep flowing.
  const Tensor3<float>& kpis = study.network.kpis;
  const int promote_hour = kpis.dim1() / 2;
  uint64_t backoffs = 0;
  for (int hour = 0; hour < kpis.dim1(); ++hour) {
    if (hour == promote_hour) {
      config.gbdt.num_iterations = 15;  // the "improved" nightly model
      std::unique_ptr<serialize::ForecastBundle> next =
          forecaster.TrainBundle(config);
      next->score = study.score_config;
      // Handing ownership saves one codec round-trip: the last shard
      // takes this bundle itself, the others get clones.
      serialize::Status status = fleet.PromoteBundleAll(std::move(next));
      if (!status.ok) {
        std::fprintf(stderr, "promotion failed: %s\n", status.error.c_str());
        return 1;
      }
      std::printf("hour %d: promoted new bundle on every shard "
                  "(generation 1), feed still live\n", hour);
    }
    for (int sector = 0; sector < kpis.dim0(); ++sector) {
      // Push never blocks: a saturated shard answers kRejectedOverload
      // instead of stalling the feed. This replayed file can simply
      // re-offer until the shard catches up (lossless); a live feed
      // would spill to a retry queue or shed and let the shard gap-fill.
      fleet::ForecastFleet::PushVerdict verdict;
      while ((verdict = fleet.Push(sector, hour, kpis.Slice(sector, hour),
                                   kpis.dim2())) ==
             fleet::ForecastFleet::PushVerdict::kRejectedOverload) {
        ++backoffs;
        std::this_thread::yield();
      }
      if (verdict != fleet::ForecastFleet::PushVerdict::kRouted) {
        std::fprintf(stderr, "row refused\n");
        return 1;
      }
    }
  }
  fleet.Finish();

  // 5. Results: batches in end-day order, scattered back to global
  // sector ids, every row tagged with the generation that scored it.
  std::vector<fleet::FleetPrediction> served = fleet.TakePredictions();
  uint64_t generation0_rows = 0, generation1_rows = 0;
  for (const fleet::FleetPrediction& batch : served) {
    for (uint64_t generation : batch.generations) {
      (generation == 0 ? generation0_rows : generation1_rows) += 1;
    }
  }
  std::printf("served %zu batches (end days %d..%d): %llu rows by "
              "generation 0, %llu by generation 1; backpressure "
              "re-offers: %llu\n",
              served.size(), served.front().end_day, served.back().end_day,
              static_cast<unsigned long long>(generation0_rows),
              static_cast<unsigned long long>(generation1_rows),
              static_cast<unsigned long long>(backoffs));

  fleet::FleetHealth health = fleet.Health();
  for (const fleet::ShardHealth& shard : health.shards) {
    if (shard.last_promotion_ns != 0) {
      std::printf("shard %d: %d sectors, generation %llu (promoted %.3fs "
                  "into the run), %s\n",
                  shard.shard, shard.num_sectors,
                  static_cast<unsigned long long>(shard.generation),
                  static_cast<double>(shard.last_promotion_ns) * 1e-9,
                  shard.report.overall == monitor::AlertState::kOk
                      ? "healthy"
                      : "degraded");
    } else {
      std::printf("shard %d: %d sectors, generation %llu (boot bundle), "
                  "%s\n",
                  shard.shard, shard.num_sectors,
                  static_cast<unsigned long long>(shard.generation),
                  shard.report.overall == monitor::AlertState::kOk
                      ? "healthy"
                      : "degraded");
    }
  }
  // Stop the exporter: its final frame on stderr is the structured
  // replacement for the old hand-printed `obs: fleet/...` line. The
  // flight recorder holds the audit trail of the mid-stream swap.
  exporter.Stop();
  std::printf("telemetry: %llu frames exported (hotspot.telemetry.v1 on "
              "stderr)\n",
              static_cast<unsigned long long>(exporter.frames()));
  for (const obs::FlightEventRecord& event : context.flight().Snapshot()) {
    if (event.kind != obs::FlightEventKind::kPromotion) continue;
    std::printf("flight: promotion shard=%lld generation=%lld\n",
                static_cast<long long>(event.a),
                static_cast<long long>(event.b));
  }

  // The sharding contract: pre-swap batches are bitwise-identical to the
  // single reference service over the whole universe...
  for (const fleet::FleetPrediction& batch : served) {
    // Shards pick up the swap at slightly different end days; stop at the
    // first batch any promoted bundle contributed to.
    bool all_generation0 = true;
    for (uint64_t generation : batch.generations) {
      if (generation != 0) all_generation0 = false;
    }
    if (!all_generation0) break;
    std::vector<float> expected =
        reference.PredictAtDay(study.features, batch.end_day);
    if (std::memcmp(expected.data(), batch.scores.data(),
                    expected.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "MISMATCH at end day %d\n", batch.end_day);
      return 1;
    }
  }
  // ...and the swap actually landed while serving.
  if (generation1_rows == 0) {
    std::fprintf(stderr, "promotion never reached the stream\n");
    return 1;
  }
  std::printf("pre-swap scores bitwise-equal to the single-service batch "
              "answers; swap served %llu rows without dropping one\n",
              static_cast<unsigned long long>(generation1_rows));
  return 0;
}
