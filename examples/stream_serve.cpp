// Streaming serving through the pipeline runtime.
//
//   1. Train a GBDT hot-spot forecaster on a small synthetic study and
//      wrap it in a warm ForecastService (same recipe as
//      save_load_serve).
//   2. Write the study's KPI tensor to a long-form CSV and stream it back
//      row by row — the file standing in for a live hourly KPI feed,
//      late rows, gaps and all.
//   3. Push every row into a pipeline::ServingPipeline: one facade that
//      runs ingest → incremental features → predict → monitor to
//      completion on one worker thread behind a bounded, backpressured
//      ingress queue — no offline feature-tensor rebuild anywhere on the
//      serving path, and no hand-wiring of ingestor/engine/runner.
//
// The streamed scores are bitwise-identical to the batch
// PredictAtDay() answers; the example checks that at the end.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/example_stream_serve
#include <cstdio>
#include <cstring>
#include <filesystem>

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
  config.gbdt.num_iterations = 15;
  config.gbdt.num_leaves = 15;
  config.gbdt.max_bins = 32;

  std::unique_ptr<serialize::ForecastBundle> bundle =
      forecaster.TrainBundle(config);
  bundle->score = study.score_config;
  bundle->normalization = serialize::NormalizationFromKpis(study.network.kpis);
  ForecastService service(std::move(bundle));

  // 2. The "live feed": the KPI tensor as a long-form CSV on disk.
  const std::string feed =
      (std::filesystem::temp_directory_path() / "hotspot_feed.csv").string();
  std::vector<std::string> kpi_names;
  for (const simnet::KpiSpec& spec : study.network.catalog.specs()) {
    kpi_names.push_back(spec.name);
  }
  io::IoStatus io = io::WriteKpiTensorCsv(feed, study.network.kpis, kpi_names);
  if (!io.ok) {
    std::fprintf(stderr, "feed write failed: %s\n", io.error.c_str());
    return 1;
  }

  // 3. Stream it through the pipeline. Options is the whole serving
  // configuration in one place — universe, ingest policy, ingress bound,
  // engine/kernel selection, monitoring — no env vars needed.
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);

  pipeline::ServingPipeline::Options options;
  options.num_sectors = study.num_sectors();
  options.num_kpis = study.network.num_kpis();
  options.calendar = &study.network.calendar_matrix;
  options.score = study.score_config;
  options.history_weeks = study.num_weeks() + 1;
  pipeline::ServingPipeline serving(&service, options);

  io::KpiCsvStreamReader reader;
  io = reader.Open(feed);
  if (!io.ok) {
    std::fprintf(stderr, "feed open failed: %s\n", io.error.c_str());
    return 1;
  }
  int sector = 0;
  int hour = 0;
  std::vector<float> values;
  while (reader.Next(&sector, &hour, &values)) {
    serving.Push(sector, hour, values);  // blocks only under backpressure
  }
  if (!reader.status().ok) {
    std::fprintf(stderr, "ingest failed: %s\n", reader.status().error.c_str());
    return 1;
  }
  serving.Finish();  // drain the ingress queue, join the worker

  std::vector<StreamingPrediction> served = serving.TakePredictions();
  int hot_last = 0;
  for (float score : served.back().scores) {
    hot_last += service.IsHot(score) ? 1 : 0;
  }
  std::printf("streamed %llu rows -> %zu prediction batches "
              "(end days %d..%d); last batch: %d of %d sectors forecast "
              "hot for day %d\n",
              static_cast<unsigned long long>(
                  context.metrics().counter("stream/rows_accepted").Total()),
              served.size(), served.front().end_day, served.back().end_day,
              hot_last, study.num_sectors(), served.back().target_day);
  std::printf("obs: stream/rows_gap_filled=%llu stream/rows_late_dropped=%llu "
              "stream/outcomes_recorded=%llu\n",
              static_cast<unsigned long long>(
                  context.metrics().counter("stream/rows_gap_filled").Total()),
              static_cast<unsigned long long>(
                  context.metrics().counter("stream/rows_late_dropped")
                      .Total()),
              static_cast<unsigned long long>(
                  context.metrics().counter("stream/outcomes_recorded")
                      .Total()));

  // Per-phase accounting: items through each phase and its busy time;
  // the ingest line also shows how full the ingress queue ever ran.
  std::printf("pipeline %s\n", serving.finished() ? "drained" : "live");
  for (const pipeline::StageStats& stage : serving.StageSnapshot()) {
    std::printf("phase %-8s in=%llu out=%llu busy=%.1f ms "
                "queue high-water %d/%d\n",
                stage.name.c_str(),
                static_cast<unsigned long long>(stage.items_in),
                static_cast<unsigned long long>(stage.items_out),
                1e3 * stage.busy_seconds, stage.input.high_water,
                stage.input.capacity);
  }

  // 4. The equivalence check: streamed scores == batch scores, bit for bit.
  for (const StreamingPrediction& prediction : served) {
    std::vector<float> batch =
        service.PredictAtDay(study.features, prediction.end_day);
    if (std::memcmp(batch.data(), prediction.scores.data(),
                    batch.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "MISMATCH at end day %d\n", prediction.end_day);
      return 1;
    }
  }
  std::printf("streamed scores match batch PredictAtDay bit for bit "
              "(%zu batches)\n", served.size());

  monitor::HealthReport health = service.Health();
  std::printf("health: %s, quality over %llu matured labels (lift %.2f)\n",
              health.overall == monitor::AlertState::kOk ? "OK" : "degraded",
              static_cast<unsigned long long>(health.quality.labels_total),
              health.quality.lift);

  std::filesystem::remove(feed);
  return 0;
}
