// Save / load / serve: the train-offline, serve-online split.
//
//   1. Train a GBDT hot-spot forecaster on a small synthetic study and
//      pack it — model, scoring config, window spec, drift fingerprints —
//      into a single versioned ForecastBundle file.
//   2. Load the bundle into a ForecastService (warm start: no retraining).
//   3. Serve batched predictions over the latest KPI windows and flag the
//      sectors forecast to be hot spots.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/example_save_load_serve
#include <cstdio>
#include <filesystem>

#include "hotspot.h"

int main() {
  using namespace hotspot;

  // 1. Train. A real deployment would do this on a schedule, offline.
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

  const std::string path =
      (std::filesystem::temp_directory_path() / "hotspot_demo.hsb").string();
  serialize::Status status = serialize::SaveBundle(path, *bundle);
  if (!status.ok) {
    std::fprintf(stderr, "save failed: %s\n", status.error.c_str());
    return 1;
  }
  std::printf("saved %s model (w=%dd, h=%dd, %d features) to %s (%lld "
              "bytes)\n",
              ModelName(bundle->model), bundle->window_days,
              bundle->horizon_days, bundle->feature_dim, path.c_str(),
              static_cast<long long>(std::filesystem::file_size(path)));
  bundle.reset();

  // 2. Warm start: a serving process loads the bundle once.
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  std::unique_ptr<ForecastService> service;
  status = ForecastService::Load(path, &service);
  if (!status.ok) {
    std::fprintf(stderr, "load failed: %s\n", status.error.c_str());
    return 1;
  }

  // 3. Serve: score every sector's latest window for day t+h.
  std::vector<float> scores = service->PredictAtDay(study.features, config.t);
  int hot = 0;
  for (float score : scores) hot += service->IsHot(score) ? 1 : 0;
  std::printf("served %zu sectors for day %d: %d forecast hot "
              "(threshold %.2f)\n",
              scores.size(), config.t + config.h, hot,
              service->bundle().score.hot_threshold);
  std::printf("obs: serve/requests=%llu serve/windows=%llu\n",
              static_cast<unsigned long long>(
                  context.metrics().counter("serve/requests").Total()),
              static_cast<unsigned long long>(
                  context.metrics().counter("serve/windows").Total()));

  std::filesystem::remove(path);
  return 0;
}
