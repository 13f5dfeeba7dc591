#include "fixture.h"

#include <algorithm>
#include <utility>

#include "simnet/generator.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace hotspot::bench {

ForecastConfig TrainingConfig(const ModelShape& shape, const Study& study) {
  ForecastConfig config;
  config.model = ModelKind::kGbdt;
  config.h = 1;
  config.t = study.num_days() - 1;
  config.w = shape.window_days;
  config.training_days = shape.training_days;
  config.gbdt.num_iterations = shape.iterations;
  config.gbdt.num_leaves = shape.leaves;
  config.gbdt.max_bins = 32;
  return config;
}

namespace {

/// Fills step_begin / last_step_upto from per-row delivery steps.
Feed BuildFeed(int num_sectors, int num_hours, const std::vector<int>& step) {
  const int num_steps = 1 + *std::max_element(step.begin(), step.end());
  std::vector<int> count(static_cast<size_t>(num_steps) + 1, 0);
  for (int s : step) ++count[static_cast<size_t>(s) + 1];
  for (size_t s = 1; s < count.size(); ++s) count[s] += count[s - 1];
  Feed feed;
  feed.step_begin = count;
  feed.sectors.resize(step.size());
  feed.hours.resize(step.size());
  feed.last_step_upto.assign(static_cast<size_t>(num_hours), 0);
  // Row order inside a step: hour-major, sectors ascending, so a held-back
  // row lands ahead of the step's own hour.
  for (int j = 0; j < num_hours; ++j) {
    int latest = j > 0 ? feed.last_step_upto[static_cast<size_t>(j) - 1] : 0;
    for (int i = 0; i < num_sectors; ++i) {
      const size_t row = static_cast<size_t>(j) * num_sectors + i;
      const int s = step[row];
      const int slot = count[static_cast<size_t>(s)]++;
      feed.sectors[static_cast<size_t>(slot)] = i;
      feed.hours[static_cast<size_t>(slot)] = j;
      latest = std::max(latest, s);
    }
    feed.last_step_upto[static_cast<size_t>(j)] = latest;
  }
  return feed;
}

}  // namespace

Feed InOrderFeed(int num_sectors, int num_hours) {
  std::vector<int> step(static_cast<size_t>(num_sectors) * num_hours);
  for (size_t row = 0; row < step.size(); ++row) {
    step[row] = static_cast<int>(row / static_cast<size_t>(num_sectors));
  }
  return BuildFeed(num_sectors, num_hours, step);
}

Feed DelayedFeed(int num_sectors, int num_hours, uint64_t seed, double share,
                 int max_delay) {
  Rng rng(seed ^ 0xde1a7edull);
  std::vector<int> step(static_cast<size_t>(num_sectors) * num_hours);
  for (size_t row = 0; row < step.size(); ++row) {
    const int hour = static_cast<int>(row / static_cast<size_t>(num_sectors));
    step[row] = hour;
    if (rng.Bernoulli(share)) {
      step[row] += static_cast<int>(rng.UniformInt(1, max_delay));
    }
  }
  return BuildFeed(num_sectors, num_hours, step);
}

pipeline::ServingPipeline::Options Fixture::ServingOptions() const {
  pipeline::ServingPipeline::Options options;
  options.num_sectors = num_sectors();
  options.num_kpis = num_kpis();
  options.calendar = &study.network.calendar_matrix;
  options.score = study.score_config;
  options.history_weeks = kHistoryWeeks;
  return options;
}

std::map<int, std::vector<float>> Fixture::ReferenceBatches() const {
  std::map<int, std::vector<float>> batches;
  for (int end_day = config.w; end_day <= study.num_days(); ++end_day) {
    batches[end_day] = reference->PredictAtDay(study.features, end_day);
  }
  return batches;
}

std::unique_ptr<Fixture> BuildFixture(uint64_t seed, const Scale& scale,
                                      const ModelShape& shape) {
  auto fixture = std::make_unique<Fixture>();
  fixture->shape = shape;

  Stopwatch watch;
  simnet::GeneratorConfig generator;
  generator.topology.target_sectors = scale.sectors;
  generator.topology.num_cities = 1;
  generator.weeks = scale.weeks;
  generator.seed = seed;
  simnet::SyntheticNetwork network = simnet::GenerateNetwork(generator);
  fixture->times.generate_s = watch.ElapsedSeconds();

  watch.Reset();
  fixture->study = BuildStudy(std::move(network), StudyOptions{});
  fixture->times.study_s = watch.ElapsedSeconds();
  fixture->config = TrainingConfig(shape, fixture->study);
  return fixture;
}

void TrainFixtureBundle(Fixture* fixture) {
  Stopwatch watch;
  const Forecaster forecaster =
      fixture->study.MakeForecaster(TargetKind::kBeHotSpot);
  fixture->bundle = forecaster.TrainBundle(fixture->config);
  fixture->bundle->score = fixture->study.score_config;
  fixture->times.train_s = watch.ElapsedSeconds();

  fixture->reference = std::make_unique<ForecastService>(
      serialize::CloneBundle(*fixture->bundle));
}

}  // namespace hotspot::bench
