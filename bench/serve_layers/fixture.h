// The seeded input every bench_serve_layers workload runs on: one
// synthetic study, the GBDT bundle of the workload's model shape, and the
// delivery order of the KPI feed. All of it is a function of the seed.
#ifndef HOTSPOT_BENCH_SERVE_LAYERS_FIXTURE_H_
#define HOTSPOT_BENCH_SERVE_LAYERS_FIXTURE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/forecaster.h"
#include "core/study.h"
#include "pipeline/serving_pipeline.h"
#include "serialize/bundle.h"

namespace hotspot::bench {

/// Input size: the default is a 1,200-sector single-city network over 12
/// weeks; --smoke shrinks it to 60 sectors over 9 weeks.
struct Scale {
  int sectors = 1200;
  int weeks = 12;
};

/// GBDT shape of one bundle (max_bins = 32, horizon h = 1 for all).
struct ModelShape {
  const char* name;
  int iterations;
  int leaves;
  int window_days;
  int training_days;
};

/// The micro-bench shape: cheap predict, so row-granularity layers dominate.
inline constexpr ModelShape kSmallModel{"small", 10, 15, 3, 1};
/// Heavy predict: 100 trees over a 7-day window.
inline constexpr ModelShape kLargeModel{"large", 100, 31, 7, 1};
/// The adapt loop's retrain: a week of pooled target days.
inline constexpr ModelShape kRetrainModel{"retrain", 40, 31, 3, 7};

/// Finalized feature history the serving paths keep: the 7-day window
/// plus one week of frontier slack.
inline constexpr int kHistoryWeeks = 2;

/// Training request for `shape` on `study`; the target day is the last
/// day whose h = 1 label exists.
ForecastConfig TrainingConfig(const ModelShape& shape, const Study& study);

/// Wall seconds of the set-up steps.
struct SetupTimes {
  double generate_s = 0.0;
  double study_s = 0.0;
  double train_s = 0.0;
};

/// Delivery order of one pass: step s offers rows [step_begin[s],
/// step_begin[s+1]) of (sectors, hours). In-order feeds have one step per
/// hour; delayed feeds hold a share of rows back a few steps.
struct Feed {
  std::vector<int> step_begin;
  std::vector<int> sectors;
  std::vector<int> hours;
  /// last_step_upto[h]: the latest step offering any row with hour <= h —
  /// when the last row a week-close batch depends on is due.
  std::vector<int> last_step_upto;

  int num_steps() const { return static_cast<int>(step_begin.size()) - 1; }
  int64_t num_rows() const { return static_cast<int64_t>(sectors.size()); }
};

/// Every row of hour j at step j, sectors ascending.
Feed InOrderFeed(int num_sectors, int num_hours);
/// As InOrderFeed, but a seeded `share` of rows is delivered 1..max_delay
/// steps late (inside the ingestor's 24 h watermark, so none is dropped).
Feed DelayedFeed(int num_sectors, int num_hours, uint64_t seed, double share,
                 int max_delay);

struct Fixture {
  Study study;
  ModelShape shape{};
  ForecastConfig config;
  std::unique_ptr<serialize::ForecastBundle> bundle;
  /// A codec clone of `bundle` serving the batch reference.
  std::unique_ptr<ForecastService> reference;
  SetupTimes times;

  int num_sectors() const { return study.num_sectors(); }
  int num_hours() const { return study.network.num_hours(); }
  int num_kpis() const { return study.network.num_kpis(); }
  const float* Row(int sector, int hour) const {
    return study.network.kpis.Slice(sector, hour);
  }
  /// The serving-path options every pipeline and fleet shard uses.
  pipeline::ServingPipeline::Options ServingOptions() const;
  /// Batch PredictAtDay scores for every servable end day.
  std::map<int, std::vector<float>> ReferenceBatches() const;
};

/// Generates the network and builds the study, timing each step; the
/// bundle is left to TrainFixtureBundle.
std::unique_ptr<Fixture> BuildFixture(uint64_t seed, const Scale& scale,
                                      const ModelShape& shape);

/// Trains the bundle of the fixture's shape (timed) and clones it into the
/// reference service.
void TrainFixtureBundle(Fixture* fixture);

/// End day e's window closes with the week holding its last hour; this is
/// that week's last hour — the hour whose arrival makes batch e servable.
inline int ServableHour(int end_day) {
  return ((24 * end_day - 1) / 168 + 1) * 168 - 1;
}

}  // namespace hotspot::bench

#endif  // HOTSPOT_BENCH_SERVE_LAYERS_FIXTURE_H_
