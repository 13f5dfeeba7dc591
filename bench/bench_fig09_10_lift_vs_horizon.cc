// Figs. 9 & 10, "be a hot spot": average lift Λ vs horizon h at w = 7 for
// all eight Table III models (Fig. 9), and the ratio ∆ of the classifier
// models over the Average baseline (Fig. 10). Expected shapes: Random ≈ 1;
// Persist low with peaks at h = 7/14; Average the best baseline;
// classifiers above Average; useful lift (≫ 1) even at h = 29.
#include <cmath>
#include <cstdio>

#include "common.h"
#include "core/task.h"
#include "util/csv.h"
#include "util/stopwatch.h"

namespace hotspot::bench {
namespace {

int Main() {
  // The classifier-vs-Average contrast needs evaluation days with enough
  // positives; run this bench at the largest deployment of the suite.
  BenchOptions options = ParseOptions({.sectors = 900});
  ObsSession obs_session;
  Study study = MakeStudy(options, /*emerging_fraction=*/-1.0,
                          obs_session.context());
  PrintHeader("bench_fig09_10_lift_vs_horizon",
              "Figs. 9-10 (hot-spot forecast: lift vs h at w=7; ∆ vs "
              "Average)",
              options);

  Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
  ForecastConfig base = BenchForecastConfig();
  EvaluationRunner runner(&forecaster, base);

  ParameterGrid grid =
      ParameterGrid::Subsampled(12, {1, 2, 4, 7, 14, 29}, {7});
  std::printf("\nrunning %lld cells (this is the heaviest bench; a few "
              "minutes on one core)...\n", grid.NumCells());
  Stopwatch watch;
  SweepOptions sweep_options;
  sweep_options.progress = StderrSweepProgress();
  std::vector<CellResult> cells;
  {
    obs::PipelineContext::ScopedInstall install(obs_session.context());
    cells = RunSweep(&runner, grid, sweep_options);
  }
  std::printf("sweep took %.0fs\n", watch.ElapsedSeconds());

  // Fig. 9: lift table, one row per h, one column per model.
  std::printf("\n[Fig. 9] average lift Λ (mean over t, w = 7):\n");
  std::vector<std::string> header = {"h"};
  for (ModelKind model : grid.models) header.push_back(ModelName(model));
  TextTable table(header);
  for (int h : grid.h_values) {
    std::vector<std::string> row = {std::to_string(h)};
    for (ModelKind model : grid.models) {
      MeanCi ci = AggregateLiftOverT(cells, model, h, 7);
      row.push_back(FormatNumber(ci.mean, 4));
    }
    table.AddRow(row);
  }
  std::printf("%s", table.ToString().c_str());

  // Fig. 10: ∆ of classifier models vs Average, with 95 % CIs.
  std::printf("\n[Fig. 10] ∆ vs Average [%%] (mean over t, 95%% CI):\n");
  TextTable delta_table({"h", "Tree", "RF-R", "RF-F1", "RF-F2"});
  const ModelKind kClassifiers[] = {ModelKind::kTree, ModelKind::kRfRaw,
                                    ModelKind::kRfF1, ModelKind::kRfF2};
  std::vector<double> rf_deltas;
  for (int h : grid.h_values) {
    std::vector<std::string> row = {std::to_string(h)};
    for (ModelKind model : kClassifiers) {
      MeanCi delta =
          AggregateDeltaOverT(cells, model, ModelKind::kAverage, h, 7);
      row.push_back(FormatCi(delta.mean, delta.ci_low, delta.ci_high));
      if (model != ModelKind::kTree && !std::isnan(delta.mean)) {
        rf_deltas.push_back(delta.mean);
      }
    }
    delta_table.AddRow(row);
  }
  std::printf("%s", delta_table.ToString().c_str());

  // Shape checks.
  MeanCi random_h1 = AggregateLiftOverT(cells, ModelKind::kRandom, 1, 7);
  MeanCi persist_h4 = AggregateLiftOverT(cells, ModelKind::kPersist, 4, 7);
  MeanCi persist_h7 = AggregateLiftOverT(cells, ModelKind::kPersist, 7, 7);
  MeanCi persist_h14 = AggregateLiftOverT(cells, ModelKind::kPersist, 14, 7);
  MeanCi average_h29 = AggregateLiftOverT(cells, ModelKind::kAverage, 29, 7);
  double rf_mean_delta = 0.0;
  for (double d : rf_deltas) rf_mean_delta += d;
  rf_mean_delta /= static_cast<double>(rf_deltas.size());

  std::printf("\nRandom lift at h=1: %.2f (paper: ~1)\n", random_h1.mean);
  std::printf("Persist weekly peaks: h=7 %.2f and h=14 %.2f vs h=4 %.2f "
              "(paper: peaks at 7/14)\n",
              persist_h7.mean, persist_h14.mean, persist_h4.mean);
  std::printf("Average lift at h=29: %.2f (paper: >12x random four weeks "
              "out)\n", average_h29.mean);
  std::printf("mean RF ∆ vs Average: %+.1f%% (paper: +6%% to +22%%, "
              "RF-F1 +14%%)\n", rf_mean_delta);
  bool pass = std::fabs(random_h1.mean - 1.0) < 0.5 &&
              persist_h7.mean > persist_h4.mean &&
              persist_h14.mean > persist_h4.mean &&
              average_h29.mean > 3.0 && rf_mean_delta > 0.0;
  std::printf("shape check: %s\n", pass ? "PASS" : "DIVERGES");
  return 0;
}

}  // namespace
}  // namespace hotspot::bench

int main() { return hotspot::bench::Main(); }
