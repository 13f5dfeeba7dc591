// Figs. 11 & 12, "become a hot spot": lift vs horizon for the emerging-
// hot-spot task (Fig. 11) and the ∆ of classifiers over the Average
// baseline (Fig. 12). Expected shapes: classifiers far above every
// baseline for h ≤ 15 (paper: worst classifier +105 %, best +153 %); the
// advantage vanishes for h ≥ 19; no weekly Persist peaks.
#include <cmath>
#include <cstdio>

#include "common.h"
#include "core/labels.h"
#include "core/task.h"
#include "util/csv.h"
#include "util/stopwatch.h"

namespace hotspot::bench {
namespace {

int Main() {
  BenchOptions options = ParseOptions({.sectors = 700});
  ObsSession obs_session;
  // Emerging ramps are rare events; raise the ramp rate so evaluation days
  // carry positives at bench scale (the paper's 10^4 sectors provide this
  // for free).
  Study study =
      MakeStudy(options, /*emerging_fraction=*/0.14, obs_session.context());
  PrintHeader("bench_fig11_12_become_lift_vs_horizon",
              "Figs. 11-12 (become-a-hot-spot forecast: lift vs h; ∆ vs "
              "Average)",
              options);
  std::printf("become-positive prevalence: %.5f (%.1f sectors/day)\n",
              PositiveRate(study.become_labels),
              PositiveRate(study.become_labels) * study.num_sectors());

  Forecaster forecaster = study.MakeForecaster(TargetKind::kBecomeHotSpot);
  ForecastConfig base = BenchForecastConfig();
  base.training_days = 10;  // become positives are rare; pool more days
  EvaluationRunner runner(&forecaster, base);

  ParameterGrid grid =
      ParameterGrid::Subsampled(12, {1, 2, 4, 8, 14, 22}, {7});
  std::printf("\nrunning %lld cells...\n", grid.NumCells());
  Stopwatch watch;
  SweepOptions sweep_options;
  sweep_options.progress = StderrSweepProgress();
  std::vector<CellResult> cells;
  {
    obs::PipelineContext::ScopedInstall install(obs_session.context());
    cells = RunSweep(&runner, grid, sweep_options);
  }
  std::printf("sweep took %.0fs\n", watch.ElapsedSeconds());

  std::printf("\n[Fig. 11] average lift Λ (mean over valid t, w = 7):\n");
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

  std::printf("\n[Fig. 12] ∆ vs Average [%%]:\n");
  TextTable delta_table({"h", "Tree", "RF-R", "RF-F1", "RF-F2"});
  for (int h : grid.h_values) {
    std::vector<std::string> row = {std::to_string(h)};
    for (ModelKind model : {ModelKind::kTree, ModelKind::kRfRaw,
                            ModelKind::kRfF1, ModelKind::kRfF2}) {
      MeanCi delta =
          AggregateDeltaOverT(cells, model, ModelKind::kAverage, h, 7);
      row.push_back(FormatCi(delta.mean, delta.ci_low, delta.ci_high));
    }
    delta_table.AddRow(row);
  }
  std::printf("%s", delta_table.ToString().c_str());

  // Shape checks: classifiers crush baselines at short h; advantage gone
  // at long h.
  auto classifier_mean = [&](int h) {
    double sum = 0.0;
    int count = 0;
    for (ModelKind model : {ModelKind::kTree, ModelKind::kRfRaw,
                            ModelKind::kRfF1, ModelKind::kRfF2}) {
      MeanCi ci = AggregateLiftOverT(cells, model, h, 7);
      if (!std::isnan(ci.mean)) {
        sum += ci.mean;
        ++count;
      }
    }
    return count > 0 ? sum / count : std::nan("");
  };
  MeanCi average_h1 = AggregateLiftOverT(cells, ModelKind::kAverage, 1, 7);
  MeanCi average_h22 = AggregateLiftOverT(cells, ModelKind::kAverage, 22, 7);
  double short_h = classifier_mean(1);
  double long_h = classifier_mean(22);
  double short_delta = 100.0 * (short_h / average_h1.mean - 1.0);
  double long_delta = 100.0 * (long_h / average_h22.mean - 1.0);
  std::printf("\nclassifier-vs-Average ∆ at h=1: %+.0f%% (paper: +105%% to "
              "+153%%)\n", short_delta);
  std::printf("classifier-vs-Average ∆ at h=22: %+.0f%% (paper: advantage "
              "vanished for h >= 19)\n", long_delta);
  bool pass = short_delta > 60.0 && long_delta < short_delta * 0.4;
  std::printf("shape check: %s\n", pass ? "PASS" : "DIVERGES");
  return 0;
}

}  // namespace
}  // namespace hotspot::bench

int main() { return hotspot::bench::Main(); }
