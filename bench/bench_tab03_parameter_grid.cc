// Table III: the evaluation grid — models, forecast days t, horizons h,
// and past-window lengths w — plus the subsampled grid the forecasting
// benches actually run (with the full grid available via the library).
//
// This bench also doubles as the observability smoke test: it runs a small
// observed sweep with a live obs::PipelineContext, checks that the
// top-level trace spans account for the measured wall time, and emits the
// JSON metrics snapshot (to HOTSPOT_OBS_JSON if set, else inline).
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common.h"
#include "core/task.h"
#include "obs/snapshot.h"
#include "util/stopwatch.h"

namespace hotspot::bench {
namespace {

void PrintGrid(const char* name, const ParameterGrid& grid) {
  std::printf("\n[%s]\n", name);
  std::printf("Models: ");
  for (ModelKind model : grid.models) std::printf("%s ", ModelName(model));
  std::printf("\nt: ");
  for (int t : grid.t_values) std::printf("%d ", t);
  std::printf("\nh: ");
  for (int h : grid.h_values) std::printf("%d ", h);
  std::printf("\nw: ");
  for (int w : grid.w_values) std::printf("%d ", w);
  std::printf("\ncells: %lld\n", grid.NumCells());
}

/// Observed mini-sweep: everything between the context's creation and the
/// snapshot runs under the same PipelineContext, so the top-level spans
/// (simnet/generate, study/build, sweep/run, plus worker-rooted spans on
/// multi-threaded runs) should cover ~all of the measured wall time.
bool RunObservedSweep(const BenchOptions& base) {
  BenchOptions options = base;
  options.sectors = std::min(options.sectors, 250);
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);

  Stopwatch watch;
  Study study = MakeStudy(options, /*emerging_fraction=*/-1.0);
  Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
  ForecastConfig base_config = BenchForecastConfig();
  EvaluationRunner runner(&forecaster, base_config);

  ParameterGrid grid = ParameterGrid::Subsampled(18, {1, 2}, {3, 7});
  grid.models = {ModelKind::kRandom, ModelKind::kPersist,
                 ModelKind::kAverage, ModelKind::kRfRaw};
  std::vector<CellResult> cells = RunSweep(&runner, grid, SweepOptions{});
  double wall = watch.ElapsedSeconds();

  obs::Snapshot snapshot = obs::TakeSnapshot(context);
  double covered = snapshot.TopLevelSpanSeconds();
  double coverage = wall > 0.0 ? covered / wall : 0.0;

  std::printf("\n[observed sweep] %lld cells, %zu span paths, wall %.2fs, "
              "top-level spans %.2fs (%.0f%% of wall)\n",
              grid.NumCells(), snapshot.spans.size(), wall, covered,
              100.0 * coverage);
  std::printf("span tree (aggregated over threads):\n");
  for (const obs::Snapshot::SpanSample& span : snapshot.spans) {
    std::printf("  %*s%-40s %8llu calls %9.3fs\n", 2 * span.depth, "",
                span.path.c_str(),
                static_cast<unsigned long long>(span.count),
                span.total_seconds);
  }

  if (const char* path = std::getenv("HOTSPOT_OBS_JSON")) {
    if (obs::WriteSnapshotJson(snapshot, path)) {
      std::printf("metrics snapshot written to %s\n", path);
    } else {
      std::printf("failed to write metrics snapshot to %s\n", path);
    }
  } else {
    std::printf("\nmetrics snapshot (set HOTSPOT_OBS_JSON to write to a "
                "file):\n%s\n", obs::FrameToJsonLine(snapshot).c_str());
  }

  (void)cells;
  return coverage >= 0.9;
}

int Main() {
  BenchOptions options = ParseOptions();
  PrintHeader("bench_tab03_parameter_grid",
              "Table III (considered values for model, t, h, w)", options);
  ParameterGrid paper = ParameterGrid::Paper();
  PrintGrid("paper grid (Table III)", paper);
  ParameterGrid bench =
      ParameterGrid::Subsampled(8, {1, 2, 4, 7, 8, 14, 22, 29}, {7});
  PrintGrid("bench subsample (used by bench_fig09..14)", bench);
  bool grid_pass = paper.NumCells() == 34560;
  std::printf("\nshape check: paper grid has 8 x 36 x 15 x 8 = %lld cells: "
              "%s\n", paper.NumCells(), grid_pass ? "PASS" : "DIVERGES");

  bool obs_pass = RunObservedSweep(options);
  std::printf("\nobs coverage check (top-level spans >= 90%% of wall): "
              "%s\n", obs_pass ? "PASS" : "DIVERGES");
  return 0;
}

}  // namespace
}  // namespace hotspot::bench

int main() { return hotspot::bench::Main(); }
