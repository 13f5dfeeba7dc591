#ifndef HOTSPOT_CORE_TASK_H_
#define HOTSPOT_CORE_TASK_H_

#include <functional>
#include <vector>

#include "core/evaluation.h"
#include "core/forecaster.h"

namespace hotspot {

/// The paper's evaluation grid (Table III).
struct ParameterGrid {
  std::vector<ModelKind> models;
  std::vector<int> t_values;
  std::vector<int> h_values;
  std::vector<int> w_values;

  /// The exact Table III grid: 8 models, t ∈ {52..87},
  /// h ∈ {1,2,3,4,5,7,8,10,12,14,16,19,22,26,29}, w ∈ {1,2,3,5,7,10,14,21}.
  static ParameterGrid Paper();

  /// A subsampled grid for CPU-bounded benches: every `t_stride`-th t, the
  /// given h and w subsets (empty = paper values).
  static ParameterGrid Subsampled(int t_stride, std::vector<int> h_subset,
                                  std::vector<int> w_subset);

  long long NumCells() const {
    return static_cast<long long>(models.size()) * t_values.size() *
           h_values.size() * w_values.size();
  }
};

/// Progress of a running sweep, reported after each completed model
/// (the granularity the parallel fan-out naturally yields).
struct SweepProgress {
  long long cells_done = 0;
  long long cells_total = 0;
  int models_done = 0;
  int models_total = 0;
  const char* model_name = "";   ///< model that just finished
  double elapsed_seconds = 0.0;
  double eta_seconds = 0.0;      ///< linear extrapolation; 0 when done
};

/// Sweep progress callback. Invoked on the calling thread, between model
/// fan-outs — it may print, update a UI, or abort via exception.
using SweepProgressFn = std::function<void(const SweepProgress&)>;

/// The stderr reporter that `SweepOptions::progress_to_stderr` used to
/// hard-wire: "  sweep: <model> done (<done>/<total> cells)".
SweepProgressFn StderrSweepProgress();

/// Sweep options.
struct SweepOptions {
  /// Progress callback; null = silent. Use StderrSweepProgress() for the
  /// classic stderr lines.
  SweepProgressFn progress;
};

/// Runs every (model, t, h, w) cell of `grid` through `runner` and returns
/// the per-cell results. This is the engine behind the figure benches and
/// the temporal-stability analysis. Cells are evaluated in parallel over
/// HOTSPOT_NUM_THREADS threads; the returned vector is in the serial sweep
/// order (model-major, then h, w, t) and bitwise-identical at any thread
/// count.
std::vector<CellResult> RunSweep(EvaluationRunner* runner,
                                 const ParameterGrid& grid,
                                 const SweepOptions& options = {});

}  // namespace hotspot

#endif  // HOTSPOT_CORE_TASK_H_
