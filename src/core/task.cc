#include "core/task.h"

#include <chrono>
#include <cstdio>

#include "obs/pipeline_context.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace hotspot {

ParameterGrid ParameterGrid::Paper() {
  ParameterGrid grid;
  grid.models = PaperModels();
  for (int t = 52; t <= 87; ++t) grid.t_values.push_back(t);
  grid.h_values = {1, 2, 3, 4, 5, 7, 8, 10, 12, 14, 16, 19, 22, 26, 29};
  grid.w_values = {1, 2, 3, 5, 7, 10, 14, 21};
  return grid;
}

ParameterGrid ParameterGrid::Subsampled(int t_stride,
                                        std::vector<int> h_subset,
                                        std::vector<int> w_subset) {
  HOTSPOT_CHECK_GE(t_stride, 1);
  ParameterGrid grid = Paper();
  std::vector<int> t_values;
  for (size_t index = 0; index < grid.t_values.size(); index += t_stride) {
    t_values.push_back(grid.t_values[index]);
  }
  grid.t_values = std::move(t_values);
  if (!h_subset.empty()) grid.h_values = std::move(h_subset);
  if (!w_subset.empty()) grid.w_values = std::move(w_subset);
  return grid;
}

SweepProgressFn StderrSweepProgress() {
  return [](const SweepProgress& progress) {
    std::fprintf(stderr, "  sweep: %s done (%lld/%lld cells)\n",
                 progress.model_name, progress.cells_done,
                 progress.cells_total);
  };
}

std::vector<CellResult> RunSweep(EvaluationRunner* runner,
                                 const ParameterGrid& grid,
                                 const SweepOptions& options) {
  HOTSPOT_CHECK(runner != nullptr);
  obs::PipelineContext* ctx = obs::PipelineContext::Current();
  HOTSPOT_SPAN("sweep/run");
  const auto start = std::chrono::steady_clock::now();

  // Warm the random-reference cache serially so the parallel cells below
  // only read it (ψ(F₀) is deterministic per day, so order is irrelevant).
  {
    HOTSPOT_SPAN("sweep/warm_random_ap");
    for (int h : grid.h_values) {
      for (int t : grid.t_values) runner->RandomAp(t, h);
    }
  }

  const int64_t num_h = static_cast<int64_t>(grid.h_values.size());
  const int64_t num_w = static_cast<int64_t>(grid.w_values.size());
  const int64_t num_t = static_cast<int64_t>(grid.t_values.size());
  const int64_t cells_per_model = num_h * num_w * num_t;

  if (ctx != nullptr) {
    ctx->metrics().gauge("sweep/cells_total")
        .Set(static_cast<double>(grid.NumCells()));
    ctx->metrics().gauge("sweep/cells_done").Set(0.0);
  }

  std::vector<CellResult> cells;
  cells.reserve(static_cast<size_t>(grid.NumCells()));
  long long done = 0;
  int models_done = 0;
  for (ModelKind model : grid.models) {
    // Parallel over the model's (h, w, t) cells; results come back in the
    // serial sweep order (h-major, then w, then t) regardless of thread
    // count, and each Evaluate is an independent train-and-score.
    std::vector<CellResult> model_cells = util::ParallelMap<CellResult>(
        0, cells_per_model, [&](int64_t index) {
          const int h = grid.h_values[static_cast<size_t>(
              index / (num_w * num_t))];
          const int w = grid.w_values[static_cast<size_t>(
              (index / num_t) % num_w)];
          const int t = grid.t_values[static_cast<size_t>(index % num_t)];
          return runner->Evaluate(model, t, h, w);
        });
    cells.insert(cells.end(), model_cells.begin(), model_cells.end());
    done += cells_per_model;
    ++models_done;

    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    const double eta =
        done > 0 && done < grid.NumCells()
            ? elapsed / static_cast<double>(done) *
                  static_cast<double>(grid.NumCells() - done)
            : 0.0;
    if (ctx != nullptr) {
      ctx->metrics().counter("sweep/cells_evaluated")
          .Add(static_cast<uint64_t>(cells_per_model));
      ctx->metrics().gauge("sweep/cells_done")
          .Set(static_cast<double>(done));
      ctx->metrics().gauge("sweep/eta_seconds").Set(eta);
    }
    if (options.progress) {
      SweepProgress progress;
      progress.cells_done = done;
      progress.cells_total = grid.NumCells();
      progress.models_done = models_done;
      progress.models_total = static_cast<int>(grid.models.size());
      progress.model_name = ModelName(model);
      progress.elapsed_seconds = elapsed;
      progress.eta_seconds = eta;
      options.progress(progress);
    }
  }
  return cells;
}

}  // namespace hotspot
