#ifndef HOTSPOT_BENCH_COMMON_H_
#define HOTSPOT_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "core/study.h"
#include "obs/pipeline_context.h"

namespace hotspot::bench {

/// Common knobs of the reproduction benches. Benches are sized so that the
/// full suite completes on one laptop core; set HOTSPOT_BENCH_SECTORS /
/// HOTSPOT_BENCH_SEED env vars to override. The paper operates at tens of
/// thousands of sectors; see EXPERIMENTS.md for the scale notes.
struct BenchOptions {
  int sectors = 500;
  int weeks = 18;
  uint64_t seed = 20170418;
};

/// Reads env overrides into `defaults`.
BenchOptions ParseOptions(BenchOptions defaults = {});

/// Builds the standard bench study (forward-fill imputation; see
/// bench_fig05/bench_abl_imputation for the autoencoder path, which is the
/// paper's method but too slow to run inside every bench). Pass a context
/// to capture the study stages' spans and metrics.
Study MakeStudy(const BenchOptions& options, double emerging_fraction = -1.0,
                obs::PipelineContext* context = nullptr);

/// Bench-wide observability session, keyed off the HOTSPOT_OBS_JSON env
/// var: when it is set, context() returns a live PipelineContext (pass it
/// into MakeStudy / SweepOptions / StudyOptions, or install it with
/// PipelineContext::ScopedInstall) and the destructor writes its snapshot
/// to that path through obs::WriteSnapshotJson, one JSON line, reporting
/// success or failure on stderr. When the var is unset, context() is null
/// and the benches run with observability off.
class ObsSession {
 public:
  ObsSession();
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  obs::PipelineContext* context() { return context_.get(); }

 private:
  std::unique_ptr<obs::PipelineContext> context_;
  std::string json_path_;
};

/// Prints the bench banner: what paper artifact this reproduces and at
/// which scale.
void PrintHeader(const std::string& title, const std::string& paper_ref,
                 const BenchOptions& options);

/// Classifier settings used by the forecasting benches: modest forest and
/// pooled training days — the documented adaptation from the paper's
/// tens-of-thousands-of-sectors regime to bench scale.
ForecastConfig BenchForecastConfig();

/// Formats a MeanCi as "m [lo, hi]".
std::string FormatCi(double mean, double lo, double hi);

}  // namespace hotspot::bench

#endif  // HOTSPOT_BENCH_COMMON_H_
