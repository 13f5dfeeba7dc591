#include "core/score.h"

#include "obs/pipeline_context.h"
#include "tensor/temporal.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace hotspot {

Matrix<float> ComputeHourlyScore(const Tensor3<float>& kpis,
                                 const ScoreConfig& config) {
  HOTSPOT_CHECK_EQ(kpis.dim2(), config.num_indicators());
  const int n = kpis.dim0();
  const int hours = kpis.dim1();
  const int l = kpis.dim2();
  Matrix<float> score(n, hours, kUninitialized);
  // Parallel over sectors; sector i only writes score row i.
  util::ParallelFor(0, n, [&](int64_t i64) {
    const int i = static_cast<int>(i64);
    for (int j = 0; j < hours; ++j) {
      const float* slice = kpis.Slice(i, j);
      double tripped = 0.0;
      double available = 0.0;
      for (int k = 0; k < l; ++k) {
        float value = slice[k];
        if (IsMissing(value)) continue;
        const ScoreConfig::Indicator& indicator =
            config.indicators[static_cast<size_t>(k)];
        available += indicator.weight;
        bool bad = indicator.higher_is_worse
                       ? value > indicator.threshold
                       : value < indicator.threshold;
        if (bad) tripped += indicator.weight;
      }
      score.At(i, j) = available > 0.0
                           ? static_cast<float>(tripped / available)
                           : MissingValue();
    }
  });
  return score;
}

ScoreSet ComputeScores(const Tensor3<float>& kpis,
                       const ScoreConfig& config) {
  HOTSPOT_SPAN("score/compute");
  ScoreSet scores;
  scores.hourly = ComputeHourlyScore(kpis, config);
  scores.daily = IntegrateScores(scores.hourly, Resolution::kDaily);
  scores.weekly = IntegrateScores(scores.hourly, Resolution::kWeekly);
  return scores;
}

}  // namespace hotspot
