#ifndef HOTSPOT_CORE_SERVING_OPS_H_
#define HOTSPOT_CORE_SERVING_OPS_H_

#include <cstdint>
#include <vector>

#include "stream/incremental_features.h"
#include "tensor/tensor3.h"

namespace hotspot {

/// One served streaming batch: scores for the windows ending at `end_day`
/// (one per sector, sector-id order), forecasting day `target_day` =
/// end_day + the bundle's horizon.
struct StreamingPrediction {
  int end_day = 0;
  int target_day = 0;
  std::vector<float> scores;
  /// Generation tag of the bundle that scored this batch
  /// (ForecastService::generation() at serve time) — how fleet callers
  /// prove which model served each row across RCU hot swaps.
  uint64_t generation = 0;
  /// Telemetry metadata: steady-clock nanoseconds at which the oldest raw
  /// KPI row contributing to this batch entered the serving stack
  /// (pipeline ingress, or fleet admission when served through a fleet);
  /// 0 when the producer did not stamp it. Feeds the
  /// pipeline/stageK/residency_seconds and fleet/shardK/e2e_seconds
  /// histograms; excluded from every equivalence contract — scores are
  /// bitwise-identical whether or not blocks are stamped.
  uint64_t born_ns = 0;
};

/// Cuts the per-sector serving windows (Eq. 6) ending at `end_day` out of
/// the engine's finalized history into a sectors x window_hours x channels
/// tensor — the exact input ForecastService::Predict scores. Fans out over
/// the thread pool; sector i only writes its own slab, so the assembled
/// tensor is bitwise-independent of the thread count. The span
/// [24*end_day - window_hours, 24*end_day) must be finalized and within
/// the engine's retention for every sector.
///
/// The pipeline::ServingPipeline's window-assembly primitive —
/// one implementation shared with direct callers (tests, tools) is what
/// keeps streamed and batch scores bitwise-identical by construction.
Tensor3<float> AssembleServingWindows(
    const stream::IncrementalFeatureEngine& engine, int window_hours,
    int end_day);

/// Gathers the matured daily hot-spot labels of `day` (Eq. 4 ground truth)
/// for every sector, in sector-id order — the outcome vector fed back to
/// ForecastService::RecordOutcomes. Every sector must have closed `day`
/// (engine.min_closed_days() > day) and the day must be within retention.
std::vector<float> GatherDayLabels(
    const stream::IncrementalFeatureEngine& engine, int day);

}  // namespace hotspot

#endif  // HOTSPOT_CORE_SERVING_OPS_H_
