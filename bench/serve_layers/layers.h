// Isolated per-layer measurements of the traced run: each public entry
// point replayed alone over the workload's own feed and model, so the
// composed pass's CPU can be split into layers plus hand-off overhead.
#ifndef HOTSPOT_BENCH_SERVE_LAYERS_LAYERS_H_
#define HOTSPOT_BENCH_SERVE_LAYERS_LAYERS_H_

#include <cstdint>

#include "fixture.h"
#include "trace.h"
#include "workloads.h"

namespace hotspot::bench {

struct ServingLayers {
  int64_t rows = 0;
  int batches = 0;
  double ingest_ns_per_row = 0.0;    ///< KpiStreamIngestor::Push (+ Flush)
  double features_ns_per_row = 0.0;  ///< IncrementalFeatureEngine::Consume
  double window_us_per_batch = 0.0;  ///< AssembleServingWindows
  double predict_us_per_batch = 0.0; ///< ForecastService::Predict, monitored
  /// Predict with monitoring on minus Predict with monitoring off.
  double monitor_us_per_batch = 0.0;
  double record_us_per_batch = 0.0;  ///< ForecastService::RecordOutcomes
  double extract_ns_per_sector = 0.0;  ///< RawExtractor::Extract
  double flat_scalar_ns_per_row = 0.0; ///< single-thread FlatForest kernels
  double flat_avx2_ns_per_row = 0.0;
  int flat_trees = 0;
  int64_t flat_row_bytes = 0;
  double compile_ms = 0.0;        ///< FlatForest::Compile
  double promote_idle_ms = 0.0;   ///< PromoteBundle on an idle service
  double clone_s = 0.0;           ///< serialize::CloneBundle
  double loadgen_ns_per_row = 0.0;  ///< the producer loop with no system
  int64_t wrong_batches = 0;      ///< isolated scores vs the reference
};

ServingLayers MeasureServingLayers(const Fixture& fixture, const Feed& feed,
                                   const Reference& reference,
                                   TraceLog* trace);

/// One TrainBundle of the fixture's shape, split by the library's own
/// "forecast/build_training_set" and "forecast/train" spans.
struct TrainingLayers {
  double train_s = 0.0;    ///< the whole TrainBundle call
  double extract_s = 0.0;  ///< training-window extraction and labels
  double fit_s = 0.0;      ///< the classifier fit
};

TrainingLayers MeasureTrainingLayers(const Fixture& fixture, TraceLog* trace);

}  // namespace hotspot::bench

#endif  // HOTSPOT_BENCH_SERVE_LAYERS_LAYERS_H_
