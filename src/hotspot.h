#ifndef HOTSPOT_HOTSPOT_H_
#define HOTSPOT_HOTSPOT_H_

/// Umbrella header: the public facade of the hot-spot forecasting library.
/// Applications (see examples/) include only this; the individual headers
/// below stay available for targeted includes inside the library itself.
///
///   simnet   — synthetic network generation (simnet::GenerateNetwork)
///   study    — the end-to-end preprocessing pipeline (BuildStudy)
///   forecast — models and the per-cell protocol (Forecaster, ModelKind)
///   eval     — ψ/lift scoring and sweeps (EvaluationRunner, RunSweep)
///   obs      — metrics, trace spans, snapshots (obs::PipelineContext)
///   serve    — model persistence and warm-start serving (ForecastBundle,
///              ForecastService)
///   monitor  — online drift / quality / latency health for the serving
///              path (ServingMonitor, HealthReport)
///   stream   — streaming KPI ingestion and incremental features feeding
///              the serving path end to end (KpiStreamIngestor,
///              IncrementalFeatureEngine)
///   pipeline — the backpressured, run-to-completion serving runtime
///              behind the unified facade (pipeline::ServingPipeline)
///   fleet    — sharded multi-replica serving with admission control and
///              RCU hot bundle swap (fleet::ForecastFleet, ShardMap)
///   adapt    — drift-triggered continual learning: shadow deployment and
///              champion/challenger promotion (adapt::AdaptationController)

#include "adapt/adaptation_controller.h"
#include "adapt/champion_challenger.h"
#include "core/config.h"
#include "core/dynamics.h"
#include "core/serving_ops.h"
#include "core/evaluation.h"
#include "core/forecast_service.h"
#include "core/forecaster.h"
#include "core/importance.h"
#include "core/labels.h"
#include "core/score.h"
#include "core/study.h"
#include "core/task.h"
#include "fleet/forecast_fleet.h"
#include "fleet/shard_map.h"
#include "io/csv_io.h"
#include "monitor/health.h"
#include "monitor/monitor.h"
#include "nn/imputer.h"
#include "obs/metrics.h"
#include "obs/pipeline_context.h"
#include "obs/snapshot.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "pipeline/serving_pipeline.h"
#include "serialize/bundle.h"
#include "serialize/model_io.h"
#include "simnet/generator.h"
#include "stats/average_precision.h"
#include "stats/confidence.h"
#include "stream/incremental_features.h"
#include "stream/kpi_stream.h"
#include "tensor/temporal.h"
#include "util/csv.h"

#endif  // HOTSPOT_HOTSPOT_H_
