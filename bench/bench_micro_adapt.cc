// google-benchmark microbenchmarks of the continual-learning subsystem:
// streaming throughput with and without a live shadow challenger (the
// tee + second Predict path the closed loop pays while auditioning), and
// the cost of a full drift→retrain→promote episode.
//
// HOTSPOT_MICRO_SMOKE=1 switches to a seconds-scale correctness smoke
// (the ctest registration, label `adapt`) with three legs:
//
//   1. baseline — the champion alone through the serving pipeline (the
//      tail of the stream timed, once warm);
//   2. shadow — the same stream with an AdaptationController holding a
//      challenger in permanent shadow (every served batch shadow-scored,
//      and the adapt/ counters checked on the live run), plus a
//      single-threaded replay of exactly the work the taps add to the
//      serving worker: the replay over the baseline's phase busy-seconds
//      is the serving-path overhead percentage, which must stay ≤ 10 (the
//      budget DESIGN §14 promises; enforced in uninstrumented builds —
//      the shadow's own Predict runs in Poll(), off the serving path, and
//      is deliberately excluded);
//   3. closed loop — a real retrain from the engine's history, promotion
//      through the RCU path, the retrain wall time read back from the
//      adapt/retrain_seconds histogram and the promote-to-first-serve
//      latency from its gauge, and the flight log reconciled event by
//      event against the adapt/* counters.
//
// With HOTSPOT_BENCH_JSON=<path> the smoke exports the trajectory — the
// checked-in BENCH_micro_adapt.json. With HOTSPOT_OBS_JSON=<path> either
// mode exports the metrics snapshot (smoke: the closed-loop leg's).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "adapt/adaptation_controller.h"
#include "common.h"
#include "core/config.h"
#include "core/forecast_service.h"
#include "core/study.h"
#include "obs/flight_recorder.h"
#include "obs/pipeline_context.h"
#include "obs/snapshot.h"
#include "pipeline/serving_pipeline.h"
#include "serialize/bundle.h"
#include "simnet/generator.h"
#include "tensor/temporal.h"
#include "tensor/window_batch.h"
#include "util/stopwatch.h"

// Timing assertions only mean something without sanitizer
// instrumentation; under TSan/ASan/UBSan the smoke still runs every leg
// and reconciles every counter, but the overhead budget is reported
// rather than enforced.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define HOTSPOT_BENCH_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define HOTSPOT_BENCH_SANITIZED 1
#endif
#endif

namespace hotspot {
namespace {

using adapt::AdaptState;

/// The streaming fixture every leg reuses: a trained GBDT bundle over a
/// small synthetic study (the pipeline/fleet bench recipe); every run is
/// stamped from a clone of the same bundle, so legs are comparable.
struct AdaptFixture {
  Study study;
  std::unique_ptr<serialize::ForecastBundle> bundle;
  ForecastConfig config;

  AdaptFixture() {
    simnet::GeneratorConfig generator;
    generator.topology.target_sectors = 60;
    generator.topology.num_cities = 1;
    generator.weeks = 9;
    generator.seed = 11;
    study = BuildStudy(StudyInput(generator), StudyOptions{});
    config.model = ModelKind::kGbdt;
    config.t = 55;
    config.h = 1;
    config.w = 3;
    config.training_days = 10;
    config.gbdt.num_iterations = 10;
    config.gbdt.num_leaves = 15;
    config.gbdt.max_bins = 32;
    Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
    bundle = forecaster.TrainBundle(config);
    bundle->score = study.score_config;
  }

  pipeline::ServingPipeline::Options ServeOptions() const {
    pipeline::ServingPipeline::Options options;
    options.num_sectors = study.num_sectors();
    options.num_kpis = study.network.num_kpis();
    options.calendar = &study.network.calendar_matrix;
    options.score = study.score_config;
    options.history_weeks = study.num_weeks() + 1;
    return options;
  }
};

AdaptFixture& Fixture() {
  static AdaptFixture* fixture = new AdaptFixture();
  return *fixture;
}

/// Streams the whole study hour-major, polling `controller` (when given)
/// at every day close — a Poll() that trains holds the feed, as in the
/// tests — and once more after Finish(), so the batches served after the
/// last day close are shadow-scored too. Hours at and after
/// `tail_start_hour` are timed separately into `tail_seconds` — the
/// steady-state window the overhead comparison runs on. Returns rows.
int64_t StreamOnce(AdaptFixture& fixture, pipeline::ServingPipeline* serving,
                   adapt::AdaptationController* controller,
                   int tail_start_hour, double* tail_seconds,
                   std::vector<StreamingPrediction>* served) {
  const Tensor3<float>& kpis = fixture.study.network.kpis;
  int64_t rows = 0;
  Stopwatch tail_watch;
  double before_tail = 0.0;
  for (int j = 0; j < kpis.dim1(); ++j) {
    if (j == tail_start_hour) before_tail = tail_watch.ElapsedSeconds();
    for (int i = 0; i < kpis.dim0(); ++i) {
      serving->Push(i, j, kpis.Slice(i, j), kpis.dim2());
      ++rows;
    }
    if (controller != nullptr && (j + 1) % kHoursPerDay == 0) {
      controller->Poll();
    }
  }
  serving->Finish();
  if (tail_seconds != nullptr) {
    *tail_seconds = tail_watch.ElapsedSeconds() - before_tail;
  }
  if (controller != nullptr) controller->Poll();
  if (served != nullptr) *served = serving->TakePredictions();
  return rows;
}

/// Total wall time the worker spent inside the four serving phases (the
/// sum of the phase timers) — the serving path's own cost, excluding
/// ingress waits.
double ServingBusySeconds(const pipeline::ServingPipeline& serving) {
  double total = 0.0;
  for (const pipeline::StageStats& stage : serving.StageSnapshot()) {
    total += stage.busy_seconds;
  }
  return total;
}

/// The synchronous work the controller's taps add to the serving worker,
/// replayed single-threaded: one deep copy of the predict windows per
/// teed batch (the tee's allocation and per-window copies, from a strided
/// view like the engine's), and the per-batch/per-day score and label map
/// copies in the monitor phase. The shadow service's Predict is
/// deliberately absent — it runs in Poll(), on the caller's thread, off
/// the serving path; that is the point of the design. So is the one
/// training-slice cut per retrain, which the shadow leg never asks for.
/// This replay is the number the ≤ 10% budget governs: on a host with
/// fewer cores than threads, any wall measure of the live run charges
/// the shadow's CPU and the scheduler's churn to whichever handler was
/// preempted, which says nothing about what serving actually pays.
double TapReplaySeconds(const AdaptFixture& fixture, uint64_t shadow_batches,
                        uint64_t prediction_batches) {
  const Tensor3<float>& rows = fixture.study.features.tensor();
  const int window_hours = fixture.config.w * kHoursPerDay;
  const WindowBatch windows = WindowBatch::Of(rows, 0, window_hours);
  const size_t window_floats =
      static_cast<size_t>(window_hours) * static_cast<size_t>(rows.dim2());
  Stopwatch watch;
  float sink = 0.0f;
  for (uint64_t batch = 0; batch < shadow_batches; ++batch) {
    std::vector<float> copy;
    copy.reserve(window_floats * static_cast<size_t>(windows.count));
    for (int i = 0; i < windows.count; ++i) {
      copy.insert(copy.end(), windows.Window(i),
                  windows.Window(i) + window_floats);
    }
    sink += copy.back();
  }
  std::map<int, std::vector<float>> scores, labels;
  const std::vector<float> row(
      static_cast<size_t>(fixture.study.num_sectors()), 0.5f);
  for (uint64_t batch = 0; batch < prediction_batches; ++batch) {
    const int day = static_cast<int>(batch);
    scores[day] = row;  // the prediction tee's champion-score retention
    labels[day] = row;  // the outcome tee's matured-label retention
  }
  benchmark::DoNotOptimize(sink);
  benchmark::DoNotOptimize(scores);
  benchmark::DoNotOptimize(labels);
  return watch.ElapsedSeconds();
}

/// The trajectory the smoke exports.
struct AdaptTrajectory {
  int64_t rows = 0;
  double baseline_tail_seconds = 0.0;
  double shadow_tail_seconds = 0.0;
  double baseline_busy_seconds = 0.0;
  double shadow_busy_seconds = 0.0;
  double tap_replay_seconds = 0.0;
  double shadow_overhead_percent = 0.0;
  uint64_t shadow_batches = 0;
  double retrain_seconds = 0.0;
  double promote_to_first_serve_seconds = 0.0;
};

bool WriteAdaptJson(const std::string& path, const AdaptFixture& fixture,
                    const AdaptTrajectory& trajectory) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\n");
  std::fprintf(file, "  \"bench\": \"bench_micro_adapt\",\n");
  std::fprintf(file, "  \"trajectory\": \"continual_learning_loop\",\n");
  std::fprintf(file, "  \"sectors\": %d,\n", fixture.study.num_sectors());
  std::fprintf(file, "  \"hours\": %d,\n",
               fixture.study.network.num_hours());
  std::fprintf(file, "  \"rows\": %lld,\n",
               static_cast<long long>(trajectory.rows));
  std::fprintf(file, "  \"baseline_tail_seconds\": %.4f,\n",
               trajectory.baseline_tail_seconds);
  std::fprintf(file, "  \"shadow_tail_seconds\": %.4f,\n",
               trajectory.shadow_tail_seconds);
  std::fprintf(file, "  \"baseline_serving_busy_seconds\": %.4f,\n",
               trajectory.baseline_busy_seconds);
  std::fprintf(file, "  \"shadow_serving_busy_seconds\": %.4f,\n",
               trajectory.shadow_busy_seconds);
  std::fprintf(file, "  \"tap_replay_seconds\": %.4f,\n",
               trajectory.tap_replay_seconds);
  std::fprintf(file, "  \"shadow_overhead_percent\": %.2f,\n",
               trajectory.shadow_overhead_percent);
  std::fprintf(file, "  \"shadow_overhead_budget_percent\": 10.0,\n");
  std::fprintf(file, "  \"shadow_batches\": %llu,\n",
               static_cast<unsigned long long>(trajectory.shadow_batches));
  std::fprintf(file, "  \"retrain_seconds\": %.4f,\n",
               trajectory.retrain_seconds);
  std::fprintf(file, "  \"promote_to_first_serve_seconds\": %.6f,\n",
               trajectory.promote_to_first_serve_seconds);
  std::fprintf(file,
               "  \"contract\": \"the predict tee copies each batch's "
               "windows and Poll() scores them with the shadow on the "
               "caller's thread, so champion serving stays "
               "bitwise-identical until PromoteBundle; the serving path "
               "pays only the taps' synchronous work (window copy, "
               "score/label retention), measured by single-threaded "
               "replay against the baseline phase busy-seconds, within "
               "the 10%% budget; a retrain from a slice of the engine's "
               "own history and an RCU promotion close the loop\"\n");
  std::fprintf(file, "}\n");
  std::fclose(file);
  return true;
}

/// Replays the flight log's kAdaptTransition chain against the adapt/*
/// counters and the controller's report; returns the number of
/// mismatches.
int ReconcileFlightLog(obs::PipelineContext* context,
                       const adapt::AdaptReport& report) {
  int failures = 0;
  auto check = [&failures](const char* what, uint64_t actual,
                           uint64_t expected) {
    if (actual != expected) {
      std::fprintf(stderr, "FAIL: %s = %llu, expected %llu\n", what,
                   static_cast<unsigned long long>(actual),
                   static_cast<unsigned long long>(expected));
      ++failures;
    }
  };
  check("flight dropped", context->flight().dropped(), 0);
  uint64_t transitions = 0, retrainings = 0, promotions = 0, rollbacks = 0;
  int64_t previous = static_cast<int64_t>(AdaptState::kIdle);
  for (const obs::FlightEventRecord& event : context->flight().Snapshot()) {
    if (event.kind != obs::FlightEventKind::kAdaptTransition) continue;
    ++transitions;
    if (event.a != previous) {
      std::fprintf(stderr, "FAIL: disconnected ladder walk (%lld -> %lld)\n",
                   static_cast<long long>(previous),
                   static_cast<long long>(event.a));
      ++failures;
    }
    previous = event.b;
    switch (static_cast<AdaptState>(event.b)) {
      case AdaptState::kRetraining: ++retrainings; break;
      case AdaptState::kPromoted: ++promotions; break;
      case AdaptState::kRolledBack: ++rollbacks; break;
      default: break;
    }
  }
  obs::MetricsRegistry& metrics = context->metrics();
  check("adapt/transitions", metrics.counter("adapt/transitions").Total(),
        transitions);
  check("adapt/retrains", metrics.counter("adapt/retrains").Total(),
        retrainings);
  check("report.retrains", report.retrains, retrainings);
  check("adapt/promotions", metrics.counter("adapt/promotions").Total(),
        promotions);
  check("report.promotions", report.promotions, promotions);
  check("adapt/rollbacks", metrics.counter("adapt/rollbacks").Total(),
        rollbacks);
  check("report.rollbacks", report.rollbacks, rollbacks);
  return failures;
}

/// Seconds-scale smoke: the three legs, the counter/flight cross-checks,
/// the trajectory export.
int Smoke() {
  AdaptFixture& fixture = Fixture();
  // The tail window starts once a shadow episode is guaranteed live in
  // the shadow leg: the always-armed trigger fires at the first day
  // close, and Poll() stands the clone challenger up before returning,
  // before the first batch is served.
  const int tail_start_hour = 3 * kHoursPerWeek;
  AdaptTrajectory trajectory;
  int failures = 0;

  // Timing repeats: a single tail on this deliberately small study is
  // tens of milliseconds, where one scheduler hiccup reads as
  // double-digit "overhead". Every timed quantity takes the best of a
  // few repeats, and the enforced ratio pairs each replay with an
  // adjacent baseline run so a uniformly slow patch of machine time
  // cancels out of the quotient.
  constexpr int kTimingRepeats = 3;
  constexpr int kPairedRepeats = 5;

  // Leg 1: the stream with a challenger in permanent shadow — the
  // verdict gates are parked out of reach, so the whole tail is scored
  // twice (champion on the serving path, challenger on the tee). Runs
  // first so the replay below knows the realized batch counts.
  trajectory.shadow_tail_seconds = 1e9;
  trajectory.shadow_busy_seconds = 1e9;
  uint64_t prediction_batches = 0;
  for (int repeat = 0; repeat < kTimingRepeats; ++repeat) {
    obs::PipelineContext context;
    obs::PipelineContext::ScopedInstall install(&context);
    ForecastService service(serialize::CloneBundle(*fixture.bundle));
    adapt::AdaptOptions options;
    options.train = fixture.config;
    options.policy.trigger = monitor::AlertState::kOk;  // always armed
    options.policy.min_shadow_days = 1000000;           // never conclude
    options.policy.max_shadow_days = 1000000;
    options.challenger_for_test =
        [](const serialize::ForecastBundle& champion) {
          return serialize::CloneBundle(champion);
        };
    adapt::AdaptationController controller(&service, options);
    double tail_seconds = 0.0;
    std::vector<StreamingPrediction> served;
    {
      pipeline::ServingPipeline::Options serve_options =
          fixture.ServeOptions();
      controller.AttachTaps(&serve_options);
      pipeline::ServingPipeline serving(&service, serve_options);
      StreamOnce(fixture, &serving, &controller, tail_start_hour,
                 &tail_seconds, &served);
      trajectory.shadow_busy_seconds = std::min(
          trajectory.shadow_busy_seconds, ServingBusySeconds(serving));
    }
    trajectory.shadow_tail_seconds =
        std::min(trajectory.shadow_tail_seconds, tail_seconds);
    prediction_batches = static_cast<uint64_t>(served.size());
    if (controller.state() != AdaptState::kShadowing) {
      std::fprintf(stderr, "FAIL: shadow leg ended in %s, not kShadowing\n",
                   adapt::AdaptStateName(controller.state()));
      ++failures;
    }
    obs::MetricsRegistry& metrics = context.metrics();
    trajectory.shadow_batches =
        metrics.counter("adapt/shadow_batches").Total();
    const uint64_t shadow_rows =
        metrics.counter("adapt/shadow_rows").Total();
    if (trajectory.shadow_batches == 0) {
      std::fprintf(stderr, "FAIL: shadow never scored a batch\n");
      ++failures;
    }
    if (shadow_rows != trajectory.shadow_batches *
                           static_cast<uint64_t>(fixture.study.num_sectors())) {
      std::fprintf(stderr, "FAIL: shadow_rows %llu != batches x sectors\n",
                   static_cast<unsigned long long>(shadow_rows));
      ++failures;
    }
    // The shadow is live before the first batch is served, and the last
    // Poll() scores what the tee copied since the one before it.
    if (trajectory.shadow_batches != prediction_batches) {
      std::fprintf(stderr, "FAIL: shadow scored %llu of %llu batches\n",
                   static_cast<unsigned long long>(trajectory.shadow_batches),
                   static_cast<unsigned long long>(prediction_batches));
      ++failures;
    }
  }
  // Leg 2: paired baseline + tap replay. Each pair runs back to back;
  // the minimum replay/busy ratio across pairs is the enforced
  // serving-path overhead.
  trajectory.baseline_tail_seconds = 1e9;
  trajectory.baseline_busy_seconds = 1e9;
  trajectory.tap_replay_seconds = 1e9;
  double best_ratio = 1e9;
  for (int repeat = 0; repeat < kPairedRepeats; ++repeat) {
    double busy_seconds = 0.0;
    {
      obs::PipelineContext context;
      obs::PipelineContext::ScopedInstall install(&context);
      ForecastService service(serialize::CloneBundle(*fixture.bundle));
      pipeline::ServingPipeline serving(&service, fixture.ServeOptions());
      double tail_seconds = 0.0;
      trajectory.rows = StreamOnce(fixture, &serving, nullptr,
                                   tail_start_hour, &tail_seconds, nullptr);
      busy_seconds = ServingBusySeconds(serving);
      trajectory.baseline_tail_seconds =
          std::min(trajectory.baseline_tail_seconds, tail_seconds);
      trajectory.baseline_busy_seconds =
          std::min(trajectory.baseline_busy_seconds, busy_seconds);
    }
    const double replay_seconds = TapReplaySeconds(
        fixture, trajectory.shadow_batches, prediction_batches);
    trajectory.tap_replay_seconds =
        std::min(trajectory.tap_replay_seconds, replay_seconds);
    best_ratio = std::min(best_ratio, replay_seconds / busy_seconds);
  }
  trajectory.shadow_overhead_percent = 100.0 * best_ratio;
  std::printf("baseline: %lld rows, tail %.3fs, serving busy %.3fs "
              "(best of %d)\n",
              static_cast<long long>(trajectory.rows),
              trajectory.baseline_tail_seconds,
              trajectory.baseline_busy_seconds, kPairedRepeats);
  std::printf("shadow: tail %.3fs, serving busy %.3fs, tap replay %.3fs "
              "-> serving-path overhead %.2f%% (%llu batches teed)\n",
              trajectory.shadow_tail_seconds, trajectory.shadow_busy_seconds,
              trajectory.tap_replay_seconds,
              trajectory.shadow_overhead_percent,
              static_cast<unsigned long long>(trajectory.shadow_batches));
#if !defined(HOTSPOT_BENCH_SANITIZED)
  if (trajectory.shadow_overhead_percent > 10.0) {
    std::fprintf(stderr,
                 "FAIL: serving-path shadow overhead %.2f%% > 10%% budget\n",
                 trajectory.shadow_overhead_percent);
    ++failures;
  }
#endif

  // Leg 3: the loop closed for real — retrain from the engine's history,
  // permissive promotion gates (the bench measures cost, not the
  // verdict), guard disarmed, flight log reconciled at quiesce.
  {
    obs::PipelineContext context;
    obs::PipelineContext::ScopedInstall install(&context);
    ForecastService service(serialize::CloneBundle(*fixture.bundle));
    adapt::AdaptOptions options;
    options.train = fixture.config;
    options.policy.trigger = monitor::AlertState::kOk;  // always armed
    options.policy.training_days = 10;
    options.policy.min_shadow_days = 2;
    options.policy.min_compared_rows = 48;
    options.policy.max_shadow_days = 14;
    options.policy.comparison.min_lift_delta = -1e9;
    options.policy.comparison.require_ci_separation = false;
    options.policy.guard_days = 1;
    options.policy.rollback_lift_margin = 1e9;  // never roll back
    options.policy.cooldown_days = 1000;        // one episode
    adapt::AdaptationController controller(&service, options);
    std::vector<StreamingPrediction> served;
    {
      pipeline::ServingPipeline::Options serve_options =
          fixture.ServeOptions();
      controller.AttachTaps(&serve_options);
      pipeline::ServingPipeline serving(&service, serve_options);
      StreamOnce(fixture, &serving, &controller, fixture.study.num_days(),
                 nullptr, &served);
    }
    adapt::AdaptReport report = controller.Report();
    if (report.promotions != 1) {
      std::fprintf(stderr, "FAIL: closed loop promoted %u times, want 1\n",
                   report.promotions);
      ++failures;
    }
    uint64_t challenger_rows = 0;
    for (const StreamingPrediction& prediction : served) {
      if (prediction.generation != 0) {
        challenger_rows += prediction.scores.size();
      }
    }
    if (report.promotions == 1 && challenger_rows == 0) {
      std::fprintf(stderr, "FAIL: promotion never reached serving\n");
      ++failures;
    }
    obs::MetricsRegistry& metrics = context.metrics();
    const uint64_t retrain_count =
        metrics.histogram("adapt/retrain_seconds").Count();
    if (retrain_count == 0) {
      std::fprintf(stderr, "FAIL: no retrain recorded\n");
      ++failures;
    } else {
      trajectory.retrain_seconds =
          metrics.histogram("adapt/retrain_seconds").Sum() /
          static_cast<double>(retrain_count);
    }
    trajectory.promote_to_first_serve_seconds =
        metrics.gauge("adapt/promote_to_first_serve_seconds").Value();
    if (trajectory.promote_to_first_serve_seconds <= 0.0) {
      std::fprintf(stderr, "FAIL: promote-to-first-serve latency missing\n");
      ++failures;
    }
    failures += ReconcileFlightLog(&context, report);
    std::printf("closed loop: retrain %.3fs, promote-to-first-serve %.3fms, "
                "%llu challenger rows served\n",
                trajectory.retrain_seconds,
                1e3 * trajectory.promote_to_first_serve_seconds,
                static_cast<unsigned long long>(challenger_rows));

    if (const char* path = std::getenv("HOTSPOT_OBS_JSON")) {
      const obs::Snapshot snapshot = obs::TakeSnapshot(context);
      if (!obs::WriteSnapshotJson(snapshot, path)) {
        std::fprintf(stderr, "FAIL: could not write %s\n", path);
        ++failures;
      } else {
        std::printf("obs snapshot: %s\n", path);
      }
    }
  }

  if (const char* path = std::getenv("HOTSPOT_BENCH_JSON")) {
    if (!WriteAdaptJson(path, fixture, trajectory)) {
      std::fprintf(stderr, "FAIL: could not write %s\n", path);
      ++failures;
    } else {
      std::printf("bench trajectory: %s\n", path);
    }
  }
  std::printf("result: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

void BM_AdaptBaselineServe(benchmark::State& state) {
  AdaptFixture& fixture = Fixture();
  int64_t rows = 0;
  for (auto _ : state) {
    ForecastService service(serialize::CloneBundle(*fixture.bundle));
    pipeline::ServingPipeline serving(&service, fixture.ServeOptions());
    rows += StreamOnce(fixture, &serving, nullptr, 0, nullptr, nullptr);
  }
  state.SetItemsProcessed(rows);
}
BENCHMARK(BM_AdaptBaselineServe);

void BM_AdaptShadowServe(benchmark::State& state) {
  AdaptFixture& fixture = Fixture();
  int64_t rows = 0;
  for (auto _ : state) {
    ForecastService service(serialize::CloneBundle(*fixture.bundle));
    adapt::AdaptOptions options;
    options.train = fixture.config;
    options.policy.trigger = monitor::AlertState::kOk;
    options.policy.min_shadow_days = 1000000;
    options.policy.max_shadow_days = 1000000;
    options.challenger_for_test =
        [](const serialize::ForecastBundle& champion) {
          return serialize::CloneBundle(champion);
        };
    adapt::AdaptationController controller(&service, options);
    pipeline::ServingPipeline::Options serve_options = fixture.ServeOptions();
    controller.AttachTaps(&serve_options);
    {
      pipeline::ServingPipeline serving(&service, serve_options);
      rows += StreamOnce(fixture, &serving, &controller, 0, nullptr, nullptr);
    }
  }
  state.SetItemsProcessed(rows);
}
BENCHMARK(BM_AdaptShadowServe);

}  // namespace
}  // namespace hotspot

int main(int argc, char** argv) {
  if (std::getenv("HOTSPOT_MICRO_SMOKE") != nullptr) {
    return hotspot::Smoke();
  }
  // Benchmark mode: a live context when HOTSPOT_OBS_JSON asks for the
  // snapshot, so the measured path is the instrumented one.
  hotspot::bench::ObsSession session;
  hotspot::obs::PipelineContext::ScopedInstall install(session.context());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
