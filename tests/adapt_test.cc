// Lockdown tests for the continual-learning subsystem (src/adapt):
//   * FeatureCapture — the rolling training corpus rebuilt from the live
//     serving path must be bitwise the batch study's tensors;
//   * champion/challenger comparison — paired-bootstrap verdict semantics
//     on synthetic rankings, including the degenerate no-positives case;
//   * paired percentile bootstrap — determinism and CI sanity;
//   * bundle lineage — codec round trip of the retrain provenance;
//   * end-to-end closed loop — a served stream whose network shifted away
//     from the champion's training era must walk kIdle → kRetraining →
//     kShadowing → kPromoted → kIdle with the challenger genuinely
//     beating the champion on matured-label lift, pre-promotion
//     predictions bitwise-identical to a controller-free run, and the
//     flight log reconciling every transition against the adapt/*
//     counters;
//   * fault drills — an injected regressing challenger must be promoted
//     and then rolled back inside the guard window; an injected
//     no-better challenger must be rejected at the maximum shadow age
//     and start the cooldown.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "adapt/adaptation_controller.h"
#include "adapt/capture.h"
#include "adapt/champion_challenger.h"
#include "core/forecast_service.h"
#include "core/study.h"
#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obs/pipeline_context.h"
#include "pipeline/serving_pipeline.h"
#include "serialize/bundle.h"
#include "stats/bootstrap.h"
#include "tensor/temporal.h"
#include "util/rng.h"

namespace hotspot {
namespace {

using adapt::AdaptState;

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

simnet::GeneratorConfig AdaptNetworkConfig() {
  simnet::GeneratorConfig config;
  config.topology.target_sectors = 48;
  config.topology.num_cities = 1;
  config.weeks = 9;
  config.seed = 20260808;
  return config;
}

/// The champion's training era: the unmodified network.
const Study& ControlStudy() {
  static const Study* study =
      new Study(BuildStudy(StudyInput(AdaptNetworkConfig())));
  return *study;
}

/// The serving era: same topology and seed, but the latent load process
/// reassigned — a different subset of sectors is now chronically
/// overloaded, so both the KPI marginals and the hot-spot label
/// assignment moved away from the champion's training distribution.
const Study& ShiftedStudy() {
  static const Study* study = [] {
    simnet::GeneratorConfig config = AdaptNetworkConfig();
    config.load.chronic_fraction = 0.6;
    config.load.chronic_min = 1.5;
    config.load.chronic_max = 2.5;
    return new Study(BuildStudy(StudyInput(config)));
  }();
  return *study;
}

ForecastConfig ChampionConfig() {
  ForecastConfig config;
  config.model = ModelKind::kGbdt;
  config.t = 55;
  config.h = 1;
  config.w = 3;
  config.training_days = 10;
  config.seed = 17;
  config.gbdt.num_iterations = 10;
  config.gbdt.num_leaves = 15;
  config.gbdt.max_bins = 32;
  return config;
}

std::unique_ptr<serialize::ForecastBundle> TrainChampion(const Study& study) {
  Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
  std::unique_ptr<serialize::ForecastBundle> bundle =
      forecaster.TrainBundle(ChampionConfig());
  bundle->score = study.score_config;
  return bundle;
}

pipeline::ServingPipeline::Options ServeOptionsFor(const Study& study) {
  pipeline::ServingPipeline::Options options;
  options.num_sectors = study.num_sectors();
  options.num_kpis = study.network.num_kpis();
  options.calendar = &study.network.calendar_matrix;
  options.score = study.score_config;
  options.history_weeks = study.num_weeks() + 1;
  return options;
}

/// Streams `kpis` hour-major through the pipeline, polling the controller
/// at every day close. While a retrain is in flight the feed pauses until
/// the worker hands off — that pins the shadow episode's day span to the
/// stream clock instead of the scheduler's.
void StreamWithPolls(const Tensor3<float>& kpis,
                     pipeline::ServingPipeline* serving,
                     adapt::AdaptationController* controller,
                     std::vector<AdaptState>* states) {
  for (int j = 0; j < kpis.dim1(); ++j) {
    for (int i = 0; i < kpis.dim0(); ++i) {
      EXPECT_TRUE(serving->Push(i, j, kpis.Slice(i, j), kpis.dim2()));
    }
    if ((j + 1) % kHoursPerDay != 0) continue;
    AdaptState state = controller->Poll();
    if (state == AdaptState::kRetraining) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(120);
      while (controller->state() == AdaptState::kRetraining &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      EXPECT_NE(controller->state(), AdaptState::kRetraining)
          << "retrain worker stuck past the deadline";
    }
    states->push_back(controller->state());
  }
}

/// Every adapt-ladder edge in the flight log must reconcile with the
/// adapt/* counters and the controller's own report: the log is a
/// connected walk starting at kIdle, and the per-edge counts match the
/// counters exactly.
void ReconcileFlightLog(obs::PipelineContext* context,
                        const adapt::AdaptReport& report) {
  EXPECT_EQ(context->flight().dropped(), 0u);
  uint64_t transitions = 0;
  uint64_t into_retraining = 0;
  uint64_t into_shadowing = 0;
  uint64_t into_promoted = 0;
  uint64_t into_rolled_back = 0;
  uint64_t into_rejected = 0;
  int64_t previous = static_cast<int64_t>(AdaptState::kIdle);
  for (const obs::FlightEventRecord& event : context->flight().Snapshot()) {
    if (event.kind != obs::FlightEventKind::kAdaptTransition) continue;
    ++transitions;
    EXPECT_EQ(event.a, previous) << "disconnected ladder walk";
    previous = event.b;
    switch (static_cast<AdaptState>(event.b)) {
      case AdaptState::kRetraining:
        ++into_retraining;
        break;
      case AdaptState::kShadowing:
        ++into_shadowing;
        break;
      case AdaptState::kPromoted:
        ++into_promoted;
        break;
      case AdaptState::kRolledBack:
        ++into_rolled_back;
        break;
      case AdaptState::kRejected:
        ++into_rejected;
        break;
      case AdaptState::kIdle:
        break;
    }
  }
  obs::MetricsRegistry& metrics = context->metrics();
  EXPECT_EQ(transitions, metrics.counter("adapt/transitions").Total());
  EXPECT_EQ(into_retraining, metrics.counter("adapt/retrains").Total());
  EXPECT_EQ(into_retraining, report.retrains);
  EXPECT_EQ(into_shadowing,
            into_retraining -
                metrics.counter("adapt/retrain_failures").Total());
  EXPECT_EQ(into_promoted, metrics.counter("adapt/promotions").Total());
  EXPECT_EQ(into_promoted, report.promotions);
  EXPECT_EQ(into_rolled_back, metrics.counter("adapt/rollbacks").Total());
  EXPECT_EQ(into_rolled_back, report.rollbacks);
  EXPECT_EQ(into_rejected, metrics.counter("adapt/rejections").Total());
  EXPECT_EQ(into_rejected, report.rejections);
}

// ---------------------------------------------------------------------------
// FeatureCapture
// ---------------------------------------------------------------------------

TEST(FeatureCapture, SnapshotRebuildsBatchTrainingInputsBitwise) {
  const Study& study = ControlStudy();
  const Tensor3<float>& batch = study.features.tensor();
  const int num_kpis = study.network.num_kpis();

  adapt::CaptureConfig config;
  config.num_sectors = study.num_sectors();
  config.num_kpis = num_kpis;
  config.capture_weeks = 4;
  adapt::FeatureCapture capture(config);
  ASSERT_EQ(capture.channels(), batch.dim2());

  // Nothing captured yet: a snapshot must refuse, not fabricate.
  adapt::TrainingSlice slice;
  EXPECT_FALSE(capture.Snapshot(1, &slice));

  // Feed the study's finalized feature rows in the engine's order.
  for (int j = 0; j < batch.dim1(); ++j) {
    for (int i = 0; i < batch.dim0(); ++i) {
      capture.OnRow(i, j, batch.Slice(i, j), batch.dim2());
    }
  }
  EXPECT_EQ(capture.min_captured_hours(), batch.dim1());

  ASSERT_TRUE(capture.Snapshot(config.capture_weeks * kDaysPerWeek, &slice));
  EXPECT_EQ(slice.num_days, config.capture_weeks * kDaysPerWeek);
  EXPECT_EQ(slice.base_day, study.num_days() - slice.num_days);

  // The rebuilt feature tensor is bitwise the tail of the batch tensor —
  // no second feature path exists to diverge.
  const Tensor3<float>& rebuilt = slice.features.tensor();
  ASSERT_EQ(rebuilt.dim0(), batch.dim0());
  ASSERT_EQ(rebuilt.dim1(), slice.num_days * kHoursPerDay);
  ASSERT_EQ(rebuilt.dim2(), batch.dim2());
  const int base_hour = slice.base_day * kHoursPerDay;
  for (int i = 0; i < batch.dim0(); ++i) {
    for (int j = 0; j < rebuilt.dim1(); ++j) {
      ASSERT_EQ(std::memcmp(rebuilt.Slice(i, j),
                            batch.Slice(i, base_hour + j),
                            static_cast<size_t>(batch.dim2()) *
                                sizeof(float)),
                0)
          << "sector " << i << " hour " << j;
    }
  }

  // The daily score and label matrices are exact reconstructions of the
  // study's — up(S^d) and up(Y^d) are constant within a day.
  for (int i = 0; i < batch.dim0(); ++i) {
    for (int d = 0; d < slice.num_days; ++d) {
      EXPECT_EQ(slice.daily_scores.At(i, d),
                study.scores.daily.At(i, slice.base_day + d));
      EXPECT_EQ(slice.target_labels.At(i, d),
                study.daily_labels.At(i, slice.base_day + d));
    }
  }

  // A snapshot deeper than the ring keeps refusing.
  EXPECT_FALSE(
      capture.Snapshot(config.capture_weeks * kDaysPerWeek + 1, &slice));
}

TEST(FeatureCapture, SnapshotMidWeekRoundsInwardToWholeDays) {
  // The engine emits a sector's rows a week at a time, and the retrain
  // thread can snapshot while a sector is part-way through its week, off
  // the day grid: the span every sector holds rounds inward to whole days.
  const Study& study = ControlStudy();
  const Tensor3<float>& batch = study.features.tensor();
  adapt::CaptureConfig config;
  config.num_sectors = 2;
  config.num_kpis = study.network.num_kpis();
  config.capture_weeks = 2;
  adapt::FeatureCapture capture(config);
  int frontier[2] = {0, 0};
  auto feed = [&](int sector, int end_hour) {
    for (int& j = frontier[sector]; j < end_hour; ++j) {
      capture.OnRow(sector, j, batch.Slice(sector, j), batch.dim2());
    }
  };
  auto expect_span = [&](int base_day, int num_days) {
    adapt::TrainingSlice slice;
    ASSERT_TRUE(capture.Snapshot(1, &slice));
    EXPECT_EQ(slice.base_day, base_day);
    ASSERT_EQ(slice.num_days, num_days);
    const Tensor3<float>& rebuilt = slice.features.tensor();
    for (int i = 0; i < 2; ++i) {
      for (int j = 0; j < rebuilt.dim1(); ++j) {
        ASSERT_EQ(std::memcmp(rebuilt.Slice(i, j),
                              batch.Slice(i, base_day * kHoursPerDay + j),
                              static_cast<size_t>(batch.dim2()) *
                                  sizeof(float)),
                  0)
            << "sector " << i << " hour " << j;
      }
    }
  };
  // The slowest sector is 5 rows into its third week: the span ends at
  // its last whole day (hour 336) and starts where the fastest sector's
  // two-week ring begins (hour 168).
  feed(0, 3 * kHoursPerWeek);
  feed(1, 2 * kHoursPerWeek + 5);
  expect_span(7, 7);
  // The fastest sector is 5 rows into its fourth week: its ring now
  // starts at hour 173, so the span starts at the next whole day.
  feed(0, 3 * kHoursPerWeek + 5);
  expect_span(8, 6);
}

// ---------------------------------------------------------------------------
// Champion/challenger comparison
// ---------------------------------------------------------------------------

adapt::ComparisonSample RankedSample(int rows) {
  adapt::ComparisonSample sample;
  for (int i = 0; i < rows; ++i) {
    const bool hot = i % 4 == 0;
    sample.labels.push_back(hot ? 1.0f : 0.0f);
    // Challenger ranks perfectly (tie-free); champion anti-ranks.
    sample.challenger.push_back((hot ? 0.8f : 0.2f) +
                                0.0005f * static_cast<float>(i));
    sample.champion.push_back((hot ? 0.2f : 0.8f) +
                              0.0005f * static_cast<float>(i));
  }
  sample.days = 4;
  return sample;
}

TEST(ChampionChallenger, PerfectChallengerWinsWithCiSeparation) {
  adapt::ComparisonSample sample = RankedSample(256);
  adapt::ComparisonPolicy policy;
  ASSERT_TRUE(policy.require_ci_separation);
  adapt::ComparisonVerdict verdict =
      adapt::CompareChampionChallenger(sample, policy);
  EXPECT_EQ(verdict.days, 4);
  EXPECT_EQ(verdict.rows, 256u);
  EXPECT_GT(verdict.challenger_ap, 0.99);
  EXPECT_LT(verdict.champion_ap, 0.5);
  EXPECT_GT(verdict.lift_delta, 0.0);
  EXPECT_GT(verdict.ap_delta, 0.0);
  EXPECT_GT(verdict.lift_delta_ci.ci_low, 0.0);
  EXPECT_LE(verdict.lift_delta_ci.ci_low, verdict.lift_delta_ci.ci_high);
  EXPECT_TRUE(verdict.challenger_wins);

  // The verdict is deterministic: the bootstrap stream is seeded.
  adapt::ComparisonVerdict again =
      adapt::CompareChampionChallenger(sample, policy);
  EXPECT_EQ(verdict.lift_delta_ci.ci_low, again.lift_delta_ci.ci_low);
  EXPECT_EQ(verdict.lift_delta_ci.ci_high, again.lift_delta_ci.ci_high);
}

TEST(ChampionChallenger, IdenticalModelsNeverWin) {
  adapt::ComparisonSample sample = RankedSample(128);
  sample.champion = sample.challenger;
  adapt::ComparisonVerdict verdict = adapt::CompareChampionChallenger(
      sample, adapt::ComparisonPolicy{});
  EXPECT_EQ(verdict.lift_delta, 0.0);
  EXPECT_FALSE(verdict.challenger_wins);
}

TEST(ChampionChallenger, NoPositiveLabelsNeverWins) {
  adapt::ComparisonSample sample = RankedSample(64);
  std::fill(sample.labels.begin(), sample.labels.end(), 0.0f);
  adapt::ComparisonPolicy policy;
  policy.min_lift_delta = -1e9;  // even the laxest gate must refuse
  policy.require_ci_separation = false;
  adapt::ComparisonVerdict verdict =
      adapt::CompareChampionChallenger(sample, policy);
  EXPECT_FALSE(verdict.challenger_wins);
}

// ---------------------------------------------------------------------------
// Paired percentile bootstrap
// ---------------------------------------------------------------------------

TEST(Bootstrap, DeterministicCiBracketsTheEstimate) {
  std::vector<double> values;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) values.push_back(rng.Gaussian());
  auto mean = [&values](const std::vector<int>& indices) {
    double sum = 0.0;
    for (int index : indices) sum += values[static_cast<size_t>(index)];
    return sum / static_cast<double>(indices.size());
  };
  BootstrapCi ci = BootstrapPercentileCi(
      static_cast<int>(values.size()), 500, 7, 0.05, mean);
  EXPECT_EQ(ci.resamples, 500);
  EXPECT_LE(ci.ci_low, ci.estimate);
  EXPECT_GE(ci.ci_high, ci.estimate);
  EXPECT_LT(ci.ci_high - ci.ci_low, 0.5);  // ~4 s.e. of a 200-sample mean

  BootstrapCi again = BootstrapPercentileCi(
      static_cast<int>(values.size()), 500, 7, 0.05, mean);
  EXPECT_EQ(ci.ci_low, again.ci_low);
  EXPECT_EQ(ci.ci_high, again.ci_high);

  // A different seed draws different resamples.
  BootstrapCi other = BootstrapPercentileCi(
      static_cast<int>(values.size()), 500, 8, 0.05, mean);
  EXPECT_NE(ci.ci_low, other.ci_low);
}

// ---------------------------------------------------------------------------
// Bundle lineage codec
// ---------------------------------------------------------------------------

TEST(BundleLineage, SurvivesCloneRoundTrip) {
  std::unique_ptr<serialize::ForecastBundle> bundle =
      TrainChampion(ControlStudy());
  ASSERT_EQ(bundle->lineage, nullptr);  // offline training carries none

  bundle->lineage = std::make_unique<serialize::BundleLineage>();
  bundle->lineage->parent_generation = 7;
  bundle->lineage->retrain_index = 3;
  bundle->lineage->trained_end_day = 41;
  bundle->lineage->source = "adapt/drift";

  // CloneBundle is a codec round trip, so this pins the v2 section too.
  std::unique_ptr<serialize::ForecastBundle> clone =
      serialize::CloneBundle(*bundle);
  ASSERT_NE(clone->lineage, nullptr);
  EXPECT_EQ(clone->lineage->parent_generation, 7u);
  EXPECT_EQ(clone->lineage->retrain_index, 3u);
  EXPECT_EQ(clone->lineage->trained_end_day, 41);
  EXPECT_EQ(clone->lineage->source, "adapt/drift");

  // And absence round-trips as absence.
  bundle->lineage.reset();
  clone = serialize::CloneBundle(*bundle);
  EXPECT_EQ(clone->lineage, nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end: the closed loop on a shifted network
// ---------------------------------------------------------------------------

TEST(ClosedLoop, DriftRetrainShadowPromoteOnShiftedNetwork) {
  const Study& control = ControlStudy();
  const Study& shifted = ShiftedStudy();
  ASSERT_EQ(control.num_sectors(), shifted.num_sectors());
  ASSERT_EQ(control.network.num_kpis(), shifted.network.num_kpis());

  std::unique_ptr<serialize::ForecastBundle> champion =
      TrainChampion(control);
  ASSERT_NE(champion->fingerprints, nullptr);

  // The controller-free twin: the same champion over the same shifted
  // stream, no taps — the bitwise reference for every pre-promotion
  // batch.
  std::map<int, std::vector<float>> reference;
  {
    obs::PipelineContext twin_context;
    obs::PipelineContext::ScopedInstall install(&twin_context);
    ForecastService twin(serialize::CloneBundle(*champion));
    pipeline::ServingPipeline serving(&twin, ServeOptionsFor(shifted));
    const Tensor3<float>& kpis = shifted.network.kpis;
    for (int j = 0; j < kpis.dim1(); ++j) {
      for (int i = 0; i < kpis.dim0(); ++i) {
        ASSERT_TRUE(serving.Push(i, j, kpis.Slice(i, j), kpis.dim2()));
      }
    }
    serving.Finish();
    for (StreamingPrediction& prediction : serving.TakePredictions()) {
      EXPECT_EQ(prediction.generation, 0u);
      reference[prediction.end_day] = std::move(prediction.scores);
    }
  }
  ASSERT_FALSE(reference.empty());

  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);

  ForecastService service(serialize::CloneBundle(*champion));
  ASSERT_TRUE(service.monitoring_enabled());

  adapt::AdaptOptions options;
  options.num_sectors = shifted.num_sectors();
  options.capture_weeks = 4;
  options.train = ChampionConfig();
  options.policy.trigger = monitor::AlertState::kDrift;
  options.policy.training_days = 10;
  options.policy.min_shadow_days = 3;
  options.policy.min_compared_rows = 96;
  options.policy.max_shadow_days = 14;
  options.policy.guard_days = 3;
  options.policy.rollback_lift_margin = 0.25;
  options.policy.cooldown_days = 30;  // one episode per stream
  adapt::AdaptationController controller(&service, options);

  std::vector<AdaptState> states;
  std::vector<StreamingPrediction> served;
  {
    pipeline::ServingPipeline::Options serve_options =
        ServeOptionsFor(shifted);
    controller.AttachTaps(&serve_options);
    pipeline::ServingPipeline serving(&service, serve_options);
    StreamWithPolls(shifted.network.kpis, &serving, &controller, &states);
    serving.Finish();
    served = serving.TakePredictions();
  }

  // The ladder visited retrain → shadow → promoted and settled back to
  // idle before the stream ended.
  auto visited = [&states](AdaptState state) {
    return std::find(states.begin(), states.end(), state) != states.end();
  };
  EXPECT_TRUE(visited(AdaptState::kShadowing)) << "never shadowed";
  EXPECT_TRUE(visited(AdaptState::kPromoted)) << "never promoted";
  EXPECT_FALSE(visited(AdaptState::kRolledBack));
  EXPECT_EQ(states.back(), AdaptState::kIdle);

  adapt::AdaptReport report = controller.Report();
  EXPECT_GE(report.retrains, 1u);
  EXPECT_EQ(report.promotions, 1u);
  EXPECT_EQ(report.rollbacks, 0u);
  EXPECT_EQ(report.champion_generation, 1u);

  // The challenger won on matured-label lift over live shadow traffic —
  // the promotion verdict is the guard verdict's predecessor, so check
  // the promoted bundle's provenance instead of the (overwritten)
  // last_verdict.
  std::shared_ptr<const serialize::ForecastBundle> promoted =
      service.bundle_snapshot();
  ASSERT_NE(promoted->lineage, nullptr);
  EXPECT_EQ(promoted->lineage->source, "adapt/drift");
  EXPECT_EQ(promoted->lineage->parent_generation, 0u);
  EXPECT_GT(promoted->lineage->trained_end_day, 0);

  // Pre-promotion champion predictions are bitwise-identical to the
  // controller-free run: the taps are observers, promotion is the first
  // point of divergence.
  uint64_t champion_batches = 0;
  uint64_t challenger_batches = 0;
  for (const StreamingPrediction& prediction : served) {
    if (prediction.generation == 0) {
      ++champion_batches;
      auto expected = reference.find(prediction.end_day);
      ASSERT_NE(expected, reference.end());
      ASSERT_EQ(prediction.scores.size(), expected->second.size());
      EXPECT_EQ(std::memcmp(prediction.scores.data(),
                            expected->second.data(),
                            prediction.scores.size() * sizeof(float)),
                0)
          << "pre-promotion divergence at end day " << prediction.end_day;
    } else {
      EXPECT_EQ(prediction.generation, 1u);
      ++challenger_batches;
    }
  }
  EXPECT_GT(champion_batches, 0u);
  EXPECT_GT(challenger_batches, 0u) << "promotion never reached serving";

  // Observability: the flight log reconciles every transition against
  // the adapt/* counters, the shadow actually scored traffic, and the
  // promote-to-first-serve latency was recorded.
  ReconcileFlightLog(&context, report);
  obs::MetricsRegistry& metrics = context.metrics();
  EXPECT_GT(metrics.counter("adapt/shadow_batches").Total(), 0u);
  EXPECT_GT(metrics.counter("adapt/shadow_rows").Total(), 0u);
  EXPECT_EQ(metrics.counter("adapt/shadow_dropped").Total(), 0u);
  EXPECT_GE(metrics.histogram("adapt/retrain_seconds").Count(), 1u);
  EXPECT_GT(metrics.gauge("adapt/promote_to_first_serve_seconds").Value(),
            0.0);
}

// ---------------------------------------------------------------------------
// Fault drills: rollback and rejection
// ---------------------------------------------------------------------------

/// A challenger deliberately trained against inverted labels: it
/// anti-ranks, so it loses any honest comparison — the regressing model
/// for the rollback drill.
std::unique_ptr<serialize::ForecastBundle> TrainAntiChampion(
    const Study& study) {
  Matrix<float> inverted = study.daily_labels;
  for (int i = 0; i < inverted.rows(); ++i) {
    for (int d = 0; d < inverted.cols(); ++d) {
      inverted.At(i, d) = 1.0f - inverted.At(i, d);
    }
  }
  Forecaster forecaster(&study.features, &study.scores.daily, &inverted);
  std::unique_ptr<serialize::ForecastBundle> bundle =
      forecaster.TrainBundle(ChampionConfig());
  bundle->score = study.score_config;
  return bundle;
}

TEST(ClosedLoop, RegressingChallengerIsRolledBackInsideGuardWindow) {
  const Study& study = ControlStudy();
  std::unique_ptr<serialize::ForecastBundle> champion = TrainChampion(study);
  ForecastService reference(serialize::CloneBundle(*champion));

  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);

  ForecastService service(serialize::CloneBundle(*champion));

  adapt::AdaptOptions options;
  options.num_sectors = study.num_sectors();
  options.capture_weeks = 4;
  options.train = ChampionConfig();
  // Always-armed test trigger plus gates lax enough that the regressing
  // challenger IS promoted — the guard window is the safety net under
  // test, not the promotion gate.
  options.policy.trigger = monitor::AlertState::kOk;
  options.policy.min_shadow_days = 2;
  options.policy.min_compared_rows = 48;
  options.policy.max_shadow_days = 14;
  options.policy.comparison.min_lift_delta = -1e9;
  options.policy.comparison.require_ci_separation = false;
  options.policy.guard_days = 2;
  options.policy.rollback_lift_margin = 0.0;
  options.policy.cooldown_days = 60;  // one episode per stream
  options.challenger_for_test =
      [&study](const serialize::ForecastBundle& /*champion*/) {
        return TrainAntiChampion(study);
      };
  adapt::AdaptationController controller(&service, options);

  std::vector<AdaptState> states;
  {
    pipeline::ServingPipeline::Options serve_options = ServeOptionsFor(study);
    controller.AttachTaps(&serve_options);
    pipeline::ServingPipeline serving(&service, serve_options);
    StreamWithPolls(study.network.kpis, &serving, &controller, &states);
    serving.Finish();
  }

  auto visited = [&states](AdaptState state) {
    return std::find(states.begin(), states.end(), state) != states.end();
  };
  EXPECT_TRUE(visited(AdaptState::kPromoted)) << "drill never promoted";
  EXPECT_TRUE(visited(AdaptState::kRolledBack)) << "regression not caught";
  EXPECT_EQ(states.back(), AdaptState::kIdle);

  adapt::AdaptReport report = controller.Report();
  EXPECT_EQ(report.retrains, 1u);
  EXPECT_EQ(report.promotions, 1u);
  EXPECT_EQ(report.rollbacks, 1u);
  EXPECT_EQ(report.rejections, 0u);
  // Promote then rollback: two RCU swaps.
  EXPECT_EQ(report.champion_generation, 2u);
  // The guard verdict measured the regression: the archived champion
  // (the "challenger" of the guard comparison) beat the promoted model.
  EXPECT_GT(report.last_verdict.lift_delta, 0.0);

  // Rollback restored the champion exactly: the re-promoted archive is a
  // codec round-trip clone, so batch answers are bitwise the originals.
  const ForecastConfig config = ChampionConfig();
  EXPECT_EQ(service.PredictAtDay(study.features, config.t),
            reference.PredictAtDay(study.features, config.t));

  ReconcileFlightLog(&context, report);
}

TEST(ClosedLoop, NoBetterChallengerIsRejectedAtMaxShadowAge) {
  const Study& study = ControlStudy();
  std::unique_ptr<serialize::ForecastBundle> champion = TrainChampion(study);

  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);

  ForecastService service(serialize::CloneBundle(*champion));

  adapt::AdaptOptions options;
  options.num_sectors = study.num_sectors();
  options.capture_weeks = 4;
  options.train = ChampionConfig();
  options.policy.trigger = monitor::AlertState::kOk;  // always armed
  options.policy.min_shadow_days = 2;
  options.policy.min_compared_rows = 48;
  options.policy.max_shadow_days = 4;  // a short audition
  // Honest gates: a clone of the champion scores identically, delta == 0,
  // and 0 > 0 never promotes.
  options.policy.comparison.min_lift_delta = 0.0;
  options.policy.comparison.require_ci_separation = false;
  options.policy.cooldown_days = 10;
  options.challenger_for_test =
      [](const serialize::ForecastBundle& champion_bundle) {
        return serialize::CloneBundle(champion_bundle);
      };
  adapt::AdaptationController controller(&service, options);

  std::vector<AdaptState> states;
  {
    pipeline::ServingPipeline::Options serve_options = ServeOptionsFor(study);
    controller.AttachTaps(&serve_options);
    pipeline::ServingPipeline serving(&service, serve_options);
    StreamWithPolls(study.network.kpis, &serving, &controller, &states);
    serving.Finish();
  }

  auto visited = [&states](AdaptState state) {
    return std::find(states.begin(), states.end(), state) != states.end();
  };
  EXPECT_TRUE(visited(AdaptState::kShadowing));
  EXPECT_TRUE(visited(AdaptState::kRejected)) << "audition never expired";
  EXPECT_FALSE(visited(AdaptState::kPromoted));
  // The always-armed trigger re-opens an audition after every cooldown,
  // so the stream may end with one still shadowing (maturation freezes
  // at Finish, so it can never conclude) — but never mid-retrain or in a
  // latched terminal state.
  EXPECT_TRUE(states.back() == AdaptState::kIdle ||
              states.back() == AdaptState::kShadowing)
      << "ended in " << adapt::AdaptStateName(states.back());

  adapt::AdaptReport report = controller.Report();
  EXPECT_GE(report.rejections, 1u);
  EXPECT_EQ(report.promotions, 0u);
  // The champion never stopped serving: no swap ever happened.
  EXPECT_EQ(report.champion_generation, 0u);
  // The clone had identical scores, so the verdict's delta is exactly 0.
  EXPECT_EQ(report.last_verdict.lift_delta, 0.0);
  // Every episode that ran to a verdict was rejected; at most the
  // trailing in-flight audition is unaccounted for.
  EXPECT_LE(report.retrains - report.rejections, 1u);

  ReconcileFlightLog(&context, report);
}

}  // namespace
}  // namespace hotspot
