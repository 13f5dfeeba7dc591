// Lockdown tests for the continual-learning subsystem (src/adapt):
//   * the engine cut — training inputs cut from the serving engine's
//     history ring must be bitwise the batch study's tensors, and a span
//     the ring no longer holds must be refused, not fabricated;
//   * champion/challenger comparison — paired-bootstrap verdict semantics
//     on synthetic rankings, including the degenerate no-positives case;
//   * paired percentile bootstrap — determinism and CI sanity;
//   * bundle lineage — codec round trip of the retrain provenance;
//   * the controller's wiring — no threads of its own, and a history too
//     short for a training slice refused at AttachTaps;
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
//     and start the cooldown (polled on the stream clock, so the phase
//     the stream ends in is exact);
//   * strided retrains — with training_day_stride 2 the slice is cut long
//     enough that the retrain pools every configured label day.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <vector>

#include "adapt/adaptation_controller.h"
#include "adapt/champion_challenger.h"
#include "core/forecast_service.h"
#include "core/study.h"
#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obs/pipeline_context.h"
#include "pipeline/serving_pipeline.h"
#include "serialize/bundle.h"
#include "stats/bootstrap.h"
#include "stream/incremental_features.h"
#include "tensor/temporal.h"
#include "util/rng.h"
#include "util/thread_pool.h"

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
/// at every day close. A Poll() that trains runs on this thread, so the
/// feed pauses until the challenger is built — that pins the shadow
/// episode's day span to the stream clock instead of the scheduler's.
void StreamWithPolls(const Tensor3<float>& kpis,
                     pipeline::ServingPipeline* serving,
                     adapt::AdaptationController* controller,
                     std::vector<AdaptState>* states) {
  for (int j = 0; j < kpis.dim1(); ++j) {
    for (int i = 0; i < kpis.dim0(); ++i) {
      EXPECT_TRUE(serving->Push(i, j, kpis.Slice(i, j), kpis.dim2()));
    }
    if ((j + 1) % kHoursPerDay != 0) continue;
    states->push_back(controller->Poll());
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
// The engine cut
// ---------------------------------------------------------------------------

stream::FeatureEngineConfig EngineConfigFor(const Study& study,
                                            int history_weeks) {
  stream::FeatureEngineConfig config;
  config.num_sectors = study.num_sectors();
  config.num_kpis = study.network.num_kpis();
  config.calendar = &study.network.calendar_matrix;
  config.score = study.score_config;
  config.history_weeks = history_weeks;
  return config;
}

/// Feeds `sector` the study's KPI rows for hours [begin_hour, end_hour);
/// `begin_hour` is the first hour the sector has not been fed.
void Feed(const Study& study, int sector, int begin_hour, int end_hour,
          stream::IncrementalFeatureEngine* engine) {
  const Tensor3<float>& kpis = study.network.kpis;
  for (int j = begin_hour; j < end_hour; ++j) {
    engine->Consume(sector, j, kpis.Slice(sector, j), kpis.dim2());
  }
}

/// The slice must be bitwise the batch study's tensors over its span: no
/// second feature path exists to diverge.
void ExpectBatchSpan(const Study& study, const adapt::TrainingSlice& slice) {
  const Tensor3<float>& batch = study.features.tensor();
  const Tensor3<float>& rebuilt = slice.features.tensor();
  ASSERT_EQ(rebuilt.dim0(), batch.dim0());
  ASSERT_EQ(rebuilt.dim1(), slice.num_days * kHoursPerDay);
  ASSERT_EQ(rebuilt.dim2(), batch.dim2());
  const int base_hour = slice.base_day * kHoursPerDay;
  for (int i = 0; i < batch.dim0(); ++i) {
    ASSERT_EQ(std::memcmp(rebuilt.Slice(i, 0), batch.Slice(i, base_hour),
                          static_cast<size_t>(rebuilt.dim1()) *
                              static_cast<size_t>(batch.dim2()) *
                              sizeof(float)),
              0)
        << "sector " << i;
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
}

TEST(EngineCut, RebuildsBatchTrainingInputsBitwise) {
  // Three weeks of history over the 9-week stream: the ring wraps twice.
  const Study& study = ControlStudy();
  stream::IncrementalFeatureEngine engine(EngineConfigFor(study, 3));
  ASSERT_EQ(engine.channels(), study.features.tensor().dim2());

  // Nothing finalized yet: a cut must refuse, not fabricate.
  adapt::TrainingSlice slice;
  EXPECT_FALSE(adapt::CutTrainingSlice(engine, 1, &slice));

  const Tensor3<float>& kpis = study.network.kpis;
  for (int j = 0; j < kpis.dim1(); ++j) {
    for (int i = 0; i < kpis.dim0(); ++i) {
      engine.Consume(i, j, kpis.Slice(i, j), kpis.dim2());
    }
  }
  const int ring_days = 3 * kDaysPerWeek;
  ASSERT_TRUE(adapt::CutTrainingSlice(engine, ring_days, &slice));
  EXPECT_EQ(slice.num_days, ring_days);
  EXPECT_EQ(slice.base_day, study.num_days() - ring_days);
  ExpectBatchSpan(study, slice);

  // A span deeper than the ring keeps refusing.
  EXPECT_FALSE(adapt::CutTrainingSlice(engine, ring_days + 1, &slice));
}

TEST(EngineCut, SectorsAtDifferentWeekFrontiersCutAtTheSlowest) {
  // Every other sector is a week ahead: the span ends at the slow
  // sectors' frontier (hour 840) and may reach back to where the fast
  // sectors' three-week rings begin (hour 504), 14 days.
  const Study& study = ControlStudy();
  stream::IncrementalFeatureEngine engine(EngineConfigFor(study, 3));
  for (int i = 0; i < study.num_sectors(); ++i) {
    Feed(study, i, 0, (i % 2 == 0 ? 6 : 5) * kHoursPerWeek, &engine);
  }
  ASSERT_EQ(engine.min_finalized_hours(), 5 * kHoursPerWeek);
  adapt::TrainingSlice slice;
  ASSERT_TRUE(adapt::CutTrainingSlice(engine, 14, &slice));
  EXPECT_EQ(slice.base_day, 5 * kDaysPerWeek - 14);
  EXPECT_EQ(slice.num_days, 14);
  ExpectBatchSpan(study, slice);
}

TEST(EngineCut, RefusesOnceTheFastestRingOverwroteTheSpanStart) {
  const Study& study = ControlStudy();
  stream::IncrementalFeatureEngine engine(EngineConfigFor(study, 3));
  for (int i = 0; i < study.num_sectors(); ++i) {
    Feed(study, i, 0, 5 * kHoursPerWeek, &engine);
  }
  // 15 days ending at hour 840 start at hour 480, inside every ring.
  adapt::TrainingSlice slice;
  ASSERT_TRUE(adapt::CutTrainingSlice(engine, 15, &slice));
  EXPECT_EQ(slice.base_day, 20);

  // One sector closes its sixth week: its ring now starts at hour 504,
  // so the same span is gone for it — refused, and `slice` left alone.
  Feed(study, 0, 5 * kHoursPerWeek, 6 * kHoursPerWeek, &engine);
  ASSERT_EQ(engine.min_finalized_hours(), 5 * kHoursPerWeek);
  slice.base_day = -1;
  EXPECT_FALSE(adapt::CutTrainingSlice(engine, 15, &slice));
  EXPECT_EQ(slice.base_day, -1);
  // The 14 days from hour 504 are still in every ring.
  ASSERT_TRUE(adapt::CutTrainingSlice(engine, 14, &slice));
  ExpectBatchSpan(study, slice);
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
// Controller wiring
// ---------------------------------------------------------------------------

/// Threads of this process: one /proc/self/task entry each.
int LiveThreads() {
  int threads = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++threads;
  }
  return threads;
}

TEST(AdaptationController, StartsNoThreads) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task on this platform";
  }
  ForecastService service(TrainChampion(ControlStudy()));
  // The pool starts its workers on first use: start them all now, so the
  // count below sees only the controller's own threads.
  util::ParallelFor(0, 1 << 10, [](int64_t) {});
  const int before = LiveThreads();
  adapt::AdaptationController controller(&service, adapt::AdaptOptions{});
  EXPECT_EQ(LiveThreads(), before);
}

TEST(AdaptationControllerDeathTest, AttachTapsRefusesTooShortAHistory) {
  const Study& study = ControlStudy();
  ForecastService service(TrainChampion(study));
  adapt::AdaptOptions options;
  options.policy.training_days = 10;  // + w 3 + h 1: a 14-day slice
  adapt::AdaptationController controller(&service, options);
  pipeline::ServingPipeline::Options serve_options = ServeOptionsFor(study);
  // Two weeks hold the slice but not the week a fast sector can be ahead.
  serve_options.history_weeks = 2;
  EXPECT_DEATH(controller.AttachTaps(&serve_options), "history_weeks");
  serve_options.history_weeks = 3;
  controller.AttachTaps(&serve_options);
  EXPECT_TRUE(serve_options.outcome_tee);

  // Pooling every other day stretches the slice: 9 · 2 + 3 + 1 + 1 = 23
  // days, which four weeks no longer hold with a week to spare.
  options.train.training_day_stride = 2;
  adapt::AdaptationController strided(&service, options);
  serve_options = ServeOptionsFor(study);
  serve_options.history_weeks = 4;
  EXPECT_DEATH(strided.AttachTaps(&serve_options), "23-day training slice");
  serve_options.history_weeks = 5;
  strided.AttachTaps(&serve_options);
}

TEST(AdaptationControllerDeathTest, ShadowOfAnotherWindowLengthIsRefused) {
  // The statement streams through a pipeline and the pool, whose threads
  // a forked child would not have: re-execute the binary instead.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Study& study = ControlStudy();
  ForecastService service(TrainChampion(study));
  adapt::AdaptOptions options;
  options.policy.trigger = monitor::AlertState::kOk;
  // A challenger that reads four-day windows where the champion serves
  // three: the teed copies are a day short for it, so scoring them must
  // stop at Predict's shape check instead of reading past their end.
  options.challenger_for_test =
      [&study](const serialize::ForecastBundle& /*champion*/) {
        ForecastConfig config = ChampionConfig();
        config.w = 4;
        std::unique_ptr<serialize::ForecastBundle> bundle =
            study.MakeForecaster(TargetKind::kBeHotSpot).TrainBundle(config);
        bundle->score = study.score_config;
        return bundle;
      };
  adapt::AdaptationController controller(&service, options);
  EXPECT_DEATH(
      {
        pipeline::ServingPipeline::Options serve_options =
            ServeOptionsFor(study);
        controller.AttachTaps(&serve_options);
        pipeline::ServingPipeline serving(&service, serve_options);
        std::vector<AdaptState> states;
        StreamWithPolls(study.network.kpis, &serving, &controller, &states);
      },
      "windows.hours");
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

  // Polled from the matured-label tee — on the worker, once per matured
  // day, after every batch and label that day made ready — the ladder is
  // a function of the stream alone: no feed thread races the worker, so
  // the phase the stream ends in is fixed too.
  std::vector<AdaptState> states;
  {
    pipeline::ServingPipeline::Options serve_options = ServeOptionsFor(study);
    serve_options.outcome_tee =
        [&controller, &states](int /*day*/, const std::vector<float>&,
                               const stream::IncrementalFeatureEngine&) {
          states.push_back(controller.Poll());
        };
    controller.AttachTaps(&serve_options);
    pipeline::ServingPipeline serving(&service, serve_options);
    const Tensor3<float>& kpis = study.network.kpis;
    for (int j = 0; j < kpis.dim1(); ++j) {
      for (int i = 0; i < kpis.dim0(); ++i) {
        EXPECT_TRUE(serving.Push(i, j, kpis.Slice(i, j), kpis.dim2()));
      }
    }
    serving.Finish();
  }
  ASSERT_FALSE(states.empty());

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
  // A latched kRejected lasts exactly one Poll().
  for (size_t day = 0; day + 1 < states.size(); ++day) {
    if (states[day] != AdaptState::kRejected) continue;
    EXPECT_EQ(states[day + 1], AdaptState::kIdle) << "poll " << day;
  }

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

TEST(ClosedLoop, StridedRetrainPoolsEveryConfiguredDay) {
  const Study& study = ControlStudy();
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  ForecastService service(TrainChampion(study));

  adapt::AdaptOptions options;
  options.train = ChampionConfig();
  options.train.training_day_stride = 2;
  options.policy.training_days = 6;
  // Always armed, and gates that promote the first challenger trained
  // and never roll it back: the test reads the retrain off the bundle
  // left serving.
  options.policy.trigger = monitor::AlertState::kOk;
  options.policy.min_shadow_days = 1;
  options.policy.min_compared_rows = 1;
  options.policy.comparison.min_lift_delta = -1e9;
  options.policy.comparison.require_ci_separation = false;
  options.policy.rollback_lift_margin = 1e9;
  options.policy.cooldown_days = 60;  // one episode per stream
  adapt::AdaptationController controller(&service, options);

  std::vector<AdaptState> states;
  {
    pipeline::ServingPipeline::Options serve_options = ServeOptionsFor(study);
    controller.AttachTaps(&serve_options);
    pipeline::ServingPipeline serving(&service, serve_options);
    StreamWithPolls(study.network.kpis, &serving, &controller, &states);
    serving.Finish();
  }
  adapt::AdaptReport report = controller.Report();
  ASSERT_EQ(report.promotions, 1u);
  std::shared_ptr<const serialize::ForecastBundle> promoted =
      service.bundle_snapshot();
  ASSERT_NE(promoted->lineage, nullptr);
  EXPECT_EQ(promoted->lineage->source, "adapt/drift");
  ASSERT_NE(promoted->fingerprints, nullptr);

  // The fingerprints span exactly the pooled windows, in slice hours:
  // from the oldest label day's window start to the newest's end.
  const int w = promoted->window_days;
  const int h = promoted->horizon_days;
  const int stride = options.train.training_day_stride;
  const int newest = promoted->fingerprints->last_hour / kHoursPerDay + h;
  const int oldest = promoted->fingerprints->first_hour / kHoursPerDay + h + w;
  EXPECT_EQ((newest - oldest) / stride + 1, options.policy.training_days)
      << "pooled label days";
  // The slice was cut no longer than that: t_local is its last day, and
  // the oldest window starts at its first hour.
  EXPECT_EQ(newest, (options.policy.training_days - 1) * stride + w + h);
  EXPECT_EQ(promoted->fingerprints->first_hour, 0);

  ReconcileFlightLog(&context, report);
}

}  // namespace
}  // namespace hotspot
