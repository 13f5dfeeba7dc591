#include "adapt/adaptation_controller.h"

#include <algorithm>
#include <utility>

#include "core/serving_ops.h"
#include "obs/pipeline_context.h"
#include "pipeline/stage.h"
#include "tensor/temporal.h"
#include "tensor/tensor3.h"
#include "util/logging.h"

namespace hotspot::adapt {

namespace {

/// Cold-path counter bump (state transitions, retrains — never per row).
void Count(const char* name, uint64_t delta = 1) {
  if (obs::PipelineContext* ctx = obs::PipelineContext::Current()) {
    ctx->metrics().counter(name).Add(delta);
  }
}

void SetGauge(const char* name, double value) {
  if (obs::PipelineContext* ctx = obs::PipelineContext::Current()) {
    ctx->metrics().gauge(name).Set(value);
  }
}

}  // namespace

const char* AdaptStateName(AdaptState state) {
  switch (state) {
    case AdaptState::kIdle:
      return "idle";
    case AdaptState::kRetraining:
      return "retraining";
    case AdaptState::kShadowing:
      return "shadowing";
    case AdaptState::kPromoted:
      return "promoted";
    case AdaptState::kRolledBack:
      return "rolled_back";
    case AdaptState::kRejected:
      return "rejected";
  }
  return "unknown";
}

bool CutTrainingSlice(const stream::IncrementalFeatureEngine& engine,
                      int num_days, TrainingSlice* out) {
  HOTSPOT_CHECK(out != nullptr);
  HOTSPOT_CHECK_GE(num_days, 1);
  // Finalized frontiers are whole weeks, so the span is whole days.
  const int end_hour = engine.min_finalized_hours();
  const int hours = num_days * kHoursPerDay;
  const int begin_hour = end_hour - hours;
  const int n = engine.config().num_sectors;
  for (int i = 0; i < n; ++i) {
    if (!engine.HoldsSpan(i, begin_hour, hours)) return false;
  }
  Tensor3<float> tensor =
      AssembleServingWindows(engine, hours, end_hour / kHoursPerDay);
  // up(S^d) and up(Y^d) are constant within a day, so the first hour of
  // each day carries the day's integrated score and hot-spot label.
  const int num_kpis = engine.config().num_kpis;
  const int score_channel = num_kpis + 5 + 1;
  const int label_channel = num_kpis + 5 + 3;
  Matrix<float> daily_scores(n, num_days, 0.0f);
  Matrix<float> target_labels(n, num_days, 0.0f);
  for (int i = 0; i < n; ++i) {
    for (int d = 0; d < num_days; ++d) {
      const float* row = tensor.Slice(i, d * kHoursPerDay);
      daily_scores.At(i, d) = row[score_channel];
      target_labels.At(i, d) = row[label_channel];
    }
  }
  out->base_day = begin_hour / kHoursPerDay;
  out->num_days = num_days;
  out->features =
      features::FeatureTensor::FromChannels(std::move(tensor), num_kpis);
  out->daily_scores = std::move(daily_scores);
  out->target_labels = std::move(target_labels);
  return true;
}

AdaptationController::AdaptationController(ForecastService* service,
                                           const AdaptOptions& options)
    : service_(service), options_(options) {
  HOTSPOT_CHECK(service != nullptr);
  // The label days TrainBundle pools (a Tree champion's override included;
  // retrains keep the champion's model kind), `stride` apart back from
  // t_local = slice_days_ - 1: the oldest one's window must start inside
  // the slice, or pooling would stop short of the configured days.
  int pooled_days = options.policy.training_days;
  if (service->bundle_snapshot()->model == ModelKind::kTree &&
      options.train.tree_training_days > 0) {
    pooled_days = options.train.tree_training_days;
  }
  const int stride = options.train.training_day_stride;
  HOTSPOT_CHECK_GE(pooled_days, 1);
  HOTSPOT_CHECK_GE(stride, 1);
  slice_days_ = (pooled_days - 1) * stride + service->window_days() +
                service->horizon_days() + 1;
}

void AdaptationController::AttachTaps(
    pipeline::ServingPipeline::Options* options) {
  HOTSPOT_CHECK(options != nullptr);
  HOTSPOT_CHECK_GE(options->history_weeks * kDaysPerWeek,
                   slice_days_ + kDaysPerWeek)
      << "history_weeks must keep a " << slice_days_
      << "-day training slice plus a week";
  auto chain_predict = std::move(options->predict_tee);
  options->predict_tee = [this, chain_predict](int end_day, int target_day,
                                               const WindowBatch& windows) {
    OnPredictTee(target_day, windows);
    if (chain_predict) chain_predict(end_day, target_day, windows);
  };
  auto chain_prediction = std::move(options->prediction_tee);
  options->prediction_tee =
      [this, chain_prediction](const StreamingPrediction& prediction) {
        OnPrediction(prediction);
        if (chain_prediction) chain_prediction(prediction);
      };
  auto chain_outcome = std::move(options->outcome_tee);
  options->outcome_tee =
      [this, chain_outcome](int day, const std::vector<float>& labels,
                            const stream::IncrementalFeatureEngine& engine) {
        OnOutcome(day, labels, engine);
        if (chain_outcome) chain_outcome(day, labels, engine);
      };
}

void AdaptationController::OnPredictTee(int target_day,
                                        const WindowBatch& windows) {
  if (!shadow_active_.load(std::memory_order_acquire)) return;
  ShadowWork work;
  work.target_day = target_day;
  work.count = windows.count;
  work.hours = windows.hours;
  work.channels = windows.channels;
  // Deep copy, with no zero fill first: the view reads the pipeline's
  // engine, which moves on.
  const size_t window_floats = static_cast<size_t>(windows.hours) *
                               static_cast<size_t>(windows.channels);
  work.windows.reserve(window_floats * static_cast<size_t>(windows.count));
  for (int i = 0; i < windows.count; ++i) {
    work.windows.insert(work.windows.end(), windows.Window(i),
                        windows.Window(i) + window_floats);
  }
  std::lock_guard<std::mutex> lock(data_mutex_);
  teed_batches_.push_back(std::move(work));
}

void AdaptationController::OnPrediction(const StreamingPrediction& prediction) {
  if (first_serve_latency_pending_.load(std::memory_order_acquire) &&
      prediction.generation >=
          promoted_generation_.load(std::memory_order_acquire)) {
    first_serve_latency_pending_.store(false, std::memory_order_release);
    const uint64_t now = pipeline::SteadyNowNs();
    const uint64_t then = promoted_at_ns_.load(std::memory_order_acquire);
    SetGauge("adapt/promote_to_first_serve_seconds",
             now > then ? static_cast<double>(now - then) * 1e-9 : 0.0);
  }
  if (!shadow_active_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(data_mutex_);
  champion_scores_[prediction.target_day] = {prediction.scores,
                                             prediction.generation};
}

void AdaptationController::OnOutcome(
    int day, const std::vector<float>& labels,
    const stream::IncrementalFeatureEngine& engine) {
  std::lock_guard<std::mutex> lock(data_mutex_);
  // The maturation frontier always advances (the kIdle trigger's
  // cooldown is denominated in it); the label payload is only retained
  // while a comparison is live.
  last_matured_day_ = std::max(last_matured_day_, day);
  if (shadow_active_.load(std::memory_order_acquire)) {
    matured_labels_[day] = labels;
  }
  if (slice_state_ == SliceState::kRequested) {
    slice_state_ = CutTrainingSlice(engine, slice_days_, &slice_)
                       ? SliceState::kCut
                       : SliceState::kRefused;
  }
}

void AdaptationController::ScoreTeedBatchesLocked() {
  std::vector<ShadowWork> teed;
  {
    std::lock_guard<std::mutex> lock(data_mutex_);
    teed.swap(teed_batches_);
  }
  // Batches teed while an episode was ending have no shadow to score them.
  if (shadow_service_ == nullptr) return;
  for (const ShadowWork& work : teed) {
    // The copy's own shape, so Predict's shape checks refuse a shadow
    // whose window or channel count differs from the champion's.
    WindowBatch windows;
    windows.data = work.windows.data();
    windows.count = work.count;
    windows.hours = work.hours;
    windows.channels = work.channels;
    windows.stride = static_cast<size_t>(work.hours) *
                     static_cast<size_t>(work.channels);
    std::vector<float> scores = shadow_service_->Predict(windows);
    Count("adapt/shadow_batches");
    Count("adapt/shadow_rows", scores.size());
    shadow_scores_[work.target_day] = std::move(scores);
  }
}

bool AdaptationController::BuildChallengerLocked(const TrainingSlice* slice) {
  std::shared_ptr<const serialize::ForecastBundle> champion =
      service_->bundle_snapshot();
  std::unique_ptr<serialize::ForecastBundle> challenger;
  const uint64_t started_ns = pipeline::SteadyNowNs();
  if (slice == nullptr) {
    challenger = options_.challenger_for_test(*champion);
    if (challenger == nullptr) return false;
    if (challenger->lineage == nullptr) {
      challenger->lineage = std::make_unique<serialize::BundleLineage>();
      challenger->lineage->source = "adapt/test_override";
    }
    challenger->lineage->parent_generation = service_->generation();
    challenger->lineage->retrain_index = retrains_;
  } else {
    Forecaster forecaster(&slice->features, &slice->daily_scores,
                          &slice->target_labels);
    ForecastConfig config = options_.train;
    config.model = champion->model;
    config.w = champion->window_days;
    config.h = champion->horizon_days;
    config.t = slice->num_days - 1;
    config.training_days = options_.policy.training_days;
    challenger = forecaster.TrainBundle(config);
    if (challenger == nullptr) return false;
    // Study-level state the forecaster never sees: carried over from the
    // champion so the challenger serves the exact same universe.
    challenger->score = champion->score;
    challenger->normalization = champion->normalization;
    challenger->lineage = std::make_unique<serialize::BundleLineage>();
    challenger->lineage->parent_generation = service_->generation();
    challenger->lineage->retrain_index = retrains_;
    challenger->lineage->trained_end_day = slice->base_day + config.t;
    challenger->lineage->source = "adapt/drift";
  }
  if (obs::PipelineContext* ctx = obs::PipelineContext::Current()) {
    ctx->metrics()
        .histogram("adapt/retrain_seconds")
        .Observe(static_cast<double>(pipeline::SteadyNowNs() - started_ns) *
                 1e-9);
  }

  // Stand up the shadow service on a clone; the original is retained for
  // promotion. Monitoring off: the shadow answers comparison queries,
  // it is not a second alerting surface.
  shadow_service_ =
      std::make_unique<ForecastService>(serialize::CloneBundle(*challenger));
  shadow_service_->DisableMonitoring();
  challenger_bundle_ = std::move(challenger);
  shadow_scores_.clear();
  std::lock_guard<std::mutex> data_lock(data_mutex_);
  teed_batches_.clear();
  champion_scores_.clear();
  matured_labels_.clear();
  return true;
}

void AdaptationController::FinishRetrainLocked(bool built) {
  if (!built) {
    Count("adapt/retrain_failures");
    TransitionLocked(AdaptState::kIdle);
    return;
  }
  // Compare only target days that mature from here on: days already
  // matured were never shadow-scored.
  {
    std::lock_guard<std::mutex> data_lock(data_mutex_);
    compare_after_day_ = last_matured_day_;
  }
  shadow_active_.store(true, std::memory_order_release);
  TransitionLocked(AdaptState::kShadowing);
}

ComparisonSample AdaptationController::JoinSample(int after_day,
                                                  uint64_t generation) const {
  ComparisonSample sample;
  std::lock_guard<std::mutex> lock(data_mutex_);
  for (const auto& [day, labels] : matured_labels_) {
    if (day <= after_day) continue;
    auto champion = champion_scores_.find(day);
    auto shadow = shadow_scores_.find(day);
    if (champion == champion_scores_.end() || shadow == shadow_scores_.end()) {
      continue;
    }
    if (generation != 0 && champion->second.second < generation) continue;
    const std::vector<float>& champ_scores = champion->second.first;
    if (champ_scores.size() != labels.size() ||
        shadow->second.size() != labels.size()) {
      continue;
    }
    sample.champion.insert(sample.champion.end(), champ_scores.begin(),
                           champ_scores.end());
    sample.challenger.insert(sample.challenger.end(), shadow->second.begin(),
                             shadow->second.end());
    sample.labels.insert(sample.labels.end(), labels.begin(), labels.end());
    ++sample.days;
  }
  return sample;
}

AdaptState AdaptationController::Poll() {
  std::lock_guard<std::mutex> lock(mutex_);
  ScoreTeedBatchesLocked();
  switch (state_) {
    case AdaptState::kIdle: {
      int matured = -1;
      {
        std::lock_guard<std::mutex> data_lock(data_mutex_);
        matured = last_matured_day_;
      }
      if (cooldown_until_day_ >= 0 && matured < cooldown_until_day_) break;
      const monitor::HealthReport health = service_->Health();
      // Latency excluded: retraining cannot fix a slow serving path.
      const monitor::AlertState signal =
          monitor::WorstState(health.drift_state, health.quality_state);
      const bool armed = options_.policy.trigger == monitor::AlertState::kOk ||
                         health.monitoring_enabled;
      if (armed && signal >= options_.policy.trigger) {
        ++retrains_;
        Count("adapt/retrains");
        TransitionLocked(AdaptState::kRetraining);
        if (options_.challenger_for_test) {
          FinishRetrainLocked(BuildChallengerLocked(nullptr));
        } else {
          std::lock_guard<std::mutex> data_lock(data_mutex_);
          slice_state_ = SliceState::kRequested;
        }
      }
      break;
    }
    case AdaptState::kRetraining: {
      // The outcome tee answers the request at the next day close.
      SliceState answer = SliceState::kNone;
      TrainingSlice slice;
      {
        std::lock_guard<std::mutex> data_lock(data_mutex_);
        answer = slice_state_;
        if (answer == SliceState::kRequested) break;
        slice = std::move(slice_);
        slice_state_ = SliceState::kNone;
      }
      FinishRetrainLocked(answer == SliceState::kCut &&
                          BuildChallengerLocked(&slice));
      break;
    }
    case AdaptState::kShadowing: {
      const ComparisonSample sample = JoinSample(compare_after_day_, 0);
      const bool enough =
          sample.days >= options_.policy.min_shadow_days &&
          sample.rows() >= options_.policy.min_compared_rows;
      if (enough) {
        last_verdict_ =
            CompareChampionChallenger(sample, options_.policy.comparison);
        if (last_verdict_.challenger_wins) {
          PromoteChallengerLocked();
          break;
        }
      }
      if (sample.days >= options_.policy.max_shadow_days) {
        // The challenger had its full audition and never won.
        ++rejections_;
        Count("adapt/rejections");
        EndEpisodeLocked();
        TransitionLocked(AdaptState::kRejected,
                         enough ? last_verdict_.lift_delta : 0.0);
      }
      break;
    }
    case AdaptState::kPromoted: {
      // Guard window: the archived champion shadow-scores the promoted
      // bundle's live traffic; only rows served by the promoted
      // generation count.
      const ComparisonSample sample = JoinSample(
          compare_after_day_,
          promoted_generation_.load(std::memory_order_acquire));
      if (sample.days < options_.policy.guard_days ||
          sample.rows() < options_.policy.min_compared_rows) {
        break;
      }
      // In this sample "champion" is the promoted bundle and
      // "challenger" is the archived ex-champion, so a positive delta
      // means the old model is still better — regression.
      last_verdict_ =
          CompareChampionChallenger(sample, options_.policy.comparison);
      if (last_verdict_.lift_delta > options_.policy.rollback_lift_margin) {
        RollbackLocked();
      } else {
        EndEpisodeLocked();
        SetCooldownLocked();
        TransitionLocked(AdaptState::kIdle, last_verdict_.lift_delta);
      }
      break;
    }
    case AdaptState::kRolledBack:
    case AdaptState::kRejected:
      SetCooldownLocked();
      TransitionLocked(AdaptState::kIdle);
      break;
  }
  return state_;
}

void AdaptationController::PromoteChallengerLocked() {
  HOTSPOT_CHECK(challenger_bundle_ != nullptr);
  archived_champion_ = serialize::CloneBundle(*service_->bundle_snapshot());
  uint64_t new_generation = 0;
  const serialize::Status status = service_->PromoteBundle(
      std::move(challenger_bundle_), &new_generation);
  if (!status.ok) {
    // Validated at training time, so this is exceptional — but promotion
    // failure is atomic (the champion keeps serving), so the safe verdict
    // is a rejection, not a crash.
    HOTSPOT_LOG(Warning) << "adapt: promotion failed: " << status.error;
    archived_champion_.reset();
    ++rejections_;
    Count("adapt/rejections");
    EndEpisodeLocked();
    SetCooldownLocked();
    TransitionLocked(AdaptState::kRejected, last_verdict_.lift_delta);
    return;
  }
  promoted_at_ns_.store(pipeline::SteadyNowNs(), std::memory_order_release);
  promoted_generation_.store(new_generation, std::memory_order_release);
  first_serve_latency_pending_.store(true, std::memory_order_release);
  ++promotions_;
  Count("adapt/promotions");
  // The roles swap for the guard window: the archived champion takes
  // over shadow duty against the promoted bundle's live traffic.
  shadow_service_ = std::make_unique<ForecastService>(
      serialize::CloneBundle(*archived_champion_));
  shadow_service_->DisableMonitoring();
  shadow_scores_.clear();
  {
    std::lock_guard<std::mutex> data_lock(data_mutex_);
    teed_batches_.clear();
    champion_scores_.clear();
    matured_labels_.clear();
    compare_after_day_ = last_matured_day_;
  }
  TransitionLocked(AdaptState::kPromoted, last_verdict_.lift_delta);
}

void AdaptationController::RollbackLocked() {
  HOTSPOT_CHECK(archived_champion_ != nullptr);
  const serialize::Status status =
      service_->PromoteBundle(std::move(archived_champion_));
  // The archive is a clone of a bundle that served; re-promoting it into
  // the same universe cannot fail for a reason retrying would fix.
  HOTSPOT_CHECK(status.ok);
  ++rollbacks_;
  Count("adapt/rollbacks");
  EndEpisodeLocked();
  SetCooldownLocked();
  TransitionLocked(AdaptState::kRolledBack, last_verdict_.lift_delta);
}

void AdaptationController::EndEpisodeLocked() {
  shadow_active_.store(false, std::memory_order_release);
  first_serve_latency_pending_.store(false, std::memory_order_release);
  challenger_bundle_.reset();
  archived_champion_.reset();
  shadow_service_.reset();
  shadow_scores_.clear();
  std::lock_guard<std::mutex> data_lock(data_mutex_);
  teed_batches_.clear();
  champion_scores_.clear();
  matured_labels_.clear();
}

void AdaptationController::SetCooldownLocked() {
  std::lock_guard<std::mutex> data_lock(data_mutex_);
  cooldown_until_day_ = last_matured_day_ + options_.policy.cooldown_days;
}

void AdaptationController::TransitionLocked(AdaptState next,
                                            double lift_delta) {
  if (obs::PipelineContext* ctx = obs::PipelineContext::Current()) {
    ctx->flight().Record(obs::FlightEventKind::kAdaptTransition,
                         static_cast<int64_t>(state_),
                         static_cast<int64_t>(next),
                         static_cast<int64_t>(service_->generation()),
                         lift_delta);
  }
  Count("adapt/transitions");
  state_ = next;
}

AdaptState AdaptationController::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

AdaptReport AdaptationController::Report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  AdaptReport report;
  report.state = state_;
  report.champion_generation = service_->generation();
  report.retrains = retrains_;
  report.promotions = promotions_;
  report.rollbacks = rollbacks_;
  report.rejections = rejections_;
  {
    std::lock_guard<std::mutex> data_lock(data_mutex_);
    report.last_matured_day = last_matured_day_;
  }
  report.last_verdict = last_verdict_;
  return report;
}

}  // namespace hotspot::adapt
