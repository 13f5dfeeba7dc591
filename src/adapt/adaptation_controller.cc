#include "adapt/adaptation_controller.h"

#include <algorithm>
#include <utility>

#include "obs/pipeline_context.h"
#include "pipeline/stage.h"
#include "tensor/temporal.h"
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

AdaptationController::AdaptationController(ForecastService* service,
                                           const AdaptOptions& options)
    : service_(service),
      options_(options),
      capture_(CaptureConfig{options.num_sectors,
                             service->num_channels() - 9,
                             options.capture_weeks}),
      shadow_queue_(std::max(1, options.shadow_queue_capacity)) {
  HOTSPOT_CHECK(service != nullptr);
  HOTSPOT_CHECK_GT(options.num_sectors, 0);
  // The capture must be able to hold one full training snapshot: the
  // pooled label days plus the serving window and horizon they reach
  // back over (Snapshot's min_days), with a week of frontier slack
  // (rows finalize at week close, so up to a week of the ring is still
  // pre-frontier when drift fires).
  const int needed_days = options.policy.training_days +
                          service->window_days() + service->horizon_days() +
                          kDaysPerWeek;
  HOTSPOT_CHECK_GE(options.capture_weeks * kDaysPerWeek, needed_days);
  retrain_thread_ = std::thread(&AdaptationController::RetrainLoop, this);
  shadow_thread_ = std::thread(&AdaptationController::ShadowLoop, this);
}

AdaptationController::~AdaptationController() {
  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(retrain_mutex_);
    retrain_cv_.notify_all();
  }
  shadow_queue_.Close();
  if (retrain_thread_.joinable()) retrain_thread_.join();
  if (shadow_thread_.joinable()) shadow_thread_.join();
}

void AdaptationController::AttachTaps(
    pipeline::ServingPipeline::Options* options) {
  HOTSPOT_CHECK(options != nullptr);
  auto chain_row = std::move(options->feature_row_tap);
  options->feature_row_tap = [this, chain_row](int sector, int hour,
                                               const float* row,
                                               int channels) {
    OnFeatureRow(sector, hour, row, channels);
    if (chain_row) chain_row(sector, hour, row, channels);
  };
  auto chain_predict = std::move(options->predict_tee);
  options->predict_tee = [this, chain_predict](
                             int end_day, int target_day,
                             const Tensor3<float>& windows) {
    OnPredictTee(end_day, target_day, windows);
    if (chain_predict) chain_predict(end_day, target_day, windows);
  };
  auto chain_prediction = std::move(options->prediction_tee);
  options->prediction_tee =
      [this, chain_prediction](const StreamingPrediction& prediction) {
        OnPrediction(prediction);
        if (chain_prediction) chain_prediction(prediction);
      };
  auto chain_outcome = std::move(options->outcome_tee);
  options->outcome_tee = [this, chain_outcome](
                             int day, const std::vector<float>& labels) {
    OnOutcome(day, labels);
    if (chain_outcome) chain_outcome(day, labels);
  };
}

void AdaptationController::OnFeatureRow(int sector, int hour,
                                        const float* row, int channels) {
  // The capture runs in every state: the rolling corpus must already
  // span the drifted regime by the time the trigger fires.
  capture_.OnRow(sector, hour, row, channels);
}

void AdaptationController::OnPredictTee(int end_day, int target_day,
                                        const Tensor3<float>& windows) {
  if (!shadow_active_.load(std::memory_order_acquire)) return;
  ShadowWork work;
  work.end_day = end_day;
  work.target_day = target_day;
  work.windows = windows;  // deep copy: the pipeline owns the original
  if (options_.shadow_blocking) {
    shadow_queue_.Push(std::move(work));
  } else if (!shadow_queue_.TryPush(work)) {
    Count("adapt/shadow_dropped");
  }
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

void AdaptationController::OnOutcome(int day,
                                     const std::vector<float>& labels) {
  std::lock_guard<std::mutex> lock(data_mutex_);
  // The maturation frontier always advances (the kIdle trigger's
  // cooldown is denominated in it); the label payload is only retained
  // while a comparison is live.
  last_matured_day_ = std::max(last_matured_day_, day);
  if (shadow_active_.load(std::memory_order_acquire)) {
    matured_labels_[day] = labels;
  }
}

void AdaptationController::RetrainLoop() {
  for (;;) {
    uint32_t index = 0;
    {
      std::unique_lock<std::mutex> lock(retrain_mutex_);
      retrain_cv_.wait(lock, [&] {
        return retrain_requested_ || stopping_.load(std::memory_order_acquire);
      });
      if (stopping_.load(std::memory_order_acquire)) return;
      retrain_requested_ = false;
      index = retrain_index_;
    }
    const bool ok = BuildChallenger(index);
    std::lock_guard<std::mutex> lock(mutex_);
    if (state_ != AdaptState::kRetraining) continue;  // torn down meanwhile
    if (ok) {
      // Compare only target days that mature from here on: days already
      // matured were never shadow-scored.
      {
        std::lock_guard<std::mutex> data_lock(data_mutex_);
        compare_after_day_ = last_matured_day_;
      }
      shadow_active_.store(true, std::memory_order_release);
      TransitionLocked(AdaptState::kShadowing);
    } else {
      Count("adapt/retrain_failures");
      TransitionLocked(AdaptState::kIdle);
    }
  }
}

bool AdaptationController::BuildChallenger(uint32_t retrain_index) {
  std::shared_ptr<const serialize::ForecastBundle> champion =
      service_->bundle_snapshot();
  std::unique_ptr<serialize::ForecastBundle> challenger;
  const uint64_t started_ns = pipeline::SteadyNowNs();
  if (options_.challenger_for_test) {
    challenger = options_.challenger_for_test(*champion);
    if (challenger == nullptr) return false;
    if (challenger->lineage == nullptr) {
      challenger->lineage = std::make_unique<serialize::BundleLineage>();
      challenger->lineage->source = "adapt/test_override";
    }
    challenger->lineage->parent_generation = service_->generation();
    challenger->lineage->retrain_index = retrain_index;
  } else {
    const int w = champion->window_days;
    const int h = champion->horizon_days;
    // Enough matured days that the pooled training window is fully
    // usable: t_local = num_days - 1, and the oldest pooled day's window
    // must not start before the slice.
    const int min_days = options_.policy.training_days + w + h;
    TrainingSlice slice;
    if (!capture_.Snapshot(min_days, &slice)) return false;
    Forecaster forecaster(&slice.features, &slice.daily_scores,
                          &slice.target_labels);
    ForecastConfig config = options_.train;
    config.model = champion->model;
    config.w = w;
    config.h = h;
    config.t = slice.num_days - 1;
    config.training_days = options_.policy.training_days;
    challenger = forecaster.TrainBundle(config);
    if (challenger == nullptr) return false;
    // Study-level state the forecaster never sees: carried over from the
    // champion so the challenger serves the exact same universe.
    challenger->score = champion->score;
    challenger->normalization = champion->normalization;
    challenger->lineage = std::make_unique<serialize::BundleLineage>();
    challenger->lineage->parent_generation = service_->generation();
    challenger->lineage->retrain_index = retrain_index;
    challenger->lineage->trained_end_day = slice.base_day + config.t;
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
  auto shadow = std::make_shared<ForecastService>(
      serialize::CloneBundle(*challenger));
  shadow->DisableMonitoring();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    challenger_bundle_ = std::move(challenger);
  }
  std::lock_guard<std::mutex> data_lock(data_mutex_);
  shadow_service_ = std::move(shadow);
  champion_scores_.clear();
  shadow_scores_.clear();
  matured_labels_.clear();
  return true;
}

void AdaptationController::ShadowLoop() {
  ShadowWork work;
  while (shadow_queue_.Pop(&work)) {
    std::shared_ptr<ForecastService> shadow;
    {
      std::lock_guard<std::mutex> lock(data_mutex_);
      shadow = shadow_service_;
    }
    if (shadow == nullptr) continue;  // teardown raced a queued batch
    std::vector<float> scores = shadow->Predict(work.windows);
    Count("adapt/shadow_batches");
    Count("adapt/shadow_rows", scores.size());
    std::lock_guard<std::mutex> lock(data_mutex_);
    shadow_scores_[work.target_day] = std::move(scores);
  }
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
        std::lock_guard<std::mutex> retrain_lock(retrain_mutex_);
        retrain_requested_ = true;
        retrain_index_ = retrains_;
        retrain_cv_.notify_all();
      }
      break;
    }
    case AdaptState::kRetraining:
      break;  // the retrain worker owns the next edge
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
  auto guard_shadow = std::make_shared<ForecastService>(
      serialize::CloneBundle(*archived_champion_));
  guard_shadow->DisableMonitoring();
  {
    std::lock_guard<std::mutex> data_lock(data_mutex_);
    shadow_service_ = std::move(guard_shadow);
    champion_scores_.clear();
    shadow_scores_.clear();
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
  std::lock_guard<std::mutex> data_lock(data_mutex_);
  shadow_service_.reset();
  champion_scores_.clear();
  shadow_scores_.clear();
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
  state_cv_.notify_all();
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

bool AdaptationController::WaitForState(AdaptState target,
                                        std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mutex_);
  return state_cv_.wait_for(lock, timeout,
                            [&] { return state_ == target; });
}

}  // namespace hotspot::adapt
