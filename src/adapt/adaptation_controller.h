#ifndef HOTSPOT_ADAPT_ADAPTATION_CONTROLLER_H_
#define HOTSPOT_ADAPT_ADAPTATION_CONTROLLER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "adapt/champion_challenger.h"
#include "core/forecast_service.h"
#include "core/forecaster.h"
#include "features/feature_tensor.h"
#include "monitor/drift.h"
#include "pipeline/serving_pipeline.h"
#include "stream/incremental_features.h"
#include "tensor/matrix.h"
#include "tensor/window_batch.h"

namespace hotspot::adapt {

/// Where the closed loop stands. The ladder:
///
///   kIdle ──trigger──▶ kRetraining ──bundle ready──▶ kShadowing
///     ▲                    │ history too thin            │ verdict
///     │                    ▼                             ▼
///     │◀─cooldown── (back to kIdle)      kPromoted / kRejected
///     │                                       │ guard window
///     │◀──────────────cooldown────────── kRolledBack / (guard passed)
///
/// kPromoted, kRolledBack and kRejected latch until the next Poll() so
/// callers observe them; every edge is a FlightRecorder kAdaptTransition
/// event plus an adapt/transitions count.
enum class AdaptState : int {
  kIdle = 0,
  kRetraining = 1,
  kShadowing = 2,
  kPromoted = 3,
  kRolledBack = 4,
  kRejected = 5,
};

const char* AdaptStateName(AdaptState state);

/// When to act and how sure to be. Day-denominated gates count *matured
/// stream days* (days whose ground-truth labels have closed), the only
/// clock the comparison can advance on.
struct AdaptPolicy {
  /// Minimum monitor verdict (on the drift/quality signals) that starts a
  /// retrain: kDrift acts only on confirmed drift, kWarn acts earlier.
  monitor::AlertState trigger = monitor::AlertState::kDrift;
  /// Matured days pooled as training labels per retrain (the rolling
  /// window handed to Forecaster::TrainBundle as training_days).
  int training_days = 14;
  /// Matured target days the shadow comparison must span before a
  /// promotion verdict may be reached.
  int min_shadow_days = 3;
  /// Joined (sector, day) rows the comparison must cover.
  uint64_t min_compared_rows = 128;
  /// Maximum-age gate: a challenger that cannot win within this many
  /// matured shadow days is rejected (the world moved on; retrain fresh).
  int max_shadow_days = 14;
  /// Promotion verdict thresholds (lift-delta + bootstrap-CI gates).
  ComparisonPolicy comparison;
  /// Matured post-promotion days the archived champion keeps shadowing
  /// before the promotion is considered safe.
  int guard_days = 3;
  /// Rollback when the archived champion's lift beats the promoted
  /// bundle's by more than this during the guard window.
  double rollback_lift_margin = 0.0;
  /// Matured days after a terminal verdict before the trigger re-arms.
  int cooldown_days = 7;
};

/// Everything an AdaptationController is configured by.
struct AdaptOptions {
  AdaptPolicy policy;
  /// Hyperparameter template for retrains. model/w/h are overridden from
  /// the champion bundle (the serving universe is fixed), training_days
  /// from the policy, and t from the training slice, which is cut long
  /// enough for training_day_stride and tree_training_days to pool every
  /// configured day.
  ForecastConfig train;
  /// Fault-injection seam: when set, retraining is bypassed and this
  /// returns the challenger (e.g. a deliberately broken bundle for the
  /// rollback drill). Poll() calls it when the trigger fires, with the
  /// champion bundle the retrain would have forked from; no training
  /// slice is cut.
  std::function<std::unique_ptr<serialize::ForecastBundle>(
      const serialize::ForecastBundle& champion)>
      challenger_for_test;
};

/// The training inputs cut from the serving engine's history, in stream
/// coordinates: tensor day d is stream day `base_day + d`. The daily
/// score and label matrices are exact reconstructions from the row
/// channels (up(S^d) and up(Y^d) are constant within a day, so the hour
/// 24·d sample IS the day's value) — the same matrices the batch study
/// would have produced over this span.
struct TrainingSlice {
  int base_day = 0;
  int num_days = 0;
  features::FeatureTensor features;
  Matrix<float> daily_scores;
  Matrix<float> target_labels;
};

/// Cuts the `num_days` whole days that end at the engine's slowest
/// finalized frontier (min_finalized_hours()) into `out`, every row
/// bitwise the one the live model was served from. Returns false, leaving
/// `out` alone, when that span is not finalized and inside every
/// sector's history ring — a sector that ran a week ahead may already
/// have overwritten the span's start. Reads the engine, so call it where
/// the engine is not being fed (the pipeline's outcome tee).
bool CutTrainingSlice(const stream::IncrementalFeatureEngine& engine,
                      int num_days, TrainingSlice* out);

/// One Report() snapshot of the controller.
struct AdaptReport {
  AdaptState state = AdaptState::kIdle;
  uint64_t champion_generation = 0;
  uint32_t retrains = 0;
  uint32_t promotions = 0;
  uint32_t rollbacks = 0;
  uint32_t rejections = 0;
  int last_matured_day = -1;
  /// The most recent champion/challenger verdict (all-zero before one is
  /// computed).
  ComparisonVerdict last_verdict;
};

/// The subsystem that closes the monitor → model loop: watches
/// ForecastService::Health() for the policy trigger, retrains a
/// challenger on the newest days of the serving engine's own history
/// (warm start: Forecaster::TrainBundle's exact seed-stream discipline
/// over the cut slice, the champion's score config carried over), scores
/// live traffic with the challenger in shadow via the ServingPipeline
/// predict tee (shadow results never leave the process), compares on
/// matured labels with bootstrap CIs, promotes winners through the
/// service's RCU PromoteBundle path — and rolls back to the archived
/// champion if the promotion regresses within a guard window (the
/// archive keeps shadow-scoring after the swap, so the regression check
/// runs on live matured labels too).
///
/// Wiring: construct the controller, call AttachTaps() on the pipeline
/// Options BEFORE constructing the pipeline, and destroy the pipeline
/// before the controller (the taps hold a pointer to it). The controller
/// has no threads of its own. On the pipeline's worker the taps only
/// copy: the windows of each batch while a shadow is live, the champion's
/// scores, the matured labels, and — once, at the first day close after
/// a retrain is requested — the training slice out of the engine's
/// history. Training and shadow scoring run inside Poll(), on the
/// caller's thread. Until PromoteBundle the serving path is untouched —
/// champion predictions are bitwise-identical to a controller-free run
/// (pinned by tests/adapt_test.cc).
///
/// Poll() drives the ladder: call it from any thread, at least once per
/// stream day while a shadow is live — the batches the predict tee
/// copied wait, unbounded, for the next Poll() to score them (feeders
/// poll at every day close; a chained outcome tee may poll too,
/// which runs the ladder on the worker, on the stream clock, and costs
/// the worker the Poll). A Poll() that trains takes as long as
/// TrainBundle does. Every state transition lands as a FlightRecorder
/// kAdaptTransition event and in the adapt/* counters; the flight log
/// reconciles the counters exactly (pinned by the tests and the
/// bench_micro_adapt smoke).
class AdaptationController {
 public:
  /// `service` is the champion's ForecastService (the one the pipeline
  /// serves); not owned, must outlive the controller.
  AdaptationController(ForecastService* service, const AdaptOptions& options);

  AdaptationController(const AdaptationController&) = delete;
  AdaptationController& operator=(const AdaptationController&) = delete;

  /// Installs the controller's three taps (shadow predict tee,
  /// champion-score tee, matured-label tee) onto pipeline options.
  /// Chains with — never replaces — taps already present. Checks that
  /// options->history_weeks keeps a training slice (the pooled label
  /// days, training_day_stride apart, plus the serving window and
  /// horizon) with a week to spare: at a day close the fastest sector's
  /// ring can be a week ahead of the slice's end.
  void AttachTaps(pipeline::ServingPipeline::Options* options);

  /// Advances the ladder one step, after scoring every batch the predict
  /// tee copied since the last Poll(): checks the trigger in kIdle, trains
  /// the challenger once the outcome tee has cut its slice in
  /// kRetraining, the verdict gates in kShadowing, the guard window in
  /// kPromoted, and un-latches terminal states. Thread-safe; returns the
  /// state after the step.
  AdaptState Poll();

  AdaptState state() const;
  AdaptReport Report() const;

 private:
  /// One teed shadow batch: a deep copy of the windows the champion
  /// scored, made on the pipeline's worker thread inside the tee.
  struct ShadowWork {
    int target_day = 0;
    int count = 0;
    int hours = 0;
    int channels = 0;
    /// `count` windows of hours x channels floats, back to back.
    std::vector<float> windows;
  };

  /// Where the retrain's training slice stands (guarded by data_mutex_):
  /// Poll() requests it, the outcome tee answers at the next day close.
  enum class SliceState { kNone, kRequested, kCut, kRefused };

  // Tap bodies (hot paths; see AttachTaps).
  void OnPredictTee(int target_day, const WindowBatch& windows);
  void OnPrediction(const StreamingPrediction& prediction);
  void OnOutcome(int day, const std::vector<float>& labels,
                 const stream::IncrementalFeatureEngine& engine);

  /// Scores the batches the predict tee copied since the last call with
  /// the shadow service, outside data_mutex_. Caller holds mutex_.
  void ScoreTeedBatchesLocked();

  /// Builds the challenger (TrainBundle over `slice`, or the test
  /// override when `slice` is null) and stands up the shadow service.
  /// Returns false when no challenger came out. Caller holds mutex_.
  bool BuildChallengerLocked(const TrainingSlice* slice);
  /// Ends the retrain: kShadowing when `built`, else back to kIdle with
  /// adapt/retrain_failures counted.
  void FinishRetrainLocked(bool built);

  /// Joins champion scores, shadow scores and matured labels over target
  /// days in (`after_day`, last matured], restricted to champion rows
  /// served by `generation` (0 = any generation).
  ComparisonSample JoinSample(int after_day, uint64_t generation) const;

  /// The one place state changes: records the flight event and counters.
  /// Caller holds mutex_.
  void TransitionLocked(AdaptState next, double lift_delta = 0.0);

  void PromoteChallengerLocked();
  void RollbackLocked();
  /// Tears the shadow down and drops the joined evaluation state.
  void EndEpisodeLocked();
  /// Re-arms the trigger `cooldown_days` matured days from now.
  void SetCooldownLocked();

  ForecastService* service_;
  AdaptOptions options_;
  /// Days in a training slice: the span of the pooled label days
  /// (training_day_stride apart) plus the serving window and horizon the
  /// oldest of them reaches back over.
  int slice_days_ = 0;

  /// Guards the ladder and everything Poll() owns. Held through training
  /// and shadow scoring, so Report() waits for a training Poll().
  mutable std::mutex mutex_;
  AdaptState state_ = AdaptState::kIdle;
  uint32_t retrains_ = 0;
  uint32_t promotions_ = 0;
  uint32_t rollbacks_ = 0;
  uint32_t rejections_ = 0;
  ComparisonVerdict last_verdict_;
  /// Matured-day the trigger re-arms at after a terminal verdict.
  int cooldown_until_day_ = -1;
  /// First matured target day eligible for the current comparison (days
  /// at or before it predate the shadow/guard episode).
  int compare_after_day_ = -1;
  /// Promotion provenance for the guard window and the
  /// promote-to-first-serve latency gauge. Atomics because the prediction
  /// tee reads them without taking mutex_ (the tap lock-order rule).
  std::atomic<uint64_t> promoted_generation_{0};
  std::atomic<uint64_t> promoted_at_ns_{0};
  std::atomic<bool> first_serve_latency_pending_{false};

  /// The challenger bundle retained for promotion; its clone serves in
  /// shadow_service_. After promotion the roles swap: the archived
  /// champion clone takes over shadow duty for the guard window.
  std::unique_ptr<serialize::ForecastBundle> challenger_bundle_;
  std::unique_ptr<serialize::ForecastBundle> archived_champion_;
  std::unique_ptr<ForecastService> shadow_service_;
  std::atomic<bool> shadow_active_{false};
  /// The shadow's scores per target day.
  std::map<int, std::vector<float>> shadow_scores_;

  /// State the taps write, guarded by data_mutex_ — never take mutex_
  /// inside it, and never hold it while training or scoring: the taps
  /// run on the serving worker, which must not wait out a Poll().
  mutable std::mutex data_mutex_;
  std::vector<ShadowWork> teed_batches_;
  std::map<int, std::pair<std::vector<float>, uint64_t>> champion_scores_;
  std::map<int, std::vector<float>> matured_labels_;
  int last_matured_day_ = -1;
  SliceState slice_state_ = SliceState::kNone;
  TrainingSlice slice_;
};

}  // namespace hotspot::adapt

#endif  // HOTSPOT_ADAPT_ADAPTATION_CONTROLLER_H_
