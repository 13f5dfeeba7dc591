#ifndef HOTSPOT_ADAPT_ADAPTATION_CONTROLLER_H_
#define HOTSPOT_ADAPT_ADAPTATION_CONTROLLER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "adapt/capture.h"
#include "adapt/champion_challenger.h"
#include "core/forecast_service.h"
#include "core/forecaster.h"
#include "monitor/drift.h"
#include "pipeline/bounded_queue.h"
#include "pipeline/serving_pipeline.h"
#include "tensor/tensor3.h"

namespace hotspot::adapt {

/// Where the closed loop stands. The ladder:
///
///   kIdle ──trigger──▶ kRetraining ──bundle ready──▶ kShadowing
///     ▲                    │ capture too thin            │ verdict
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
  /// Serving-universe shape (must match the pipeline the taps attach to;
  /// the channel count comes from the service).
  int num_sectors = 0;
  /// Hyperparameter template for retrains. model/w/h are overridden from
  /// the champion bundle (the serving universe is fixed); t and
  /// training_days are chosen per retrain from the capture window.
  ForecastConfig train;
  /// Finalized feature rows captured per sector, in weeks. Must cover
  /// policy.training_days plus the serving window, horizon and one week
  /// of maturation slack (checked at construction).
  int capture_weeks = 8;
  /// Shadow tee handoff depth, in batches. In blocking mode a full queue
  /// backpressures the pipeline's worker; otherwise overflow batches are
  /// dropped and counted under adapt/shadow_dropped.
  int shadow_queue_capacity = 8;
  /// Lossless (deterministic) shadow scoring: the tee blocks when the
  /// shadow scorer falls behind, so champion and challenger see exactly
  /// the same batches — the mode every test runs. False trades holes in
  /// the comparison sample for zero added predict latency.
  bool shadow_blocking = true;
  /// Fault-injection seam: when set, retraining is bypassed and this
  /// returns the challenger (e.g. a deliberately broken bundle for the
  /// rollback drill). Runs on the retrain worker thread with the
  /// champion bundle the retrain would have forked from.
  std::function<std::unique_ptr<serialize::ForecastBundle>(
      const serialize::ForecastBundle& champion)>
      challenger_for_test;
};

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
/// challenger on a rolling window of rows captured from the live serving
/// path (warm start: Forecaster::TrainBundle's exact seed-stream
/// discipline over the captured tensor, the champion's score config and
/// normalization carried over), scores live traffic with the challenger
/// in shadow via the ServingPipeline predict tee (shadow results never
/// leave the process), compares on matured labels with bootstrap CIs,
/// promotes winners through the service's RCU PromoteBundle path — and
/// rolls back to the archived champion if the promotion regresses within
/// a guard window (the archive keeps shadow-scoring after the swap, so
/// the regression check runs on live matured labels too).
///
/// Wiring: construct the controller, call AttachTaps() on the pipeline
/// Options BEFORE constructing the pipeline, and destroy the pipeline
/// before the controller (the taps hold a pointer to it). The controller
/// never blocks serving: heavy work (TrainBundle, shadow Predict) runs on
/// its own worker threads, and until PromoteBundle the serving path is
/// untouched — champion predictions are bitwise-identical to a
/// controller-free run (pinned by tests/adapt_test.cc).
///
/// Poll() is the deterministic driver: call it from any thread (tests
/// poll at stream milestones; examples poll per ingested week). Every
/// state transition lands as a FlightRecorder kAdaptTransition event and
/// in the adapt/* counters; the flight log reconciles the counters
/// exactly (pinned by the tests and the bench_micro_adapt smoke).
class AdaptationController {
 public:
  /// `service` is the champion's ForecastService (the one the pipeline
  /// serves); not owned, must outlive the controller.
  AdaptationController(ForecastService* service, const AdaptOptions& options);

  /// Joins the worker threads. The pipeline whose taps point here must
  /// already be destroyed (or Finish()ed and quiescent).
  ~AdaptationController();

  AdaptationController(const AdaptationController&) = delete;
  AdaptationController& operator=(const AdaptationController&) = delete;

  /// Installs the controller's four taps (feature-row capture, shadow
  /// predict tee, champion-score tee, matured-label tee) onto pipeline
  /// options. Chains with — never replaces — taps already present.
  void AttachTaps(pipeline::ServingPipeline::Options* options);

  /// Advances the ladder one step: checks the trigger in kIdle, the
  /// verdict gates in kShadowing, the guard window in kPromoted, and
  /// un-latches terminal states. Thread-safe, cheap when nothing changed;
  /// returns the state after the step.
  AdaptState Poll();

  AdaptState state() const;
  AdaptReport Report() const;

  /// Blocks until the ladder reaches `target` (true) or `timeout` passes
  /// (false). States are latched until the next Poll(), so a waiter
  /// always observes transient states like kPromoted.
  bool WaitForState(AdaptState target, std::chrono::milliseconds timeout);

 private:
  /// One queued shadow batch: a deep copy of the windows the champion
  /// scored, made on the pipeline's worker thread inside the tee.
  struct ShadowWork {
    int end_day = 0;
    int target_day = 0;
    Tensor3<float> windows;
  };

  // Tap bodies (hot paths; see AttachTaps).
  void OnFeatureRow(int sector, int hour, const float* row, int channels);
  void OnPredictTee(int end_day, int target_day,
                    const Tensor3<float>& windows);
  void OnPrediction(const StreamingPrediction& prediction);
  void OnOutcome(int day, const std::vector<float>& labels);

  // Worker loops.
  void RetrainLoop();
  void ShadowLoop();

  /// Builds the challenger for `retrain_index` (capture snapshot →
  /// TrainBundle, or the test override) and stands up the shadow service.
  /// Returns false when the capture is still too thin.
  bool BuildChallenger(uint32_t retrain_index);

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
  FeatureCapture capture_;

  mutable std::mutex mutex_;
  std::condition_variable state_cv_;
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
  std::shared_ptr<ForecastService> shadow_service_;
  std::atomic<bool> shadow_active_{false};

  /// Joined evaluation state, fed by the taps (guarded by data_mutex_ —
  /// never take mutex_ inside it; tap hot paths must not contend with a
  /// Poll() holding mutex_ through a verdict).
  mutable std::mutex data_mutex_;
  std::map<int, std::pair<std::vector<float>, uint64_t>> champion_scores_;
  std::map<int, std::vector<float>> shadow_scores_;
  std::map<int, std::vector<float>> matured_labels_;
  int last_matured_day_ = -1;

  pipeline::BoundedQueue<ShadowWork> shadow_queue_;
  std::atomic<bool> stopping_{false};

  std::mutex retrain_mutex_;
  std::condition_variable retrain_cv_;
  bool retrain_requested_ = false;
  uint32_t retrain_index_ = 0;

  std::thread retrain_thread_;
  std::thread shadow_thread_;
};

}  // namespace hotspot::adapt

#endif  // HOTSPOT_ADAPT_ADAPTATION_CONTROLLER_H_
