#ifndef HOTSPOT_CORE_FORECAST_SERVICE_H_
#define HOTSPOT_CORE_FORECAST_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ml/flat_tree.h"
#include "monitor/monitor.h"
#include "serialize/bundle.h"
#include "tensor/tensor3.h"
#include "tensor/window_batch.h"

namespace hotspot {

/// Warm-start forecast serving: loads a ForecastBundle once and answers
/// batched predictions over incoming KPI windows for the rest of its
/// lifetime — the deployment half of the train-offline / serve-online
/// split the bundle format exists for.
///
/// Serving scores caller-provided windows — a WindowBatch view, read in
/// place — with the classifier compiled into an ml::FlatForest, bitwise
/// identical to the pointer-walking BinaryClassifier::PredictProba, which
/// stays as the test oracle. For Tree, RF-R and GBDT bundles the window
/// is itself the feature row (RawExtractor's output), so the kernel reads
/// the view's rows where they lie; RF-F1 and RF-F2 bundles copy each
/// window out for their extractor, the training-time feature path. Work
/// runs through the thread pool (one row block per task, index-owned
/// writes, so results are bitwise-independent of HOTSPOT_NUM_THREADS),
/// and reports under the `serve/` observability namespace: counters
/// serve/requests and serve/windows, spans serve/load and serve/predict,
/// and the serve/latency_seconds histogram.
///
/// When the bundle carries monitoring fingerprints, the service also
/// runs an online ServingMonitor: every Predict batch feeds
/// the drift detector and the latency SLO tracker, RecordOutcomes()
/// accepts matured ground-truth labels for model-quality tracking, and
/// Health() snapshots the whole thing. Monitoring never feeds back into
/// the scores — predictions are bitwise identical with it on or off.
/// Bundles without fingerprints serve normally with monitoring gracefully
/// disabled.
///
/// Hot bundle swap (RCU): everything a prediction reads — the bundle, the
/// extractor it pins, the compiled flat forest, the monitor — lives in one
/// immutable ServingState published through a guarded shared_ptr cell.
/// PromoteBundle() builds a fully validated replacement state and installs
/// it with a single pointer publish; each Predict batch snapshots the state
/// pointer exactly once and holds a reference for the whole batch, so
/// in-flight batches finish on the model they started on, new batches see
/// the new model, and no batch ever observes a half-swapped mix (the
/// swap-linearizability contract tests/fleet_test.cc tortures under TSan).
/// Every published state carries a monotonic generation tag that Predict
/// reports out, so callers can prove exactly which model served each row.
/// Promotion failures (unservable bundle, serving-universe mismatch) are
/// atomic: the error is returned and the old state keeps serving.
class ForecastService {
 public:
  /// Takes ownership of a loaded (servable) bundle.
  explicit ForecastService(std::unique_ptr<serialize::ForecastBundle> bundle);

  ForecastService(const ForecastService&) = delete;
  ForecastService& operator=(const ForecastService&) = delete;

  /// Loads the bundle at `path` and wraps it in a service. On error the
  /// status carries the reason and `service` is untouched.
  static serialize::Status Load(const std::string& path,
                                std::unique_ptr<ForecastService>* service);

  /// Scores one batch of sector windows, read in place: each window is
  /// the X_{i, t−w : t, :} slice of Eq. 6 (window_hours() rows of
  /// num_channels() floats), and the result is one hot-spot score per
  /// sector for day t+h. When `served_generation` is non-null it receives
  /// the generation tag of the bundle that scored this batch — the whole
  /// batch, every row (batches never straddle a swap). The serving core:
  /// the overloads below are views onto it.
  std::vector<float> Predict(const WindowBatch& windows,
                             uint64_t* served_generation = nullptr) const;

  /// Scores a sectors x (24·window_days) x channels tensor of windows.
  std::vector<float> Predict(const Tensor3<float>& windows,
                             uint64_t* served_generation = nullptr) const;

  /// Convenience for callers that hold a full feature tensor: scores the
  /// windows ending at `end_day` for every sector, read from the tensor
  /// itself (stride num_hours × channels).
  std::vector<float> PredictAtDay(const features::FeatureTensor& features,
                                  int end_day,
                                  uint64_t* served_generation = nullptr) const;

  /// RCU hot swap: validates `bundle` (servable classifier, same serving
  /// universe — window_days, horizon_days, num_channels — as the current
  /// bundle, a compiled flat engine), arms its monitor when it
  /// carries fingerprints (reusing the current monitor config), and
  /// installs it atomically under live traffic. In-flight batches finish
  /// on the old bundle; the old state is freed when its last batch drops
  /// its reference. On failure the status names the reason, the old
  /// bundle keeps serving and the generation does not advance. Thread-safe
  /// against Predict from any number of threads; concurrent promotions are
  /// serialized. `new_generation` (optional) receives the installed
  /// state's tag. Counted under serve/promotions.
  serialize::Status PromoteBundle(
      std::unique_ptr<serialize::ForecastBundle> bundle,
      uint64_t* new_generation = nullptr);

  /// Generation tag of the currently installed bundle: 0 at construction,
  /// +1 per successful promotion (monitoring toggles do not advance it).
  uint64_t generation() const;

  /// True when `score` crosses the bundle's operator hot-spot threshold.
  bool IsHot(float score) const;

  /// (Re)starts online monitoring with `config`. Returns false — and
  /// leaves monitoring off — when the bundle has no fingerprints.
  /// Monitoring starts automatically with a default config at
  /// construction when fingerprints are present, so this is only needed
  /// to tune thresholds or to re-enable after DisableMonitoring().
  bool EnableMonitoring(const monitor::MonitorConfig& config = {});
  void DisableMonitoring();
  bool monitoring_enabled() const;

  /// Feeds matured ground-truth labels for previously served scores into
  /// the quality tracker (scores[i] and labels[i] are the same
  /// sector/day). No-op when monitoring is disabled.
  void RecordOutcomes(const std::vector<float>& scores,
                      const std::vector<float>& labels) const;

  /// Current health snapshot. With monitoring disabled the report says so
  /// (monitoring_enabled = false, everything OK and empty).
  monitor::HealthReport Health() const;

  /// The currently installed bundle. The reference is only stable while
  /// no concurrent PromoteBundle runs — once a promotion publishes a new
  /// state it can dangle as soon as the old state's last batch reference
  /// drops. Prefer bundle_snapshot() in new code (it keeps the bundle
  /// alive for as long as the returned pointer is held), or the
  /// serving-universe invariant accessors below when only the shape is
  /// needed; bundle() remains for single-threaded tooling and tests.
  const serialize::ForecastBundle& bundle() const;
  std::shared_ptr<const serialize::ForecastBundle> bundle_snapshot() const;

  /// Serving-universe invariants (fixed across promotions, so they are
  /// safe to cache and to read concurrently with swaps).
  int window_hours() const { return 24 * window_days_; }
  int window_days() const { return window_days_; }
  int horizon_days() const { return horizon_days_; }
  int num_channels() const { return num_channels_; }

  /// The compiled flat forest every Predict runs (never null). Same
  /// stability caveat as bundle().
  const ml::FlatForest& flat_forest() const;

 private:
  /// One immutable serving configuration: the bundle, the extractor its
  /// model kind pins, the (internally synchronized) monitor, and the
  /// generation tag. Published via `state_`; never mutated after
  /// publication — replaced wholesale by PromoteBundle and the monitoring
  /// toggles, which is what makes a reader's single pointer snapshot a
  /// consistent view of all four.
  struct ServingState {
    std::shared_ptr<serialize::ForecastBundle> bundle;
    /// Null for raw-window models (Tree, RF-R, GBDT): the window is the
    /// feature row, scored in place.
    const features::FeatureExtractor* extractor = nullptr;
    std::shared_ptr<monitor::ServingMonitor> monitor;
    uint64_t generation = 0;
  };

  /// Builds (and validates) the state for `bundle`: extractor selection by
  /// model kind, flat-forest presence and width, monitor when
  /// fingerprints are present. Returns null with the reason in `error`.
  std::shared_ptr<ServingState> BuildState(
      std::shared_ptr<serialize::ForecastBundle> bundle, uint64_t generation,
      const monitor::MonitorConfig& monitor_config, bool enable_monitoring,
      std::string* error) const;

  std::shared_ptr<const ServingState> state() const {
    std::lock_guard<std::mutex> lock(state_mutex_);
    return state_;
  }

  void PublishState(std::shared_ptr<const ServingState> next) {
    std::lock_guard<std::mutex> lock(state_mutex_);
    state_ = std::move(next);
  }

  /// The RCU publication point: readers snapshot the pointer once per
  /// batch, writers (PromoteBundle, monitoring toggles — serialized by
  /// `swap_mutex_`) publish a fresh immutable state. The cell is a
  /// mutex-guarded shared_ptr rather than std::atomic<std::shared_ptr>:
  /// libstdc++ 12's _Sp_atomic unlocks its reader spinlock with a relaxed
  /// RMW (shared_ptr_atomic.h, load()), which leaves no happens-before
  /// edge from a reader's raw-pointer read to the next writer's store —
  /// ThreadSanitizer flags the pair, and the letter of the memory model
  /// agrees. The lock here covers only the refcount bump; batches run on
  /// the snapshot outside it, so promotions still never wait on in-flight
  /// batches and a batch can never observe a torn state.
  std::shared_ptr<const ServingState> state_;
  mutable std::mutex state_mutex_;
  std::mutex swap_mutex_;

  // Serving-universe invariants, pinned at construction and enforced on
  // every promotion — the reason they are plain members, not state.
  int window_days_ = 0;
  int horizon_days_ = 0;
  int num_channels_ = 0;

  features::DailyPercentileExtractor percentile_extractor_;
  features::HandcraftedExtractor handcrafted_extractor_;
};

}  // namespace hotspot

#endif  // HOTSPOT_CORE_FORECAST_SERVICE_H_
