#ifndef HOTSPOT_MONITOR_MONITOR_H_
#define HOTSPOT_MONITOR_MONITOR_H_

#include <mutex>
#include <vector>

#include "monitor/drift.h"
#include "monitor/fingerprint.h"
#include "monitor/health.h"
#include "monitor/quality.h"
#include "obs/metrics.h"
#include "tensor/window_batch.h"

namespace hotspot::monitor {

/// Everything tunable about the online monitor. The defaults are sized so
/// that a 500-sector fleet reaches a drift verdict within a handful of
/// serve batches while keeping the per-batch observation cost far below
/// the model-inference cost (the <5 % serve-overhead budget).
struct MonitorConfig {
  DriftThresholds drift;
  /// Rolling live-sample window per monitored signal.
  int drift_window = 512;
  /// Input drift sampling rate: up to this many evenly spaced hours of
  /// the freshest day of each served window are observed per sector (the
  /// default observes the whole day — the cost is ring-buffer writes,
  /// far below model-inference cost). The monitor decimates further when
  /// one batch would overflow `drift_window`, and rotates the sampling
  /// phase per sector, so the retained window always spans every sector
  /// and every clock hour — a sector- or clock-hour subset has a
  /// different marginal distribution than the fingerprint and would
  /// falsely read as drift.
  int input_sample_hours = 24;
  QualityConfig quality;
  QualityThresholds quality_thresholds;
  LatencySlo latency;
  /// De-escalation hysteresis of the reported ladder states. Escalation
  /// is always immediate (a raw DRIFT verdict reports as DRIFT on the
  /// same Report() call), but a reported state only steps DOWN one rung
  /// after this many consecutive Report() calls whose raw verdict was
  /// below the reported rung — so a drift episode that subsides walks
  /// DRIFT→WARN→OK instead of snapping to OK the moment the rolling
  /// window flushes, and a verdict flickering around a threshold cannot
  /// oscillate the ladder (each flicker resets the hold count). 0
  /// disables the hysteresis and reports raw verdicts.
  int ladder_hold_reports = 2;
};

/// The online monitoring core a ForecastService owns when monitoring is
/// enabled: rolling drift detection against the bundle fingerprints,
/// delayed-label quality tracking, and serve-latency accounting, rolled up
/// into HealthReport snapshots on demand.
///
/// All entry points are thread-safe (one internal mutex; observation work
/// per batch is microseconds, so contention is not a concern at the
/// serve rates the latency SLO targets). Monitoring is strictly
/// read-only with respect to predictions: it never feeds back into the
/// scores, so serving stays bitwise identical with monitoring on or off.
class ServingMonitor {
 public:
  /// `fingerprints` must outlive the monitor (the owning bundle does).
  ServingMonitor(const BundleFingerprints* fingerprints,
                 const MonitorConfig& config);

  ServingMonitor(const ServingMonitor&) = delete;
  ServingMonitor& operator=(const ServingMonitor&) = delete;

  /// Records one served batch: strided input samples from the freshest
  /// day of each sector's window, the predicted scores, and the batch
  /// latency. `windows` holds one sector per window, matching `scores`.
  void ObserveBatch(const WindowBatch& windows,
                    const std::vector<float>& scores, double latency_seconds);

  /// Feeds matured ground-truth labels back (same ordering contract as
  /// Predict: scores[i] and labels[i] belong to the same sector/day).
  void RecordOutcomes(const std::vector<float>& scores,
                      const std::vector<float>& labels);

  /// Runs the drift tests and metric roll-ups and assembles the current
  /// health snapshot (monitoring_enabled is always true here; the
  /// disabled-path report comes from ForecastService).
  HealthReport Report() const;

  const MonitorConfig& config() const { return config_; }

 private:
  MonitorConfig config_;
  mutable std::mutex mutex_;
  /// Ladder states as of the previous Report() — the reference the
  /// flight-recorder ladder-transition events are diffed against. States
  /// only exist at Report() time (they are computed, not stored), so
  /// transitions are detected there; mutable because Report() is
  /// logically const. Guarded by mutex_.
  mutable AlertState last_overall_ = AlertState::kOk;
  mutable AlertState last_drift_ = AlertState::kOk;
  mutable AlertState last_quality_ = AlertState::kOk;
  mutable AlertState last_latency_ = AlertState::kOk;
  /// De-escalation hysteresis state per signal (see
  /// MonitorConfig::ladder_hold_reports): the currently reported rung and
  /// how many consecutive Report() calls saw a raw verdict below it.
  /// Guarded by mutex_; mutable for the same reason as last_*.
  struct DampedSignal {
    AlertState reported = AlertState::kOk;
    int hold = 0;
  };
  /// Applies the one-rung-down-per-hold rule to one signal's raw verdict
  /// and returns the state to report.
  AlertState Damp(AlertState raw, DampedSignal* signal) const;
  mutable DampedSignal damped_drift_;
  mutable DampedSignal damped_quality_;
  mutable DampedSignal damped_latency_;
  /// Channels with a non-empty reference reservoir — the only ones worth
  /// observing on the serve path.
  std::vector<int> monitored_channels_;
  DriftDetector drift_;
  QualityTracker quality_;
  obs::Histogram latency_;
  uint64_t requests_ = 0;
  uint64_t windows_ = 0;
};

}  // namespace hotspot::monitor

#endif  // HOTSPOT_MONITOR_MONITOR_H_
