#ifndef HOTSPOT_ADAPT_CAPTURE_H_
#define HOTSPOT_ADAPT_CAPTURE_H_

#include <mutex>
#include <vector>

#include "features/feature_tensor.h"
#include "tensor/matrix.h"
#include "tensor/tensor3.h"

namespace hotspot::adapt {

/// Sizing of the rolling training-data capture.
struct CaptureConfig {
  int num_sectors = 0;
  int num_kpis = 0;
  /// Finalized feature rows retained per sector, in weeks — the deepest
  /// training window a retrain can reach back over.
  int capture_weeks = 8;
};

/// The training inputs rebuilt from one capture snapshot, in stream
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

/// Rolling store of the serving path's finalized feature rows — the
/// retraining corpus the adaptation controller snapshots when drift
/// fires. Fed from ServingPipeline::Options::feature_row_tap (the
/// incremental engine's row sink), so every captured row is bitwise the
/// row the live model was served from; no second feature path exists to
/// diverge.
///
/// Rows arrive in per-sector hour order (the engine finalizes in order)
/// and land in a per-sector ring `capture_weeks` deep. OnRow runs on the
/// pipeline's worker thread; Snapshot on the controller's retrain
/// worker — one mutex covers both (per-row cost is one uncontended lock
/// plus a memcpy of ~20 floats, noise next to the engine's own work).
class FeatureCapture {
 public:
  explicit FeatureCapture(const CaptureConfig& config);

  FeatureCapture(const FeatureCapture&) = delete;
  FeatureCapture& operator=(const FeatureCapture&) = delete;

  /// Appends one finalized feature row (the FeatureRowSink contract:
  /// `row` is valid only for the call). `hour` must be the sector's
  /// capture frontier; out-of-order rows fail the check — the engine
  /// guarantees order, so a trip here means the tap was wired wrong.
  void OnRow(int sector, int hour, const float* row, int channels);

  /// Rebuilds the newest day-aligned span every sector has fully
  /// captured into training inputs. Returns false (leaving `out` alone)
  /// while fewer than `min_days` days are available. Thread-safe.
  bool Snapshot(int min_days, TrainingSlice* out) const;

  /// Slowest sector's captured frontier, in hours. Thread-safe.
  int min_captured_hours() const;

  int channels() const { return channels_; }
  const CaptureConfig& config() const { return config_; }

 private:
  CaptureConfig config_;
  int channels_ = 0;
  int capture_hours_ = 0;
  mutable std::mutex mutex_;
  /// Per sector: capture_hours x channels ring, indexed by hour %
  /// capture_hours.
  std::vector<std::vector<float>> rings_;
  std::vector<int> frontier_hours_;
};

}  // namespace hotspot::adapt

#endif  // HOTSPOT_ADAPT_CAPTURE_H_
