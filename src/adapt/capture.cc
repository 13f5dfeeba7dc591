#include "adapt/capture.h"

#include <algorithm>
#include <cstring>

#include "tensor/temporal.h"
#include "util/logging.h"

namespace hotspot::adapt {

FeatureCapture::FeatureCapture(const CaptureConfig& config)
    : config_(config),
      channels_(config.num_kpis + 5 + 3 + 1),
      capture_hours_(config.capture_weeks * kHoursPerWeek) {
  HOTSPOT_CHECK_GT(config.num_sectors, 0);
  HOTSPOT_CHECK_GT(config.num_kpis, 0);
  HOTSPOT_CHECK_GE(config.capture_weeks, 1);
  rings_.resize(static_cast<size_t>(config.num_sectors));
  frontier_hours_.assign(static_cast<size_t>(config.num_sectors), 0);
  for (std::vector<float>& ring : rings_) {
    ring.assign(static_cast<size_t>(capture_hours_) *
                    static_cast<size_t>(channels_),
                0.0f);
  }
}

void FeatureCapture::OnRow(int sector, int hour, const float* row,
                           int channels) {
  HOTSPOT_CHECK(sector >= 0 && sector < config_.num_sectors);
  HOTSPOT_CHECK_EQ(channels, channels_);
  std::lock_guard<std::mutex> lock(mutex_);
  HOTSPOT_CHECK_EQ(hour, frontier_hours_[static_cast<size_t>(sector)]);
  float* dst = rings_[static_cast<size_t>(sector)].data() +
               static_cast<size_t>(hour % capture_hours_) *
                   static_cast<size_t>(channels_);
  std::memcpy(dst, row, static_cast<size_t>(channels_) * sizeof(float));
  frontier_hours_[static_cast<size_t>(sector)] = hour + 1;
}

int FeatureCapture::min_captured_hours() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return *std::min_element(frontier_hours_.begin(), frontier_hours_.end());
}

bool FeatureCapture::Snapshot(int min_days, TrainingSlice* out) const {
  HOTSPOT_CHECK(out != nullptr);
  HOTSPOT_CHECK_GE(min_days, 1);
  std::lock_guard<std::mutex> lock(mutex_);
  // The span every sector still holds: ends at the slowest sector's
  // frontier, starts where the fastest sector's ring began overwriting.
  // Rows arrive a week at a time per sector, but a snapshot can land
  // while a sector is part-way through its week, so both bounds round
  // inward to whole days.
  const int min_frontier =
      *std::min_element(frontier_hours_.begin(), frontier_hours_.end());
  const int max_frontier =
      *std::max_element(frontier_hours_.begin(), frontier_hours_.end());
  const int end_hour = min_frontier / kHoursPerDay * kHoursPerDay;
  const int begin_hour =
      (std::max(0, max_frontier - capture_hours_) + kHoursPerDay - 1) /
      kHoursPerDay * kHoursPerDay;
  const int num_days = (end_hour - begin_hour) / kHoursPerDay;
  if (num_days < min_days) return false;

  const int n = config_.num_sectors;
  const int hours = num_days * kHoursPerDay;
  Tensor3<float> tensor(n, hours, channels_);
  for (int i = 0; i < n; ++i) {
    const std::vector<float>& ring = rings_[static_cast<size_t>(i)];
    for (int j = 0; j < hours; ++j) {
      const int src_hour = (begin_hour + j) % capture_hours_;
      std::memcpy(tensor.Slice(i, j),
                  ring.data() + static_cast<size_t>(src_hour) *
                                    static_cast<size_t>(channels_),
                  static_cast<size_t>(channels_) * sizeof(float));
    }
  }
  // up(S^d) and up(Y^d) are constant within a day, so the first hour of
  // each day carries the day's integrated score and hot-spot label.
  const int score_channel = config_.num_kpis + 5 + 1;
  const int label_channel = config_.num_kpis + 5 + 3;
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
  out->features = features::FeatureTensor::FromChannels(std::move(tensor),
                                                        config_.num_kpis);
  out->daily_scores = std::move(daily_scores);
  out->target_labels = std::move(target_labels);
  return true;
}

}  // namespace hotspot::adapt
