#include "features/feature_tensor.h"

#include "obs/pipeline_context.h"
#include "tensor/temporal.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace hotspot::features {

const char* FeatureGroupName(FeatureGroup group) {
  switch (group) {
    case FeatureGroup::kKpi:
      return "kpi";
    case FeatureGroup::kCalendar:
      return "calendar";
    case FeatureGroup::kHourlyScore:
      return "score_hourly";
    case FeatureGroup::kDailyScore:
      return "score_daily";
    case FeatureGroup::kWeeklyScore:
      return "score_weekly";
    case FeatureGroup::kDailyLabel:
      return "label_daily";
  }
  return "unknown";
}

namespace {

/// Channel names/groups of the Eq. 5 layout, shared by both factories.
void BuildChannelMeta(int num_kpis, const std::vector<std::string>& kpi_names,
                      std::vector<std::string>* names,
                      std::vector<FeatureGroup>* groups) {
  names->reserve(static_cast<size_t>(num_kpis + 9));
  groups->reserve(static_cast<size_t>(num_kpis + 9));
  for (int k = 0; k < num_kpis; ++k) {
    names->push_back(kpi_names.empty() ? "kpi_" + std::to_string(k)
                                       : kpi_names[static_cast<size_t>(k)]);
    groups->push_back(FeatureGroup::kKpi);
  }
  const char* kCalendarNames[5] = {"cal_hour_of_day", "cal_day_of_week",
                                   "cal_day_of_month", "cal_weekend",
                                   "cal_holiday"};
  for (const char* name : kCalendarNames) {
    names->push_back(name);
    groups->push_back(FeatureGroup::kCalendar);
  }
  names->push_back("score_hourly");
  groups->push_back(FeatureGroup::kHourlyScore);
  names->push_back("score_daily");
  groups->push_back(FeatureGroup::kDailyScore);
  names->push_back("score_weekly");
  groups->push_back(FeatureGroup::kWeeklyScore);
  names->push_back("label_daily");
  groups->push_back(FeatureGroup::kDailyLabel);
}

}  // namespace

FeatureTensor FeatureTensor::FromChannels(
    Tensor3<float> tensor, int num_kpis,
    const std::vector<std::string>& kpi_names) {
  HOTSPOT_CHECK_GT(num_kpis, 0);
  HOTSPOT_CHECK_EQ(tensor.dim2(), num_kpis + 9);
  if (!kpi_names.empty()) {
    HOTSPOT_CHECK_EQ(static_cast<int>(kpi_names.size()), num_kpis);
  }
  FeatureTensor built;
  built.tensor_ = std::move(tensor);
  BuildChannelMeta(num_kpis, kpi_names, &built.names_, &built.groups_);
  return built;
}

FeatureTensor FeatureTensor::Build(
    const Tensor3<float>& kpis, const Matrix<float>& calendar,
    const Matrix<float>& hourly_scores, const Matrix<float>& daily_scores,
    const Matrix<float>& weekly_scores, const Matrix<float>& daily_labels,
    const std::vector<std::string>& kpi_names) {
  HOTSPOT_SPAN("features/build");
  const int n = kpis.dim0();
  const int hours = kpis.dim1();
  const int l = kpis.dim2();
  HOTSPOT_CHECK_EQ(calendar.rows(), hours);
  HOTSPOT_CHECK_EQ(calendar.cols(), 5);
  HOTSPOT_CHECK_EQ(hourly_scores.rows(), n);
  HOTSPOT_CHECK_EQ(hourly_scores.cols(), hours);
  HOTSPOT_CHECK_EQ(daily_scores.rows(), n);
  HOTSPOT_CHECK_EQ(daily_scores.cols(), hours / kHoursPerDay);
  HOTSPOT_CHECK_EQ(weekly_scores.rows(), n);
  HOTSPOT_CHECK_EQ(weekly_scores.cols(), hours / kHoursPerWeek);
  HOTSPOT_CHECK_EQ(daily_labels.rows(), n);
  HOTSPOT_CHECK_EQ(daily_labels.cols(), hours / kHoursPerDay);
  if (!kpi_names.empty()) {
    HOTSPOT_CHECK_EQ(static_cast<int>(kpi_names.size()), l);
  }

  FeatureTensor built;
  const int channels = l + 5 + 3 + 1;
  built.tensor_ = Tensor3<float>(n, hours, channels, kUninitialized);
  BuildChannelMeta(l, kpi_names, &built.names_, &built.groups_);

  // Parallel over sectors; sector i only writes its own (i, :, :) slab.
  util::ParallelFor(0, n, [&](int64_t i64) {
    const int i = static_cast<int>(i64);
    for (int j = 0; j < hours; ++j) {
      float* dst = built.tensor_.Slice(i, j);
      const float* kpi = kpis.Slice(i, j);
      int c = 0;
      for (int k = 0; k < l; ++k) dst[c++] = kpi[k];
      const float* cal = calendar.Row(j);
      for (int k = 0; k < 5; ++k) dst[c++] = cal[k];
      dst[c++] = hourly_scores.At(i, j);
      dst[c++] = daily_scores.At(i, j / kHoursPerDay);
      dst[c++] = weekly_scores.At(i, j / kHoursPerWeek);
      dst[c++] = daily_labels.At(i, j / kHoursPerDay);
      HOTSPOT_CHECK_EQ(c, channels);  // every cell of the slice written
    }
  });
  return built;
}

const std::string& FeatureTensor::ChannelName(int channel) const {
  HOTSPOT_CHECK(channel >= 0 && channel < num_channels());
  return names_[static_cast<size_t>(channel)];
}

FeatureGroup FeatureTensor::ChannelGroup(int channel) const {
  HOTSPOT_CHECK(channel >= 0 && channel < num_channels());
  return groups_[static_cast<size_t>(channel)];
}

}  // namespace hotspot::features
