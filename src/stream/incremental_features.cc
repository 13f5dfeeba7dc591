#include "stream/incremental_features.h"

#include <cstring>

#include "obs/pipeline_context.h"
#include "util/logging.h"

namespace hotspot::stream {

void IncrementalFeatureEngine::Counters::Refresh() {
  obs::PipelineContext* ctx = obs::PipelineContext::Current();
  if (ctx == context) return;
  context = ctx;
  if (ctx == nullptr) {
    rows = days = hot_days = weeks = feature_rows = nullptr;
    return;
  }
  obs::MetricsRegistry& metrics = ctx->metrics();
  rows = &metrics.counter("stream/rows_consumed");
  days = &metrics.counter("stream/days_finalized");
  hot_days = &metrics.counter("stream/hot_days");
  weeks = &metrics.counter("stream/weeks_finalized");
  feature_rows = &metrics.counter("stream/feature_rows_emitted");
}

IncrementalFeatureEngine::IncrementalFeatureEngine(
    const FeatureEngineConfig& config)
    : config_(config) {
  HOTSPOT_CHECK_GT(config_.num_sectors, 0);
  HOTSPOT_CHECK_GT(config_.num_kpis, 0);
  HOTSPOT_CHECK(config_.calendar != nullptr);
  HOTSPOT_CHECK_EQ(config_.calendar->cols(), 5);
  HOTSPOT_CHECK_EQ(config_.score.num_indicators(), config_.num_kpis);
  HOTSPOT_CHECK_GE(config_.history_weeks, 1);
  HOTSPOT_CHECK(config_.window_hours >= 0 &&
                config_.window_hours <= history_hours())
      << "window_hours " << config_.window_hours
      << " must lie in [0, history_hours " << history_hours() << "]";
  sectors_.resize(static_cast<size_t>(config_.num_sectors));
  closed_frontier_.at_min = config_.num_sectors;
  finalized_frontier_.at_min = config_.num_sectors;
  ring_stride_ = static_cast<size_t>(history_hours() + config_.window_hours) *
                 static_cast<size_t>(channels());
  feature_history_.assign(sectors_.size() * ring_stride_, 0.0f);
  const size_t week_slots =
      static_cast<size_t>(kHoursPerWeek) * sectors_.size();
  week_values_.assign(week_slots * static_cast<size_t>(config_.num_kpis),
                      0.0f);
  week_scores_.assign(week_slots, 0.0f);
  for (SectorState& state : sectors_) {
    state.label_history.assign(
        static_cast<size_t>(config_.history_weeks * kDaysPerWeek), 0.0f);
  }
}

void IncrementalFeatureEngine::Consume(int sector, int hour,
                                       const float* values, int num_kpis) {
  HOTSPOT_CHECK(sector >= 0 && sector < config_.num_sectors);
  HOTSPOT_CHECK_EQ(num_kpis, config_.num_kpis);
  SectorState& state = sectors_[static_cast<size_t>(sector)];
  // In-order contract: the ingestor delivers hour 0, 1, 2, ... per sector.
  HOTSPOT_CHECK_EQ(hour, state.consumed_hours);
  HOTSPOT_CHECK_LT(hour, config_.calendar->rows());
  counters_.Refresh();

  const int l = config_.num_kpis;
  const size_t week_slot = WeekSlot(sector, hour % kHoursPerWeek);
  std::memcpy(week_values_.data() + week_slot * static_cast<size_t>(l),
              values, static_cast<size_t>(l) * sizeof(float));

  // Eq. 1 — the exact loop of ComputeHourlyScore, so the result is
  // bitwise what the batch path stores.
  double tripped = 0.0;
  double available = 0.0;
  for (int k = 0; k < l; ++k) {
    float value = values[k];
    if (IsMissing(value)) continue;
    const ScoreConfig::Indicator& indicator =
        config_.score.indicators[static_cast<size_t>(k)];
    available += indicator.weight;
    bool bad = indicator.higher_is_worse ? value > indicator.threshold
                                         : value < indicator.threshold;
    if (bad) tripped += indicator.weight;
  }
  week_scores_[week_slot] =
      available > 0.0 ? static_cast<float>(tripped / available)
                      : MissingValue();

  state.consumed_hours = hour + 1;
  if (counters_.rows != nullptr) counters_.rows->Increment();
  if (state.consumed_hours % kHoursPerDay == 0) {
    CloseDay(sector, &state, hour / kHoursPerDay);
  }
  if (state.consumed_hours % kHoursPerWeek == 0) {
    CloseWeek(sector, &state, hour / kHoursPerWeek);
  }
}

void IncrementalFeatureEngine::CloseDay(int sector, SectorState* state,
                                        int day) {
  const int day_of_week = day % kDaysPerWeek;
  // Eq. 2 at daily resolution — IntegrateScores' loop verbatim: double
  // accumulation over the day's 24 hourly scores in hour order, NaNs
  // skipped, empty day -> NaN.
  double sum = 0.0;
  int count = 0;
  for (int h = 0; h < kHoursPerDay; ++h) {
    const float score =
        week_scores_[WeekSlot(sector, day_of_week * kHoursPerDay + h)];
    if (IsMissing(score)) continue;
    sum += score;
    ++count;
  }
  const float day_score =
      count == 0 ? MissingValue() : static_cast<float>(sum / count);
  // Eq. 4 — HotSpotLabels' cut, float score against double ε.
  const float label =
      (!IsMissing(day_score) && day_score >= config_.score.hot_threshold)
          ? 1.0f
          : 0.0f;
  state->day_scores[day_of_week] = day_score;
  state->day_labels[day_of_week] = label;
  state->label_history[static_cast<size_t>(
      day % (config_.history_weeks * kDaysPerWeek))] = label;
  state->closed_days = day + 1;
  Raise(&closed_frontier_, &SectorState::closed_days, day);
  if (counters_.days != nullptr) counters_.days->Increment();
  if (label != 0.0f && counters_.hot_days != nullptr) {
    counters_.hot_days->Increment();
  }
}

void IncrementalFeatureEngine::CloseWeek(int sector, SectorState* state,
                                         int week) {
  // Eq. 2 at weekly resolution, again in batch hour order.
  double sum = 0.0;
  int count = 0;
  for (int h = 0; h < kHoursPerWeek; ++h) {
    const float score = week_scores_[WeekSlot(sector, h)];
    if (IsMissing(score)) continue;
    sum += score;
    ++count;
  }
  const float week_score =
      count == 0 ? MissingValue() : static_cast<float>(sum / count);

  // Emit the week's 168 now-final feature rows, laid out exactly like the
  // batch tensor's (sector, hour) slices: KPIs ‖ calendar ‖ S^h ‖ up(S^d)
  // ‖ up(S^w) ‖ up(Y^d).
  const int l = config_.num_kpis;
  const int ch = channels();
  float* ring = Ring(sector);
  for (int h = 0; h < kHoursPerWeek; ++h) {
    const int hour = week * kHoursPerWeek + h;
    const int slot = hour % history_hours();
    float* row = ring + static_cast<size_t>(slot) * static_cast<size_t>(ch);
    const size_t week_slot = WeekSlot(sector, h);
    const float* kpi =
        week_values_.data() + week_slot * static_cast<size_t>(l);
    int c = 0;
    for (int k = 0; k < l; ++k) row[c++] = kpi[k];
    const float* cal = config_.calendar->Row(hour);
    for (int k = 0; k < 5; ++k) row[c++] = cal[k];
    row[c++] = week_scores_[week_slot];
    row[c++] = state->day_scores[h / kHoursPerDay];
    row[c++] = week_score;
    row[c++] = state->day_labels[h / kHoursPerDay];
    // The mirror: a window that runs off the ring's end reads on here.
    if (slot < config_.window_hours) {
      std::memcpy(ring + static_cast<size_t>(history_hours() + slot) *
                             static_cast<size_t>(ch),
                  row, static_cast<size_t>(ch) * sizeof(float));
    }
  }
  state->finalized_hours = (week + 1) * kHoursPerWeek;
  Raise(&finalized_frontier_, &SectorState::finalized_hours,
        week * kHoursPerWeek);
  if (counters_.weeks != nullptr) counters_.weeks->Increment();
  if (counters_.feature_rows != nullptr) {
    counters_.feature_rows->Add(kHoursPerWeek);
  }
}

int IncrementalFeatureEngine::finalized_hours(int sector) const {
  HOTSPOT_CHECK(sector >= 0 && sector < config_.num_sectors);
  return sectors_[static_cast<size_t>(sector)].finalized_hours;
}

void IncrementalFeatureEngine::Raise(Frontier* frontier,
                                     int SectorState::*field, int from) {
  if (from != frontier->min || --frontier->at_min > 0) return;
  // The last sector at the minimum has moved past it, so every sector is
  // now above it: find the new minimum and who holds it.
  frontier->min = sectors_[0].*field;
  frontier->at_min = 0;
  for (const SectorState& state : sectors_) {
    if (state.*field < frontier->min) {
      frontier->min = state.*field;
      frontier->at_min = 0;
    }
    if (state.*field == frontier->min) ++frontier->at_min;
  }
}

int IncrementalFeatureEngine::closed_days(int sector) const {
  HOTSPOT_CHECK(sector >= 0 && sector < config_.num_sectors);
  return sectors_[static_cast<size_t>(sector)].closed_days;
}

float IncrementalFeatureEngine::DailyLabel(int sector, int day) const {
  HOTSPOT_CHECK(sector >= 0 && sector < config_.num_sectors);
  const SectorState& state = sectors_[static_cast<size_t>(sector)];
  const int history_days = config_.history_weeks * kDaysPerWeek;
  HOTSPOT_CHECK(day >= 0 && day < state.closed_days);
  HOTSPOT_CHECK_GT(day + history_days, state.closed_days - 1);
  return state.label_history[static_cast<size_t>(day % history_days)];
}

bool IncrementalFeatureEngine::HoldsSpan(int sector, int first_hour,
                                         int num_hours) const {
  HOTSPOT_CHECK(sector >= 0 && sector < config_.num_sectors);
  const int finalized = sectors_[static_cast<size_t>(sector)].finalized_hours;
  return first_hour >= 0 && first_hour + num_hours <= finalized &&
         first_hour >= finalized - history_hours();
}

WindowBatch IncrementalFeatureEngine::ServingWindows(int end_day) const {
  const int window = config_.window_hours;
  HOTSPOT_CHECK_GT(window, 0) << "ServingWindows needs a mirrored history";
  const int first_hour = kHoursPerDay * end_day - window;
  // Every sector shares the slot arithmetic, so one offset serves all —
  // provided no sector's frontier has left the span or overwritten it.
  for (int i = 0; i < config_.num_sectors; ++i) {
    HOTSPOT_CHECK(HoldsSpan(i, first_hour, window))
        << "sector " << i << " does not hold hours [" << first_hour << ", "
        << first_hour + window << ")";
  }
  WindowBatch batch;
  batch.data = feature_history_.data() +
               static_cast<size_t>(first_hour % history_hours()) *
                   static_cast<size_t>(channels());
  batch.count = config_.num_sectors;
  batch.hours = window;
  batch.channels = channels();
  batch.stride = ring_stride_;
  return batch;
}

void IncrementalFeatureEngine::CopyFeatureRows(int sector, int first_hour,
                                               int num_hours,
                                               float* dst) const {
  HOTSPOT_CHECK(dst != nullptr);
  HOTSPOT_CHECK(HoldsSpan(sector, first_hour, num_hours))
      << "sector " << sector << " does not hold hours [" << first_hour
      << ", " << first_hour + num_hours << ")";
  const size_t ch = static_cast<size_t>(channels());
  const float* ring = Ring(sector);
  for (int h = 0; h < num_hours; ++h) {
    const float* src =
        ring + static_cast<size_t>((first_hour + h) % history_hours()) * ch;
    std::memcpy(dst + static_cast<size_t>(h) * ch, src,
                ch * sizeof(float));
  }
}

}  // namespace hotspot::stream
