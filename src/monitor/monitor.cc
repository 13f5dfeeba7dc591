#include "monitor/monitor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/pipeline_context.h"
#include "obs/snapshot.h"
#include "util/logging.h"

namespace hotspot::monitor {

namespace {

/// Fraction of observations at or below `slo_seconds`, interpolating
/// inside the bucket the SLO edge falls into.
double InSloFraction(const std::vector<double>& bounds,
                     const std::vector<uint64_t>& buckets, uint64_t count,
                     double slo_seconds) {
  if (count == 0) return 1.0;
  double covered = 0.0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    double lo = b == 0 ? 0.0 : bounds[b - 1];
    double hi = b < bounds.size()
                    ? bounds[b]
                    : std::numeric_limits<double>::infinity();
    if (hi <= slo_seconds) {
      covered += static_cast<double>(buckets[b]);
    } else if (lo < slo_seconds && std::isfinite(hi)) {
      covered += static_cast<double>(buckets[b]) * (slo_seconds - lo) /
                 (hi - lo);
    }
  }
  return std::clamp(covered / static_cast<double>(count), 0.0, 1.0);
}

}  // namespace

ServingMonitor::ServingMonitor(const BundleFingerprints* fingerprints,
                               const MonitorConfig& config)
    : config_(config),
      drift_(fingerprints, config.drift, config.drift_window),
      quality_(config.quality), latency_(obs::DefaultLatencySeconds()) {
  HOTSPOT_CHECK_GE(config.input_sample_hours, 1);
  HOTSPOT_CHECK_LE(config.input_sample_hours, 24);
  // Only channels with a reference reservoir are ever drift-tested
  // (calendar and up-sampled daily/weekly channels carry empty
  // sketches); observing the others would be pure serve-path cost.
  for (size_t k = 0; k < fingerprints->channels.size(); ++k) {
    if (!fingerprints->channels[k].reservoir.empty()) {
      monitored_channels_.push_back(static_cast<int>(k));
    }
  }
}

void ServingMonitor::ObserveBatch(const WindowBatch& windows,
                                  const std::vector<float>& scores,
                                  double latency_seconds) {
  HOTSPOT_CHECK_GT(windows.hours, 0);
  HOTSPOT_CHECK_EQ(windows.channels, drift_.num_channels());
  const int sectors =
      std::min(windows.count, static_cast<int>(scores.size()));
  // Sample the freshest day (or the whole window when shorter), at a
  // deterministic stride — no RNG, so monitoring stays reproducible.
  const int span_begin = std::max(0, windows.hours - 24);
  const int span = windows.hours - span_begin;
  int samples = std::min(config_.input_sample_hours, span);
  // Per-batch observation budget: refresh at most a quarter of the
  // rolling window per batch. Refilling the whole window every batch
  // buys nothing statistically (the verdict converges within a few
  // batches either way) but multiplies the serve-path cost. The
  // decimation also keeps one batch from overflowing the ring: eviction
  // would then truncate to whichever sectors were pushed last, and a
  // sector subset has a different marginal distribution than the
  // all-sector fingerprint (per-sector scale heterogeneity would read
  // as drift).
  const int batch_budget = std::max(1, config_.drift_window / 4);
  if (sectors > 0 && sectors * samples > batch_budget) {
    samples = std::max(1, batch_budget / sectors);
  }

  std::lock_guard<std::mutex> lock(mutex_);
  ++requests_;
  windows_ += static_cast<uint64_t>(scores.size());
  for (int i = 0; i < sectors; ++i) {
    for (int s = 0; s < samples; ++s) {
      // Evenly spaced over the span, with a per-sector phase rotation
      // folded in via fixed-point stepping: across the batch every clock
      // hour gets sampled even when `samples` does not divide `span` —
      // a fixed clock-hour subset has a different marginal distribution
      // than the full-diurnal fingerprint and would falsely read as
      // drift.
      const int j =
          span_begin +
          static_cast<int>((static_cast<int64_t>(s) * sectors + i) * span /
                           (static_cast<int64_t>(samples) * sectors));
      const float* values = windows.Row(i, j);
      for (int k : monitored_channels_) {
        drift_.ObserveInput(k, values[k]);
      }
    }
  }
  for (float score : scores) drift_.ObserveScore(score);
  latency_.Observe(latency_seconds);
}

void ServingMonitor::RecordOutcomes(const std::vector<float>& scores,
                                    const std::vector<float>& labels) {
  HOTSPOT_CHECK_EQ(scores.size(), labels.size());
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < scores.size(); ++i) {
    quality_.Record(scores[i], labels[i]);
  }
}

AlertState ServingMonitor::Damp(AlertState raw, DampedSignal* signal) const {
  if (config_.ladder_hold_reports <= 0) return raw;
  if (static_cast<int>(raw) >= static_cast<int>(signal->reported)) {
    // Escalation (or confirmation of the current rung) is immediate and
    // resets the descent clock.
    signal->reported = raw;
    signal->hold = 0;
  } else if (++signal->hold >= config_.ladder_hold_reports) {
    signal->reported =
        static_cast<AlertState>(static_cast<int>(signal->reported) - 1);
    signal->hold = 0;
  }
  return signal->reported;
}

HealthReport ServingMonitor::Report() const {
  std::lock_guard<std::mutex> lock(mutex_);
  HealthReport report;
  report.monitoring_enabled = true;
  report.requests = requests_;
  report.windows = windows_;

  report.channel_drift = drift_.EvaluateChannels();
  report.score_drift = drift_.EvaluateScores();
  report.score_drift.name = "prediction_score";
  report.drift_state = report.score_drift.state;
  for (const DriftFinding& finding : report.channel_drift) {
    report.drift_state = WorstState(report.drift_state, finding.state);
    if (finding.state != AlertState::kOk) {
      report.alerts.push_back(
          {"drift/" + finding.name, finding.state,
           "live KPI distribution departed from the training fingerprint "
           "(KS " +
               std::to_string(finding.statistic) + ")"});
    }
  }
  if (report.score_drift.state != AlertState::kOk) {
    report.alerts.push_back(
        {"drift/prediction_score", report.score_drift.state,
         "prediction-score distribution departed from the training "
         "fingerprint (KS " +
             std::to_string(report.score_drift.statistic) + ")"});
  }

  report.quality = quality_.Summarize();
  if (report.quality.window_count >= config_.quality.min_labels &&
      std::isfinite(report.quality.lift)) {
    if (report.quality.lift < config_.quality_thresholds.drift_lift) {
      report.quality_state = AlertState::kDrift;
    } else if (report.quality.lift < config_.quality_thresholds.warn_lift) {
      report.quality_state = AlertState::kWarn;
    }
    if (report.quality_state != AlertState::kOk) {
      report.alerts.push_back(
          {"quality/lift", report.quality_state,
           "rolling lift dropped to " +
               std::to_string(report.quality.lift)});
    }
  }

  obs::Snapshot::HistogramSample latency;
  latency.bounds = latency_.bounds();
  latency.buckets = latency_.BucketCounts();
  latency.count = latency_.Count();
  latency.sum = latency_.Sum();
  report.latency.count = latency.count;
  report.latency.sum_seconds = latency.sum;
  report.latency.p50_seconds = obs::HistogramQuantile(latency, 0.5);
  report.latency.p99_seconds = obs::HistogramQuantile(latency, 0.99);
  report.latency.slo_seconds = config_.latency.slo_seconds;
  report.latency.in_slo_fraction =
      InSloFraction(latency.bounds, latency.buckets, latency.count,
                    config_.latency.slo_seconds);
  if (report.latency.count > 0) {
    if (report.latency.in_slo_fraction < config_.latency.drift_fraction) {
      report.latency.state = AlertState::kDrift;
    } else if (report.latency.in_slo_fraction <
               config_.latency.warn_fraction) {
      report.latency.state = AlertState::kWarn;
    }
    if (report.latency.state != AlertState::kOk) {
      report.alerts.push_back(
          {"latency/slo", report.latency.state,
           "only " + std::to_string(report.latency.in_slo_fraction) +
               " of batches met the " +
               std::to_string(config_.latency.slo_seconds) + " s SLO"});
    }
  }

  // De-escalation hysteresis: the alerts above describe the raw evidence
  // of this snapshot, but the reported ladder states are damped — an
  // escalation lands immediately, a recovery walks down one rung per
  // `ladder_hold_reports` consecutive calmer Report() calls. The overall
  // state derives from the damped signals, so it inherits the same
  // one-rung-at-a-time descent.
  report.drift_state = Damp(report.drift_state, &damped_drift_);
  report.quality_state = Damp(report.quality_state, &damped_quality_);
  report.latency.state = Damp(report.latency.state, &damped_latency_);
  report.overall = WorstState(
      WorstState(report.drift_state, report.quality_state),
      report.latency.state);

  // Ladder-transition flight events: the states are computed on demand,
  // so a change is only observable here — diff against the previous
  // Report() (everything starts implicitly OK) and record each signal
  // that moved. Signal codes: 0 overall, 1 drift, 2 quality, 3 latency.
  if (obs::PipelineContext* ctx = obs::PipelineContext::Current()) {
    const struct {
      int signal;
      AlertState* last;
      AlertState now;
    } ladders[] = {
        {0, &last_overall_, report.overall},
        {1, &last_drift_, report.drift_state},
        {2, &last_quality_, report.quality_state},
        {3, &last_latency_, report.latency.state},
    };
    for (const auto& ladder : ladders) {
      if (*ladder.last != ladder.now) {
        ctx->flight().Record(obs::FlightEventKind::kLadderTransition,
                             ladder.signal,
                             static_cast<int64_t>(*ladder.last),
                             static_cast<int64_t>(ladder.now));
      }
    }
  }
  last_overall_ = report.overall;
  last_drift_ = report.drift_state;
  last_quality_ = report.quality_state;
  last_latency_ = report.latency.state;
  return report;
}

}  // namespace hotspot::monitor
