#include "monitor/health.h"

#include <cstdio>
#include <fstream>

#include "obs/snapshot.h"

namespace hotspot::monitor {

namespace {

void AppendU64(uint64_t value, std::string* out) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%llu",
                static_cast<unsigned long long>(value));
  *out += buffer;
}

void AppendState(AlertState state, std::string* out) {
  obs::AppendJsonString(AlertStateName(state), out);
}

void AppendDriftFinding(const DriftFinding& finding, std::string* out) {
  *out += "{\"name\": ";
  obs::AppendJsonString(finding.name, out);
  *out += ", \"status\": ";
  AppendState(finding.state, out);
  *out += ", \"ks_statistic\": ";
  obs::AppendJsonNumber(finding.statistic, out);
  *out += ", \"p_value\": ";
  obs::AppendJsonNumber(finding.p_value, out);
  *out += ", \"live_samples\": ";
  AppendU64(finding.live_samples, out);
  *out += ", \"observed_total\": ";
  AppendU64(finding.observed_total, out);
  *out += "}";
}

}  // namespace

std::string HealthReportToJson(const HealthReport& report) {
  std::string json;
  json.reserve(4096);
  json += "{\n  \"monitoring_enabled\": ";
  json += report.monitoring_enabled ? "true" : "false";
  json += ",\n  \"status\": ";
  AppendState(report.overall, &json);
  json += ",\n  \"requests\": ";
  AppendU64(report.requests, &json);
  json += ",\n  \"windows\": ";
  AppendU64(report.windows, &json);

  json += ",\n  \"drift\": {\"status\": ";
  AppendState(report.drift_state, &json);
  json += ", \"score\": ";
  AppendDriftFinding(report.score_drift, &json);
  json += ", \"channels\": [";
  for (size_t k = 0; k < report.channel_drift.size(); ++k) {
    if (k > 0) json += ", ";
    json += "\n    ";
    AppendDriftFinding(report.channel_drift[k], &json);
  }
  json += report.channel_drift.empty() ? "]}" : "\n  ]}";

  json += ",\n  \"quality\": {\"status\": ";
  AppendState(report.quality_state, &json);
  json += ", \"labels_total\": ";
  AppendU64(report.quality.labels_total, &json);
  json += ", \"window_count\": ";
  obs::AppendJsonNumber(report.quality.window_count, &json);
  json += ", \"positive_rate\": ";
  obs::AppendJsonNumber(report.quality.positive_rate, &json);
  json += ", \"average_precision\": ";
  obs::AppendJsonNumber(report.quality.average_precision, &json);
  json += ", \"lift\": ";
  obs::AppendJsonNumber(report.quality.lift, &json);
  json += ", \"expected_calibration_error\": ";
  obs::AppendJsonNumber(report.quality.expected_calibration_error, &json);
  json += ", \"calibration\": [";
  for (size_t b = 0; b < report.quality.calibration.size(); ++b) {
    const CalibrationBin& bin = report.quality.calibration[b];
    if (b > 0) json += ", ";
    json += "\n    {\"lo\": ";
    obs::AppendJsonNumber(bin.lo, &json);
    json += ", \"hi\": ";
    obs::AppendJsonNumber(bin.hi, &json);
    json += ", \"count\": ";
    AppendU64(bin.count, &json);
    json += ", \"mean_score\": ";
    obs::AppendJsonNumber(bin.mean_score, &json);
    json += ", \"observed_rate\": ";
    obs::AppendJsonNumber(bin.observed_rate, &json);
    json += "}";
  }
  json += report.quality.calibration.empty() ? "]}" : "\n  ]}";

  json += ",\n  \"latency\": {\"status\": ";
  AppendState(report.latency.state, &json);
  json += ", \"count\": ";
  AppendU64(report.latency.count, &json);
  json += ", \"sum_seconds\": ";
  obs::AppendJsonNumber(report.latency.sum_seconds, &json);
  json += ", \"p50_seconds\": ";
  obs::AppendJsonNumber(report.latency.p50_seconds, &json);
  json += ", \"p99_seconds\": ";
  obs::AppendJsonNumber(report.latency.p99_seconds, &json);
  json += ", \"slo_seconds\": ";
  obs::AppendJsonNumber(report.latency.slo_seconds, &json);
  json += ", \"in_slo_fraction\": ";
  obs::AppendJsonNumber(report.latency.in_slo_fraction, &json);
  json += "}";

  json += ",\n  \"alerts\": [";
  for (size_t a = 0; a < report.alerts.size(); ++a) {
    const HealthAlert& alert = report.alerts[a];
    if (a > 0) json += ", ";
    json += "\n    {\"target\": ";
    obs::AppendJsonString(alert.target, &json);
    json += ", \"state\": ";
    AppendState(alert.state, &json);
    json += ", \"message\": ";
    obs::AppendJsonString(alert.message, &json);
    json += "}";
  }
  json += report.alerts.empty() ? "]" : "\n  ]";
  json += "\n}\n";
  return json;
}

bool WriteHealthReportJson(const HealthReport& report,
                           const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << HealthReportToJson(report);
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace hotspot::monitor
