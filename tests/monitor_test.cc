// Lockdown tests for the online monitoring subsystem (src/monitor):
//   * fingerprint sketches — deterministic, NaN-excluding, codec
//     round-trip;
//   * drift detection — rolling two-sample KS against the fingerprints,
//     with the min-sample and effect-size gates of the alert ladder;
//   * delayed-label quality tracking — rolling AP / lift Λ / calibration;
//   * health reporting — JSON schema contract and alert aggregation;
//   * end-to-end — a ForecastService whose live traffic comes from a
//     simnet network with a shifted load profile must transition
//     OK → DRIFT while an undrifted control service stays OK.
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/forecast_service.h"
#include "gtest/gtest.h"
#include "monitor/drift.h"
#include "monitor/fingerprint.h"
#include "monitor/health.h"
#include "monitor/monitor.h"
#include "monitor/quality.h"
#include "serialize/bundle.h"
#include "serialize_golden.h"
#include "util/rng.h"

namespace hotspot {
namespace {

using monitor::AlertState;

// ---------------------------------------------------------------------------
// Distribution sketches
// ---------------------------------------------------------------------------

std::vector<float> GaussianSample(int n, double mean, double sigma,
                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<float> values(static_cast<size_t>(n));
  for (float& v : values) {
    v = static_cast<float>(mean + sigma * rng.Gaussian());
  }
  return values;
}

TEST(Sketch, DeterministicAndSorted) {
  std::vector<float> values = GaussianSample(5000, 2.0, 0.5, 7);
  monitor::DistributionSketch a = monitor::BuildSketch("ch", values, 256, 3);
  monitor::DistributionSketch b = monitor::BuildSketch("ch", values, 256, 3);
  EXPECT_EQ(a, b);  // same seed → bitwise identical
  ASSERT_EQ(a.reservoir.size(), 256u);
  EXPECT_TRUE(std::is_sorted(a.reservoir.begin(), a.reservoir.end()));
  EXPECT_EQ(a.count, 5000u);
  EXPECT_NEAR(a.mean, 2.0, 0.05);
  EXPECT_NEAR(a.stddev, 0.5, 0.05);
  ASSERT_EQ(a.quantile_ps.size(), a.quantiles.size());
  EXPECT_TRUE(std::is_sorted(a.quantiles.begin(), a.quantiles.end()));

  // A different seed draws a different (but equally valid) reservoir.
  monitor::DistributionSketch c = monitor::BuildSketch("ch", values, 256, 4);
  EXPECT_NE(a.reservoir, c.reservoir);
}

TEST(Sketch, DropsNaNsAndHandlesEmpty) {
  std::vector<float> values = {1.0f, MissingValue(), 2.0f, MissingValue(),
                               3.0f};
  monitor::DistributionSketch sketch =
      monitor::BuildSketch("ch", values, 8, 1);
  EXPECT_EQ(sketch.count, 3u);
  EXPECT_EQ(sketch.reservoir.size(), 3u);
  for (float v : sketch.reservoir) EXPECT_TRUE(std::isfinite(v));

  monitor::DistributionSketch empty =
      monitor::BuildSketch("none", {MissingValue(), MissingValue()}, 8, 1);
  EXPECT_EQ(empty.count, 0u);
  EXPECT_TRUE(empty.reservoir.empty());
}

TEST(Sketch, FingerprintCodecRoundTrip) {
  monitor::BundleFingerprints fingerprints;
  fingerprints.first_hour = 24;
  fingerprints.last_hour = 24 * 8;
  fingerprints.channels.push_back(
      monitor::BuildSketch("kpi_a", GaussianSample(500, 0.0, 1.0, 1), 64, 1));
  fingerprints.channels.push_back(
      monitor::BuildSketch("kpi_b", GaussianSample(500, 5.0, 2.0, 2), 64, 2));
  fingerprints.scores = monitor::BuildSketch(
      "prediction_score", GaussianSample(200, 0.4, 0.1, 3), 64, 3);

  serialize::ByteWriter writer;
  monitor::EncodeFingerprints(fingerprints, &writer);
  serialize::ByteReader reader(writer.bytes().data(), writer.bytes().size());
  monitor::BundleFingerprints loaded;
  ASSERT_TRUE(monitor::DecodeFingerprints(&reader, &loaded))
      << reader.error();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(loaded, fingerprints);
}

// ---------------------------------------------------------------------------
// Drift detection
// ---------------------------------------------------------------------------

monitor::BundleFingerprints GaussianFingerprints() {
  monitor::BundleFingerprints fingerprints;
  fingerprints.channels.push_back(monitor::BuildSketch(
      "kpi_a", GaussianSample(4000, 0.0, 1.0, 11), 256, 1));
  fingerprints.scores = monitor::BuildSketch(
      "prediction_score", GaussianSample(4000, 0.5, 0.1, 12), 256, 2);
  return fingerprints;
}

TEST(DriftDetector, InDistributionTrafficStaysOk) {
  monitor::BundleFingerprints fingerprints = GaussianFingerprints();
  monitor::DriftDetector detector(&fingerprints, monitor::DriftThresholds{},
                                  512);
  for (float v : GaussianSample(512, 0.0, 1.0, 99)) {
    detector.ObserveInput(0, v);
  }
  monitor::DriftFinding finding = detector.EvaluateChannel(0);
  EXPECT_EQ(finding.state, AlertState::kOk);
  EXPECT_EQ(finding.live_samples, 512u);
  EXPECT_EQ(finding.name, "kpi_a");
}

TEST(DriftDetector, ShiftedTrafficEscalatesToDrift) {
  monitor::BundleFingerprints fingerprints = GaussianFingerprints();
  monitor::DriftDetector detector(&fingerprints, monitor::DriftThresholds{},
                                  512);
  // Live inputs shifted by two training standard deviations.
  for (float v : GaussianSample(512, 2.0, 1.0, 99)) {
    detector.ObserveInput(0, v);
  }
  monitor::DriftFinding finding = detector.EvaluateChannel(0);
  EXPECT_EQ(finding.state, AlertState::kDrift);
  EXPECT_GT(finding.statistic, 0.25);
  EXPECT_LT(finding.p_value, 1e-3);
  EXPECT_EQ(detector.OverallState(), AlertState::kDrift);
}

TEST(DriftDetector, TooFewSamplesIsAlwaysOk) {
  monitor::BundleFingerprints fingerprints = GaussianFingerprints();
  monitor::DriftThresholds thresholds;
  monitor::DriftDetector detector(&fingerprints, thresholds, 512);
  // One sample short of the gate, maximally shifted: still OK.
  for (int i = 0; i < thresholds.min_samples - 1; ++i) {
    detector.ObserveInput(0, 100.0f);
  }
  EXPECT_EQ(detector.EvaluateChannel(0).state, AlertState::kOk);
  // NaNs don't count toward the gate.
  for (int i = 0; i < 10; ++i) detector.ObserveInput(0, MissingValue());
  EXPECT_EQ(detector.EvaluateChannel(0).state, AlertState::kOk);
  // The final finite sample crosses it.
  detector.ObserveInput(0, 100.0f);
  EXPECT_EQ(detector.EvaluateChannel(0).state, AlertState::kDrift);
}

TEST(DriftDetector, EmptyReferenceNeverAlerts) {
  monitor::BundleFingerprints fingerprints = GaussianFingerprints();
  fingerprints.channels[0].reservoir.clear();  // all-NaN training channel
  monitor::DriftDetector detector(&fingerprints, monitor::DriftThresholds{},
                                  512);
  for (float v : GaussianSample(512, 50.0, 1.0, 99)) {
    detector.ObserveInput(0, v);
  }
  EXPECT_EQ(detector.EvaluateChannel(0).state, AlertState::kOk);
}

TEST(DriftDetector, RollingWindowRecovers) {
  // Drifted traffic followed by a full window of in-distribution traffic:
  // the verdict must return to OK (the window forgets the excursion).
  monitor::BundleFingerprints fingerprints = GaussianFingerprints();
  monitor::DriftDetector detector(&fingerprints, monitor::DriftThresholds{},
                                  256);
  for (float v : GaussianSample(256, 3.0, 1.0, 5)) {
    detector.ObserveInput(0, v);
  }
  EXPECT_EQ(detector.EvaluateChannel(0).state, AlertState::kDrift);
  for (float v : GaussianSample(256, 0.0, 1.0, 6)) {
    detector.ObserveInput(0, v);
  }
  EXPECT_EQ(detector.EvaluateChannel(0).state, AlertState::kOk);
  EXPECT_EQ(detector.EvaluateChannel(0).observed_total, 512u);
}

TEST(DriftState, WorstStateAndNames) {
  EXPECT_EQ(monitor::WorstState(AlertState::kOk, AlertState::kWarn),
            AlertState::kWarn);
  EXPECT_EQ(monitor::WorstState(AlertState::kDrift, AlertState::kWarn),
            AlertState::kDrift);
  EXPECT_STREQ(monitor::AlertStateName(AlertState::kOk), "OK");
  EXPECT_STREQ(monitor::AlertStateName(AlertState::kWarn), "WARN");
  EXPECT_STREQ(monitor::AlertStateName(AlertState::kDrift), "DRIFT");
}

// ---------------------------------------------------------------------------
// Quality tracking
// ---------------------------------------------------------------------------

TEST(QualityTracker, PerfectRankingLiftAndCalibration) {
  monitor::QualityConfig config;
  config.window = 1000;
  monitor::QualityTracker tracker(config);
  // 1000 pairs, 10 % positives, scores perfectly separate the classes and
  // sit at the observed rate of their calibration bin.
  for (int i = 0; i < 1000; ++i) {
    bool hot = i % 10 == 0;
    tracker.Record(hot ? 0.95f : 0.05f, hot ? 1.0f : 0.0f);
  }
  monitor::QualitySummary summary = tracker.Summarize();
  EXPECT_EQ(summary.labels_total, 1000u);
  EXPECT_EQ(summary.window_count, 1000);
  EXPECT_DOUBLE_EQ(summary.positive_rate, 0.1);
  EXPECT_DOUBLE_EQ(summary.average_precision, 1.0);
  EXPECT_DOUBLE_EQ(summary.lift, 10.0);  // Λ = ψ / positive_rate

  ASSERT_EQ(summary.calibration.size(), 10u);
  EXPECT_EQ(summary.calibration[0].count, 900u);  // scores at 0.05
  EXPECT_EQ(summary.calibration[9].count, 100u);  // scores at 0.95
  EXPECT_DOUBLE_EQ(summary.calibration[0].observed_rate, 0.0);
  EXPECT_DOUBLE_EQ(summary.calibration[9].observed_rate, 1.0);
  // Perfectly confident and right: ECE = 0.9·|0.05−0| + 0.1·|0.95−1|.
  EXPECT_NEAR(summary.expected_calibration_error, 0.05, 1e-6);
}

TEST(QualityTracker, RollingWindowEvictsOldPairs) {
  monitor::QualityConfig config;
  config.window = 100;
  monitor::QualityTracker tracker(config);
  // 100 inverted pairs (worst ranking), then 100 perfect ones: the window
  // must only see the perfect tail.
  for (int i = 0; i < 100; ++i) {
    tracker.Record(i % 2 ? 0.9f : 0.1f, i % 2 ? 0.0f : 1.0f);
  }
  for (int i = 0; i < 100; ++i) {
    tracker.Record(i % 2 ? 0.9f : 0.1f, i % 2 ? 1.0f : 0.0f);
  }
  monitor::QualitySummary summary = tracker.Summarize();
  EXPECT_EQ(summary.labels_total, 200u);
  EXPECT_EQ(summary.window_count, 100);
  EXPECT_DOUBLE_EQ(summary.average_precision, 1.0);
}

TEST(QualityTracker, NonFinitePairsAreSkipped) {
  monitor::QualityTracker tracker(monitor::QualityConfig{});
  tracker.Record(MissingValue(), 1.0f);
  tracker.Record(0.5f, MissingValue());
  EXPECT_EQ(tracker.labels_total(), 0u);
  monitor::QualitySummary summary = tracker.Summarize();
  EXPECT_EQ(summary.window_count, 0);
  EXPECT_TRUE(std::isnan(summary.average_precision));
  EXPECT_TRUE(std::isnan(summary.lift));
}

// ---------------------------------------------------------------------------
// Health report JSON
// ---------------------------------------------------------------------------

TEST(HealthReport, JsonCarriesTheSchemaContract) {
  monitor::BundleFingerprints fingerprints = GaussianFingerprints();
  monitor::MonitorConfig config;
  monitor::ServingMonitor monitor(&fingerprints, config);

  Tensor3<float> tensor(8, 24, 1);
  Rng rng(4);
  for (float& v : tensor.data()) v = static_cast<float>(rng.Gaussian());
  std::vector<float> scores(8, 0.5f);
  for (int batch = 0; batch < 8; ++batch) {
    monitor.ObserveBatch(tensor, 0, 24, scores, 0.004);
  }
  std::vector<float> labels(8, 0.0f);
  labels[0] = 1.0f;
  monitor.RecordOutcomes(scores, labels);

  monitor::HealthReport report = monitor.Report();
  EXPECT_TRUE(report.monitoring_enabled);
  EXPECT_EQ(report.requests, 8u);
  EXPECT_EQ(report.windows, 64u);
  EXPECT_EQ(report.latency.count, 8u);
  EXPECT_GT(report.latency.p99_seconds, 0.0);
  EXPECT_DOUBLE_EQ(report.latency.in_slo_fraction, 1.0);
  EXPECT_EQ(report.latency.state, AlertState::kOk);

  std::string json = monitor::HealthReportToJson(report);
  for (const char* key :
       {"\"monitoring_enabled\"", "\"status\"", "\"requests\"",
        "\"windows\"", "\"drift\"", "\"score\"", "\"channels\"",
        "\"ks_statistic\"", "\"p_value\"", "\"live_samples\"",
        "\"observed_total\"", "\"quality\"", "\"labels_total\"",
        "\"window_count\"", "\"positive_rate\"", "\"average_precision\"",
        "\"lift\"", "\"expected_calibration_error\"", "\"calibration\"",
        "\"mean_score\"", "\"observed_rate\"", "\"latency\"",
        "\"sum_seconds\"", "\"p50_seconds\"", "\"p99_seconds\"",
        "\"slo_seconds\"", "\"in_slo_fraction\"", "\"alerts\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // 8 labels < min_labels (64): quality metrics exist but are reported as
  // null-free numbers, and no quality verdict is issued.
  EXPECT_EQ(report.quality_state, AlertState::kOk);
  // NaN-free contract: %g never emits "nan"/"inf" (they become null).
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(HealthReport, LatencySloViolationsEscalate) {
  monitor::BundleFingerprints fingerprints = GaussianFingerprints();
  monitor::MonitorConfig config;
  config.latency.slo_seconds = 0.010;
  monitor::ServingMonitor monitor(&fingerprints, config);
  Tensor3<float> tensor(1, 24, 1);
  std::vector<float> scores(1, 0.5f);
  // 10 batches, 3 of which blow the 10 ms SLO: in-SLO 70 % < 95 % → DRIFT.
  for (int batch = 0; batch < 10; ++batch) {
    monitor.ObserveBatch(tensor, 0, 24, scores,
                         batch < 3 ? 0.200 : 0.001);
  }
  monitor::HealthReport report = monitor.Report();
  EXPECT_LT(report.latency.in_slo_fraction, 0.95);
  EXPECT_EQ(report.latency.state, AlertState::kDrift);
  EXPECT_EQ(report.overall, AlertState::kDrift);
  ASSERT_FALSE(report.alerts.empty());
  EXPECT_EQ(report.alerts.back().target, "latency/slo");
}

TEST(HealthReport, DegradedQualityFiresTheLiftAlert) {
  monitor::BundleFingerprints fingerprints = GaussianFingerprints();
  monitor::MonitorConfig config;
  monitor::ServingMonitor monitor(&fingerprints, config);
  // 256 matured labels with anti-correlated, tie-free scores (ties would
  // be grouped by the AP computation and read as a random ranking): every
  // positive ranks below every negative, so lift < 1 → DRIFT.
  std::vector<float> scores, labels;
  for (int i = 0; i < 256; ++i) {
    bool hot = i % 4 == 0;
    scores.push_back((hot ? 0.0f : 0.5f) + 0.001f * static_cast<float>(i));
    labels.push_back(hot ? 1.0f : 0.0f);
  }
  monitor.RecordOutcomes(scores, labels);
  monitor::HealthReport report = monitor.Report();
  EXPECT_LT(report.quality.lift, 1.0);
  EXPECT_EQ(report.quality_state, AlertState::kDrift);
  ASSERT_FALSE(report.alerts.empty());
  EXPECT_EQ(report.alerts.back().target, "quality/lift");
}

// ---------------------------------------------------------------------------
// De-escalation hysteresis: a drift episode that subsides
// ---------------------------------------------------------------------------

TEST(HealthReport, SubsidedDriftWalksDownTheLadderWithoutOscillating) {
  monitor::BundleFingerprints fingerprints = GaussianFingerprints();
  monitor::MonitorConfig config;
  config.drift_window = 256;
  config.input_sample_hours = 24;
  config.ladder_hold_reports = 2;
  monitor::ServingMonitor monitor(&fingerprints, config);

  // Each ObserveBatch refreshes at most drift_window/4 ring slots (the
  // per-batch observation budget), so a phase change needs a few batches
  // before the rolling window fully forgets the previous regime: 4
  // drifted batches saturate the verdict, 8 calm ones flush every slot.
  uint64_t seed = 100;
  auto feed = [&monitor, &seed](double mean, int batches) {
    for (int b = 0; b < batches; ++b, ++seed) {
      Tensor3<float> tensor(11, 24, 1);
      std::vector<float> values = GaussianSample(11 * 24, mean, 1.0, seed);
      std::copy(values.begin(), values.end(), tensor.data().begin());
      // Scores stay in-distribution throughout: this test isolates the
      // input-drift ladder (constant scores would trip the score sketch).
      monitor.ObserveBatch(tensor, 0, 24,
                           GaussianSample(11, 0.5, 0.1, seed + 1000),
                           0.001);
    }
  };

  // The injected episode: shifted traffic escalates immediately — no
  // hysteresis on the way up.
  feed(3.0, 4);
  EXPECT_EQ(monitor.Report().drift_state, AlertState::kDrift);

  // The episode subsides: in-distribution traffic flushes the rolling
  // window, so every raw verdict from here on is OK. The reported ladder
  // must hold each rung for ladder_hold_reports consecutive calmer
  // Reports and then step down exactly one rung — DRIFT, DRIFT→WARN,
  // WARN, WARN→OK — never snapping straight to OK and never climbing
  // back up without raw evidence.
  feed(0.0, 8);
  std::vector<AlertState> walk;
  for (int report = 0; report < 6; ++report) {
    monitor::HealthReport snapshot = monitor.Report();
    // Quality and latency are quiet, so the overall state — the "page
    // someone" bit — must track the damped drift rung, not the raw OK.
    EXPECT_EQ(snapshot.overall, snapshot.drift_state);
    walk.push_back(snapshot.drift_state);
  }
  const std::vector<AlertState> expected = {
      AlertState::kDrift, AlertState::kWarn, AlertState::kWarn,
      AlertState::kOk,    AlertState::kOk,   AlertState::kOk};
  EXPECT_EQ(walk, expected);

  // A flicker back into drift mid-descent snaps the ladder straight back
  // to DRIFT (escalation is immediate) and restarts the descent clock —
  // the rung sequence never oscillates through intermediate states.
  feed(3.0, 4);
  EXPECT_EQ(monitor.Report().drift_state, AlertState::kDrift);
  feed(0.0, 8);
  EXPECT_EQ(monitor.Report().drift_state, AlertState::kDrift);  // hold 1/2
  feed(3.0, 4);  // the flicker: resets the hold count
  EXPECT_EQ(monitor.Report().drift_state, AlertState::kDrift);
  feed(0.0, 8);
  EXPECT_EQ(monitor.Report().drift_state, AlertState::kDrift);  // hold 1/2
  EXPECT_EQ(monitor.Report().drift_state, AlertState::kWarn);   // step down
  EXPECT_EQ(monitor.Report().drift_state, AlertState::kWarn);
  EXPECT_EQ(monitor.Report().drift_state, AlertState::kOk);
}

// ---------------------------------------------------------------------------
// End-to-end: injected load drift through a served bundle
// ---------------------------------------------------------------------------

class MonitorServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hotspot_monitor_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

/// One shared golden study per process (building it is the expensive part).
const Study& ControlStudy() {
  static const Study* study =
      new Study(BuildStudy(StudyInput(testing::GoldenNetworkConfig())));
  return *study;
}

/// The drift injection: the same network topology and seed, but with the
/// latent load process pushed into chronic overload everywhere — the
/// "shifted load profile" scenario the monitor exists to catch.
const Study& DriftedStudy() {
  static const Study* study = [] {
    simnet::GeneratorConfig config = testing::GoldenNetworkConfig();
    config.load.chronic_fraction = 1.0;
    config.load.chronic_min = 2.0;
    config.load.chronic_max = 3.0;
    return new Study(BuildStudy(StudyInput(config)));
  }();
  return *study;
}

/// The test monitor config: every hour of the freshest served day is
/// sampled so the live distribution covers the same diurnal support as the
/// training fingerprint (the default strided sampling trades a little of
/// that fidelity for serve-path cheapness).
monitor::MonitorConfig TestMonitorConfig() {
  monitor::MonitorConfig config;
  config.input_sample_hours = 24;
  config.drift_window = 1024;
  return config;
}

TEST_F(MonitorServingTest, InjectedLoadDriftEscalatesWhileControlStaysOk) {
  const Study& control = ControlStudy();
  Forecaster forecaster = control.MakeForecaster(TargetKind::kBeHotSpot);
  ForecastConfig config = testing::GoldenForecastConfig();

  std::unique_ptr<serialize::ForecastBundle> bundle =
      forecaster.TrainBundle(config);
  bundle->score = control.score_config;
  bundle->normalization =
      serialize::NormalizationFromKpis(control.network.kpis);
  ASSERT_NE(bundle->fingerprints, nullptr);
  const std::string path = (dir_ / "bundle.hsb").string();
  ASSERT_TRUE(serialize::SaveBundle(path, *bundle).ok);

  // Two services off the same artifact: one keeps seeing the training-era
  // network, one is pointed at the drifted network.
  std::unique_ptr<ForecastService> control_service;
  std::unique_ptr<ForecastService> drifted_service;
  ASSERT_TRUE(ForecastService::Load(path, &control_service).ok);
  ASSERT_TRUE(ForecastService::Load(path, &drifted_service).ok);
  ASSERT_TRUE(control_service->EnableMonitoring(TestMonitorConfig()));
  ASSERT_TRUE(drifted_service->EnableMonitoring(TestMonitorConfig()));

  // Before any traffic: both healthy, no evidence of anything.
  EXPECT_EQ(control_service->Health().overall, AlertState::kOk);
  EXPECT_EQ(drifted_service->Health().overall, AlertState::kOk);

  const Study& drifted = DriftedStudy();
  ASSERT_EQ(drifted.features.num_channels(),
            control.features.num_channels());
  for (int round = 0; round < 3; ++round) {
    control_service->PredictAtDay(control.features, config.t);
    drifted_service->PredictAtDay(drifted.features, config.t);
  }

  monitor::HealthReport control_report = control_service->Health();
  monitor::HealthReport drifted_report = drifted_service->Health();

  // The control stream matches the fingerprints: fleet state stays OK.
  EXPECT_EQ(control_report.overall, AlertState::kOk)
      << monitor::HealthReportToJson(control_report);
  EXPECT_TRUE(control_report.alerts.empty());

  // The drifted stream must escalate to DRIFT on at least one KPI channel
  // (the load shift moves every congestion KPI), and the overall state —
  // the "page someone" bit — must follow.
  EXPECT_EQ(drifted_report.drift_state, AlertState::kDrift)
      << monitor::HealthReportToJson(drifted_report);
  EXPECT_EQ(drifted_report.overall, AlertState::kDrift);
  EXPECT_FALSE(drifted_report.alerts.empty());
  int drifted_channels = 0;
  for (const monitor::DriftFinding& finding : drifted_report.channel_drift) {
    if (finding.state == AlertState::kDrift) ++drifted_channels;
  }
  EXPECT_GT(drifted_channels, 0);

  // Monitoring is an observer: both services must produce bit-identical
  // predictions for identical inputs, drifted traffic or not.
  EXPECT_EQ(control_service->PredictAtDay(control.features, config.t),
            drifted_service->PredictAtDay(control.features, config.t));
}

TEST_F(MonitorServingTest, MonitoringTogglesAndSurvivesDisable) {
  const Study& control = ControlStudy();
  Forecaster forecaster = control.MakeForecaster(TargetKind::kBeHotSpot);
  ForecastConfig config = testing::GoldenForecastConfig();
  std::unique_ptr<serialize::ForecastBundle> bundle =
      forecaster.TrainBundle(config);
  bundle->score = control.score_config;

  ForecastService service(std::move(bundle));
  EXPECT_TRUE(service.monitoring_enabled());  // auto-on with fingerprints

  service.DisableMonitoring();
  EXPECT_FALSE(service.monitoring_enabled());
  monitor::HealthReport disabled = service.Health();
  EXPECT_FALSE(disabled.monitoring_enabled);
  EXPECT_EQ(disabled.overall, AlertState::kOk);
  EXPECT_EQ(disabled.requests, 0u);
  // Serving and label feedback still work with monitoring off.
  std::vector<float> scores =
      service.PredictAtDay(control.features, config.t);
  service.RecordOutcomes(scores, forecaster.LabelsAtDay(config.t));
  EXPECT_EQ(service.Health().requests, 0u);

  ASSERT_TRUE(service.EnableMonitoring(TestMonitorConfig()));
  service.PredictAtDay(control.features, config.t);
  service.RecordOutcomes(scores, forecaster.LabelsAtDay(config.t));
  monitor::HealthReport report = service.Health();
  EXPECT_TRUE(report.monitoring_enabled);
  EXPECT_EQ(report.requests, 1u);
  EXPECT_EQ(report.windows,
            static_cast<uint64_t>(control.num_sectors()));
  EXPECT_EQ(report.quality.labels_total,
            static_cast<uint64_t>(control.num_sectors()));
}

TEST_F(MonitorServingTest, BundleWithoutFingerprintsServesUnmonitored) {
  const Study& control = ControlStudy();
  Forecaster forecaster = control.MakeForecaster(TargetKind::kBeHotSpot);
  ForecastConfig config = testing::GoldenForecastConfig();
  std::unique_ptr<serialize::ForecastBundle> bundle =
      forecaster.TrainBundle(config);
  bundle->score = control.score_config;
  bundle->fingerprints.reset();  // a bundle without the optional section

  ForecastService service(std::move(bundle));
  EXPECT_FALSE(service.monitoring_enabled());
  EXPECT_FALSE(service.EnableMonitoring(TestMonitorConfig()));
  EXPECT_FALSE(service.monitoring_enabled());
  std::vector<float> scores =
      service.PredictAtDay(control.features, config.t);
  EXPECT_EQ(static_cast<int>(scores.size()), control.num_sectors());
  EXPECT_FALSE(service.Health().monitoring_enabled);
}

}  // namespace
}  // namespace hotspot
