// Live monitoring: drift, quality and latency health for a served model.
//
//   1. Train a GBDT hot-spot bundle; since format v2 the bundle carries
//      reference fingerprints of the training distribution, so a serving
//      process can detect drift without access to the training data.
//   2. Serve healthy traffic through a pipeline::ServingPipeline — the
//      monitor config rides in through the pipeline Options, streamed
//      predictions flow through the monitor phase, and matured
//      ground-truth labels close the quality loop automatically. The
//      health report stays OK.
//   3. A regime change hits the network (every sector pushed into
//      chronic overload). The rolling KS drift tests against the
//      bundle fingerprints escalate to DRIFT, and the report is
//      exported as the JSON document a dashboard or pager would ingest.
//
// Observability rides along the whole way: a TelemetryExporter streams
// NDJSON frames (counter rates, histogram p50/p99) to stderr while the
// pipeline serves — no hand-printed counters — and the OK→DRIFT ladder
// transition lands in the flight recorder as a structured event, printed
// at the end the way a post-mortem would read it.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/example_monitor_live
#include <cstdio>
#include <filesystem>

#include "hotspot.h"

namespace {

void PrintHealth(const char* phase, const hotspot::monitor::HealthReport& r) {
  using hotspot::monitor::AlertStateName;
  std::printf("\n[%s] overall=%s  drift=%s  quality=%s  latency=%s\n", phase,
              AlertStateName(r.overall), AlertStateName(r.drift_state),
              AlertStateName(r.quality_state), AlertStateName(r.latency.state));
  std::printf("  %llu batches / %llu windows served; lift=%.2f  p99=%.2f ms\n",
              static_cast<unsigned long long>(r.requests),
              static_cast<unsigned long long>(r.windows), r.quality.lift,
              1e3 * r.latency.p99_seconds);
  for (const hotspot::monitor::HealthAlert& alert : r.alerts) {
    std::printf("  ALERT %-5s %-18s %s\n", AlertStateName(alert.state),
                alert.target.c_str(), alert.message.c_str());
  }
  if (r.alerts.empty()) std::printf("  no alerts\n");
}

}  // namespace

int main() {
  using namespace hotspot;

  // 1. Train on the healthy network and keep the study around as the
  // source of live traffic and of matured ground-truth labels.
  simnet::GeneratorConfig generator;
  generator.topology.target_sectors = 60;
  generator.topology.num_cities = 1;
  generator.weeks = 9;
  generator.seed = 11;
  Study healthy = BuildStudy(StudyInput(generator), StudyOptions{});

  Forecaster forecaster = healthy.MakeForecaster(TargetKind::kBeHotSpot);
  ForecastConfig config;
  config.model = ModelKind::kGbdt;
  config.t = 55;
  config.h = 1;
  config.w = 3;
  config.gbdt.num_iterations = 15;
  config.gbdt.num_leaves = 15;
  config.gbdt.max_bins = 32;

  std::unique_ptr<serialize::ForecastBundle> bundle =
      forecaster.TrainBundle(config);
  bundle->score = healthy.score_config;
  auto service = std::make_unique<ForecastService>(std::move(bundle));

  // Live telemetry for the whole serving session: every instrumentation
  // site below reads this context, and the exporter thread samples it
  // into NDJSON frames on stderr (the "hotspot.telemetry.v1" schema).
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  obs::TelemetryOptions telemetry;
  telemetry.period = std::chrono::milliseconds(250);
  telemetry.to_stderr = true;
  obs::TelemetryExporter exporter(&context, telemetry);

  // 2. A healthy serving stretch, end to end through the pipeline.
  // The tuned monitor config — a drift window wide enough to blend
  // several served days, so the KS tests compare like with like — is set
  // on the service, which owns the monitor the pipeline feeds.
  {
    monitor::MonitorConfig monitoring;
    monitoring.drift_window = 4096;
    service->EnableMonitoring(monitoring);

    pipeline::ServingPipeline::Options options;
    options.num_sectors = healthy.num_sectors();
    options.num_kpis = healthy.network.num_kpis();
    options.calendar = &healthy.network.calendar_matrix;
    options.score = healthy.score_config;
    options.history_weeks = healthy.num_weeks() + 1;
    pipeline::ServingPipeline serving(service.get(), options);

    // Hour-major delivery, as live feeds do: predictions stream out as
    // days close, and each target day's matured labels are fed back to
    // the quality tracker by the monitor phase.
    const int hours = healthy.network.num_hours();
    for (int j = 0; j < hours; ++j) {
      for (int i = 0; i < healthy.num_sectors(); ++i) {
        serving.Push(i, j, healthy.network.kpis.Slice(i, j),
                     healthy.network.kpis.dim2());
      }
    }
    serving.Finish();
    std::printf("served %zu streamed batches; %d predictions still await "
                "matured outcomes\n",
                serving.TakePredictions().size(),
                serving.pending_outcomes());
  }
  PrintHealth("healthy traffic", service->Health());

  // 3. Regime change: same topology and seed, but every sector's demand
  // is pushed into chronic overload — the live KPI distributions leave
  // the fingerprinted training distribution. The drifted windows are
  // replayed straight through the service (the monitor is the
  // service's, so pipeline-served and directly-served traffic share one
  // health state).
  simnet::GeneratorConfig shifted = generator;
  shifted.load.chronic_fraction = 1.0;
  shifted.load.chronic_min = 2.0;
  shifted.load.chronic_max = 3.0;
  Study drifted = BuildStudy(StudyInput(shifted), StudyOptions{});
  for (int day = config.t - 2; day <= config.t; ++day) {
    std::vector<float> scores = service->PredictAtDay(drifted.features, day);
    (void)scores;  // drift verdicts come from the monitor, not the caller
  }
  monitor::HealthReport report = service->Health();
  PrintHealth("after regime change", report);

  const std::string path =
      (std::filesystem::temp_directory_path() / "hotspot_health.json")
          .string();
  if (monitor::WriteHealthReportJson(report, path)) {
    std::printf("\nexported health report: %s (%lld bytes)\n", path.c_str(),
                static_cast<long long>(std::filesystem::file_size(path)));
    std::filesystem::remove(path);
  }

  // Final telemetry frame, then replay the flight recorder: the health
  // ladder transitions recorded by ServingMonitor::Report() read like a
  // post-mortem timeline (signal 0=overall 1=drift 2=quality 3=latency).
  exporter.Stop();
  std::printf("\nflight-recorder ladder transitions:\n");
  for (const obs::FlightEventRecord& event : context.flight().Snapshot()) {
    if (event.kind != obs::FlightEventKind::kLadderTransition) continue;
    std::printf("  #%llu signal=%lld %s -> %s\n",
                static_cast<unsigned long long>(event.sequence),
                static_cast<long long>(event.a),
                monitor::AlertStateName(
                    static_cast<monitor::AlertState>(event.b)),
                monitor::AlertStateName(
                    static_cast<monitor::AlertState>(event.c)));
  }
  return report.drift_state == monitor::AlertState::kDrift ? 0 : 1;
}
