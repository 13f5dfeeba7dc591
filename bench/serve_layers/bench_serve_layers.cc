// bench_serve_layers: one seeded, layer-attributed benchmark of the
// streaming serving stack, hot bundle swap and retraining.
//
//   bench_serve_layers --workload replay|burst|swap|retrain [--seed N]
//       [--seconds S] [--runs N] [--trace out.json] [--json out.json]
//       [--smoke]
//
// Untraced, it prints the end-to-end metrics of the workload as
// `name value unit` lines (median over --runs timed phases, with q1/q3).
// With --trace it instead runs the traced pass and the isolated per-layer
// replays, prints the per-layer metrics and writes the spans as Chrome
// trace-event JSON. Every served batch is checked bitwise against batch
// PredictAtDay; any failure makes the exit code nonzero. README.md in this
// directory lists the workloads and metrics.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fixture.h"
#include "layers.h"
#include "measure.h"
#include "ml/flat_tree.h"
#include "trace.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workloads.h"

#ifndef HOTSPOT_BENCH_BUILD_TYPE
#define HOTSPOT_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef HOTSPOT_BENCH_SANITIZE
#define HOTSPOT_BENCH_SANITIZE ""
#endif

namespace hotspot::bench {
namespace {

enum class Workload { kReplay, kBurst, kSwap, kRetrain };

struct Args {
  Workload workload = Workload::kReplay;
  std::string workload_name;
  uint64_t seed = 11;
  int runs = 1;
  double seconds = 10.0;
  std::string trace_path;
  std::string json_path;
  bool smoke = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload_name = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--runs") {
      args->runs = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || args->runs < 1) return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      args->trace_path = value;
    } else if (flag == "--json") {
      args->json_path = value;
    } else {
      return false;
    }
  }
  const std::string& name = args->workload_name;
  if (name == "replay") {
    args->workload = Workload::kReplay;
  } else if (name == "burst") {
    args->workload = Workload::kBurst;
  } else if (name == "swap") {
    args->workload = Workload::kSwap;
  } else if (name == "retrain") {
    args->workload = Workload::kRetrain;
  } else {
    return false;
  }
  return true;
}

struct Host {
  int nproc = 0;
  int pool_threads = 0;
  bool simd_compiled = false;
  bool simd_supported = false;
  std::string build_type = HOTSPOT_BENCH_BUILD_TYPE;
  std::string sanitizer;
  std::string compiler;
};

Host Fingerprint() {
  Host host;
  host.nproc = static_cast<int>(std::thread::hardware_concurrency());
  host.pool_threads = util::NumThreads();
  host.simd_compiled = ml::FlatForest::SimdCompiled();
  host.simd_supported = ml::FlatForest::SimdSupported();
  host.sanitizer = HOTSPOT_BENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__)
  if (host.sanitizer.empty()) host.sanitizer = "address";
#endif
#if defined(__SANITIZE_THREAD__)
  if (host.sanitizer.empty()) host.sanitizer = "thread";
#endif
  if (host.sanitizer.empty()) host.sanitizer = "none";
#if defined(__clang__)
  host.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  host.compiler = std::string("gcc ") + __VERSION__;
#else
  host.compiler = "unknown";
#endif
  return host;
}

/// One named metric with a value per timed run (one for the traced run).
struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> values;
  int64_t samples = 0;  ///< latency percentiles: samples per run
};

class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value,
           int64_t samples = 0) {
    for (Metric& metric : metrics_) {
      if (metric.name == name) {
        metric.values.push_back(value);
        metric.samples = samples;
        return;
      }
    }
    metrics_.push_back(Metric{name, unit, {value}, samples});
  }

  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("%s %.10g %s q1=%.10g q3=%.10g runs=%zu", m.name.c_str(),
                  Median(m.values), m.unit.c_str(), Quantile(m.values, 0.25),
                  Quantile(m.values, 0.75), m.values.size());
      if (m.samples > 0) std::printf(" samples=%lld", static_cast<long long>(m.samples));
      std::printf("\n");
    }
  }

  std::string Json() const {
    std::string out = "{";
    char buffer[512];
    for (size_t k = 0; k < metrics_.size(); ++k) {
      const Metric& m = metrics_[k];
      std::snprintf(buffer, sizeof(buffer),
                    "%s\n    \"%s\": {\"value\": %.10g, \"unit\": \"%s\", "
                    "\"q1\": %.10g, \"q3\": %.10g, \"runs\": %zu, "
                    "\"samples\": %lld}",
                    k == 0 ? "" : ",", m.name.c_str(), Median(m.values),
                    m.unit.c_str(), Quantile(m.values, 0.25),
                    Quantile(m.values, 0.75), m.values.size(),
                    static_cast<long long>(m.samples));
      out += buffer;
    }
    return out + "\n  }";
  }

 private:
  std::vector<Metric> metrics_;
};

/// Attempted / failed operations over every pass of the process.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Count(const PassResult& pass) {
    attempted += pass.attempted;
    failed += pass.failed;
  }
};

/// The timed phase, --runs times: a warm-up pass, then passes for as long
/// as another pass (preparation included) still fits in --seconds.
void RunTimed(const Args& args, const std::vector<double>& setup_s,
              const std::function<PassResult()>& pass, Tally* tally,
              Report* report) {
  const bool serving = args.workload != Workload::kRetrain;
  for (int run = 0; run < args.runs; ++run) {
    // Retrain's set-up already ran the same training, so it starts warm.
    if (serving && !args.smoke) tally->Count(pass());
    // Every timing is a median over the passes, latency percentiles too, so
    // one pass caught by a host stall does not move the run's value.
    std::vector<double> wall, cpu, p50, p90;
    int64_t rows = 0, samples = 0;
    Stopwatch phase;
    double longest_s = 0.0;
    do {
      Stopwatch one;
      PassResult result = pass();
      longest_s = std::max(longest_s, one.ElapsedSeconds());
      tally->Count(result);
      wall.push_back(result.wall_s);
      cpu.push_back(result.cpu_s);
      p50.push_back(Quantile(result.latency_ms, 0.5));
      p90.push_back(Quantile(result.latency_ms, 0.9));
      samples += static_cast<int64_t>(result.latency_ms.size());
      rows = result.rows;
    } while (!args.smoke && phase.ElapsedSeconds() + longest_s <= args.seconds);

    report->Add("setup_s", "s", Median(setup_s));
    report->Add("pass_s", "s", Median(wall));
    report->Add("cpu_s_per_pass", "s", Median(cpu));
    report->Add("result_p50_ms", "ms", Median(p50), samples);
    report->Add("result_p90_ms", "ms", Median(p90), samples);
    report->Add("peak_rss_mb", "MB", PeakRssMb());
    if (rows > 0) {
      report->Add("rows_per_s", "rows/s", static_cast<double>(rows) / Median(wall));
      report->Add("cpu_ns_per_row", "ns", 1e9 * Median(cpu) / static_cast<double>(rows));
    }
    report->Add("passes", "count", static_cast<double>(wall.size()));
  }
}

/// The traced run: the workload's pass untraced and traced, the serving
/// and fleet passes the layer accounting needs, and the isolated replays.
void RunTraced(const Args& args, const Fixture& fixture, const Feed& feed,
               const Reference& reference,
               const std::function<PassResult(TraceLog*)>& pass,
               Tally* tally, Report* report) {
  const Workload workload = args.workload;
  if (workload != Workload::kRetrain && !args.smoke) {
    tally->Count(pass(nullptr));  // warm-up
  }
  // Untraced, traced, then (except in a smoke) traced, untraced again, so
  // the tracing overhead compares CPU with drift cancelled. The written
  // trace is the first traced pass.
  TraceLog trace, discarded;
  std::vector<PassResult> untraced;
  untraced.push_back(pass(nullptr));
  double traced_cpu = 0.0;
  for (int k = 0; k < (args.smoke ? 1 : 2); ++k) {
    const PassResult traced = pass(k == 0 ? &trace : &discarded);
    tally->Count(traced);
    traced_cpu += traced.cpu_s;
  }
  if (!args.smoke) untraced.push_back(pass(nullptr));
  double untraced_cpu = 0.0;
  std::vector<double> wall, p50, p90;
  for (const PassResult& result : untraced) {
    tally->Count(result);
    untraced_cpu += result.cpu_s;
    wall.push_back(result.wall_s);
    p50.push_back(Quantile(result.latency_ms, 0.5));
    p90.push_back(Quantile(result.latency_ms, 0.9));
  }
  // Wall-clock results: between runs on the reference host they spread
  // too widely to gate a change (README.md), so they are reported beside
  // the layers rather than end to end.
  report->Add("pass_s", "s", Median(wall));
  report->Add("result_p50_ms", "ms", Median(p50),
              static_cast<int64_t>(untraced.front().latency_ms.size()));
  report->Add("result_p90_ms", "ms", Median(p90),
              static_cast<int64_t>(untraced.front().latency_ms.size()));

  // Stage accounting comes from a composed serving pass: the workload's
  // own, or (retrain) a dedicated pipeline pass over the retrain model.
  // Fleet accounting likewise from the workload's fleet pass, or a
  // dedicated closed-loop one.
  PassResult dedicated_pipeline, dedicated_fleet;
  const PassResult* serving = &untraced.front();
  const PassResult* fleet = &untraced.front();
  if (workload == Workload::kRetrain) {
    dedicated_pipeline = ReplayPass(fixture, feed, reference, nullptr);
    tally->Count(dedicated_pipeline);
    serving = &dedicated_pipeline;
  }
  if (workload == Workload::kReplay || workload == Workload::kRetrain) {
    dedicated_fleet = FleetPass(fixture, feed, reference, FleetLoad{}, nullptr);
    tally->Count(dedicated_fleet);
    fleet = &dedicated_fleet;
  }
  const ServingLayers layers = MeasureServingLayers(fixture, feed, reference, &trace);
  const TrainingLayers training = MeasureTrainingLayers(fixture, &trace);
  tally->attempted += static_cast<int64_t>(reference.size());
  tally->failed += layers.wrong_batches;

  const double rows = static_cast<double>(layers.rows);
  report->Add("stream.ingest.cpu_ns_per_row", "ns", layers.ingest_ns_per_row);
  report->Add("stream.features.cpu_ns_per_row", "ns", layers.features_ns_per_row);
  report->Add("serving_ops.window.cpu_us_per_batch", "us", layers.window_us_per_batch);
  report->Add("serve.predict.cpu_us_per_batch", "us", layers.predict_us_per_batch);
  report->Add("serve.predict.monitor_us_per_batch", "us", layers.monitor_us_per_batch);
  report->Add("monitor.record.cpu_us_per_batch", "us", layers.record_us_per_batch);
  report->Add("features.extract.cpu_ns_per_sector", "ns", layers.extract_ns_per_sector);
  report->Add("ml.flat.scalar.ns_per_row", "ns", layers.flat_scalar_ns_per_row);
  report->Add("ml.flat.avx2.ns_per_row", "ns", layers.flat_avx2_ns_per_row);
  report->Add("ml.flat.trees", "count", layers.flat_trees);
  report->Add("ml.flat.row_bytes", "bytes", static_cast<double>(layers.flat_row_bytes));
  report->Add("ml.flat.compile_ms", "ms", layers.compile_ms);
  report->Add("serve.promote_idle_ms", "ms", layers.promote_idle_ms);

  for (const pipeline::StageStats& stage : serving->stages) {
    const std::string prefix = "pipeline." + stage.name;
    report->Add(prefix + ".busy_ms", "ms", 1e3 * stage.busy_seconds);
    report->Add(prefix + ".push_blocked_ms", "ms", 1e3 * stage.input.push_blocked_seconds);
    report->Add(prefix + ".queue_high_water", "count", stage.input.high_water);
  }
  // Reconciliation: composed CPU per row = isolated layers + hand-offs.
  const double composed = 1e9 * serving->cpu_s / static_cast<double>(serving->rows);
  const double per_batch_ns =
      1e3 * (layers.window_us_per_batch + layers.predict_us_per_batch +
             layers.record_us_per_batch);
  const double layer_sum = layers.ingest_ns_per_row + layers.features_ns_per_row +
                           per_batch_ns * layers.batches / rows;
  report->Add("pipeline.composed.cpu_ns_per_row", "ns", composed);
  report->Add("pipeline.layers.cpu_ns_per_row", "ns", layer_sum);
  report->Add("pipeline.handoff.cpu_ns_per_row", "ns", composed - layer_sum);
  report->Add("pipeline.threads", "count", serving->threads);

  report->Add("fleet.route.cpu_ns_per_row", "ns",
              1e9 * fleet->producer_cpu_s / static_cast<double>(fleet->rows));
  report->Add("fleet.admit_ratio", "fraction",
              static_cast<double>(fleet->routed) /
                  static_cast<double>(std::max<int64_t>(1, fleet->push_attempts)));
  report->Add("fleet.ingress.high_water_blocks", "count", fleet->ingress_high_water);
  report->Add("fleet.straggler_ms", "ms", Median(fleet->straggler_ms));

  report->Add("simnet.generate_s", "s", fixture.times.generate_s);
  report->Add("core.study_s", "s", fixture.times.study_s);
  report->Add("core.train_models_s", "s", fixture.times.train_s);
  report->Add("serialize.clone_s", "s", layers.clone_s);
  report->Add("features.train_extract_s", "s", training.extract_s);
  report->Add("ml.gbdt.fit_s", "s", training.fit_s);
  report->Add("core.train_other_s", "s",
              training.train_s - training.extract_s - training.fit_s);

  report->Add("loadgen.lag_p99_ms", "ms", Quantile(serving->step_lag_ms, 0.99));
  report->Add("loadgen.cpu_ns_per_row", "ns", layers.loadgen_ns_per_row);
  report->Add("trace.overhead_pct", "%",
              100.0 * (traced_cpu - untraced_cpu) / untraced_cpu);

  for (const auto& [name, seconds] : trace.SelfSecondsByName()) {
    std::printf("trace.self_ms.%s %.6f ms\n", name.c_str(), 1e3 * seconds);
  }
  if (!trace.WriteChromeJson(args.trace_path)) {
    std::fprintf(stderr, "cannot write trace %s\n", args.trace_path.c_str());
    ++tally->failed;
  }
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload replay|burst|swap|retrain [--seed N] "
                 "[--seconds S] [--runs N] [--trace out.json] "
                 "[--json out.json] [--smoke]\n",
                 argv[0]);
    return 2;
  }
  const Host host = Fingerprint();
  std::printf("bench_serve_layers workload=%s seed=%llu smoke=%d\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed), args.smoke ? 1 : 0);
  std::printf("host.nproc %d\nhost.pool_threads %d\nhost.simd_compiled %d\n"
              "host.simd_supported %d\nhost.build_type %s\nhost.sanitizer %s\n"
              "host.compiler %s\n",
              host.nproc, host.pool_threads, host.simd_compiled ? 1 : 0,
              host.simd_supported ? 1 : 0, host.build_type.c_str(),
              host.sanitizer.c_str(), host.compiler.c_str());
  if (!args.smoke && (host.sanitizer != "none" || host.build_type != "Release")) {
    std::fprintf(stderr,
                 "refusing to time a %s build with sanitizer %s; "
                 "build Release without sanitizers (or pass --smoke)\n",
                 host.build_type.c_str(), host.sanitizer.c_str());
    return 2;
  }

  const ModelShape& shape = args.workload == Workload::kReplay   ? kSmallModel
                            : args.workload == Workload::kRetrain ? kRetrainModel
                                                                  : kLargeModel;
  const Scale scale = args.smoke ? Scale{60, 9} : Scale{};
  const bool traced = !args.trace_path.empty();

  // Set-up is timed several times and reported as its median; only the
  // last fixture is kept. Serving set-up trains the served bundle; retrain's
  // stops at the study, and the bundle its passes must reproduce is trained
  // once afterwards.
  const bool serving = args.workload != Workload::kRetrain;
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fixture;
  for (int k = 0; k < (traced ? 1 : 3); ++k) {
    fixture.reset();
    Stopwatch watch;
    fixture = BuildFixture(args.seed, scale, shape);
    if (serving) TrainFixtureBundle(fixture.get());
    setup_s.push_back(watch.ElapsedSeconds());
  }
  if (!serving) TrainFixtureBundle(fixture.get());
  const Feed feed =
      args.workload == Workload::kBurst
          ? DelayedFeed(fixture->num_sectors(), fixture->num_hours(), args.seed,
                        /*share=*/0.05, /*max_delay=*/6)
          : InOrderFeed(fixture->num_sectors(), fixture->num_hours());
  const Reference reference = fixture->ReferenceBatches();
  const std::vector<float> retrain_reference =
      fixture->reference->PredictAtDay(fixture->study.features, fixture->config.t);
  std::printf("input sectors=%d hours=%d rows=%lld model=%s batches=%zu\n",
              fixture->num_sectors(), fixture->num_hours(),
              static_cast<long long>(feed.num_rows()), shape.name,
              reference.size());

  const std::function<PassResult(TraceLog*)> pass = [&](TraceLog* trace) {
    switch (args.workload) {
      case Workload::kReplay:
        return ReplayPass(*fixture, feed, reference, trace);
      case Workload::kBurst:
        return FleetPass(*fixture, feed, reference,
                         FleetLoad{.gap_ns = args.smoke ? kSmokeGapNs : kBurstGapNs},
                         trace);
      case Workload::kSwap:
        return FleetPass(*fixture, feed, reference,
                         FleetLoad{.promote_daily = true}, trace);
      case Workload::kRetrain:
        break;
    }
    return RetrainPass(*fixture, retrain_reference, trace);
  };

  Tally tally;
  Report report;
  if (traced) {
    RunTraced(args, *fixture, feed, reference, pass, &tally, &report);
  } else {
    RunTimed(args, setup_s, [&] { return pass(nullptr); }, &tally, &report);
  }
  const double failed_ratio = static_cast<double>(tally.failed) /
                              static_cast<double>(std::max<int64_t>(1, tally.attempted));
  report.Add("failed_ratio", "fraction", failed_ratio);
  report.Print();
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::printf("attempted %lld\nfailed %lld\ncorrect %s\n",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed), correct ? "PASS" : "FAIL");

  if (!args.json_path.empty()) {
    std::FILE* file = std::fopen(args.json_path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args.json_path.c_str());
      return 1;
    }
    std::fprintf(file,
                 "{\n  \"bench\": \"bench_serve_layers\",\n  \"workload\": %s,\n"
                 "  \"seed\": %llu,\n  \"smoke\": %s,\n  \"traced\": %s,\n"
                 "  \"host\": {\"nproc\": %d, \"pool_threads\": %d, "
                 "\"simd_compiled\": %s, \"simd_supported\": %s, "
                 "\"build_type\": %s, \"sanitizer\": %s, \"compiler\": %s},\n"
                 "  \"correct\": %s,\n  \"attempted\": %lld,\n  \"failed\": %lld,\n"
                 "  \"metrics\": %s\n}\n",
                 JsonString(args.workload_name).c_str(),
                 static_cast<unsigned long long>(args.seed),
                 args.smoke ? "true" : "false", traced ? "true" : "false",
                 host.nproc, host.pool_threads,
                 host.simd_compiled ? "true" : "false",
                 host.simd_supported ? "true" : "false",
                 JsonString(host.build_type).c_str(),
                 JsonString(host.sanitizer).c_str(),
                 JsonString(host.compiler).c_str(), correct ? "true" : "false",
                 static_cast<long long>(tally.attempted),
                 static_cast<long long>(tally.failed), report.Json().c_str());
    if (std::fclose(file) != 0) return 1;
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace hotspot::bench

int main(int argc, char** argv) { return hotspot::bench::Main(argc, argv); }
