#include "obs/telemetry.h"

#include <cerrno>
#include <cstring>
#include <sstream>

#include "util/logging.h"

namespace hotspot::obs {

bool IsValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  const char first = name[0];
  if (!(first == '_' || (first >= 'a' && first <= 'z') ||
        (first >= 'A' && first <= 'Z'))) {
    return false;
  }
  for (size_t i = 1; i < name.size(); ++i) {
    const char c = name[i];
    const bool ok = c == '_' || c == '/' || (c >= 'a' && c <= 'z') ||
                    (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
    if (!ok) return false;
  }
  return true;
}

std::string ToPrometheusName(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (c == '/') c = ':';
  }
  return out;
}

std::string FromPrometheusName(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (c == ':') c = '/';
  }
  return out;
}

std::string FrameToPrometheusText(const Snapshot& frame) {
  // Histograms are exported as summaries, <name>_count / <name>_sum plus
  // the two quantile rows. Counters keep their raw names — the exporter
  // documents that rule rather than silently appending `_total`.
  std::ostringstream out;
  out.precision(17);
  out << "# hotspot frame " << frame.index << " t_ms " << frame.t_ms << "\n";
  for (const Snapshot::CounterSample& c : frame.counters) {
    const std::string name = ToPrometheusName(c.name);
    out << "# TYPE " << name << " counter\n"
        << name << " " << c.value << "\n";
  }
  for (const Snapshot::GaugeSample& g : frame.gauges) {
    const std::string name = ToPrometheusName(g.name);
    out << "# TYPE " << name << " gauge\n"
        << name << " " << g.value << "\n";
  }
  for (const Snapshot::HistogramSample& h : frame.histograms) {
    const std::string name = ToPrometheusName(h.name);
    out << "# TYPE " << name << " summary\n"
        << name << "{quantile=\"0.5\"} " << HistogramQuantile(h, 0.5)
        << "\n"
        << name << "{quantile=\"0.99\"} " << HistogramQuantile(h, 0.99)
        << "\n"
        << name << "_sum " << h.sum << "\n"
        << name << "_count " << h.count << "\n";
  }
  return out.str();
}

namespace {

/// Opens a sink file for appending. A path that cannot be opened would
/// lose every frame unseen, so it is refused, by option name.
std::FILE* OpenSink(const char* option, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "a");
  const int error = errno;
  HOTSPOT_CHECK(file != nullptr)
      << option << " " << path << ": " << std::strerror(error);
  return file;
}

}  // namespace

TelemetryExporter::TelemetryExporter(const PipelineContext* context,
                                     const TelemetryOptions& options)
    : context_(context),
      options_(options),
      start_(std::chrono::steady_clock::now()),
      last_sample_(start_) {
  HOTSPOT_CHECK(context_ != nullptr);
  if (!options_.json_path.empty()) {
    json_file_ = OpenSink("json_path", options_.json_path);
  }
  if (!options_.prometheus_path.empty()) {
    prometheus_file_ = OpenSink("prometheus_path", options_.prometheus_path);
  }
  thread_ = std::thread([this] { Loop(); });
}

TelemetryExporter::~TelemetryExporter() {
  Stop();
  if (json_file_ != nullptr) std::fclose(json_file_);
  if (prometheus_file_ != nullptr) std::fclose(prometheus_file_);
}

void TelemetryExporter::Loop() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  while (!stop_requested_) {
    stop_cv_.wait_for(lock, options_.period);
    if (stop_requested_) break;
    lock.unlock();
    SampleNow();
    lock.lock();
  }
}

void TelemetryExporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stopped_) return;
    stop_requested_ = true;
    stopped_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  if (options_.final_frame_on_stop) SampleNow();
}

Snapshot TelemetryExporter::SampleNow() {
  std::lock_guard<std::mutex> lock(sample_mutex_);
  Snapshot frame = Sample();
  Deliver(frame);
  frames_.fetch_add(1, std::memory_order_acq_rel);
  return frame;
}

Snapshot TelemetryExporter::Sample() {
  const auto now = std::chrono::steady_clock::now();
  Snapshot frame = TakeSnapshot(*context_);
  frame.index = frame_index_++;
  frame.t_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now - start_)
          .count());
  frame.interval_seconds =
      std::chrono::duration<double>(now - last_sample_).count();
  last_sample_ = now;
  // Reset()-between-frames makes a total run backwards; clamp the delta
  // to zero rather than wrapping.
  for (Snapshot::CounterSample& counter : frame.counters) {
    uint64_t& last = last_counters_[counter.name];
    counter.delta = counter.value >= last ? counter.value - last : 0;
    last = counter.value;
  }
  for (Snapshot::HistogramSample& histogram : frame.histograms) {
    uint64_t& last = last_histogram_counts_[histogram.name];
    histogram.delta = histogram.count >= last ? histogram.count - last : 0;
    last = histogram.count;
  }
  return frame;
}

void TelemetryExporter::Deliver(const Snapshot& frame) {
  if (json_file_ != nullptr || options_.to_stderr) {
    const std::string line = FrameToJsonLine(frame);
    if (json_file_ != nullptr) {
      std::fprintf(json_file_, "%s\n", line.c_str());
      std::fflush(json_file_);
    }
    if (options_.to_stderr) {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }
  if (prometheus_file_ != nullptr) {
    const std::string text = FrameToPrometheusText(frame);
    std::fwrite(text.data(), 1, text.size(), prometheus_file_);
    std::fflush(prometheus_file_);
  }
  if (options_.on_frame) options_.on_frame(frame);
}

}  // namespace hotspot::obs
