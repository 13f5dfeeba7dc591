#include "obs/snapshot.h"

#include <cmath>
#include <cstdio>
#include <utility>

namespace hotspot::obs {

void AppendJsonString(const std::string& text, std::string* out) {
  out->push_back('"');
  for (char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          *out += buffer;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendJsonNumber(double value, std::string* out) {
  if (!std::isfinite(value)) {
    *out += "null";
    return;
  }
  char buffer[40];
  // %.17g survives a text round trip bit-exactly for finite doubles.
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  *out += buffer;
}

double Snapshot::TopLevelSpanSeconds() const {
  double total = 0.0;
  for (const SpanSample& span : spans) {
    if (span.depth == 0) total += span.total_seconds;
  }
  return total;
}

double HistogramQuantile(const Snapshot::HistogramSample& histogram,
                         double q) {
  if (histogram.count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(histogram.count);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < histogram.buckets.size(); ++b) {
    const uint64_t in_bucket = histogram.buckets[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      // The overflow bucket has no finite upper edge; clamp to the last
      // finite bound (or the sum-mean when there are no bounds at all).
      if (b >= histogram.bounds.size()) {
        return histogram.bounds.empty()
                   ? histogram.sum / static_cast<double>(histogram.count)
                   : histogram.bounds.back();
      }
      const double upper = histogram.bounds[b];
      const double lower = b == 0 ? 0.0 : histogram.bounds[b - 1];
      const double into_bucket =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lower + (upper - lower) * into_bucket;
    }
    cumulative += in_bucket;
  }
  return histogram.bounds.empty() ? 0.0 : histogram.bounds.back();
}

Snapshot TakeSnapshot(const PipelineContext& context) {
  Snapshot snapshot;
  for (const auto& [name, counter] : context.metrics().Counters()) {
    const uint64_t value = counter->Total();
    snapshot.counters.push_back({name, value, value});
  }
  for (const auto& [name, gauge] : context.metrics().Gauges()) {
    snapshot.gauges.push_back({name, gauge->Value()});
  }
  for (const auto& [name, histogram] : context.metrics().Histograms()) {
    Snapshot::HistogramSample sample;
    sample.name = name;
    sample.bounds = histogram->bounds();
    sample.buckets = histogram->BucketCounts();
    sample.count = histogram->Count();
    sample.delta = sample.count;
    sample.sum = histogram->Sum();
    sample.has_exemplar =
        histogram->LastExemplar(&sample.exemplar, &sample.exemplar_value);
    snapshot.histograms.push_back(std::move(sample));
  }
  for (const TraceCollector::SpanStats& span : context.trace().Aggregate()) {
    snapshot.spans.push_back(
        {span.path, span.depth, span.count, span.total_seconds});
  }
  snapshot.flight_recorded = context.flight().recorded();
  snapshot.flight_dropped = context.flight().dropped();
  return snapshot;
}

std::string FrameToJsonLine(const Snapshot& snapshot) {
  const double interval = snapshot.interval_seconds;
  std::string out = "{\"schema\":\"hotspot.telemetry.v1\",\"frame\":" +
                    std::to_string(snapshot.index) +
                    ",\"t_ms\":" + std::to_string(snapshot.t_ms) +
                    ",\"interval_s\":";
  AppendJsonNumber(interval, &out);
  out += ",\"counters\":[";
  for (size_t i = 0; i < snapshot.counters.size(); ++i) {
    const Snapshot::CounterSample& c = snapshot.counters[i];
    out += i == 0 ? "{\"name\":" : ",{\"name\":";
    AppendJsonString(c.name, &out);
    out += ",\"total\":" + std::to_string(c.value) +
           ",\"delta\":" + std::to_string(c.delta) + ",\"rate\":";
    // A rate needs an interval behind it; a one-shot snapshot has none.
    if (interval > 0.0) {
      AppendJsonNumber(static_cast<double>(c.delta) / interval, &out);
    } else {
      out += "null";
    }
    out += '}';
  }
  out += "],\"gauges\":[";
  for (size_t i = 0; i < snapshot.gauges.size(); ++i) {
    out += i == 0 ? "{\"name\":" : ",{\"name\":";
    AppendJsonString(snapshot.gauges[i].name, &out);
    out += ",\"value\":";
    AppendJsonNumber(snapshot.gauges[i].value, &out);
    out += '}';
  }
  out += "],\"histograms\":[";
  for (size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const Snapshot::HistogramSample& h = snapshot.histograms[i];
    out += i == 0 ? "{\"name\":" : ",{\"name\":";
    AppendJsonString(h.name, &out);
    out += ",\"count\":" + std::to_string(h.count) +
           ",\"delta\":" + std::to_string(h.delta) + ",\"sum\":";
    AppendJsonNumber(h.sum, &out);
    out += ",\"p50\":";
    AppendJsonNumber(HistogramQuantile(h, 0.5), &out);
    out += ",\"p99\":";
    AppendJsonNumber(HistogramQuantile(h, 0.99), &out);
    if (h.has_exemplar) {
      out += ",\"exemplar\":" + std::to_string(h.exemplar) +
             ",\"exemplar_value\":";
      AppendJsonNumber(h.exemplar_value, &out);
    }
    out += '}';
  }
  out += "],\"spans\":[";
  for (size_t i = 0; i < snapshot.spans.size(); ++i) {
    const Snapshot::SpanSample& span = snapshot.spans[i];
    out += i == 0 ? "{\"path\":" : ",{\"path\":";
    AppendJsonString(span.path, &out);
    out += ",\"depth\":" + std::to_string(span.depth) +
           ",\"count\":" + std::to_string(span.count) + ",\"seconds\":";
    AppendJsonNumber(span.total_seconds, &out);
    out += '}';
  }
  out += "],\"flight\":{\"recorded\":" +
         std::to_string(snapshot.flight_recorded) +
         ",\"dropped\":" + std::to_string(snapshot.flight_dropped) + "}}";
  return out;
}

bool WriteSnapshotJson(const Snapshot& snapshot, const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::string line = FrameToJsonLine(snapshot) + "\n";
  const bool ok =
      std::fwrite(line.data(), 1, line.size(), file) == line.size();
  return std::fclose(file) == 0 && ok;
}

}  // namespace hotspot::obs
