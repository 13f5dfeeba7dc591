// Unit tests for the observability layer (src/obs): sharded metrics and
// their merge-on-snapshot semantics, trace span nesting and aggregation,
// the process-wide PipelineContext install protocol, the snapshot's JSON
// line, the flight recorder's MPMC ring (ordering, wrap accounting,
// concurrent-writer torture), and the metric-name charset lint with its
// reversible Prometheus mangling.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/pipeline_context.h"
#include "obs/snapshot.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace hotspot::obs {
namespace {

TEST(Metrics, CounterMergesShardsOnTotal) {
  Counter counter;
  counter.Add(3);
  counter.Increment();
  EXPECT_EQ(counter.Total(), 4u);
  counter.Reset();
  EXPECT_EQ(counter.Total(), 0u);
}

TEST(Metrics, CounterMergesAcrossThreads) {
  // Hammer one counter from many raw threads (each thread gets its own
  // shard id); the merged total must be exact. Run under TSan in CI.
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&counter] {
      for (int k = 0; k < kIncrements; ++k) counter.Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Total(),
            static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(Metrics, CounterMergesAcrossPoolWorkers) {
  Counter counter;
  util::ParallelFor(0, 5000, [&](int64_t) { counter.Add(2); });
  EXPECT_EQ(counter.Total(), 10000u);
}

TEST(Metrics, GaugeLastWriteWins) {
  Gauge gauge;
  gauge.Set(1.5);
  gauge.Set(-2.25);
  EXPECT_DOUBLE_EQ(gauge.Value(), -2.25);
}

TEST(Metrics, HistogramBucketsObservationsByUpperBound) {
  Histogram histogram({0.1, 1.0, 10.0});
  histogram.Observe(0.05);   // <= 0.1
  histogram.Observe(0.1);    // <= 0.1 (bounds are inclusive)
  histogram.Observe(0.5);    // <= 1.0
  histogram.Observe(100.0);  // overflow bucket
  std::vector<uint64_t> buckets = histogram.BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 0u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(histogram.Count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 0.05 + 0.1 + 0.5 + 100.0);
}

TEST(Metrics, HistogramMergesAcrossPoolWorkers) {
  Histogram histogram({0.5});
  util::ParallelFor(0, 4000, [&](int64_t i) {
    histogram.Observe(i % 2 == 0 ? 0.25 : 0.75);
  });
  std::vector<uint64_t> buckets = histogram.BucketCounts();
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0], 2000u);
  EXPECT_EQ(buckets[1], 2000u);
  EXPECT_EQ(histogram.Count(), 4000u);
}

TEST(Metrics, RegistryReturnsSameInstrumentByName) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x/count");
  Counter& b = registry.counter("x/count");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.Total(), 1u);
  EXPECT_NE(&registry.counter("y/count"), &a);
  // Name-sorted listing.
  registry.gauge("g");
  std::vector<std::pair<std::string, const Counter*>> counters =
      registry.Counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "x/count");
  EXPECT_EQ(counters[1].first, "y/count");
}

TEST(Trace, SpansNestAndAggregateByPath) {
  TraceCollector collector;
  {
    ScopedSpan outer(&collector, "outer");
    {
      ScopedSpan inner(&collector, "inner");
    }
    {
      ScopedSpan inner(&collector, "inner");
    }
  }
  {
    ScopedSpan outer(&collector, "outer");
  }
  std::vector<TraceCollector::SpanStats> spans = collector.Aggregate();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].path, "outer");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[0].count, 2u);
  EXPECT_EQ(spans[1].path, "outer/inner");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[1].count, 2u);
  EXPECT_GE(spans[0].total_seconds, spans[1].total_seconds);
}

TEST(Trace, NullCollectorIsNoOp) {
  ScopedSpan span(static_cast<TraceCollector*>(nullptr), "ignored");
  // Nothing to assert beyond "does not crash"; the null path is the
  // disabled-observability fast path.
}

TEST(Trace, ResetDropsSpans) {
  TraceCollector collector;
  {
    ScopedSpan span(&collector, "s");
  }
  EXPECT_FALSE(collector.Aggregate().empty());
  collector.Reset();
  EXPECT_TRUE(collector.Aggregate().empty());
}

TEST(PipelineContext, ScopedInstallSetsAndRestoresCurrent) {
  EXPECT_EQ(PipelineContext::Current(), nullptr);
  PipelineContext outer_context;
  {
    PipelineContext::ScopedInstall outer(&outer_context);
    EXPECT_EQ(PipelineContext::Current(), &outer_context);
    PipelineContext inner_context;
    {
      PipelineContext::ScopedInstall inner(&inner_context);
      EXPECT_EQ(PipelineContext::Current(), &inner_context);
    }
    EXPECT_EQ(PipelineContext::Current(), &outer_context);
    {
      // Installing null is a no-op: the outer context stays current, so
      // entry points can pass an optional context unconditionally.
      PipelineContext::ScopedInstall noop(nullptr);
      EXPECT_EQ(PipelineContext::Current(), &outer_context);
    }
    EXPECT_EQ(PipelineContext::Current(), &outer_context);
  }
  EXPECT_EQ(PipelineContext::Current(), nullptr);
}

TEST(PipelineContext, SpanMacroRecordsIntoInstalledContext) {
  PipelineContext context;
  {
    PipelineContext::ScopedInstall install(&context);
    HOTSPOT_SPAN("macro/test");
  }
  std::vector<TraceCollector::SpanStats> spans =
      context.trace().Aggregate();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].path, "macro/test");
  EXPECT_EQ(spans[0].count, 1u);
}

TEST(PipelineContext, SpanMacroWithoutContextIsNoOp) {
  ASSERT_EQ(PipelineContext::Current(), nullptr);
  HOTSPOT_SPAN("nobody/listens");  // must not crash
}

Snapshot MakeSampleSnapshot() {
  PipelineContext context;
  context.metrics().counter("a/count").Add(42);
  context.metrics().gauge("b/gauge").Set(0.1 + 0.2);  // non-representable
  Histogram& histogram =
      context.metrics().histogram("c/hist", {0.001, 1.0});
  histogram.Observe(0.0005);
  histogram.Observe(2.5);
  {
    PipelineContext::ScopedInstall install(&context);
    HOTSPOT_SPAN("root");
    HOTSPOT_SPAN("child");
  }
  return TakeSnapshot(context);
}

TEST(Snapshot, RendersTakeSnapshotAsOneExactJsonLine) {
  Snapshot snapshot = MakeSampleSnapshot();
  const std::string line = FrameToJsonLine(snapshot);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.rfind("{\"schema\":\"hotspot.telemetry.v1\",\"frame\":0,"
                       "\"t_ms\":0,\"interval_s\":0,",
                       0),
            0u)
      << line;

  // A one-shot snapshot is a first frame: each delta equals its total,
  // and with no interval behind it there is no rate.
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].name, "a/count");
  EXPECT_EQ(snapshot.counters[0].value, 42u);
  EXPECT_NE(line.find("{\"name\":\"a/count\",\"total\":42,\"delta\":42,"
                      "\"rate\":null}"),
            std::string::npos)
      << line;

  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_EQ(snapshot.gauges[0].name, "b/gauge");
  // %.17g prints the double so that it parses back bit-exactly.
  EXPECT_NE(line.find("{\"name\":\"b/gauge\",\"value\":0.30000000000000004}"),
            std::string::npos)
      << line;
  EXPECT_EQ(std::strtod("0.30000000000000004", nullptr),
            snapshot.gauges[0].value);

  ASSERT_EQ(snapshot.histograms.size(), 1u);
  const Snapshot::HistogramSample& histogram = snapshot.histograms[0];
  EXPECT_EQ(histogram.name, "c/hist");
  EXPECT_EQ(histogram.bounds, (std::vector<double>{0.001, 1.0}));
  EXPECT_EQ(histogram.buckets, (std::vector<uint64_t>{1, 0, 1}));
  EXPECT_EQ(histogram.count, 2u);
  EXPECT_EQ(histogram.sum, 0.0005 + 2.5);
  EXPECT_FALSE(histogram.has_exemplar);
  EXPECT_NE(line.find("{\"name\":\"c/hist\",\"count\":2,\"delta\":2,"),
            std::string::npos)
      << line;

  ASSERT_EQ(snapshot.spans.size(), 2u);
  EXPECT_EQ(snapshot.spans[0].path, "root");
  EXPECT_EQ(snapshot.spans[0].depth, 0);
  EXPECT_EQ(snapshot.spans[1].path, "root/child");
  EXPECT_EQ(snapshot.spans[1].depth, 1);
  const size_t root_at =
      line.find("{\"path\":\"root\",\"depth\":0,\"count\":1,");
  const size_t child_at =
      line.find("{\"path\":\"root/child\",\"depth\":1,\"count\":1,");
  ASSERT_NE(root_at, std::string::npos) << line;
  ASSERT_NE(child_at, std::string::npos) << line;
  EXPECT_LT(root_at, child_at);

  const std::string tail = "],\"flight\":{\"recorded\":0,\"dropped\":0}}";
  ASSERT_GE(line.size(), tail.size());
  EXPECT_EQ(line.substr(line.size() - tail.size()), tail);
}

TEST(Snapshot, NonFiniteNumbersRenderAsNull) {
  // Gauge::Set takes any double; %.17g would print "nan" or "inf", which
  // is not JSON.
  PipelineContext context;
  context.metrics().gauge("g/nan").Set(
      std::numeric_limits<double>::quiet_NaN());
  context.metrics().gauge("g/inf").Set(
      -std::numeric_limits<double>::infinity());
  const std::string line = FrameToJsonLine(TakeSnapshot(context));
  EXPECT_NE(line.find("{\"name\":\"g/inf\",\"value\":null}"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("{\"name\":\"g/nan\",\"value\":null}"),
            std::string::npos)
      << line;
  EXPECT_EQ(line.find(":nan"), std::string::npos) << line;
  EXPECT_EQ(line.find(":-inf"), std::string::npos) << line;
}

TEST(Snapshot, EscapesQuotesInNames) {
  PipelineContext context;
  context.metrics().counter("say \"hi\"\\now").Increment();
  {
    PipelineContext::ScopedInstall install(&context);
    HOTSPOT_SPAN("quoted \"span\"");
  }
  const std::string line = FrameToJsonLine(TakeSnapshot(context));
  EXPECT_NE(line.find(R"({"name":"say \"hi\"\\now","total":1,)"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find(R"({"path":"quoted \"span\"","depth":0,)"),
            std::string::npos)
      << line;
}

TEST(Snapshot, TopLevelSpanSecondsSumsDepthZeroOnly) {
  Snapshot snapshot;
  snapshot.spans.push_back({"a", 0, 1, 2.0});
  snapshot.spans.push_back({"a/b", 1, 1, 1.5});
  snapshot.spans.push_back({"c", 0, 1, 3.0});
  EXPECT_DOUBLE_EQ(snapshot.TopLevelSpanSeconds(), 5.0);
}

// ---------------------------------------------------------------------------
// Histogram exemplars

TEST(Metrics, HistogramCarriesLastWriteWinsExemplar) {
  Histogram histogram({0.1, 1.0});
  int64_t exemplar = 0;
  double value = 0.0;
  EXPECT_FALSE(histogram.LastExemplar(&exemplar, &value));
  histogram.ObserveWithExemplar(0.05, 7);
  histogram.ObserveWithExemplar(0.5, 42);
  ASSERT_TRUE(histogram.LastExemplar(&exemplar, &value));
  EXPECT_EQ(exemplar, 42);
  EXPECT_DOUBLE_EQ(value, 0.5);
  // The exemplar is a diagnostics pointer riding on top of the normal
  // accounting, not a separate observation stream.
  EXPECT_EQ(histogram.Count(), 2u);
  histogram.Reset();
  EXPECT_FALSE(histogram.LastExemplar(&exemplar, &value));
}

// ---------------------------------------------------------------------------
// FlightRecorder

TEST(FlightRecorder, RecordsInOrderWithMonotonicSequence) {
  FlightRecorder recorder(16);
  recorder.Record(FlightEventKind::kPromotion, -1, 1);
  recorder.Record(FlightEventKind::kAdmissionReject, 3, 17, 54);
  recorder.Record(FlightEventKind::kCustom, 0, 0, 0, 2.5);
  EXPECT_EQ(recorder.recorded(), 3u);
  EXPECT_EQ(recorder.dropped(), 0u);
  std::vector<FlightEventRecord> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].sequence, 0u);
  EXPECT_EQ(events[0].kind, FlightEventKind::kPromotion);
  EXPECT_EQ(events[0].a, -1);
  EXPECT_EQ(events[0].b, 1);
  EXPECT_EQ(events[1].sequence, 1u);
  EXPECT_EQ(events[1].kind, FlightEventKind::kAdmissionReject);
  EXPECT_EQ(events[1].c, 54);
  EXPECT_EQ(events[2].kind, FlightEventKind::kCustom);
  EXPECT_DOUBLE_EQ(events[2].d, 2.5);
  // Time stamps never run backwards along the ticket order.
  EXPECT_LE(events[0].t_ns, events[1].t_ns);
  EXPECT_LE(events[1].t_ns, events[2].t_ns);
}

TEST(FlightRecorder, RingKeepsNewestAndCountsDropsExactly) {
  FlightRecorder recorder(8);  // already a power of two
  EXPECT_EQ(recorder.capacity(), 8u);
  for (int k = 0; k < 20; ++k) {
    recorder.Record(FlightEventKind::kCustom, k);
  }
  EXPECT_EQ(recorder.recorded(), 20u);
  EXPECT_EQ(recorder.dropped(), 12u);
  std::vector<FlightEventRecord> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); ++i) {
    // The retained window is exactly the newest capacity() events,
    // oldest first.
    EXPECT_EQ(events[i].sequence, 12 + i);
    EXPECT_EQ(events[i].a, static_cast<int64_t>(12 + i));
  }
  recorder.Reset();
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(1).capacity(), 2u);
  EXPECT_EQ(FlightRecorder(3).capacity(), 4u);
  EXPECT_EQ(FlightRecorder(4096).capacity(), 4096u);
  EXPECT_EQ(FlightRecorder(4097).capacity(), 8192u);
}

TEST(FlightRecorder, ConcurrentWritersNeverFabricateEvents) {
  // Writer torture with concurrent snapshots: every accepted event must
  // be one some writer actually recorded (payload a encodes writer and
  // ordinal), sequences must be unique, and the lifetime accounting must
  // be exact. Run under TSan in CI — the ring's memory-order argument is
  // what this pins. Each round then checks the quiesced tail: a writer
  // preempted for a lap must not hide a newer writer's retained event.
  // Pinning the process to one CPU (taskset -c 0) makes writers get
  // preempted mid-record, which is when a lost slot would show.
  constexpr int kRounds = 40;
  constexpr int kWriters = 8;
  constexpr int kEventsPerWriter = 2000;
  for (int round = 0; round < kRounds; ++round) {
    FlightRecorder recorder(round % 2 == 0 ? 64 : 16);
    std::atomic<bool> done{false};
    std::thread reader([&] {
      while (!done.load(std::memory_order_acquire)) {
        std::vector<FlightEventRecord> events = recorder.Snapshot();
        std::set<uint64_t> sequences;
        for (const FlightEventRecord& event : events) {
          EXPECT_TRUE(sequences.insert(event.sequence).second);
          const int64_t writer = event.a / kEventsPerWriter;
          const int64_t ordinal = event.a % kEventsPerWriter;
          EXPECT_LT(writer, kWriters);
          EXPECT_EQ(event.b, ordinal * 2);  // payload written atomically
        }
      }
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&recorder, w] {
        for (int k = 0; k < kEventsPerWriter; ++k) {
          const int64_t tag = static_cast<int64_t>(w) * kEventsPerWriter + k;
          recorder.Record(FlightEventKind::kCustom, tag,
                          (tag % kEventsPerWriter) * 2);
        }
      });
    }
    for (std::thread& writer : writers) writer.join();
    done.store(true, std::memory_order_release);
    reader.join();
    ASSERT_EQ(recorder.recorded(),
              static_cast<uint64_t>(kWriters) * kEventsPerWriter);
    EXPECT_EQ(recorder.dropped(), recorder.recorded() - recorder.capacity());
    // Quiesced: the final snapshot retains the full, contiguous tail of
    // tickets, each with its writer's payload.
    std::vector<FlightEventRecord> events = recorder.Snapshot();
    ASSERT_EQ(events.size(), recorder.capacity()) << "round " << round;
    for (size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].sequence, recorder.dropped() + i)
          << "round " << round;
      EXPECT_LT(events[i].a / kEventsPerWriter, kWriters);
      EXPECT_EQ(events[i].b, (events[i].a % kEventsPerWriter) * 2);
    }
  }
}

TEST(PipelineContext, ResetClearsFlightRecorder) {
  PipelineContext context(/*flight_capacity=*/16);
  context.flight().Record(FlightEventKind::kCustom, 1);
  EXPECT_EQ(context.flight().recorded(), 1u);
  context.Reset();
  EXPECT_EQ(context.flight().recorded(), 0u);
}

// ---------------------------------------------------------------------------
// Metric-name lint and Prometheus mangling

TEST(Telemetry, MetricNameCharsetLint) {
  EXPECT_TRUE(IsValidMetricName("fleet/rows_routed"));
  EXPECT_TRUE(IsValidMetricName("pipeline/stage0/residency_seconds"));
  EXPECT_TRUE(IsValidMetricName("_private"));
  EXPECT_TRUE(IsValidMetricName("x"));
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("9starts_with_digit"));
  EXPECT_FALSE(IsValidMetricName("/starts_with_slash"));
  EXPECT_FALSE(IsValidMetricName("has space"));
  EXPECT_FALSE(IsValidMetricName("has-dash"));
  EXPECT_FALSE(IsValidMetricName("has:colon"));
  EXPECT_FALSE(IsValidMetricName("unicode/µs"));
}

TEST(Telemetry, PrometheusNameManglingIsReversible) {
  EXPECT_EQ(ToPrometheusName("fleet/rows_routed"), "fleet:rows_routed");
  EXPECT_EQ(FromPrometheusName("fleet:rows_routed"), "fleet/rows_routed");
  // Round trip over the names the serving stack actually registers,
  // including the shard-scoped family — the `/` → `:` bijection must hold
  // for every name the lint admits.
  const std::string names[] = {
      "serve/requests",
      "pipeline/stage3/residency_seconds",
      ShardMetricName(0, "e2e_seconds"),
      ShardMetricName(12, "rows_routed"),
      ShardMetricName(7, "ingress_high_water"),
  };
  for (const std::string& name : names) {
    ASSERT_TRUE(IsValidMetricName(name)) << name;
    EXPECT_EQ(FromPrometheusName(ToPrometheusName(name)), name);
    // The mangled form introduces no `/` (Prometheus-illegal) characters.
    EXPECT_EQ(ToPrometheusName(name).find('/'), std::string::npos);
  }
}

}  // namespace
}  // namespace hotspot::obs
