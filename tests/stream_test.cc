// The streaming subsystem's contract tests: ingestion ordering policy
// (in-watermark reorder, beyond-watermark drop, duplicates, gap fill, and
// seeded feeds checked against a reference model of that policy),
// the batch/streaming bitwise feature-equivalence guarantee over a
// multi-week synthetic trace, the in-place serving windows of the
// mirrored history ring, the running frontier minima against a scan over
// seeded feed orders, and end-to-end streaming serving parity with
// ForecastService::PredictAtDay at several thread counts.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "core/labels.h"
#include "monitor/health.h"
#include "core/score.h"
#include "core/study.h"
#include "features/feature_tensor.h"
#include "obs/pipeline_context.h"
#include "pipeline/serving_pipeline.h"
#include "thread_matrix.h"
#include "simnet/calendar.h"
#include "stream/incremental_features.h"
#include "stream/kpi_stream.h"
#include "tensor/temporal.h"
#include "util/rng.h"

namespace hotspot {
namespace {

using stream::FeatureEngineConfig;
using stream::IncrementalFeatureEngine;
using stream::IngestorConfig;
using stream::KpiStreamIngestor;
using stream::PushResult;

simnet::GeneratorConfig SmallConfig() {
  simnet::GeneratorConfig config;
  config.topology.target_sectors = 60;
  config.topology.num_cities = 1;
  config.weeks = 9;
  config.seed = 77;
  return config;
}

/// The shared study: complete (forward-fill imputed) KPIs, so the stream
/// sees exactly the tensor the batch features were built from.
const Study& SharedStudy() {
  static const Study* study = new Study(BuildStudy(StudyInput(SmallConfig())));
  return *study;
}

FeatureEngineConfig EngineConfigFor(const Study& study, int history_weeks) {
  FeatureEngineConfig config;
  config.num_sectors = study.num_sectors();
  config.num_kpis = study.network.num_kpis();
  config.calendar = &study.network.calendar_matrix;
  config.score = study.score_config;
  config.history_weeks = history_weeks;
  return config;
}

/// Streams the study's KPI tensor in order through ingestor + engine and
/// returns the emitted feature rows as a tensor shaped like the batch one.
Tensor3<float> StreamFeatures(const Study& study) {
  const int n = study.num_sectors();
  const int hours = study.network.num_hours();
  IncrementalFeatureEngine engine(
      EngineConfigFor(study, study.num_weeks() + 1));
  IngestorConfig ingest;
  ingest.num_sectors = n;
  ingest.num_kpis = study.network.num_kpis();
  KpiStreamIngestor ingestor(ingest, engine.IngestorSink());
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < hours; ++j) {
      PushResult result =
          ingestor.Push(i, j, study.network.kpis.Slice(i, j),
                        study.network.kpis.dim2());
      EXPECT_EQ(result, PushResult::kAccepted);
    }
  }
  // The history ring holds the whole trace: copy every finalized row out.
  Tensor3<float> streamed(n, hours, engine.channels(),
                          std::nanf("unwritten"));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(engine.finalized_hours(i), hours) << "sector " << i;
    engine.CopyFeatureRows(i, 0, hours, streamed.Slice(i, 0));
  }
  return streamed;
}

TEST(IncrementalFeatures, BitwiseEqualToBatchTensorOverMultiWeekTrace) {
  const Study& study = SharedStudy();
  Tensor3<float> streamed = StreamFeatures(study);
  const Tensor3<float>& batch = study.features.tensor();
  ASSERT_EQ(streamed.size(), batch.size());
  // Bitwise, not approximate: the incremental engine replays the batch
  // loops' arithmetic, so even NaN payloads must match.
  EXPECT_EQ(std::memcmp(streamed.data().data(), batch.data().data(),
                        batch.size() * sizeof(float)),
            0);
}

TEST(IncrementalFeatures, ServingWindowsHoldTheRowsCopyFeatureRowsCopies) {
  // Two weeks of history, so the ring wraps four times over the 9-week
  // trace and windows straddle its end into the mirror. Every sector's
  // ring shares one allocation: a read past one sector's mirror lands in
  // the next sector's ring, invisible to ASan, so every row of every
  // servable window is compared.
  const Study& study = SharedStudy();
  const int n = study.num_sectors();
  for (int window_days : {2, 3, 7}) {
    FeatureEngineConfig config = EngineConfigFor(study, 2);
    config.window_hours = kHoursPerDay * window_days;
    IncrementalFeatureEngine engine(config);
    const size_t window_floats =
        static_cast<size_t>(config.window_hours) * engine.channels();
    std::vector<float> copied(window_floats);
    int straddling = 0;
    for (int j = 0; j < study.network.num_hours(); ++j) {
      for (int i = 0; i < n; ++i) {
        engine.Consume(i, j, study.network.kpis.Slice(i, j),
                       study.network.kpis.dim2());
      }
      if ((j + 1) % kHoursPerWeek != 0) continue;
      const int finalized = engine.min_finalized_hours();
      for (int end_day = window_days; kHoursPerDay * end_day <= finalized;
           ++end_day) {
        const int first_hour = kHoursPerDay * end_day - config.window_hours;
        if (first_hour < finalized - engine.history_hours()) continue;
        const WindowBatch windows = engine.ServingWindows(end_day);
        ASSERT_EQ(windows.count, n);
        ASSERT_EQ(windows.hours, config.window_hours);
        ASSERT_EQ(windows.channels, engine.channels());
        for (int i = 0; i < n; ++i) {
          engine.CopyFeatureRows(i, first_hour, config.window_hours,
                                 copied.data());
          ASSERT_EQ(std::memcmp(windows.Window(i), copied.data(),
                                window_floats * sizeof(float)),
                    0)
              << "window_days=" << window_days << " end_day=" << end_day
              << " sector=" << i;
        }
        if (first_hour % engine.history_hours() + config.window_hours >
            engine.history_hours()) {
          ++straddling;
        }
      }
    }
    EXPECT_GT(straddling, 0) << "window_days=" << window_days;
  }
}

TEST(IncrementalFeatures, OneSectorsFeedClosesItsDaysAndWeeks) {
  const Study& study = SharedStudy();
  IncrementalFeatureEngine engine(
      EngineConfigFor(study, study.num_weeks() + 1));
  const int hours = study.network.num_hours();
  for (int j = 0; j < hours; ++j) {
    engine.Consume(0, j, study.network.kpis.Slice(0, j),
                   study.network.kpis.dim2());
  }
  EXPECT_EQ(engine.closed_days(0), hours / kHoursPerDay);
  EXPECT_EQ(engine.finalized_hours(0), hours);
  EXPECT_EQ(engine.closed_days(1), 0);
  EXPECT_EQ(engine.finalized_hours(1), 0);
  // The history covers the whole feed: every closed day's label is the
  // batch study's.
  for (int day = 0; day < study.num_days(); ++day) {
    EXPECT_EQ(engine.DailyLabel(0, day), study.daily_labels.At(0, day))
        << "day " << day;
  }
}

/// The sector of every row of a frontier-test feed, in feed order; row k
/// of a sector is its hour k, so every order keeps each sector in order.
std::vector<int> FrontierFeed(Rng* rng, int kind, int num_sectors,
                              int num_hours) {
  std::vector<int> feed;
  std::vector<int> left(static_cast<size_t>(num_sectors), num_hours);
  // Runs of 1 to 48 rows from randomly drawn sectors, `skip` held back.
  auto interleave = [&](int skip) {
    while (true) {
      std::vector<int> live;
      for (int i = 0; i < num_sectors; ++i) {
        if (i != skip && left[static_cast<size_t>(i)] > 0) live.push_back(i);
      }
      if (live.empty()) return;
      const int sector = live[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
      int& rows = left[static_cast<size_t>(sector)];
      for (int run = static_cast<int>(rng->UniformInt(1, 2 * kHoursPerDay));
           run > 0 && rows > 0; --run, --rows) {
        feed.push_back(sector);
      }
    }
  };
  switch (kind) {
    case 0:  // hour-major
      for (int j = 0; j < num_hours; ++j) {
        for (int i = 0; i < num_sectors; ++i) feed.push_back(i);
      }
      break;
    case 1:  // sector-major
      for (int i = 0; i < num_sectors; ++i) {
        feed.insert(feed.end(), static_cast<size_t>(num_hours), i);
      }
      break;
    case 2:
      interleave(-1);
      break;
    default: {  // one sector silent until every other has finished
      const int silent =
          static_cast<int>(rng->UniformInt(0, num_sectors - 1));
      interleave(silent);
      feed.insert(feed.end(), static_cast<size_t>(num_hours), silent);
    }
  }
  return feed;
}

TEST(IncrementalFeatures, FrontierMinimaMatchAScanAfterEveryRow) {
  const Study& study = SharedStudy();
  const int num_kpis = study.network.kpis.dim2();
  int single_sector_feeds = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const int kind = static_cast<int>(seed % 4);
    const int num_sectors =
        seed % 5 == 0 ? 1 : static_cast<int>(rng.UniformInt(2, 8));
    const int num_hours = static_cast<int>(
        rng.UniformInt(2 * kHoursPerWeek, 4 * kHoursPerWeek + 30));
    if (num_sectors == 1) ++single_sector_feeds;
    SCOPED_TRACE("seed " + std::to_string(seed) + ", order " +
                 std::to_string(kind) + ", " + std::to_string(num_sectors) +
                 " sectors, " + std::to_string(num_hours) + " hours");
    FeatureEngineConfig config = EngineConfigFor(study, 1);
    config.num_sectors = num_sectors;
    IncrementalFeatureEngine engine(config);
    std::vector<int> next_hour(static_cast<size_t>(num_sectors), 0);
    const std::vector<int> feed =
        FrontierFeed(&rng, kind, num_sectors, num_hours);
    ASSERT_EQ(feed.size(), static_cast<size_t>(num_sectors * num_hours));
    for (size_t r = 0; r <= feed.size(); ++r) {
      if (r > 0) {
        const int sector = feed[r - 1];
        const int hour = next_hour[static_cast<size_t>(sector)]++;
        engine.Consume(sector, hour,
                       study.network.kpis.Slice(sector % study.num_sectors(),
                                                hour),
                       num_kpis);
      }
      int min_days = engine.closed_days(0);
      int min_hours = engine.finalized_hours(0);
      for (int i = 1; i < num_sectors; ++i) {
        min_days = std::min(min_days, engine.closed_days(i));
        min_hours = std::min(min_hours, engine.finalized_hours(i));
      }
      ASSERT_EQ(engine.min_closed_days(), min_days) << "after row " << r;
      ASSERT_EQ(engine.min_finalized_hours(), min_hours) << "after row " << r;
    }
    EXPECT_EQ(engine.min_closed_days(), num_hours / kHoursPerDay);
    EXPECT_EQ(engine.min_finalized_hours(),
              num_hours / kHoursPerWeek * kHoursPerWeek);
  }
  EXPECT_GT(single_sector_feeds, 0);
}

/// A tiny deterministic trace for the ordering-policy tests: 1 sector,
/// 2 KPIs, values a simple function of the hour.
struct TinyTrace {
  static constexpr int kKpis = 2;
  static std::vector<float> Row(int hour) {
    return {static_cast<float>(hour % 7),
            static_cast<float>((hour * 3) % 11)};
  }
};

struct CapturedRow {
  int sector;
  int hour;
  std::vector<float> values;
};

TEST(KpiStreamIngestor, InWatermarkReorderIsLossless) {
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  std::vector<CapturedRow> rows;
  IngestorConfig config;
  config.num_sectors = 1;
  config.num_kpis = TinyTrace::kKpis;
  config.watermark_hours = 24;
  KpiStreamIngestor ingestor(config, [&](int sector, int hour,
                                         const float* values, int num_kpis) {
    rows.push_back({sector, hour,
                    std::vector<float>(values, values + num_kpis)});
  });
  // Deliver each 6-hour block reversed — out of order, but well inside
  // the 24 h watermark.
  const int kHours = 48;
  for (int block = 0; block < kHours / 6; ++block) {
    for (int h = 6 * block + 5; h >= 6 * block; --h) {
      EXPECT_EQ(ingestor.Push(0, h, TinyTrace::Row(h)),
                PushResult::kAccepted);
    }
  }
  ingestor.Flush();
  ASSERT_EQ(static_cast<int>(rows.size()), kHours);
  for (int h = 0; h < kHours; ++h) {
    EXPECT_EQ(rows[static_cast<size_t>(h)].hour, h);
    EXPECT_EQ(rows[static_cast<size_t>(h)].values, TinyTrace::Row(h));
  }
  EXPECT_GT(context.metrics().counter("stream/rows_reordered").Total(), 0u);
  EXPECT_EQ(context.metrics().counter("stream/rows_late_dropped").Total(),
            0u);
  EXPECT_EQ(context.metrics().counter("stream/rows_gap_filled").Total(), 0u);
  EXPECT_EQ(context.metrics().counter("stream/rows_accepted").Total(),
            static_cast<uint64_t>(kHours));
}

TEST(KpiStreamIngestor, BeyondWatermarkRowIsDroppedAndCounted) {
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  std::vector<CapturedRow> rows;
  IngestorConfig config;
  config.num_sectors = 1;
  config.num_kpis = TinyTrace::kKpis;
  config.watermark_hours = 6;
  config.ring_hours = 12;
  KpiStreamIngestor ingestor(config, [&](int sector, int hour,
                                         const float* values, int num_kpis) {
    rows.push_back({sector, hour,
                    std::vector<float>(values, values + num_kpis)});
  });
  // Hour 5 never arrives on time; the stream runs on far enough that the
  // watermark passes it (gap-filled as all-NaN), then it shows up late.
  for (int h = 0; h < 20; ++h) {
    if (h == 5) continue;
    EXPECT_EQ(ingestor.Push(0, h, TinyTrace::Row(h)),
              PushResult::kAccepted);
  }
  EXPECT_EQ(ingestor.Push(0, 5, TinyTrace::Row(5)), PushResult::kLate);
  ingestor.Flush();
  ASSERT_EQ(static_cast<int>(rows.size()), 20);
  for (int h = 0; h < 20; ++h) {
    EXPECT_EQ(rows[static_cast<size_t>(h)].hour, h);
    if (h == 5) {
      for (float v : rows[5].values) EXPECT_TRUE(std::isnan(v));
    } else {
      EXPECT_EQ(rows[static_cast<size_t>(h)].values, TinyTrace::Row(h));
    }
  }
  EXPECT_EQ(context.metrics().counter("stream/rows_late_dropped").Total(),
            1u);
  EXPECT_EQ(context.metrics().counter("stream/rows_gap_filled").Total(), 1u);
}

TEST(KpiStreamIngestor, DuplicateRowFirstWinsAndIsCounted) {
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  std::vector<CapturedRow> rows;
  IngestorConfig config;
  config.num_sectors = 1;
  config.num_kpis = TinyTrace::kKpis;
  config.watermark_hours = 24;
  KpiStreamIngestor ingestor(config, [&](int sector, int hour,
                                         const float* values, int num_kpis) {
    rows.push_back({sector, hour,
                    std::vector<float>(values, values + num_kpis)});
  });
  // Hour 3 arrives while hour 2 is still outstanding (so it is buffered,
  // not yet flushed), then arrives again with different values.
  EXPECT_EQ(ingestor.Push(0, 0, TinyTrace::Row(0)), PushResult::kAccepted);
  EXPECT_EQ(ingestor.Push(0, 1, TinyTrace::Row(1)), PushResult::kAccepted);
  EXPECT_EQ(ingestor.Push(0, 3, TinyTrace::Row(3)), PushResult::kAccepted);
  std::vector<float> imposter = {99.0f, 99.0f};
  EXPECT_EQ(ingestor.Push(0, 3, imposter), PushResult::kDuplicate);
  EXPECT_EQ(ingestor.Push(0, 2, TinyTrace::Row(2)), PushResult::kAccepted);
  // A duplicate of an already-flushed hour is late by definition.
  EXPECT_EQ(ingestor.Push(0, 0, TinyTrace::Row(0)), PushResult::kLate);
  ASSERT_EQ(static_cast<int>(rows.size()), 4);
  EXPECT_EQ(rows[3].values, TinyTrace::Row(3));  // first row won
  EXPECT_EQ(
      context.metrics().counter("stream/rows_duplicate_dropped").Total(),
      1u);
  EXPECT_EQ(context.metrics().counter("stream/rows_late_dropped").Total(),
            1u);
}

TEST(KpiStreamIngestor, MalformedRowsAreRejectedNotFatal) {
  IngestorConfig config;
  config.num_sectors = 2;
  config.num_kpis = TinyTrace::kKpis;
  int delivered = 0;
  KpiStreamIngestor ingestor(
      config, [&](int, int, const float*, int) { ++delivered; });
  std::vector<float> row = TinyTrace::Row(0);
  EXPECT_EQ(ingestor.Push(5, 0, row), PushResult::kRejected);
  EXPECT_EQ(ingestor.Push(-1, 0, row), PushResult::kRejected);
  EXPECT_EQ(ingestor.Push(0, -2, row), PushResult::kRejected);
  std::vector<float> short_row = {1.0f};
  EXPECT_EQ(ingestor.Push(0, 0, short_row), PushResult::kRejected);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(ingestor.Push(0, 0, row), PushResult::kAccepted);
  EXPECT_EQ(delivered, 1);
}

/// Every counter the ingestor keeps.
const char* const kIngestCounters[] = {
    "stream/rows_offered",           "stream/rows_accepted",
    "stream/rows_reordered",         "stream/rows_duplicate_dropped",
    "stream/rows_late_dropped",      "stream/rows_rejected",
    "stream/rows_gap_filled"};

/// One row a sink received: sector, hour and the values' bit patterns (so
/// NaN payloads compare too).
struct SunkRow {
  int sector;
  int hour;
  std::vector<uint32_t> bits;
  bool operator==(const SunkRow&) const = default;
};

SunkRow Sunk(int sector, int hour, const float* values, int num_kpis) {
  SunkRow row{sector, hour,
              std::vector<uint32_t>(static_cast<size_t>(num_kpis))};
  std::memcpy(row.bits.data(), values,
              static_cast<size_t>(num_kpis) * sizeof(float));
  return row;
}

/// The ingestion policy of kpi_stream.h restated over a map of buffered
/// rows per sector, with no ring and no in-order shortcut: a row is late
/// below the sector's emitted frontier; a row at or below the newest hour
/// seen counts as reordered (duplicates too); the first row of an hour
/// wins; the frontier then emits every buffered hour in order and gap-fills
/// every hour more than `watermark` behind the newest one (every hour
/// before it, on Flush).
class ReferenceIngestor {
 public:
  ReferenceIngestor(int num_sectors, int num_kpis, int watermark)
      : num_kpis_(num_kpis), watermark_(watermark), sectors_(num_sectors) {}

  PushResult Push(int sector, int hour, const float* values, int num_kpis) {
    ++counts["stream/rows_offered"];
    if (sector < 0 || sector >= static_cast<int>(sectors_.size()) ||
        hour < 0 || num_kpis != num_kpis_) {
      ++counts["stream/rows_rejected"];
      return PushResult::kRejected;
    }
    Sector& state = sectors_[static_cast<size_t>(sector)];
    if (hour < state.next) {
      ++counts["stream/rows_late_dropped"];
      return PushResult::kLate;
    }
    if (hour > state.max_seen) {
      state.max_seen = hour;
      Release(sector, state.max_seen - watermark_);
    } else {
      ++counts["stream/rows_reordered"];
    }
    if (state.buffered.count(hour) != 0) {
      ++counts["stream/rows_duplicate_dropped"];
      return PushResult::kDuplicate;
    }
    state.buffered[hour] = Sunk(sector, hour, values, num_kpis);
    ++counts["stream/rows_accepted"];
    Release(sector, state.max_seen - watermark_);
    return PushResult::kAccepted;
  }

  void Flush() {
    for (size_t i = 0; i < sectors_.size(); ++i) {
      Release(static_cast<int>(i), sectors_[i].max_seen);
    }
  }

  /// Whether `hour` is the sector's next hour with nothing buffered.
  bool InOrder(int sector, int hour) const {
    if (sector < 0 || sector >= static_cast<int>(sectors_.size())) {
      return false;
    }
    const Sector& state = sectors_[static_cast<size_t>(sector)];
    return hour == state.next && state.buffered.empty();
  }
  int Emitted(int sector) const {
    return sectors_[static_cast<size_t>(sector)].next;
  }

  std::vector<SunkRow> sunk;
  std::map<std::string, uint64_t> counts;

 private:
  struct Sector {
    std::map<int, SunkRow> buffered;
    int next = 0;
    int max_seen = -1;
  };

  /// Emits the sector's hours in order while each is buffered or lies
  /// below `gap_horizon`.
  void Release(int sector, int gap_horizon) {
    Sector& state = sectors_[static_cast<size_t>(sector)];
    while (true) {
      auto it = state.buffered.find(state.next);
      if (it != state.buffered.end()) {
        sunk.push_back(it->second);
        state.buffered.erase(it);
      } else if (state.next < gap_horizon) {
        const std::vector<float> gap(static_cast<size_t>(num_kpis_),
                                     MissingValue());
        sunk.push_back(Sunk(sector, state.next, gap.data(), num_kpis_));
        ++counts["stream/rows_gap_filled"];
      } else {
        break;
      }
      ++state.next;
    }
  }

  int num_kpis_;
  int watermark_;
  std::vector<Sector> sectors_;
};

/// One offer of a seeded feed. `variant` tells two offers of one (sector,
/// hour) apart; an offer whose `width` is not the ingestor's is malformed.
struct Offer {
  int sector;
  int hour;
  int variant;
  int width;
};

/// Values of an offer, a few of them NaNs with distinct payloads.
std::vector<float> OfferValues(const Offer& offer, int num_kpis) {
  std::vector<float> values(static_cast<size_t>(num_kpis));
  for (int k = 0; k < num_kpis; ++k) {
    const int mix = offer.sector * 31 + offer.hour * 7 + offer.variant + k;
    if (mix % 11 == 0) {
      const uint32_t bits = 0x7fc00000u | static_cast<uint32_t>(mix & 0xff);
      std::memcpy(&values[static_cast<size_t>(k)], &bits, sizeof(bits));
    } else {
      values[static_cast<size_t>(k)] =
          static_cast<float>(offer.sector * 1000 + offer.hour) +
          0.25f * static_cast<float>(offer.variant) +
          0.5f * static_cast<float>(k);
    }
  }
  return values;
}

/// Every hour of every sector once, hour-major or sector-major, with some
/// sectors silent for a long stretch; then offers are moved a little (within
/// the watermark) or far (past it), repeated with other values, and joined
/// by malformed ones.
std::vector<Offer> MakeFeed(Rng* rng, int num_sectors, int num_hours,
                            int num_kpis, int watermark, bool hour_major) {
  std::vector<int> silent_from(static_cast<size_t>(num_sectors), num_hours);
  std::vector<int> silent_to(static_cast<size_t>(num_sectors), num_hours);
  for (int i = 0; i < num_sectors; ++i) {
    if (rng->Bernoulli(0.3)) {
      silent_from[static_cast<size_t>(i)] =
          static_cast<int>(rng->UniformInt(0, num_hours - 1));
      silent_to[static_cast<size_t>(i)] =
          silent_from[static_cast<size_t>(i)] +
          static_cast<int>(rng->UniformInt(1, 3 * watermark + 8));
    }
  }
  std::vector<Offer> base;
  for (int a = 0; a < (hour_major ? num_hours : num_sectors); ++a) {
    for (int b = 0; b < (hour_major ? num_sectors : num_hours); ++b) {
      const int sector = hour_major ? b : a;
      const int hour = hour_major ? a : b;
      if (hour >= silent_from[static_cast<size_t>(sector)] &&
          hour < silent_to[static_cast<size_t>(sector)]) {
        continue;
      }
      base.push_back({sector, hour, 0, num_kpis});
    }
  }
  // Offers are sorted by (position key, draw order); a key two apart per
  // base offer leaves odd keys for the inserted ones.
  const int64_t window =
      2 * static_cast<int64_t>(watermark + 1) * (hour_major ? num_sectors : 1);
  std::vector<std::pair<int64_t, Offer>> keyed;
  for (size_t p = 0; p < base.size(); ++p) {
    const int64_t key = 2 * static_cast<int64_t>(p);
    const double draw = rng->UniformDouble();
    if (draw < 0.2) {
      keyed.push_back({key + rng->UniformInt(0, window), base[p]});
    } else if (draw < 0.24) {
      keyed.push_back(
          {key + rng->UniformInt(2 * window, 4 * window), base[p]});
    } else {
      keyed.push_back({key, base[p]});
    }
    if (rng->Bernoulli(0.05)) {
      Offer repeat = base[p];
      repeat.variant = 1;
      keyed.push_back({key + 1 + rng->UniformInt(0, window), repeat});
    }
    if (rng->Bernoulli(0.02)) {
      Offer bad = base[p];
      switch (rng->UniformInt(0, 2)) {
        case 0:
          bad.sector = rng->Bernoulli(0.5) ? -1 : num_sectors;
          break;
        case 1:
          bad.hour = -1 - bad.hour;
          break;
        default:
          bad.width = num_kpis + 1;
      }
      keyed.push_back({key + 1, bad});
    }
  }
  std::stable_sort(
      keyed.begin(), keyed.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Offer> feed;
  for (const auto& [key, offer] : keyed) feed.push_back(offer);
  return feed;
}

TEST(KpiStreamIngestor, MatchesReferencePolicyOnSeededFeeds) {
  constexpr int kKpis = 3;
  uint64_t in_order_rows = 0;
  uint64_t hole_fills = 0;
  std::map<std::string, uint64_t> totals;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const int num_sectors = static_cast<int>(rng.UniformInt(1, 4));
    const int num_hours = static_cast<int>(rng.UniformInt(40, 160));
    const int watermark_choices[] = {0, 1, 3, 6, 24};
    IngestorConfig config;
    config.num_sectors = num_sectors;
    config.num_kpis = kKpis;
    config.watermark_hours = watermark_choices[rng.UniformInt(0, 4)];
    config.ring_hours =
        config.watermark_hours + 1 + static_cast<int>(rng.UniformInt(0, 3));
    const bool hour_major = seed % 2 == 0;
    const std::vector<Offer> feed =
        MakeFeed(&rng, num_sectors, num_hours, kKpis,
                 config.watermark_hours, hour_major);
    SCOPED_TRACE("seed " + std::to_string(seed) + ", watermark " +
                 std::to_string(config.watermark_hours) + ", ring " +
                 std::to_string(config.ring_hours) +
                 (hour_major ? ", hour-major" : ", sector-major"));

    obs::PipelineContext context;
    obs::PipelineContext::ScopedInstall install(&context);
    std::vector<SunkRow> sunk;
    std::vector<const float*> sunk_from;
    KpiStreamIngestor ingestor(
        config, [&](int sector, int hour, const float* values, int num_kpis) {
          sunk.push_back(Sunk(sector, hour, values, num_kpis));
          sunk_from.push_back(values);
        });
    ReferenceIngestor reference(num_sectors, kKpis, config.watermark_hours);
    for (size_t r = 0; r < feed.size(); ++r) {
      const Offer& offer = feed[r];
      const std::vector<float> values = OfferValues(offer, kKpis);
      const bool in_order = reference.InOrder(offer.sector, offer.hour) &&
                            offer.width == kKpis;
      const size_t before = sunk.size();
      const PushResult expected =
          reference.Push(offer.sector, offer.hour, values.data(), offer.width);
      ASSERT_EQ(ingestor.Push(offer.sector, offer.hour, values.data(),
                              offer.width),
                expected)
          << "offer " << r;
      ASSERT_EQ(sunk.size(), reference.sunk.size()) << "offer " << r;
      for (size_t s = before; s < sunk.size(); ++s) {
        ASSERT_EQ(sunk[s], reference.sunk[s]) << "offer " << r;
        // Only a row that is final as it arrives reaches the sink through
        // the caller's buffer; anything the ring held comes from the ring.
        EXPECT_EQ(sunk_from[s] == values.data(), in_order && s == before)
            << "offer " << r;
      }
      if (in_order) {
        ++in_order_rows;
      } else if (expected == PushResult::kAccepted && sunk.size() > before &&
                 sunk[before].hour == offer.hour) {
        ++hole_fills;  // this row closed a hole and released its queue
      }
    }
    ingestor.Flush();
    reference.Flush();
    ASSERT_EQ(sunk, reference.sunk);
    // Per sector the sink sees hour 0, 1, 2, ... however the feed came.
    std::vector<int> next_hour(static_cast<size_t>(num_sectors), 0);
    for (const SunkRow& row : sunk) {
      EXPECT_EQ(row.hour, next_hour[static_cast<size_t>(row.sector)]++);
    }
    for (int i = 0; i < num_sectors; ++i) {
      EXPECT_EQ(ingestor.FlushedHours(i), reference.Emitted(i));
    }
    for (const char* name : kIngestCounters) {
      EXPECT_EQ(context.metrics().counter(name).Total(),
                reference.counts[name])
          << name;
      totals[name] += reference.counts[name];
    }
  }
  // The feeds exercise every branch of the policy.
  for (const char* name : kIngestCounters) EXPECT_GT(totals[name], 0u) << name;
  EXPECT_GT(in_order_rows, 0u);
  EXPECT_GT(hole_fills, 0u);
}

TEST(IncrementalFeatures, GapFilledHoursMatchBatchOnHoleyTensor) {
  // An hour the watermark declared missing must flow through scores,
  // labels and features exactly like a batch tensor with that hour NaN.
  const int kWeeks = 2;
  simnet::StudyCalendar calendar = simnet::StudyCalendar::Paper(kWeeks);
  Matrix<float> calendar_matrix = calendar.BuildCalendarMatrix();
  const int hours = calendar.hours();
  ScoreConfig score;
  score.indicators = {{1.0, 3.0, true}, {2.0, 4.0, false}};
  score.hot_threshold = 0.5;
  Tensor3<float> kpis(1, hours, 2);
  for (int j = 0; j < hours; ++j) {
    kpis.At(0, j, 0) = TinyTrace::Row(j)[0];
    kpis.At(0, j, 1) = TinyTrace::Row(j)[1];
  }
  const int kHole = 29;
  kpis.At(0, kHole, 0) = MissingValue();
  kpis.At(0, kHole, 1) = MissingValue();

  ScoreSet scores = ComputeScores(kpis, score);
  Matrix<float> daily_labels =
      HotSpotLabels(scores.daily, score.hot_threshold);
  features::FeatureTensor batch = features::FeatureTensor::Build(
      kpis, calendar_matrix, scores.hourly, scores.daily, scores.weekly,
      daily_labels);

  FeatureEngineConfig engine_config;
  engine_config.num_sectors = 1;
  engine_config.num_kpis = 2;
  engine_config.calendar = &calendar_matrix;
  engine_config.score = score;
  engine_config.history_weeks = kWeeks + 1;
  IncrementalFeatureEngine engine(engine_config);
  IngestorConfig ingest;
  ingest.num_sectors = 1;
  ingest.num_kpis = 2;
  ingest.watermark_hours = 6;
  ingest.ring_hours = 12;
  KpiStreamIngestor ingestor(ingest, engine.IngestorSink());
  for (int j = 0; j < hours; ++j) {
    if (j == kHole) continue;  // never arrives; the watermark fills it
    ASSERT_EQ(ingestor.Push(0, j, kpis.Slice(0, j), 2),
              PushResult::kAccepted);
  }
  ingestor.Flush();
  ASSERT_EQ(engine.finalized_hours(0), hours);
  Tensor3<float> streamed(1, hours, engine.channels());
  engine.CopyFeatureRows(0, 0, hours, streamed.Slice(0, 0));
  EXPECT_EQ(std::memcmp(streamed.data().data(),
                        batch.tensor().data().data(),
                        batch.tensor().size() * sizeof(float)),
            0);
}

std::unique_ptr<ForecastService> MakeService(const Study& study) {
  ForecastConfig config;
  config.model = ModelKind::kGbdt;
  config.t = 55;
  config.h = 1;
  config.w = 3;
  config.gbdt.num_iterations = 10;
  config.gbdt.num_leaves = 15;
  config.gbdt.max_bins = 32;
  Forecaster forecaster = study.MakeForecaster(TargetKind::kBeHotSpot);
  std::unique_ptr<serialize::ForecastBundle> bundle =
      forecaster.TrainBundle(config);
  bundle->score = study.score_config;
  return std::make_unique<ForecastService>(std::move(bundle));
}

pipeline::ServingPipeline::Options ServeOptionsFor(const Study& study) {
  pipeline::ServingPipeline::Options options;
  options.num_sectors = study.num_sectors();
  options.num_kpis = study.network.num_kpis();
  options.calendar = &study.network.calendar_matrix;
  options.score = study.score_config;
  options.history_weeks = study.num_weeks() + 1;
  return options;
}

/// Streams the whole study hour-major (all sectors advance together, as
/// live feeds do) through a ServingPipeline and returns every served
/// prediction.
std::vector<StreamingPrediction> RunStreamingServe(
    const Study& study, ForecastService* service) {
  pipeline::ServingPipeline serving(service, ServeOptionsFor(study));
  const int hours = study.network.num_hours();
  for (int j = 0; j < hours; ++j) {
    for (int i = 0; i < study.num_sectors(); ++i) {
      serving.Push(i, j, study.network.kpis.Slice(i, j),
                   study.network.kpis.dim2());
    }
  }
  serving.Finish();
  return serving.TakePredictions();
}

TEST(StreamServe, PredictionsBitwiseEqualBatchServiceAcrossThreads) {
  const Study& study = SharedStudy();
  std::unique_ptr<ForecastService> service = MakeService(study);
  const int w = service->bundle().window_days;
  const int num_days = study.num_days();

  std::vector<std::vector<float>> batch_scores;
  for (int end_day = w; end_day <= num_days; ++end_day) {
    batch_scores.push_back(service->PredictAtDay(study.features, end_day));
  }

  testing_util::ForEachThreadCount([&](const std::string& threads) {
    std::vector<StreamingPrediction> served =
        RunStreamingServe(study, service.get());
    ASSERT_EQ(static_cast<int>(served.size()), num_days - w + 1)
        << "threads=" << threads;
    for (size_t b = 0; b < served.size(); ++b) {
      EXPECT_EQ(served[b].end_day, w + static_cast<int>(b));
      ASSERT_EQ(served[b].scores.size(), batch_scores[b].size());
      EXPECT_EQ(std::memcmp(served[b].scores.data(),
                            batch_scores[b].data(),
                            batch_scores[b].size() * sizeof(float)),
                0)
          << "threads=" << threads << " end_day=" << served[b].end_day;
    }
  });
}

TEST(StreamServe, MaturedOutcomesFeedQualityMonitor) {
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);
  const Study& study = SharedStudy();
  std::unique_ptr<ForecastService> service = MakeService(study);
  ASSERT_TRUE(service->monitoring_enabled());
  pipeline::ServingPipeline serving(service.get(), ServeOptionsFor(study));
  for (int i = 0; i < study.num_sectors(); ++i) {
    for (int j = 0; j < study.network.num_hours(); ++j) {
      serving.Push(i, j, study.network.kpis.Slice(i, j),
                   study.network.kpis.dim2());
    }
  }
  serving.Finish();
  ASSERT_FALSE(serving.TakePredictions().empty());
  // Every prediction whose target day the stream has already closed fed
  // the quality monitor; only the frontier ones are still waiting.
  const int horizon = service->bundle().horizon_days;
  EXPECT_EQ(serving.pending_outcomes(), horizon + 1);
  monitor::HealthReport health = service->Health();
  EXPECT_TRUE(health.monitoring_enabled);
  EXPECT_GT(health.quality.labels_total, 0u);
  EXPECT_GT(
      context.metrics().counter("stream/outcomes_recorded").Total(), 0u);
  EXPECT_GT(
      context.metrics().counter("stream/prediction_batches").Total(), 0u);
}

}  // namespace
}  // namespace hotspot
