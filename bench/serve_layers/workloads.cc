#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "core/forecast_service.h"
#include "fleet/forecast_fleet.h"
#include "measure.h"

namespace hotspot::bench {
namespace {

/// When each served batch's prediction tee fired, per end day. Tees fire
/// on the pipelines' monitor-stage threads, one per shard.
class TeeLog {
 public:
  std::function<void(const StreamingPrediction&)> Callback() {
    return [this](const StreamingPrediction& prediction) {
      const uint64_t now = NowNs();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        times_[prediction.end_day].push_back(now);
      }
      served_.notify_all();
    };
  }
  /// Waits until every shard has served each of `end_days`; false on
  /// timeout.
  bool WaitServed(const std::vector<int>& end_days, size_t shards) {
    std::unique_lock<std::mutex> lock(mutex_);
    return served_.wait_for(lock, std::chrono::seconds(10), [&] {
      for (int end_day : end_days) {
        auto it = times_.find(end_day);
        if (it == times_.end() || it->second.size() < shards) return false;
      }
      return true;
    });
  }
  std::map<int, std::vector<uint64_t>> Take() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(times_);
  }

 private:
  std::mutex mutex_;
  std::condition_variable served_;
  std::map<int, std::vector<uint64_t>> times_;
};

bool SameBits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Reference batches that were not served, or not bitwise-equal, plus
/// served batches the reference does not have.
int64_t CountWrongBatches(const Reference& reference,
                          const std::map<int, const std::vector<float>*>& served) {
  int64_t wrong = 0;
  for (const auto& [end_day, scores] : reference) {
    auto it = served.find(end_day);
    if (it == served.end() || !SameBits(*it->second, scores)) ++wrong;
  }
  for (const auto& entry : served) {
    if (reference.count(entry.first) == 0) ++wrong;
  }
  return wrong;
}

/// Batch latency runs from when the last row the batch depends on was
/// due to the last shard's tee; the first-to-last tee gap is the
/// straggler time. Traced runs get one batch span per end day with its
/// tees as instants.
void RecordBatches(const Feed& feed, const std::vector<uint64_t>& step_due_ns,
                   const std::map<int, std::vector<uint64_t>>& tees,
                   int num_shards, int pass_span, TraceLog* trace,
                   PassResult* result) {
  const int last_hour = static_cast<int>(feed.last_step_upto.size()) - 1;
  for (const auto& [end_day, times] : tees) {
    if (static_cast<int>(times.size()) < num_shards) continue;
    const int hour = std::min(ServableHour(end_day), last_hour);
    const uint64_t due =
        step_due_ns[static_cast<size_t>(feed.last_step_upto[static_cast<size_t>(hour)])];
    const uint64_t first = *std::min_element(times.begin(), times.end());
    const uint64_t last = *std::max_element(times.begin(), times.end());
    result->latency_ms.push_back(
        1e-6 * (static_cast<double>(last) - static_cast<double>(due)));
    if (num_shards > 1) {
      result->straggler_ms.push_back(1e-6 * static_cast<double>(last - first));
    }
    if (trace != nullptr) {
      const int span =
          trace->Add("batch", pass_span, end_day, std::min(due, first), last);
      for (uint64_t t : times) trace->Instant("tee", span, end_day, t);
    }
  }
}

/// Adds `more` into `total` stage by stage (high-water marks: maximum).
void AccumulateStages(const std::vector<pipeline::StageStats>& more,
                      std::vector<pipeline::StageStats>* total) {
  if (total->empty()) {
    *total = more;
    return;
  }
  for (size_t k = 0; k < more.size() && k < total->size(); ++k) {
    pipeline::StageStats& t = (*total)[k];
    t.items_in += more[k].items_in;
    t.items_out += more[k].items_out;
    t.busy_seconds += more[k].busy_seconds;
    t.input.push_blocked_seconds += more[k].input.push_blocked_seconds;
    t.input.high_water = std::max(t.input.high_water, more[k].input.high_water);
  }
}

}  // namespace

PassResult ReplayPass(const Fixture& fixture, const Feed& feed,
                      const Reference& reference, TraceLog* trace) {
  PassResult result;
  ForecastService service(serialize::CloneBundle(*fixture.bundle));
  TeeLog tees;
  pipeline::ServingPipeline::Options options = fixture.ServingOptions();
  options.prediction_tee = tees.Callback();
  pipeline::ServingPipeline serving(&service, options);
  const int num_kpis = fixture.num_kpis();
  const int steps = feed.num_steps();
  std::vector<uint64_t> step_due(static_cast<size_t>(steps));
  std::vector<StreamingPrediction> served;
  int pass_span = -1;

  const double cpu_start = ProcessCpuSeconds();
  const uint64_t start = NowNs();
  {
    ScopedSpan pass(trace, "pass", -1, 0);
    pass_span = pass.index();
    for (int s = 0; s < steps; ++s) {
      ScopedSpan block(trace, "push_block", pass_span, s);
      const uint64_t step_start = NowNs();
      const double thread_start = ThreadCpuSeconds();
      const int begin = feed.step_begin[static_cast<size_t>(s)];
      const int end = feed.step_begin[static_cast<size_t>(s) + 1];
      for (int r = begin; r < end; ++r) {
        // Closed loop: a row is due when the producer offers it.
        if (r == end - 1) step_due[static_cast<size_t>(s)] = NowNs();
        const int sector = feed.sectors[static_cast<size_t>(r)];
        const int hour = feed.hours[static_cast<size_t>(r)];
        ++result.push_attempts;
        if (serving.Push(sector, hour, fixture.Row(sector, hour), num_kpis)) {
          ++result.routed;
        } else {
          ++result.failed;
        }
      }
      result.producer_cpu_s += ThreadCpuSeconds() - thread_start;
      result.step_lag_ms.push_back(1e-6 * static_cast<double>(NowNs() - step_start));
      if (s == steps / 2) result.threads = ThreadCount();
    }
    {
      ScopedSpan finish(trace, "finish", pass_span, 0);
      serving.Finish();
    }
    ScopedSpan take(trace, "take", pass_span, 0);
    served = serving.TakePredictions();
  }
  result.wall_s = 1e-9 * static_cast<double>(NowNs() - start);
  result.cpu_s = ProcessCpuSeconds() - cpu_start;

  result.rows = feed.num_rows();
  RecordBatches(feed, step_due, tees.Take(), 1, pass_span, trace, &result);
  std::map<int, const std::vector<float>*> by_day;
  for (const StreamingPrediction& prediction : served) {
    by_day[prediction.end_day] = &prediction.scores;
  }
  result.failed += CountWrongBatches(reference, by_day);
  result.attempted = result.rows + static_cast<int64_t>(reference.size());
  result.stages = serving.StageSnapshot();
  return result;
}

PassResult FleetPass(const Fixture& fixture, const Feed& feed,
                     const Reference& reference, const FleetLoad& load,
                     TraceLog* trace) {
  using Verdict = fleet::ForecastFleet::PushVerdict;
  PassResult result;
  TeeLog tees;
  fleet::FleetOptions options;
  options.num_shards = kFleetShards;
  options.serving = fixture.ServingOptions();
  options.serving.prediction_tee = tees.Callback();
  fleet::ForecastFleet fleet(serialize::CloneBundle(*fixture.bundle), options);
  std::vector<int> shards;
  for (int shard = 0; shard < fleet.num_shards(); ++shard) {
    if (!fleet.shard_sectors(shard).empty()) shards.push_back(shard);
  }

  // Promotion bundles are cloned before the clock starts: the pass times
  // the swap, not the codec.
  const int days = fixture.num_hours() / 24;
  std::vector<std::unique_ptr<serialize::ForecastBundle>> promotions;
  if (load.promote_daily) {
    for (size_t k = 0; k < static_cast<size_t>(days) * shards.size(); ++k) {
      promotions.push_back(serialize::CloneBundle(*fixture.bundle));
    }
  }
  size_t next_promotion = 0;
  std::vector<uint64_t> promotions_applied(static_cast<size_t>(fleet.num_shards()), 0);
  std::vector<double> promote_ms;

  const int num_kpis = fixture.num_kpis();
  const int steps = feed.num_steps();
  const bool paced = load.paced();
  std::vector<uint64_t> step_due(static_cast<size_t>(steps));
  std::vector<fleet::FleetPrediction> served;
  int pass_span = -1;

  // Paced: the replay keeps the shape of a real feed, compressed. A real
  // feed brings each hour's rows together, an hour after the previous
  // hour's, so every hour meets a fleet that has absorbed the last one and
  // a week's scoring never overlaps later ingest. The replay offers each
  // hour a gap after the previous offer ended. After a week closes it
  // offers, without gaps, the hours that push the week's last rows through
  // the pipelines (rows move on in blocks of row_block_rows: enough hours
  // to fill two blocks on the smallest shard, one hour at the default
  // size), then waits until the week's batches are served.
  std::vector<std::vector<int>> drain_after(static_cast<size_t>(steps));
  std::vector<bool> gapless(static_cast<size_t>(steps), false);
  if (paced) {
    size_t smallest = static_cast<size_t>(fixture.num_sectors());
    for (int shard : shards) smallest = std::min(smallest, fleet.shard_sectors(shard).size());
    const int fill_hours = static_cast<int>(
        (2 * static_cast<size_t>(options.serving.row_block_rows) + smallest - 1) / smallest);
    const int last_hour = fixture.num_hours() - 1;
    for (const auto& entry : reference) {
      const int hour = std::min(ServableHour(entry.first), last_hour);
      const int closing = feed.last_step_upto[static_cast<size_t>(hour)];
      for (int s = closing + 1; s <= closing + fill_hours && s < steps; ++s) {
        gapless[static_cast<size_t>(s)] = true;
      }
      if (closing + fill_hours < steps) {
        drain_after[static_cast<size_t>(closing + fill_hours)].push_back(entry.first);
      }
    }
  }
  int drain_timeouts = 0;

  const double cpu_start = ProcessCpuSeconds();
  const uint64_t start = NowNs();
  uint64_t next_offer = start;
  {
    ScopedSpan pass(trace, "pass", -1, 0);
    pass_span = pass.index();
    for (int s = 0; s < steps; ++s) {
      if (paced && !gapless[static_cast<size_t>(s)]) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(next_offer)));
        result.step_lag_ms.push_back(1e-6 * static_cast<double>(NowNs() - next_offer));
      }
      if (load.promote_daily && s % 24 == 0 && s / 24 < days) {
        for (int shard : shards) {
          ScopedSpan promote(trace, "promote", pass_span, s / 24);
          const uint64_t t = NowNs();
          const serialize::Status status = fleet.PromoteBundle(
              shard, std::move(promotions[next_promotion++]));
          promote_ms.push_back(1e-6 * static_cast<double>(NowNs() - t));
          if (status.ok) {
            ++promotions_applied[static_cast<size_t>(shard)];
          } else {
            ++result.failed;
          }
        }
      }
      ScopedSpan block(trace, "push_block", pass_span, s);
      const uint64_t step_start = NowNs();
      const double thread_start = ThreadCpuSeconds();
      const int begin = feed.step_begin[static_cast<size_t>(s)];
      const int end = feed.step_begin[static_cast<size_t>(s) + 1];
      for (int r = begin; r < end; ++r) {
        // A row is due when the producer offers it.
        if (r == end - 1) step_due[static_cast<size_t>(s)] = NowNs();
        const int sector = feed.sectors[static_cast<size_t>(r)];
        const int hour = feed.hours[static_cast<size_t>(r)];
        // A row the fleet sheds for overload is re-offered after a yield,
        // as a collector that must deliver every row would.
        Verdict verdict;
        while (true) {
          verdict = fleet.Push(sector, hour, fixture.Row(sector, hour), num_kpis);
          ++result.push_attempts;
          if (verdict != Verdict::kRejectedOverload) break;
          std::this_thread::yield();
        }
        if (verdict == Verdict::kRouted) {
          ++result.routed;
        } else {
          ++result.failed;
        }
      }
      if (paced) {
        ScopedSpan flush(trace, "flush", block.index(), s);
        fleet.FlushInput();
      }
      result.producer_cpu_s += ThreadCpuSeconds() - thread_start;
      if (!drain_after[static_cast<size_t>(s)].empty()) {
        ScopedSpan drain(trace, "drain", block.index(), s);
        if (!tees.WaitServed(drain_after[static_cast<size_t>(s)], shards.size())) {
          ++drain_timeouts;
        }
      }
      if (paced) {
        next_offer = NowNs() + load.gap_ns;
      } else {
        result.step_lag_ms.push_back(1e-6 * static_cast<double>(NowNs() - step_start));
      }
      if (s == steps / 2) result.threads = ThreadCount();
    }
    {
      ScopedSpan finish(trace, "finish", pass_span, 0);
      fleet.Finish();
    }
    ScopedSpan take(trace, "take", pass_span, 0);
    served = fleet.TakePredictions();
  }
  result.wall_s = 1e-9 * static_cast<double>(NowNs() - start);
  result.cpu_s = ProcessCpuSeconds() - cpu_start;

  result.rows = feed.num_rows();
  RecordBatches(feed, step_due, tees.Take(), static_cast<int>(shards.size()),
                pass_span, trace, &result);
  // The results a swap pass emits are its promotions; its batches keep
  // their spans and straggler times.
  if (load.promote_daily) result.latency_ms = std::move(promote_ms);

  std::map<int, const std::vector<float>*> by_day;
  for (const fleet::FleetPrediction& prediction : served) {
    by_day[prediction.end_day] = &prediction.scores;
  }
  result.failed += CountWrongBatches(reference, by_day);
  result.attempted = result.rows + static_cast<int64_t>(reference.size());
  // A week whose batches were not served within the wait's timeout.
  result.attempted += static_cast<int64_t>(std::count_if(
      drain_after.begin(), drain_after.end(), [](const auto& days) { return !days.empty(); }));
  result.failed += drain_timeouts;

  if (load.promote_daily) {
    // Every shard ends on the generation its promotions produced, and no
    // sector's tag ever goes backwards or past the promotions applied.
    result.attempted += static_cast<int64_t>(days) * static_cast<int64_t>(shards.size());
    for (int shard : shards) {
      if (fleet.service(shard)->generation() !=
          promotions_applied[static_cast<size_t>(shard)]) {
        ++result.failed;
      }
    }
    std::vector<uint64_t> last_tag(static_cast<size_t>(fixture.num_sectors()), 0);
    for (const fleet::FleetPrediction& prediction : served) {
      bool monotone = prediction.generations.size() == last_tag.size();
      for (size_t i = 0; monotone && i < last_tag.size(); ++i) {
        const uint64_t tag = prediction.generations[i];
        monotone = tag >= last_tag[i] && tag <= static_cast<uint64_t>(days);
        last_tag[i] = tag;
      }
      if (!monotone) ++result.failed;
    }
  }

  for (int shard : shards) {
    AccumulateStages(fleet.StageSnapshot(shard), &result.stages);
    result.ingress_high_water =
        std::max(result.ingress_high_water, fleet.IngressStats(shard).high_water);
  }
  return result;
}

PassResult RetrainPass(const Fixture& fixture,
                       const std::vector<float>& reference_scores,
                       TraceLog* trace) {
  PassResult result;
  const Forecaster forecaster =
      fixture.study.MakeForecaster(TargetKind::kBeHotSpot);
  std::vector<float> scores;
  const double cpu_start = ProcessCpuSeconds();
  const uint64_t start = NowNs();
  {
    ScopedSpan pass(trace, "pass", -1, 0);
    std::unique_ptr<serialize::ForecastBundle> bundle;
    {
      ScopedSpan train(trace, "train_bundle", pass.index(), fixture.config.t);
      bundle = forecaster.TrainBundle(fixture.config);
      bundle->score = fixture.study.score_config;
    }
    ScopedSpan serve(trace, "first_forecast", pass.index(), fixture.config.t);
    ForecastService service(std::move(bundle));
    scores = service.PredictAtDay(fixture.study.features, fixture.config.t);
  }
  result.wall_s = 1e-9 * static_cast<double>(NowNs() - start);
  result.cpu_s = ProcessCpuSeconds() - cpu_start;
  result.latency_ms.push_back(1e3 * result.wall_s);
  result.attempted = 1;
  result.failed = SameBits(scores, reference_scores) ? 0 : 1;
  return result;
}

}  // namespace hotspot::bench
