#include "fleet/forecast_fleet.h"

#include <algorithm>
#include <utility>

#include "obs/pipeline_context.h"
#include "pipeline/stage.h"
#include "util/logging.h"

namespace hotspot::fleet {

ForecastFleet::ForecastFleet(
    std::unique_ptr<serialize::ForecastBundle> bundle,
    const FleetOptions& options)
    : options_(options) {
  HOTSPOT_CHECK(bundle != nullptr);
  HOTSPOT_CHECK_GT(options_.serving.num_sectors, 0);
  HOTSPOT_CHECK_GT(options_.serving.num_kpis, 0);
  num_sectors_ = options_.serving.num_sectors;
  num_kpis_ = options_.serving.num_kpis;

  map_ = options_.shard_map;
  if (map_ == nullptr) {
    map_ = std::make_shared<HashShardMap>(std::max(1, options_.num_shards));
  }
  std::vector<std::vector<int>> populations =
      ShardSectors(*map_, num_sectors_);
  const int num_shards = map_->num_shards();

  // Precomputed routing tables: Push pays two vector reads per row, not a
  // virtual hash call plus a search for the local id.
  shard_of_sector_.resize(static_cast<size_t>(num_sectors_));
  local_of_sector_.resize(static_cast<size_t>(num_sectors_));
  for (int shard = 0; shard < num_shards; ++shard) {
    const std::vector<int>& sectors = populations[static_cast<size_t>(shard)];
    for (size_t local = 0; local < sectors.size(); ++local) {
      shard_of_sector_[static_cast<size_t>(sectors[local])] = shard;
      local_of_sector_[static_cast<size_t>(sectors[local])] =
          static_cast<int>(local);
    }
  }

  shards_.resize(static_cast<size_t>(num_shards));
  int remaining_active = 0;
  for (const std::vector<int>& sectors : populations) {
    if (!sectors.empty()) ++remaining_active;
  }
  active_shards_ = remaining_active;
  HOTSPOT_CHECK_GT(active_shards_, 0);

  for (int shard_index = 0; shard_index < num_shards; ++shard_index) {
    Shard& shard = shards_[static_cast<size_t>(shard_index)];
    shard.sectors = std::move(populations[static_cast<size_t>(shard_index)]);
    if (shard.sectors.empty()) continue;  // no service, no pipeline
    // Every replica gets the same model: clones are codec round-trips of
    // the source bundle; the last active shard takes the original.
    --remaining_active;
    std::unique_ptr<serialize::ForecastBundle> replica =
        remaining_active == 0 ? std::move(bundle)
                              : serialize::CloneBundle(*bundle);
    shard.service = std::make_unique<ForecastService>(std::move(replica));

    pipeline::ServingPipeline::Options serving = options_.serving;
    serving.num_sectors = static_cast<int>(shard.sectors.size());
    // The aggregator runs first, then the caller's tee, on the shard's
    // worker.
    serving.prediction_tee = [this, shard_index,
                              tee = options_.serving.prediction_tee](
                                 const StreamingPrediction& prediction) {
      OnShardPrediction(shard_index, prediction);
      if (tee) tee(prediction);
    };
    if (options_.shard_options_for_test) {
      options_.shard_options_for_test(shard_index, &serving);
    }
    // shards_ was sized up front and never reallocates, so the shard
    // index the callback captured stays valid while the worker runs.
    shard.pipeline = std::make_unique<pipeline::ServingPipeline>(
        shard.service.get(), serving);
  }
}

ForecastFleet::~ForecastFleet() { Finish(); }

void ForecastFleet::RefreshCounters() {
  obs::PipelineContext* ctx = obs::PipelineContext::Current();
  if (ctx == counter_context_) return;
  counter_context_ = ctx;
  rows_offered_ = nullptr;
  rows_by_verdict_.fill(nullptr);
  flight_ = nullptr;
  for (Shard& shard : shards_) {
    shard.rows_routed = nullptr;
    shard.rows_rejected = nullptr;
  }
  if (ctx == nullptr) return;
  flight_ = &ctx->flight();
  obs::MetricsRegistry& metrics = ctx->metrics();
  rows_offered_ = &metrics.counter("fleet/rows_offered");
  // In PushVerdict order.
  static constexpr const char* kVerdictCounters[kNumVerdicts] = {
      "fleet/rows_routed", "fleet/rows_rejected_overload",
      "fleet/rows_rejected_width", "fleet/rows_rejected_finished",
      "fleet/rows_rejected_sector"};
  for (size_t v = 0; v < kNumVerdicts; ++v) {
    rows_by_verdict_[v] = &metrics.counter(kVerdictCounters[v]);
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].sectors.empty()) continue;
    shards_[i].rows_routed = &metrics.counter(
        obs::ShardMetricName(static_cast<int>(i), "rows_routed"));
    shards_[i].rows_rejected = &metrics.counter(
        obs::ShardMetricName(static_cast<int>(i), "rows_rejected"));
  }
}

ForecastFleet::PushVerdict ForecastFleet::CountVerdict(PushVerdict verdict,
                                                       int sector, int hour) {
  if (obs::Counter* rows = rows_by_verdict_[static_cast<size_t>(verdict)]) {
    rows->Increment();
  }
  if (verdict != PushVerdict::kRouted && flight_ != nullptr) {
    flight_->Record(obs::FlightEventKind::kAdmissionReject,
                    static_cast<int64_t>(verdict), sector, hour);
  }
  return verdict;
}

ForecastFleet::PushVerdict ForecastFleet::Push(int sector, int hour,
                                               const float* values,
                                               int num_kpis) {
  RefreshCounters();
  if (rows_offered_ != nullptr) rows_offered_->Increment();
  if (input_closed_) {
    return CountVerdict(PushVerdict::kRejectedFinished, sector, hour);
  }
  if (num_kpis != num_kpis_) {
    return CountVerdict(PushVerdict::kRejectedWidth, sector, hour);
  }
  if (sector < 0 || sector >= num_sectors_) {
    // Admission-control surface: an unknown sector from an external feed
    // is a reject verdict, not a process abort. No shard counter — no
    // shard owns the row.
    return CountVerdict(PushVerdict::kRejectedSector, sector, hour);
  }
  Shard& shard = shards_[static_cast<size_t>(
      shard_of_sector_[static_cast<size_t>(sector)])];
  // Admission control: the shard pipeline refuses the row — still the
  // caller's — only when its ingress queue is full; an admitted row is
  // guaranteed to be served, so shedding never drops accepted data.
  // Admission stamps the row's block, so shard residency and
  // fleet/shardK/e2e_seconds include the ingress-queue wait.
  const bool admitted = shard.pipeline->TryPush(
      local_of_sector_[static_cast<size_t>(sector)], hour, values);
  const PushVerdict verdict = CountVerdict(
      admitted ? PushVerdict::kRouted : PushVerdict::kRejectedOverload,
      sector, hour);
  obs::Counter* shard_rows = admitted ? shard.rows_routed : shard.rows_rejected;
  if (shard_rows != nullptr) shard_rows->Increment();
  return verdict;
}

void ForecastFleet::FlushInput() {
  if (input_closed_) return;
  for (Shard& shard : shards_) {
    if (shard.pipeline != nullptr) shard.pipeline->FlushInput();
  }
}

void ForecastFleet::Finish() {
  if (input_closed_) return;
  input_closed_ = true;
  for (Shard& shard : shards_) {
    if (shard.pipeline != nullptr) shard.pipeline->Finish();
  }
  PublishFinalStats();
  finished_.store(true, std::memory_order_release);
}

void ForecastFleet::OnShardPrediction(int shard_index,
                                      const StreamingPrediction& pred) {
  const Shard& shard = shards_[static_cast<size_t>(shard_index)];
  // Per-shard end-to-end residency: fleet admission → served prediction,
  // the outermost latency a caller of this shard experiences. Cold path
  // (once per shard batch), so the name lookup is affordable.
  if (pred.born_ns != 0) {
    if (obs::PipelineContext* ctx = obs::PipelineContext::Current()) {
      const uint64_t now = pipeline::SteadyNowNs();
      const double seconds =
          now > pred.born_ns
              ? static_cast<double>(now - pred.born_ns) * 1e-9
              : 0.0;
      ctx->metrics()
          .histogram(obs::ShardMetricName(shard_index, "e2e_seconds"),
                     obs::DefaultLatencySeconds())
          .ObserveWithExemplar(seconds, pred.end_day);
    }
  }
  bool batch_completed = false;
  {
    std::lock_guard<std::mutex> lock(results_mutex_);
    PendingBatch& batch = pending_[pred.end_day];
    if (batch.scores.empty()) {
      batch.target_day = pred.target_day;
      batch.scores.assign(static_cast<size_t>(num_sectors_), 0.0f);
      batch.generations.assign(static_cast<size_t>(num_sectors_), 0);
    }
    HOTSPOT_CHECK_EQ(static_cast<int>(pred.scores.size()),
                     static_cast<int>(shard.sectors.size()));
    for (size_t local = 0; local < shard.sectors.size(); ++local) {
      const size_t global = static_cast<size_t>(shard.sectors[local]);
      batch.scores[global] = pred.scores[local];
      batch.generations[global] = pred.generation;
    }
    if (++batch.shards_done == active_shards_) {
      FleetPrediction done;
      done.end_day = pred.end_day;
      done.target_day = batch.target_day;
      done.scores = std::move(batch.scores);
      done.generations = std::move(batch.generations);
      pending_.erase(pred.end_day);
      results_.push_back(std::move(done));
      batch_completed = true;
    }
  }
  if (batch_completed) {
    // Cold path: once per completed fleet batch.
    if (obs::PipelineContext* ctx = obs::PipelineContext::Current()) {
      ctx->metrics().counter("fleet/prediction_batches").Increment();
      ctx->metrics().counter("fleet/predictions").Add(
          static_cast<uint64_t>(num_sectors_));
    }
  }
}

std::vector<FleetPrediction> ForecastFleet::TakePredictions() {
  std::lock_guard<std::mutex> lock(results_mutex_);
  std::vector<FleetPrediction> taken = std::move(results_);
  results_.clear();
  return taken;
}

serialize::Status ForecastFleet::PromoteBundle(
    int shard, std::unique_ptr<serialize::ForecastBundle> bundle,
    uint64_t* new_generation) {
  if (shard < 0 || shard >= num_shards()) {
    return serialize::Status::Error("promote: shard " +
                                    std::to_string(shard) +
                                    " is out of range");
  }
  Shard& target = shards_[static_cast<size_t>(shard)];
  if (target.service == nullptr) {
    return serialize::Status::Error("promote: shard " +
                                    std::to_string(shard) +
                                    " serves no sectors");
  }
  uint64_t generation = 0;
  serialize::Status status =
      target.service->PromoteBundle(std::move(bundle), &generation);
  if (status.ok) {
    if (new_generation != nullptr) *new_generation = generation;
    {
      std::lock_guard<std::mutex> lock(promotion_mutex_);
      last_promotion_ns_.resize(shards_.size(), 0);
      last_promotion_ns_[static_cast<size_t>(shard)] =
          pipeline::SteadyNowNs();
    }
    // Shard-tagged promotion event, alongside the service's own shard=-1
    // record — the fleet view of which replica swapped to which model.
    if (obs::PipelineContext* ctx = obs::PipelineContext::Current()) {
      ctx->flight().Record(obs::FlightEventKind::kPromotion, shard,
                           static_cast<int64_t>(generation));
    }
  }
  return status;
}

serialize::Status ForecastFleet::PromoteBundleAll(
    std::unique_ptr<serialize::ForecastBundle> bundle) {
  HOTSPOT_CHECK(bundle != nullptr);
  int last_active = -1;
  for (int shard = 0; shard < num_shards(); ++shard) {
    if (shards_[static_cast<size_t>(shard)].service != nullptr) {
      last_active = shard;
    }
  }
  for (int shard = 0; shard < num_shards(); ++shard) {
    if (shards_[static_cast<size_t>(shard)].service == nullptr) continue;
    // The constructor's one-clone saving: every shard but the last gets
    // a codec round-trip replica, the last takes the source itself.
    std::unique_ptr<serialize::ForecastBundle> replica =
        shard == last_active ? std::move(bundle)
                             : serialize::CloneBundle(*bundle);
    serialize::Status status = PromoteBundle(shard, std::move(replica));
    if (!status.ok) return status;
  }
  return serialize::Status::Ok();
}

serialize::Status ForecastFleet::PromoteBundleAll(
    const serialize::ForecastBundle& bundle) {
  return PromoteBundleAll(serialize::CloneBundle(bundle));
}

FleetHealth ForecastFleet::Health() const {
  FleetHealth health;
  health.shards.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = shards_[i];
    ShardHealth entry;
    entry.shard = static_cast<int>(i);
    entry.num_sectors = static_cast<int>(shard.sectors.size());
    if (shard.service != nullptr) {
      entry.generation = shard.service->generation();
      entry.report = shard.service->Health();
      std::lock_guard<std::mutex> lock(promotion_mutex_);
      if (i < last_promotion_ns_.size()) {
        entry.last_promotion_ns = last_promotion_ns_[i];
      }
    }
    if (static_cast<int>(entry.report.overall) >
        static_cast<int>(health.overall)) {
      health.overall = entry.report.overall;
    }
    health.shards.push_back(std::move(entry));
  }
  // Shard health-transition flight events: states exist only at Health()
  // time, so diff against the previous call (shards start implicitly OK).
  if (obs::PipelineContext* ctx = obs::PipelineContext::Current()) {
    std::lock_guard<std::mutex> lock(health_mutex_);
    last_shard_health_.resize(shards_.size(), monitor::AlertState::kOk);
    for (const ShardHealth& entry : health.shards) {
      monitor::AlertState& last =
          last_shard_health_[static_cast<size_t>(entry.shard)];
      if (last != entry.report.overall) {
        ctx->flight().Record(obs::FlightEventKind::kShardHealth,
                             entry.shard, static_cast<int64_t>(last),
                             static_cast<int64_t>(entry.report.overall));
        last = entry.report.overall;
      }
    }
  }
  return health;
}

const std::vector<int>& ForecastFleet::shard_sectors(int shard) const {
  HOTSPOT_CHECK_GE(shard, 0);
  HOTSPOT_CHECK_LT(shard, num_shards());
  return shards_[static_cast<size_t>(shard)].sectors;
}

ForecastService* ForecastFleet::service(int shard) {
  HOTSPOT_CHECK_GE(shard, 0);
  HOTSPOT_CHECK_LT(shard, num_shards());
  return shards_[static_cast<size_t>(shard)].service.get();
}

std::vector<pipeline::StageStats> ForecastFleet::StageSnapshot(
    int shard) const {
  HOTSPOT_CHECK_GE(shard, 0);
  HOTSPOT_CHECK_LT(shard, num_shards());
  const Shard& target = shards_[static_cast<size_t>(shard)];
  if (target.pipeline == nullptr) return {};
  return target.pipeline->StageSnapshot();
}

pipeline::QueueStats ForecastFleet::IngressStats(int shard) const {
  HOTSPOT_CHECK_GE(shard, 0);
  HOTSPOT_CHECK_LT(shard, num_shards());
  const Shard& target = shards_[static_cast<size_t>(shard)];
  if (target.pipeline == nullptr) return pipeline::QueueStats{};
  return target.pipeline->IngressStats();
}

void ForecastFleet::PublishFinalStats() {
  obs::PipelineContext* ctx = obs::PipelineContext::Current();
  if (ctx == nullptr) return;
  obs::MetricsRegistry& metrics = ctx->metrics();
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].pipeline == nullptr) continue;
    metrics
        .gauge(obs::ShardMetricName(static_cast<int>(i),
                                    "ingress_high_water"))
        .Set(static_cast<double>(
            shards_[i].pipeline->IngressStats().high_water));
  }
  std::lock_guard<std::mutex> lock(results_mutex_);
  // Batches some shard never served (its stream ended short of an end-day
  // other shards reached) stay pending; surfaced so nothing is silently
  // incomplete.
  metrics.gauge("fleet/batches_incomplete")
      .Set(static_cast<double>(pending_.size()));
}

}  // namespace hotspot::fleet
