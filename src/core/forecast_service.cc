#include "core/forecast_service.h"

#include <algorithm>
#include <utility>

#include "features/window.h"
#include "obs/pipeline_context.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace hotspot {

ForecastService::ForecastService(
    std::unique_ptr<serialize::ForecastBundle> bundle) {
  HOTSPOT_CHECK(bundle != nullptr);
  window_days_ = bundle->window_days;
  horizon_days_ = bundle->horizon_days;
  num_channels_ = bundle->num_channels;
  HOTSPOT_CHECK_GE(window_days_, 1);
  HOTSPOT_CHECK_GE(num_channels_, 1);
  std::string error;
  std::shared_ptr<ServingState> initial =
      BuildState(std::shared_ptr<serialize::ForecastBundle>(std::move(bundle)),
                 /*generation=*/0, monitor::MonitorConfig{},
                 /*enable_monitoring=*/true, &error);
  HOTSPOT_CHECK(initial != nullptr) << error;
  PublishState(std::move(initial));
}

std::shared_ptr<ForecastService::ServingState> ForecastService::BuildState(
    std::shared_ptr<serialize::ForecastBundle> bundle, uint64_t generation,
    const monitor::MonitorConfig& monitor_config, bool enable_monitoring,
    std::string* error) const {
  if (bundle == nullptr || bundle->classifier == nullptr) {
    *error = "bundle has no trained classifier";
    return nullptr;
  }
  auto state = std::make_shared<ServingState>();
  switch (bundle->model) {
    case ModelKind::kTree:
    case ModelKind::kRfRaw:
    case ModelKind::kGbdt:
      state->extractor = &raw_extractor_;
      break;
    case ModelKind::kRfF1:
      state->extractor = &percentile_extractor_;
      break;
    case ModelKind::kRfF2:
      state->extractor = &handcrafted_extractor_;
      break;
    default:
      *error = "bundle model is not a servable classifier";
      return nullptr;
  }
  if (state->extractor->OutputDim(bundle->window_days,
                                  bundle->num_channels) !=
      bundle->feature_dim) {
    *error = "bundle feature_dim does not match its extractor";
    return nullptr;
  }
  // Bundles written before the flat_forest section (or hand-built ones)
  // get their flat engine compiled here; loaded sections were already
  // verified against the classifier by the bundle decoder.
  if (bundle->flat == nullptr) {
    bundle->flat = std::make_unique<ml::FlatForest>(
        ml::FlatForest::Compile(*bundle->classifier));
  }
  if (bundle->flat->num_features() != bundle->feature_dim) {
    *error = "flat forest feature count does not match the bundle";
    return nullptr;
  }
  if (enable_monitoring && bundle->fingerprints != nullptr) {
    if (static_cast<int>(bundle->fingerprints->channels.size()) !=
        bundle->num_channels) {
      *error = "bundle fingerprints do not cover every channel";
      return nullptr;
    }
    state->monitor = std::make_shared<monitor::ServingMonitor>(
        bundle->fingerprints.get(), monitor_config);
  }
  state->bundle = std::move(bundle);
  state->generation = generation;
  return state;
}

serialize::Status ForecastService::PromoteBundle(
    std::unique_ptr<serialize::ForecastBundle> bundle,
    uint64_t* new_generation) {
  if (bundle == nullptr) {
    return serialize::Status::Error("promote: bundle is null");
  }
  std::lock_guard<std::mutex> lock(swap_mutex_);
  std::shared_ptr<const ServingState> current = state();
  // The serving universe is pinned at construction: callers size their
  // windows and streams from it, so a promotion may change the model, not
  // the shape of the traffic it serves.
  if (bundle->window_days != window_days_) {
    return serialize::Status::Error(
        "promote: bundle window_days " + std::to_string(bundle->window_days) +
        " != serving window_days " + std::to_string(window_days_));
  }
  if (bundle->horizon_days != horizon_days_) {
    return serialize::Status::Error(
        "promote: bundle horizon_days " +
        std::to_string(bundle->horizon_days) + " != serving horizon_days " +
        std::to_string(horizon_days_));
  }
  if (bundle->num_channels != num_channels_) {
    return serialize::Status::Error(
        "promote: bundle num_channels " +
        std::to_string(bundle->num_channels) + " != serving num_channels " +
        std::to_string(num_channels_));
  }
  // Promotion re-arms monitoring iff the incoming bundle carries
  // fingerprints (the construction rule), reusing the tuned config of the
  // monitor being replaced when there is one.
  monitor::MonitorConfig config;
  if (current->monitor != nullptr) config = current->monitor->config();
  std::string error;
  std::shared_ptr<ServingState> next =
      BuildState(std::shared_ptr<serialize::ForecastBundle>(std::move(bundle)),
                 current->generation + 1, config, /*enable_monitoring=*/true,
                 &error);
  if (next == nullptr) return serialize::Status::Error("promote: " + error);
  if (new_generation != nullptr) *new_generation = next->generation;
  // The swap itself: one pointer publish. Readers that already snapshotted
  // the old state keep it alive through their shared_ptr until the batch
  // ends.
  const uint64_t installed_generation = next->generation;
  PublishState(std::move(next));
  if (obs::PipelineContext* ctx = obs::PipelineContext::Current()) {
    ctx->metrics().counter("serve/promotions").Increment();
    // Flight-record the swap instant with its generation tag; shard -1
    // marks a bare service (the fleet adds its own shard-tagged event).
    ctx->flight().Record(obs::FlightEventKind::kPromotion, /*a=*/-1,
                         static_cast<int64_t>(installed_generation));
  }
  return serialize::Status::Ok();
}

uint64_t ForecastService::generation() const { return state()->generation; }

bool ForecastService::IsHot(float score) const {
  return score >= state()->bundle->score.hot_threshold;
}

bool ForecastService::EnableMonitoring(const monitor::MonitorConfig& config) {
  std::lock_guard<std::mutex> lock(swap_mutex_);
  std::shared_ptr<const ServingState> current = state();
  if (current->bundle->fingerprints == nullptr) return false;
  HOTSPOT_CHECK_EQ(
      static_cast<int>(current->bundle->fingerprints->channels.size()),
      current->bundle->num_channels);
  auto next = std::make_shared<ServingState>(*current);
  next->monitor = std::make_shared<monitor::ServingMonitor>(
      current->bundle->fingerprints.get(), config);
  PublishState(std::move(next));
  return true;
}

void ForecastService::DisableMonitoring() {
  std::lock_guard<std::mutex> lock(swap_mutex_);
  auto next = std::make_shared<ServingState>(*state());
  next->monitor = nullptr;
  PublishState(std::move(next));
}

bool ForecastService::monitoring_enabled() const {
  return state()->monitor != nullptr;
}

void ForecastService::RecordOutcomes(const std::vector<float>& scores,
                                     const std::vector<float>& labels) const {
  std::shared_ptr<const ServingState> serving = state();
  if (serving->monitor != nullptr) {
    serving->monitor->RecordOutcomes(scores, labels);
  }
}

monitor::HealthReport ForecastService::Health() const {
  std::shared_ptr<const ServingState> serving = state();
  if (serving->monitor == nullptr) return monitor::HealthReport{};
  return serving->monitor->Report();
}

const serialize::ForecastBundle& ForecastService::bundle() const {
  return *state()->bundle;
}

std::shared_ptr<const serialize::ForecastBundle>
ForecastService::bundle_snapshot() const {
  std::shared_ptr<const ServingState> serving = state();
  return std::shared_ptr<const serialize::ForecastBundle>(serving,
                                                          serving->bundle.get());
}

const ml::FlatForest& ForecastService::flat_forest() const {
  return *state()->bundle->flat;
}

serialize::Status ForecastService::Load(
    const std::string& path, std::unique_ptr<ForecastService>* service) {
  HOTSPOT_CHECK(service != nullptr);
  HOTSPOT_SPAN("serve/load");
  std::unique_ptr<serialize::ForecastBundle> bundle;
  serialize::Status status = serialize::LoadBundle(path, &bundle);
  if (!status.ok) return status;
  *service = std::make_unique<ForecastService>(std::move(bundle));
  if (obs::PipelineContext* ctx = obs::PipelineContext::Current()) {
    ctx->metrics().counter("serve/loads").Increment();
  }
  return serialize::Status::Ok();
}

std::vector<float> ForecastService::ScoreBatch(
    const ServingState& serving, int n,
    const std::function<Matrix<float>(int)>& window_of) const {
  const serialize::ForecastBundle& bundle = *serving.bundle;
  std::vector<float> scores(static_cast<size_t>(n));
  const ml::FlatForest& flat = *bundle.flat;
  const int dim = bundle.feature_dim;
  // 16 rows where the AVX-512 kernel is live, 8 otherwise; `out` is sized
  // for the wider block.
  const int block = ml::flat_detail::SimdBlockRows();
  const int num_blocks = (n + block - 1) / block;
  // Parallel over row blocks; block b only writes its own slice of scores,
  // and each row's score is independent of its block, so the result is
  // bitwise-identical to the pointer walk at any thread count.
  util::ParallelFor(0, num_blocks, [&](int64_t b64) {
    const int begin = static_cast<int>(b64) * block;
    const int count = std::min(block, n - begin);
    Matrix<float> rows(count, dim);
    std::vector<float> row;
    for (int r = 0; r < count; ++r) {
      Matrix<float> window = window_of(begin + r);
      serving.extractor->Extract(window, &row);
      HOTSPOT_CHECK_EQ(static_cast<int>(row.size()), bundle.feature_dim);
      std::copy(row.begin(), row.end(), rows.Row(r));
    }
    double out[2 * ml::flat_detail::kBlockRows];
    flat.PredictBatch(rows.Row(0), count, dim, out);
    for (int r = 0; r < count; ++r) {
      scores[static_cast<size_t>(begin + r)] = static_cast<float>(out[r]);
    }
  });
  return scores;
}

std::vector<float> ForecastService::Predict(
    const Tensor3<float>& windows, uint64_t* served_generation) const {
  HOTSPOT_CHECK_EQ(windows.dim1(), window_hours());
  HOTSPOT_CHECK_EQ(windows.dim2(), num_channels_);
  HOTSPOT_SPAN("serve/predict");
  Stopwatch watch;
  // The batch's one snapshot: everything below reads this state, so the
  // whole batch is served by one generation even while a promotion lands.
  std::shared_ptr<const ServingState> serving = state();
  if (served_generation != nullptr) *served_generation = serving->generation;
  const int n = windows.dim0();
  if (obs::PipelineContext* ctx = obs::PipelineContext::Current()) {
    ctx->metrics().counter("serve/requests").Increment();
    ctx->metrics().counter("serve/windows").Add(static_cast<uint64_t>(n));
  }
  std::vector<float> scores = ScoreBatch(*serving, n, [&](int i) {
    return windows.SectorSlab(i, 0, windows.dim1());
  });
  const double seconds = watch.ElapsedSeconds();
  if (obs::PipelineContext* ctx = obs::PipelineContext::Current()) {
    ctx->metrics()
        .histogram("serve/latency_seconds", obs::DefaultLatencySeconds())
        .Observe(seconds);
  }
  if (serving->monitor != nullptr) {
    serving->monitor->ObserveBatch(windows, 0, windows.dim1(), scores,
                                   seconds);
  }
  return scores;
}

std::vector<float> ForecastService::PredictAtDay(
    const features::FeatureTensor& features, int end_day,
    uint64_t* served_generation) const {
  HOTSPOT_CHECK_EQ(features.num_channels(), num_channels_);
  HOTSPOT_SPAN("serve/predict");
  Stopwatch watch;
  std::shared_ptr<const ServingState> serving = state();
  if (served_generation != nullptr) *served_generation = serving->generation;
  const int n = features.num_sectors();
  if (obs::PipelineContext* ctx = obs::PipelineContext::Current()) {
    ctx->metrics().counter("serve/requests").Increment();
    ctx->metrics().counter("serve/windows").Add(static_cast<uint64_t>(n));
  }
  std::vector<float> scores = ScoreBatch(*serving, n, [&](int i) {
    return features::ExtractWindow(features, i, end_day, window_days_);
  });
  const double seconds = watch.ElapsedSeconds();
  if (obs::PipelineContext* ctx = obs::PipelineContext::Current()) {
    ctx->metrics()
        .histogram("serve/latency_seconds", obs::DefaultLatencySeconds())
        .Observe(seconds);
  }
  if (serving->monitor != nullptr) {
    serving->monitor->ObserveBatch(features.tensor(),
                                   24 * (end_day - window_days_),
                                   24 * end_day, scores, seconds);
  }
  return scores;
}

}  // namespace hotspot
