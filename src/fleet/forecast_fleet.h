#ifndef HOTSPOT_FLEET_FORECAST_FLEET_H_
#define HOTSPOT_FLEET_FORECAST_FLEET_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/forecast_service.h"
#include "monitor/health.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "pipeline/serving_pipeline.h"
#include "serialize/bundle.h"

namespace hotspot::fleet {

/// Everything a fleet is configured by. `serving` is the per-shard
/// pipeline template: `serving.num_sectors` is the GLOBAL sector count
/// (the fleet rewrites it to each shard's local population), and a
/// `serving.prediction_tee` sees each shard's local batches after the
/// fleet's own aggregator has taken them.
///
/// The admission budget is `serving.row_queue_blocks`: the capacity, in
/// row blocks, of each shard pipeline's ingress queue. Once a shard's
/// queue is full — because the shard is slower than its offered load —
/// further rows for that shard are rejected with kRejectedOverload
/// instead of blocking the producer, so one hot or stalled shard cannot
/// take the whole fleet's ingest down with it.
struct FleetOptions {
  /// Shards N, in [1, serving.num_sectors] (checked): the sectors are
  /// dealt over them so that each owns ⌊n/N⌋ or ⌈n/N⌉ (see ForecastFleet).
  int num_shards = 1;
  /// Template for every shard's ServingPipeline (see above).
  pipeline::ServingPipeline::Options serving;
  /// Test/chaos hook: lets a test rewrite one shard's pipeline options
  /// (install a predict_fault_for_test latch, shrink its blocks) just
  /// before that shard's pipeline is built — the seam the fault-injection
  /// suite drives a FaultInjectingService through.
  std::function<void(int shard, pipeline::ServingPipeline::Options*)>
      shard_options_for_test;
};

/// One fully aggregated fleet batch: the windows ending at `end_day`,
/// scored across every shard and scattered back into global sector order.
/// `generations[s]` is the generation tag of the bundle that scored
/// sector s — per row, because each shard promotes independently, and the
/// proof the swap tests rest on: every row is attributable to exactly one
/// installed model.
struct FleetPrediction {
  int end_day = 0;
  int target_day = 0;
  std::vector<float> scores;
  std::vector<uint64_t> generations;
};

/// Per-shard slice of the fleet health roll-up.
struct ShardHealth {
  int shard = 0;
  int num_sectors = 0;            ///< sectors this shard owns
  uint64_t generation = 0;        ///< currently installed bundle
  /// SteadyNowNs() of this shard's most recent successful PromoteBundle,
  /// 0 while the shard still serves its construction-time bundle — so an
  /// operator reading the roll-up can tell a freshly promoted shard from
  /// one that has served the same model since boot.
  uint64_t last_promotion_ns = 0;
  monitor::HealthReport report;   ///< the shard service's own Health()
};

/// Fleet-level health: the worst per-shard state wins overall, so a
/// single drifting shard escalates the fleet exactly as far as it would
/// escalate alone.
struct FleetHealth {
  monitor::AlertState overall = monitor::AlertState::kOk;
  std::vector<ShardHealth> shards;
};

/// Sharded multi-replica serving: N independent ForecastService replicas,
/// each behind its own ServingPipeline over a compact local sector space.
/// Push directs every incoming KPI row to the shard owning its sector and
/// admits it straight into that pipeline's bounded ingress queue. The
/// scale-out seam of the ROADMAP's city-scale north star: shards share
/// nothing but the (read-only) calendar and the deterministic thread
/// pool, and each runs on exactly one worker thread — the pipeline's own.
///
/// Routing: the sectors, ordered by (splitmix64(sector), sector), are
/// dealt round-robin to the N shards, so every shard owns ⌊n/N⌋ or ⌈n/N⌉
/// of them and no shard is empty. Placement is a pure function of (n, N):
/// the same sector lands on the same shard in every process, with no
/// routing state to persist.
///
/// Dataflow, per shard:
///
///   Push(sector,…) ─route, TryPush─▶ [shard pipeline's ingress queue]
///       ─shard worker: ingest → features → predict → monitor─▶
///       prediction_tee ─▶ fleet aggregator ─▶ TakePredictions()
///
/// Equivalence: scoring is per-sector independent end to end (features,
/// windows, per-row tree traversal), so the fleet's scattered output is
/// bitwise identical to one ForecastService serving the whole universe —
/// for any shard count (pinned by tests/fleet_test.cc against batch
/// PredictAtDay for N ∈ {1, 2, 7}).
///
/// Admission control: Push never blocks. A row whose shard has ingress
/// room is routed (kRouted); a row whose shard is saturated is rejected
/// with a verdict the caller can see and the obs counters account for
/// (fleet/rows_* and fleet/shardK/rows_*; offered == routed + rejected
/// always). Only the saturated shard sheds — other shards keep serving
/// their full load bitwise-unchanged.
///
/// Hot bundle swap: PromoteBundle(shard, bundle) installs a new model on
/// one live shard through ForecastService's RCU state exchange —
/// in-flight batches finish on the old bundle, new batches see the new
/// one, nothing is dropped or torn — and every served row carries its
/// shard's generation tag out through FleetPrediction::generations.
/// Promotion failures are atomic: the shard keeps serving its old bundle.
///
/// Threading contract: Push / FlushInput / Finish are single-writer, like
/// ServingPipeline — the producer thread is the only writer of every
/// shard pipeline. TakePredictions(), Health() and PromoteBundle() are
/// safe from any thread at any time. If a test parked a shard on a
/// predict fault, it must release the fault before Finish(): Finish
/// drains every shard's ingress queue through its pipeline and would
/// otherwise wait for the stalled one.
class ForecastFleet {
 public:
  /// Routing verdict of one offered row. Accounting invariant:
  /// every Push() increments fleet/rows_offered and exactly one of the
  /// routed/rejected counters matching the verdict it returns.
  enum class PushVerdict {
    kRouted,            ///< accepted; will be served (never dropped)
    kRejectedOverload,  ///< owning shard's ingress is over budget
    kRejectedWidth,     ///< num_kpis does not match the configured width
    kRejectedFinished,  ///< fleet already finished
    kRejectedSector,    ///< sector id outside [0, num_sectors)
  };

  /// Takes ownership of the bundle and stamps it onto every shard via
  /// serialize::CloneBundle (codec round-trip — replicas are exactly as
  /// equivalent as a deployed bundle to its training artifact). Deals the
  /// sectors, builds the services and pipelines (one worker thread each);
  /// the fleet is live when the constructor returns.
  ForecastFleet(std::unique_ptr<serialize::ForecastBundle> bundle,
                const FleetOptions& options);

  /// Drains and joins (Finish) if the caller has not already.
  ~ForecastFleet();

  ForecastFleet(const ForecastFleet&) = delete;
  ForecastFleet& operator=(const ForecastFleet&) = delete;

  /// Offers one hourly KPI row for `sector` (global id); routes it to the
  /// owning shard. Never blocks — see the admission-control contract.
  /// Malformed rows (wrong width, out-of-range sector) are rejected with
  /// a verdict, never a crash: one bad row from an external feed must not
  /// take the fleet down.
  PushVerdict Push(int sector, int hour, const float* values, int num_kpis);
  PushVerdict Push(int sector, int hour, const std::vector<float>& values) {
    return Push(sector, hour, values.data(),
                static_cast<int>(values.size()));
  }

  /// Flushes every shard pipeline's partial row block into its ingress
  /// queue (ServingPipeline::FlushInput, blocking if a shard is
  /// saturated) — call when the feed goes quiet. Every row admitted
  /// before the call then surfaces through TakePredictions() as soon as
  /// its windows are servable, without waiting for Finish().
  void FlushInput();

  /// End-of-stream: finishes every shard pipeline in shard order (each
  /// drains its ingress queue and joins its worker) and publishes final
  /// per-shard queue gauges. Idempotent.
  void Finish();

  bool finished() const {
    return finished_.load(std::memory_order_acquire);
  }

  /// Completed fleet batches accumulated since the last call, in end-day
  /// order (a batch completes when every shard has served it). Also drops
  /// the copies the shard pipelines keep of the batches they served.
  /// Thread-safe; call during streaming or after Finish().
  std::vector<FleetPrediction> TakePredictions();

  /// RCU hot swap on one shard (see class comment). The bundle must match
  /// the shard's serving universe; on failure the status names the reason
  /// and the shard keeps serving its old bundle.
  serialize::Status PromoteBundle(
      int shard, std::unique_ptr<serialize::ForecastBundle> bundle,
      uint64_t* new_generation = nullptr);

  /// Promotes `bundle` onto every shard in shard order, stopping at the
  /// first failure (earlier shards keep the new bundle — per-shard
  /// promotion is atomic, fleet-wide promotion is not transactional). The
  /// owning overload clones one replica per shard except the last, which
  /// takes the source bundle itself — the same one-clone saving the
  /// constructor makes; the const& overload pays one extra clone to leave
  /// the caller's bundle untouched.
  serialize::Status PromoteBundleAll(
      std::unique_ptr<serialize::ForecastBundle> bundle);
  serialize::Status PromoteBundleAll(
      const serialize::ForecastBundle& bundle);

  /// Aggregated health: every shard's Health() plus its generation and
  /// population; overall = worst shard state.
  FleetHealth Health() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int num_sectors() const { return num_sectors_; }
  /// The shard owning `sector`, which must lie in [0, num_sectors()).
  int ShardOf(int sector) const;
  /// Global sector ids owned by `shard`, ascending (position = local id).
  const std::vector<int>& shard_sectors(int shard) const;
  /// The shard's service. The pointer is stable for the fleet's lifetime;
  /// tests use it to read generations.
  ForecastService* service(int shard);
  /// Phase accounting of one shard's pipeline.
  std::vector<pipeline::StageStats> StageSnapshot(int shard) const;
  /// Admission-control view of one shard: its pipeline's ingress queue.
  pipeline::QueueStats IngressStats(int shard) const;

 private:
  /// tests/fleet_test.cc: reads what the shard pipelines retain.
  friend class ForecastFleetTestPeer;

  /// Built in place at the fleet's final shard count (not movable).
  struct Shard {
    std::vector<int> sectors;  ///< global ids, ascending; index = local id
    std::unique_ptr<ForecastService> service;
    std::unique_ptr<pipeline::ServingPipeline> pipeline;
    /// Cached per-shard counter handles (hot path: one Push per row).
    obs::Counter* rows_routed = nullptr;
    obs::Counter* rows_rejected = nullptr;
    /// SteadyNowNs() of the last successful PromoteBundle (0 = never).
    std::atomic<uint64_t> last_promotion_ns{0};
    /// Overall state as of the last Health() that ran with a context: the
    /// base its kShardHealth flight events diff against.
    mutable std::atomic<monitor::AlertState> last_health{
        monitor::AlertState::kOk};
  };

  /// One shard's aggregation slot for one end-day.
  struct PendingBatch {
    int target_day = 0;
    std::vector<float> scores;
    std::vector<uint64_t> generations;
    int shards_done = 0;
  };

  static constexpr size_t kNumVerdicts =
      static_cast<size_t>(PushVerdict::kRejectedSector) + 1;

  void RefreshCounters();
  void OnShardPrediction(int shard_index, const StreamingPrediction& pred);
  void PublishFinalStats();
  /// Push's one exit: counts `verdict` under its fleet counter and, for a
  /// reject, flight-records it (verdict code, sector, hour) when a
  /// context is installed.
  PushVerdict CountVerdict(PushVerdict verdict, int sector, int hour);

  FleetOptions options_;
  int num_sectors_ = 0;
  int num_kpis_ = 0;
  std::vector<int> shard_of_sector_;  ///< routing table over the universe
  std::vector<int> local_of_sector_;  ///< global id → owning shard's local id
  std::vector<Shard> shards_;

  // Producer-side cached fleet counters (single-writer): rows offered,
  // and rows per Push verdict (fleet/rows_routed, fleet/rows_rejected_*).
  obs::Counter* rows_offered_ = nullptr;
  std::array<obs::Counter*, kNumVerdicts> rows_by_verdict_{};
  obs::FlightRecorder* flight_ = nullptr;
  const void* counter_context_ = nullptr;

  // Aggregator (called from every shard's worker thread).
  std::mutex results_mutex_;
  std::map<int, PendingBatch> pending_;
  std::vector<FleetPrediction> results_;

  std::atomic<bool> finished_{false};
  bool input_closed_ = false;
};

}  // namespace hotspot::fleet

#endif  // HOTSPOT_FLEET_FORECAST_FLEET_H_
