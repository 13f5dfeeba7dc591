#include "simnet/generator.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/pipeline_context.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace hotspot::simnet {

double KpiValue(const KpiSpec& spec, double load, double failure,
                double degradation, double precursor, double noise_unit) {
  double value = spec.baseline + spec.load_coef * load +
                 spec.failure_coef * failure +
                 spec.degradation_coef * degradation +
                 spec.precursor_coef * precursor +
                 spec.noise_sigma * noise_unit;
  return std::clamp(value, spec.lo, spec.hi);
}

SyntheticNetwork GenerateNetwork(const GeneratorConfig& config) {
  obs::PipelineContext* ctx = obs::PipelineContext::Current();
  HOTSPOT_SPAN("simnet/generate");
  HOTSPOT_CHECK_GT(config.weeks, 0);
  SyntheticNetwork network;
  network.catalog = KpiCatalog::Default();
  network.calendar = StudyCalendar::Paper(config.weeks);

  Rng root(config.seed);
  uint64_t topology_seed = root.NextUint64();
  uint64_t load_seed = root.NextUint64();
  uint64_t event_seed = root.NextUint64();
  uint64_t kpi_seed = root.NextUint64();
  uint64_t missing_seed = root.NextUint64();

  {
    HOTSPOT_SPAN("simnet/topology");
    network.topology = Topology::Generate(config.topology, topology_seed);
  }
  {
    HOTSPOT_SPAN("simnet/load");
    network.true_load = GenerateLoad(network.topology, network.calendar,
                                     config.load, load_seed,
                                     &network.traits);
  }
  {
    HOTSPOT_SPAN("simnet/events");
    EventTimelines events = GenerateEvents(
        network.topology, network.calendar, config.events, event_seed);
    network.true_failure = std::move(events.failure);
    network.true_degradation = std::move(events.degradation);
    network.true_precursor = std::move(events.precursor);
    network.failures = std::move(events.failures);
    network.ramps = std::move(events.ramps);
  }

  const int n = network.topology.num_sectors();
  const int hours = network.calendar.hours();
  const int l = network.catalog.size();
  // Synthesis writes every (sector, hour, KPI) cell.
  network.kpis = Tensor3<float>(n, hours, l, kUninitialized);

  // Chronic overload stresses equipment: apply each chronic sector's
  // persistent degradation floor before synthesizing KPIs.
  for (int i = 0; i < n; ++i) {
    double floor = network.traits[static_cast<size_t>(i)].chronic_degradation;
    if (floor <= 0.0) continue;
    for (int j = 0; j < hours; ++j) {
      float& cell = network.true_degradation.At(i, j);
      cell = std::max(cell, static_cast<float>(floor));
    }
  }

  {
    HOTSPOT_SPAN("simnet/kpi_synthesis");
    // Each sector draws hours x l Gaussians from one stream: a serial skip
    // records where each sector's draws start, then the sectors are
    // synthesized on the pool with the serial loop's values.
    std::vector<Rng> sector_rngs;
    sector_rngs.reserve(static_cast<size_t>(n));
    Rng kpi_rng(kpi_seed);
    for (int i = 0; i < n; ++i) {
      sector_rngs.push_back(kpi_rng);
      kpi_rng.SkipGaussians(static_cast<int64_t>(hours) * l);
    }
    util::ParallelFor(0, n, [&](int64_t sector) {
      const int i = static_cast<int>(sector);
      Rng& rng = sector_rngs[static_cast<size_t>(i)];
      for (int j = 0; j < hours; ++j) {
        double load = network.true_load.At(i, j);
        double failure = network.true_failure.At(i, j);
        double degradation = network.true_degradation.At(i, j);
        double precursor = network.true_precursor.At(i, j);
        float* slice = network.kpis.Slice(i, j);
        for (int k = 0; k < l; ++k) {
          slice[k] = static_cast<float>(KpiValue(
              network.catalog.spec(k), load, failure, degradation, precursor,
              rng.Gaussian()));
        }
      }
    });
  }

  network.calendar_matrix = network.calendar.BuildCalendarMatrix();

  if (config.inject_missing) {
    HOTSPOT_SPAN("simnet/inject_missing");
    network.missing_stats =
        InjectMissing(config.missing, missing_seed, &network.kpis);
  }

  if (ctx != nullptr) {
    ctx->metrics().counter("simnet/networks_generated").Increment();
    ctx->metrics().counter("simnet/kpi_cells").Add(
        static_cast<uint64_t>(network.kpis.size()));
    if (config.inject_missing) {
      ctx->metrics().counter("simnet/missing_cells").Add(
          static_cast<uint64_t>(network.missing_stats.missing_cells));
    }
  }
  return network;
}

}  // namespace hotspot::simnet
