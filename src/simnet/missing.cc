#include "simnet/missing.h"

#include <algorithm>
#include <cmath>

#include "tensor/matrix.h"
#include "tensor/temporal.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace hotspot::simnet {

MissingStats InjectMissing(const MissingConfig& config, uint64_t seed,
                           Tensor3<float>* kpis) {
  HOTSPOT_CHECK(kpis != nullptr);
  const int n = kpis->dim0();
  const int hours = kpis->dim1();
  const int l = kpis->dim2();

  Rng root(seed);
  Rng cell_rng = root.Fork(1);
  Rng slice_rng = root.Fork(2);
  Rng outage_rng = root.Fork(3);
  Rng dead_rng = root.Fork(4);

  MissingStats stats;
  stats.total_cells =
      static_cast<long long>(n) * hours * l;

  // Level 1: independent single-cell losses. Each sector takes hours x l
  // Bernoulli draws from one stream: a serial skip records where each
  // sector's draws start, then the sectors are injected on the pool.
  if (config.cell_rate > 0.0) {
    std::vector<Rng> sector_rngs;
    sector_rngs.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      sector_rngs.push_back(cell_rng);
      cell_rng.Discard(static_cast<int64_t>(hours) * l *
                       Rng::BernoulliDraws(config.cell_rate));
    }
    util::ParallelFor(0, n, [&](int64_t sector) {
      const int i = static_cast<int>(sector);
      Rng& rng = sector_rngs[static_cast<size_t>(i)];
      for (int j = 0; j < hours; ++j) {
        float* slice = kpis->Slice(i, j);
        for (int k = 0; k < l; ++k) {
          if (rng.Bernoulli(config.cell_rate)) {
            slice[k] = MissingValue();
          }
        }
      }
    });
  }

  // Level 2: whole-slice (sector, hour) losses.
  if (config.slice_rate > 0.0) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < hours; ++j) {
        if (!slice_rng.Bernoulli(config.slice_rate)) continue;
        float* slice = kpis->Slice(i, j);
        for (int k = 0; k < l; ++k) slice[k] = MissingValue();
      }
    }
  }

  // Level 3: multi-hour outages (all KPIs of a sector).
  const double weeks = static_cast<double>(hours) / kHoursPerWeek;
  for (int i = 0; i < n; ++i) {
    int count =
        outage_rng.Poisson(config.outage_rate_per_sector_week * weeks);
    for (int e = 0; e < count; ++e) {
      int start = static_cast<int>(outage_rng.UniformInt(0, hours - 1));
      double duration =
          outage_rng.Exponential(1.0 / config.outage_mean_hours);
      duration = std::min(duration, config.outage_max_hours);
      int end = std::min(hours, start + std::max(1, (int)duration));
      for (int j = start; j < end; ++j) {
        float* slice = kpis->Slice(i, j);
        for (int k = 0; k < l; ++k) slice[k] = MissingValue();
      }
    }
  }

  // Dead sectors: one entire week mostly missing (~70 %), to be discarded
  // by the sector filter.
  int weeks_int = hours / kHoursPerWeek;
  for (int i = 0; i < n; ++i) {
    if (!dead_rng.Bernoulli(config.dead_sector_fraction)) continue;
    ++stats.dead_sectors;
    if (weeks_int == 0) continue;
    int week = static_cast<int>(dead_rng.UniformInt(0, weeks_int - 1));
    for (int j = week * kHoursPerWeek; j < (week + 1) * kHoursPerWeek; ++j) {
      if (!dead_rng.Bernoulli(0.7)) continue;
      float* slice = kpis->Slice(i, j);
      for (int k = 0; k < l; ++k) slice[k] = MissingValue();
    }
  }

  // Count what actually went missing, per sector on the pool.
  const size_t sector_cells = static_cast<size_t>(hours) * l;
  const std::vector<long long> missing_per_sector =
      util::ParallelMap<long long>(0, n, [&](int64_t i) {
        const float* cells =
            kpis->data().data() + static_cast<size_t>(i) * sector_cells;
        return static_cast<long long>(std::count_if(
            cells, cells + sector_cells, [](float v) { return IsMissing(v); }));
      });
  stats.missing_cells = 0;
  for (long long missing : missing_per_sector) stats.missing_cells += missing;
  return stats;
}

}  // namespace hotspot::simnet
