#include "simnet/load_model.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace hotspot::simnet {

namespace {

ArchetypeProfile MakeProfile(std::initializer_list<double> hourly,
                             std::initializer_list<double> weekday) {
  ArchetypeProfile profile;
  HOTSPOT_CHECK_EQ(hourly.size(), 24u);
  HOTSPOT_CHECK_EQ(weekday.size(), 7u);
  int index = 0;
  for (double v : hourly) profile.hourly[index++] = v;
  index = 0;
  for (double v : weekday) profile.weekday[index++] = v;
  return profile;
}

// Hour-of-day demand shapes. Index 0 = midnight. All shapes have a deep
// overnight trough (~8 sleeping hours), which is what produces the 16
// hours/day knee of Fig. 6A.
const ArchetypeProfile& ResidentialProfile() {
  static const ArchetypeProfile kProfile = MakeProfile(
      {0.12, 0.08, 0.06, 0.05, 0.05, 0.07, 0.20, 0.45, 0.58, 0.56, 0.55,
       0.58, 0.63, 0.61, 0.57, 0.57, 0.62, 0.70, 0.80, 0.90, 0.97, 1.00,
       0.85, 0.45},
      {1.0, 1.0, 1.0, 1.0, 1.02, 1.05, 1.05});
  return kProfile;
}

const ArchetypeProfile& BusinessProfile() {
  static const ArchetypeProfile kProfile = MakeProfile(
      {0.05, 0.04, 0.03, 0.03, 0.03, 0.05, 0.18, 0.55, 0.85, 0.96, 1.00,
       0.98, 0.88, 0.92, 0.97, 0.95, 0.92, 0.85, 0.70, 0.52, 0.35, 0.22,
       0.12, 0.07},
      {1.0, 1.0, 1.0, 1.0, 0.95, 0.18, 0.12});
  return kProfile;
}

const ArchetypeProfile& CommercialProfile() {
  static const ArchetypeProfile kProfile = MakeProfile(
      {0.06, 0.04, 0.03, 0.03, 0.03, 0.04, 0.08, 0.20, 0.45, 0.65, 0.80,
       0.88, 0.85, 0.75, 0.70, 0.78, 0.90, 1.00, 1.00, 0.90, 0.65, 0.35,
       0.18, 0.10},
      {0.85, 0.85, 0.88, 0.92, 1.05, 1.15, 0.15});
  return kProfile;
}

const ArchetypeProfile& TransportProfile() {
  static const ArchetypeProfile kProfile = MakeProfile(
      {0.08, 0.05, 0.04, 0.04, 0.06, 0.15, 0.45, 0.95, 1.00, 0.60, 0.45,
       0.45, 0.50, 0.50, 0.48, 0.50, 0.60, 0.90, 1.00, 0.80, 0.50, 0.35,
       0.25, 0.15},
      {1.0, 1.0, 1.0, 1.0, 1.05, 0.45, 0.35});
  return kProfile;
}

const ArchetypeProfile& NightlifeProfile() {
  static const ArchetypeProfile kProfile = MakeProfile(
      {0.85, 0.70, 0.50, 0.30, 0.15, 0.08, 0.06, 0.08, 0.12, 0.15, 0.18,
       0.25, 0.35, 0.35, 0.30, 0.30, 0.35, 0.45, 0.55, 0.65, 0.80, 0.95,
       1.00, 0.95},
      {0.35, 0.35, 0.40, 0.50, 0.90, 1.00, 0.55});
  return kProfile;
}

const ArchetypeProfile& RuralProfile() {
  static const ArchetypeProfile kProfile = MakeProfile(
      {0.05, 0.04, 0.03, 0.03, 0.04, 0.08, 0.15, 0.25, 0.30, 0.32, 0.33,
       0.35, 0.36, 0.34, 0.32, 0.32, 0.33, 0.35, 0.38, 0.40, 0.38, 0.30,
       0.18, 0.08},
      {1.0, 1.0, 1.0, 1.0, 1.0, 0.9, 0.85});
  return kProfile;
}

}  // namespace

const ArchetypeProfile& ProfileFor(Archetype archetype) {
  switch (archetype) {
    case Archetype::kResidential:
      return ResidentialProfile();
    case Archetype::kBusiness:
      return BusinessProfile();
    case Archetype::kCommercial:
      return CommercialProfile();
    case Archetype::kTransport:
      return TransportProfile();
    case Archetype::kNightlife:
      return NightlifeProfile();
    case Archetype::kRural:
      return RuralProfile();
  }
  return ResidentialProfile();
}

Matrix<float> GenerateLoad(const Topology& topology,
                           const StudyCalendar& calendar,
                           const LoadModelConfig& config, uint64_t seed,
                           std::vector<SectorTraits>* traits_out) {
  const int n = topology.num_sectors();
  const int hours = calendar.hours();
  const int days = calendar.days();
  Matrix<float> load(n, hours);

  Rng root(seed);
  Rng traits_rng = root.Fork(1);
  Rng shock_rng = root.Fork(2);
  Rng noise_rng = root.Fork(3);
  Rng sunday_rng = root.Fork(4);

  // Per-sector traits.
  std::vector<SectorTraits> traits(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    SectorTraits& trait = traits[static_cast<size_t>(i)];
    trait.scale = std::exp(traits_rng.Gaussian(0.0, config.scale_sigma));
    if (traits_rng.Bernoulli(config.chronic_fraction)) {
      trait.chronic =
          traits_rng.Uniform(config.chronic_min, config.chronic_max);
      trait.chronic_degradation =
          traits_rng.Uniform(config.chronic_degradation_min,
                             config.chronic_degradation_max);
      trait.chronic_hot = true;
    }
    trait.phase_hours = static_cast<int>(traits_rng.UniformInt(-1, 1));
  }

  // Shared per-(patch, day) demand shocks: nearby sectors move together,
  // which creates the short-range correlations of Fig. 8A.
  int max_patch = 0;
  for (const Sector& sector : topology.sectors()) {
    max_patch = std::max(max_patch, sector.patch_id);
  }
  Matrix<float> patch_shock(max_patch + 1, days);
  for (int p = 0; p <= max_patch; ++p) {
    for (int d = 0; d < days; ++d) {
      patch_shock.At(p, d) = static_cast<float>(
          std::exp(shock_rng.Gaussian(0.0, config.patch_shock_sigma)));
    }
  }

  // Commercial sectors occasionally open on a Sunday (the 7x+6 pattern of
  // Fig. 7B): decided per (sector, week).
  const int weeks = calendar.weeks();

  // Each sector draws `hours` AR Gaussians and, if commercial, `weeks`
  // Sunday Bernoullis: a serial skip records where each sector's draws
  // start in both streams, then the sectors are filled on the pool.
  std::vector<Rng> noise_rngs;
  std::vector<Rng> sunday_rngs;
  noise_rngs.reserve(static_cast<size_t>(n));
  sunday_rngs.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    noise_rngs.push_back(noise_rng);
    noise_rng.SkipGaussians(hours);
    sunday_rngs.push_back(sunday_rng);
    if (topology.sector(i).archetype == Archetype::kCommercial) {
      sunday_rng.Discard(static_cast<int64_t>(weeks) *
                         Rng::BernoulliDraws(config.sunday_open_prob));
    }
  }

  util::ParallelFor(0, n, [&](int64_t sector_index) {
    const int i = static_cast<int>(sector_index);
    const Sector& sector = topology.sector(i);
    const SectorTraits& trait = traits[static_cast<size_t>(i)];
    const ArchetypeProfile& profile = ProfileFor(sector.archetype);
    Rng& noise = noise_rngs[static_cast<size_t>(i)];

    std::vector<bool> sunday_open(static_cast<size_t>(weeks), false);
    if (sector.archetype == Archetype::kCommercial) {
      Rng& sunday = sunday_rngs[static_cast<size_t>(i)];
      for (int w = 0; w < weeks; ++w) {
        sunday_open[static_cast<size_t>(w)] =
            sunday.Bernoulli(config.sunday_open_prob);
      }
    }

    double ar_state = 0.0;
    for (int j = 0; j < hours; ++j) {
      int day = calendar.DayOfHour(j);
      int hour_of_day = calendar.HourOfDay(j);
      int dow = calendar.DayOfWeekOfDay(day);
      int week = day / 7;

      double weekday_mult = profile.weekday[dow];
      if (sector.archetype == Archetype::kCommercial && dow == 6 &&
          sunday_open[static_cast<size_t>(week)]) {
        weekday_mult = 0.95;
      }
      if (calendar.IsHoliday(day)) {
        switch (sector.archetype) {
          case Archetype::kBusiness:
          case Archetype::kTransport:
            weekday_mult *= config.holiday_business_drop;
            break;
          case Archetype::kResidential:
          case Archetype::kNightlife:
            weekday_mult *= config.holiday_residential_boost;
            break;
          case Archetype::kCommercial:
          case Archetype::kRural:
            break;
        }
      }
      double shopping_mult = 1.0;
      if (calendar.IsShoppingDay(day) &&
          sector.archetype == Archetype::kCommercial) {
        // Afternoon-weighted boost: the Fig. 1B "popular shopping day"
        // peak appears in the afternoon.
        double afternoon =
            hour_of_day >= 15 && hour_of_day <= 20 ? 1.25 : 1.0;
        shopping_mult = config.shopping_boost * afternoon;
      }

      int profile_hour = ((hour_of_day + trait.phase_hours) % 24 + 24) % 24;
      double base = trait.scale * trait.chronic * weekday_mult *
                    profile.hourly[profile_hour] *
                    patch_shock.At(sector.patch_id, day) * shopping_mult;

      ar_state = config.ar_rho * ar_state +
                 noise.Gaussian(0.0, config.ar_sigma);
      double value = base + ar_state;
      load.At(i, j) = static_cast<float>(std::max(0.0, value));
    }
  });

  if (traits_out != nullptr) *traits_out = std::move(traits);
  return load;
}

}  // namespace hotspot::simnet
