#include <cmath>
#include <cstring>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "simnet/calendar.h"
#include "simnet/events.h"
#include "simnet/generator.h"
#include "simnet/kpi_catalog.h"
#include "simnet/load_model.h"
#include "simnet/missing.h"
#include "simnet/topology.h"
#include "tensor/temporal.h"
#include "thread_matrix.h"

namespace hotspot::simnet {
namespace {

/// Whether two arrays hold the same bits, which == does not check: it
/// equates -0 with +0 and fails every NaN.
bool SameBits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Calendar, AddDaysAcrossMonthAndLeapYear) {
  Date start{2015, 11, 30};
  EXPECT_EQ(AddDays(start, 1), (Date{2015, 12, 1}));
  EXPECT_EQ(AddDays(start, 32), (Date{2016, 1, 1}));
  // 2016 is a leap year: Feb 29 exists.
  EXPECT_EQ(AddDays(Date{2016, 2, 28}, 1), (Date{2016, 2, 29}));
  EXPECT_EQ(AddDays(Date{2016, 2, 29}, 1), (Date{2016, 3, 1}));
}

TEST(Calendar, DayOfWeekKnownDates) {
  EXPECT_EQ(DayOfWeek(Date{2015, 11, 30}), 0);  // Monday
  EXPECT_EQ(DayOfWeek(Date{2015, 12, 25}), 4);  // Friday
  EXPECT_EQ(DayOfWeek(Date{2016, 1, 1}), 4);    // Friday
  EXPECT_EQ(DayOfWeek(Date{2016, 4, 3}), 6);    // Sunday
}

TEST(Calendar, FormatDate) {
  EXPECT_EQ(FormatDate(Date{2016, 2, 9}), "2016-02-09");
}

TEST(Calendar, PaperPeriodShape) {
  StudyCalendar calendar = StudyCalendar::Paper();
  EXPECT_EQ(calendar.weeks(), 18);
  EXPECT_EQ(calendar.days(), 126);
  EXPECT_EQ(calendar.hours(), 3024);
  // Nov 30, 2015 is a Monday; the last day is Apr 3, 2016 (Sunday).
  EXPECT_EQ(calendar.DayOfWeekOfDay(0), 0);
  EXPECT_EQ(FormatDate(calendar.DateOfDay(125)), "2016-04-03");
}

TEST(Calendar, WeekendsAndHolidays) {
  StudyCalendar calendar = StudyCalendar::Paper();
  EXPECT_FALSE(calendar.IsWeekend(0));  // Monday
  EXPECT_TRUE(calendar.IsWeekend(5));   // Saturday
  EXPECT_TRUE(calendar.IsWeekend(6));   // Sunday
  // Christmas 2015 = day 25 from Nov 30.
  EXPECT_TRUE(calendar.IsHoliday(25));
  // New year = day 32.
  EXPECT_TRUE(calendar.IsHoliday(32));
  EXPECT_FALSE(calendar.IsHoliday(1));
}

TEST(Calendar, MatrixShapeAndUpsampling) {
  StudyCalendar calendar = StudyCalendar::Paper(2);
  Matrix<float> c = calendar.BuildCalendarMatrix();
  EXPECT_EQ(c.rows(), 2 * 168);
  EXPECT_EQ(c.cols(), 5);
  // Hour of day cycles; other columns repeat within the day.
  EXPECT_FLOAT_EQ(c(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(c(23, 0), 23.0f);
  EXPECT_FLOAT_EQ(c(24, 0), 0.0f);
  EXPECT_FLOAT_EQ(c(10, 1), c(20, 1));  // same day-of-week all day
  EXPECT_FLOAT_EQ(c(0, 2), 30.0f);      // day of month: Nov 30
  EXPECT_FLOAT_EQ(c(24, 2), 1.0f);      // Dec 1
}

TEST(Calendar, ShoppingDaysIncludePreChristmasRush) {
  StudyCalendar calendar = StudyCalendar::Paper();
  // Dec 19, 2015 = day 19.
  EXPECT_TRUE(calendar.IsShoppingDay(19));
}

TEST(Topology, GeneratesRequestedSectorCount) {
  TopologyConfig config;
  config.target_sectors = 120;
  Topology topology = Topology::Generate(config, 1);
  EXPECT_EQ(topology.num_sectors(), 120);
}

TEST(Topology, SameTowerSectorsShareCoordinates) {
  TopologyConfig config;
  config.target_sectors = 90;
  Topology topology = Topology::Generate(config, 2);
  int same_tower_pairs = 0;
  for (int i = 0; i < topology.num_sectors(); ++i) {
    for (int j = i + 1; j < topology.num_sectors(); ++j) {
      if (topology.sector(i).tower_id == topology.sector(j).tower_id) {
        EXPECT_DOUBLE_EQ(topology.DistanceKm(i, j), 0.0);
        ++same_tower_pairs;
      }
    }
  }
  EXPECT_GT(same_tower_pairs, 0);
}

TEST(Topology, NearestSectorsSortedByDistance) {
  TopologyConfig config;
  config.target_sectors = 60;
  Topology topology = Topology::Generate(config, 3);
  std::vector<int> nearest = topology.NearestSectors(0, 10);
  ASSERT_EQ(nearest.size(), 10u);
  for (size_t r = 1; r < nearest.size(); ++r) {
    EXPECT_LE(topology.DistanceKm(0, nearest[r - 1]),
              topology.DistanceKm(0, nearest[r]));
  }
  for (int j : nearest) EXPECT_NE(j, 0);
}

TEST(Topology, FilteredRenumbersContiguously) {
  TopologyConfig config;
  config.target_sectors = 30;
  Topology topology = Topology::Generate(config, 4);
  std::vector<bool> keep(30, true);
  keep[3] = keep[17] = false;
  Topology filtered = topology.Filtered(keep);
  EXPECT_EQ(filtered.num_sectors(), 28);
  for (int i = 0; i < filtered.num_sectors(); ++i) {
    EXPECT_EQ(filtered.sector(i).id, i);
  }
  // Survivor order preserved: old sector 4 becomes new sector 3.
  EXPECT_DOUBLE_EQ(filtered.sector(3).x_km, topology.sector(4).x_km);
}

TEST(Topology, DeterministicGivenSeed) {
  TopologyConfig config;
  config.target_sectors = 50;
  Topology a = Topology::Generate(config, 77);
  Topology b = Topology::Generate(config, 77);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.sector(i).x_km, b.sector(i).x_km);
    EXPECT_EQ(a.sector(i).archetype, b.sector(i).archetype);
  }
}

TEST(Topology, ArchetypesAreScatteredAcrossCities) {
  TopologyConfig config;
  config.target_sectors = 600;
  Topology topology = Topology::Generate(config, 5);
  // Each major archetype should appear in more than one city.
  std::map<Archetype, std::set<int>> cities_by_archetype;
  for (const Sector& sector : topology.sectors()) {
    if (sector.city_id >= 0) {
      cities_by_archetype[sector.archetype].insert(sector.city_id);
    }
  }
  EXPECT_GT(cities_by_archetype[Archetype::kCommercial].size(), 1u);
  EXPECT_GT(cities_by_archetype[Archetype::kBusiness].size(), 1u);
}

TEST(KpiCatalog, HasPaperDimensions) {
  KpiCatalog catalog = KpiCatalog::Default();
  EXPECT_EQ(catalog.size(), 21);
  std::set<std::string> names;
  for (const KpiSpec& spec : catalog.specs()) names.insert(spec.name);
  EXPECT_EQ(names.size(), 21u);  // unique names
}

TEST(KpiCatalog, PaperFeatureIndicesLineUp) {
  // Sec. V-D quotes 1-based indices; our catalog is 0-based.
  KpiCatalog catalog = KpiCatalog::Default();
  EXPECT_EQ(catalog.spec(5).name, "noise_rise_db");            // k=6
  EXPECT_EQ(catalog.spec(7).name, "data_utilization_rate");    // k=8
  EXPECT_EQ(catalog.spec(8).name, "hs_users_queued");          // k=9
  EXPECT_EQ(catalog.spec(9).name, "channel_setup_failure_ratio");  // k=10
  EXPECT_EQ(catalog.spec(11).name, "noise_floor_dbm");         // k=12
  EXPECT_EQ(catalog.spec(13).name, "tti_occupancy_ratio");     // k=14
}

TEST(KpiCatalog, CoversAllFiveClasses) {
  KpiCatalog catalog = KpiCatalog::Default();
  std::map<KpiClass, int> counts;
  for (const KpiSpec& spec : catalog.specs()) ++counts[spec.kpi_class];
  EXPECT_EQ(counts.size(), 5u);
  for (const auto& [cls, count] : counts) EXPECT_GE(count, 2);
}

TEST(KpiCatalog, IndexOf) {
  KpiCatalog catalog = KpiCatalog::Default();
  EXPECT_EQ(catalog.IndexOf("noise_rise_db"), 5);
  EXPECT_EQ(catalog.IndexOf("nope"), -1);
}

TEST(LoadModel, DeterministicGivenSeed) {
  TopologyConfig tc;
  tc.target_sectors = 30;
  Topology topology = Topology::Generate(tc, 6);
  StudyCalendar calendar = StudyCalendar::Paper(2);
  LoadModelConfig config;
  Matrix<float> a = GenerateLoad(topology, calendar, config, 9);
  Matrix<float> b = GenerateLoad(topology, calendar, config, 9);
  EXPECT_EQ(a.data(), b.data());
}

TEST(LoadModel, NightLowerThanEvening) {
  TopologyConfig tc;
  tc.target_sectors = 60;
  Topology topology = Topology::Generate(tc, 7);
  StudyCalendar calendar = StudyCalendar::Paper(4);
  Matrix<float> load = GenerateLoad(topology, calendar, {}, 10);
  double night = 0.0, evening = 0.0;
  int count = 0;
  for (int i = 0; i < load.rows(); ++i) {
    for (int day = 0; day < calendar.days(); ++day) {
      night += load(i, day * 24 + 3);
      evening += load(i, day * 24 + 20);
      ++count;
    }
  }
  EXPECT_LT(night / count, 0.5 * evening / count);
}

TEST(LoadModel, BusinessSectorsDropOnWeekends) {
  TopologyConfig tc;
  tc.target_sectors = 300;
  Topology topology = Topology::Generate(tc, 8);
  StudyCalendar calendar = StudyCalendar::Paper(4);
  Matrix<float> load = GenerateLoad(topology, calendar, {}, 11);
  double workday = 0.0, weekend = 0.0;
  int count = 0;
  for (int i = 0; i < load.rows(); ++i) {
    if (topology.sector(i).archetype != Archetype::kBusiness) continue;
    for (int day = 0; day < calendar.days(); ++day) {
      double midday = load(i, day * 24 + 11);
      if (calendar.IsWeekend(day)) {
        weekend += midday;
      } else {
        workday += midday;
      }
      ++count;
    }
  }
  ASSERT_GT(count, 0);
  EXPECT_LT(weekend, 0.5 * workday);
}

TEST(LoadModel, ChronicSectorsCarryHigherLoad) {
  TopologyConfig tc;
  tc.target_sectors = 400;
  Topology topology = Topology::Generate(tc, 12);
  StudyCalendar calendar = StudyCalendar::Paper(2);
  std::vector<SectorTraits> traits;
  Matrix<float> load = GenerateLoad(topology, calendar, {}, 13, &traits);
  double chronic_mean = 0.0, normal_mean = 0.0;
  int chronic_count = 0, normal_count = 0;
  for (int i = 0; i < load.rows(); ++i) {
    double mean = 0.0;
    for (int j = 0; j < load.cols(); ++j) mean += load(i, j);
    mean /= load.cols();
    if (traits[static_cast<size_t>(i)].chronic_hot) {
      chronic_mean += mean;
      ++chronic_count;
    } else {
      normal_mean += mean;
      ++normal_count;
    }
  }
  ASSERT_GT(chronic_count, 0);
  EXPECT_GT(chronic_mean / chronic_count, 1.3 * normal_mean / normal_count);
}

TEST(Events, FailuresCoverWholeTower) {
  TopologyConfig tc;
  tc.target_sectors = 200;
  Topology topology = Topology::Generate(tc, 14);
  StudyCalendar calendar = StudyCalendar::Paper(6);
  EventConfig config;
  config.failure_rate_per_tower_week = 0.2;
  EventTimelines timelines = GenerateEvents(topology, calendar, config, 15);
  ASSERT_FALSE(timelines.failures.empty());
  const FailureEvent& event = timelines.failures.front();
  int mid = event.start_hour + event.duration_hours / 2;
  if (mid < calendar.hours()) {
    for (const Sector& sector : topology.sectors()) {
      if (sector.tower_id != event.tower_id) continue;
      EXPECT_GT(timelines.failure(sector.id, mid), 0.0f);
    }
  }
}

TEST(Events, PrecursorRisesBeforeFailure) {
  TopologyConfig tc;
  tc.target_sectors = 120;
  Topology topology = Topology::Generate(tc, 16);
  StudyCalendar calendar = StudyCalendar::Paper(6);
  EventConfig config;
  config.failure_rate_per_tower_week = 0.2;
  EventTimelines timelines = GenerateEvents(topology, calendar, config, 17);
  // Find a failure with room for its precursor window.
  for (const FailureEvent& event : timelines.failures) {
    if (event.start_hour < config.precursor_hours + 2) continue;
    int sector = -1;
    for (const Sector& s : topology.sectors()) {
      if (s.tower_id == event.tower_id) {
        sector = s.id;
        break;
      }
    }
    ASSERT_GE(sector, 0);
    float just_before = timelines.precursor(sector, event.start_hour - 1);
    float window_start = timelines.precursor(
        sector, event.start_hour - config.precursor_hours + 1);
    EXPECT_GT(just_before, 0.9f);
    EXPECT_LE(window_start, just_before);
    return;
  }
  GTEST_SKIP() << "no failure with full precursor window in this draw";
}

TEST(Events, RampsRiseMonotonicallyToPlateau) {
  TopologyConfig tc;
  tc.target_sectors = 100;
  Topology topology = Topology::Generate(tc, 18);
  StudyCalendar calendar = StudyCalendar::Paper(10);
  EventConfig config;
  config.emerging_fraction = 0.5;
  config.emerging_recovery_prob = 0.0;
  EventTimelines timelines = GenerateEvents(topology, calendar, config, 19);
  ASSERT_FALSE(timelines.ramps.empty());
  const DegradationRamp& ramp = timelines.ramps.front();
  float previous = 0.0f;
  for (int j = ramp.start_hour;
       j < std::min(calendar.hours(), ramp.start_hour + ramp.ramp_hours);
       ++j) {
    float level = timelines.degradation(ramp.sector_id, j);
    EXPECT_GE(level, previous);
    previous = level;
  }
  int plateau_hour = ramp.start_hour + ramp.ramp_hours;
  if (plateau_hour < calendar.hours()) {
    EXPECT_NEAR(timelines.degradation(ramp.sector_id, plateau_hour),
                static_cast<float>(ramp.plateau), 1e-5);
  }
}

TEST(Missing, InjectionRatesInExpectedBand) {
  Tensor3<float> kpis(40, 4 * 168, 10, 1.0f);
  MissingConfig config;
  MissingStats stats = InjectMissing(config, 21, &kpis);
  EXPECT_GT(stats.MissingFraction(), 0.01);
  EXPECT_LT(stats.MissingFraction(), 0.15);
  EXPECT_EQ(stats.total_cells, 40LL * 4 * 168 * 10);
}

TEST(Missing, DeterministicGivenSeed) {
  MissingConfig config;
  Tensor3<float> a(10, 168, 5, 1.0f);
  const MissingStats a_stats = InjectMissing(config, 22, &a);
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    Tensor3<float> b(10, 168, 5, 1.0f);
    const MissingStats b_stats = InjectMissing(config, 22, &b);
    EXPECT_TRUE(SameBits(a.data(), b.data())) << threads << " threads";
    EXPECT_EQ(a_stats.missing_cells, b_stats.missing_cells);
    EXPECT_EQ(a_stats.dead_sectors, b_stats.dead_sectors);
  });
}

TEST(Missing, ZeroRatesLeaveDataIntact) {
  Tensor3<float> kpis(5, 168, 3, 2.0f);
  MissingConfig config;
  config.cell_rate = 0.0;
  config.slice_rate = 0.0;
  config.outage_rate_per_sector_week = 0.0;
  config.dead_sector_fraction = 0.0;
  MissingStats stats = InjectMissing(config, 23, &kpis);
  EXPECT_EQ(stats.missing_cells, 0);
}

TEST(Generator, KpiValueRespondsInSpecifiedDirections) {
  KpiSpec spec;
  spec.baseline = 0.1;
  spec.load_coef = 0.5;
  spec.failure_coef = 0.2;
  spec.degradation_coef = 0.1;
  spec.precursor_coef = 0.05;
  spec.noise_sigma = 0.0;
  spec.lo = 0.0;
  spec.hi = 1.0;
  EXPECT_DOUBLE_EQ(KpiValue(spec, 0, 0, 0, 0, 0), 0.1);
  EXPECT_DOUBLE_EQ(KpiValue(spec, 1, 0, 0, 0, 0), 0.6);
  EXPECT_DOUBLE_EQ(KpiValue(spec, 1, 1, 1, 1, 0), 0.95);
  // Clamped at hi.
  EXPECT_DOUBLE_EQ(KpiValue(spec, 10, 0, 0, 0, 0), 1.0);
}

TEST(Generator, ShapesMatchConfig) {
  GeneratorConfig config;
  config.topology.target_sectors = 24;
  config.weeks = 2;
  config.inject_missing = false;
  SyntheticNetwork network = GenerateNetwork(config);
  EXPECT_EQ(network.num_sectors(), 24);
  EXPECT_EQ(network.num_hours(), 2 * 168);
  EXPECT_EQ(network.num_kpis(), 21);
  EXPECT_EQ(network.calendar_matrix.rows(), 2 * 168);
  EXPECT_EQ(network.true_load.rows(), 24);
  // No missing values when injection is off.
  for (float v : network.kpis.data()) EXPECT_FALSE(IsMissing(v));
}

TEST(Generator, DeterministicGivenSeed) {
  GeneratorConfig config;
  config.topology.target_sectors = 12;
  config.weeks = 1;
  config.seed = 4242;
  const SyntheticNetwork a = GenerateNetwork(config);
  testing_util::ForEachThreadCount([&](const std::string& threads) {
    const SyntheticNetwork b = GenerateNetwork(config);
    EXPECT_TRUE(SameBits(a.kpis.data(), b.kpis.data())) << threads
                                                        << " threads";
    EXPECT_TRUE(SameBits(a.true_load.data(), b.true_load.data()))
        << threads << " threads";
  });
}

TEST(Generator, KpisStayInPhysicalRange) {
  GeneratorConfig config;
  config.topology.target_sectors = 30;
  config.weeks = 2;
  config.inject_missing = false;
  SyntheticNetwork network = GenerateNetwork(config);
  for (int k = 0; k < network.num_kpis(); ++k) {
    const KpiSpec& spec = network.catalog.spec(k);
    for (int i = 0; i < network.num_sectors(); ++i) {
      for (int j = 0; j < network.num_hours(); ++j) {
        float v = network.kpis(i, j, k);
        ASSERT_GE(v, spec.lo) << spec.name;
        ASSERT_LE(v, spec.hi) << spec.name;
      }
    }
  }
}

TEST(ArchetypeProfiles, HaveOvernightTrough) {
  for (int a = 0; a < kNumArchetypes; ++a) {
    if (static_cast<Archetype>(a) == Archetype::kNightlife) continue;
    const ArchetypeProfile& profile =
        ProfileFor(static_cast<Archetype>(a));
    double night = (profile.hourly[2] + profile.hourly[3] +
                    profile.hourly[4]) / 3.0;
    double peak = 0.0;
    for (double v : profile.hourly) peak = std::max(peak, v);
    EXPECT_LT(night, 0.25 * peak) << "archetype " << a;
    EXPECT_LE(peak, 1.0) << "profiles never exceed 1";
  }
}

}  // namespace
}  // namespace hotspot::simnet
