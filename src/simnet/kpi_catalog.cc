#include "simnet/kpi_catalog.h"

#include "util/logging.h"

namespace hotspot::simnet {

KpiCatalog KpiCatalog::Default() {
  // Field order: name, class, baseline, load_coef, failure_coef,
  // degradation_coef, noise_sigma, lo, hi, higher_is_worse, Ω, ε.
  //
  // Calibration intent (latent load is ~0.1 at night, ~0.7-0.9 at a normal
  // sector's busy hour, >1.05 under overload; failure and degradation are
  // in [0, 1]): a KPI's threshold should NOT trip at a normal busy hour,
  // and SHOULD trip under overload, hardware failure, or persistent
  // degradation — so that the weighted score separates healthy and hot
  // sectors the way the operator formula of Eq. 1 intends.
  std::vector<KpiSpec> specs = {
      // 1-based k = 1..5: accessibility (channel establishment + HS alloc).
      {"rrc_setup_success_ratio", KpiClass::kAccessibility, 0.995, -0.05,
       -0.30, -0.10, 0.004, 0.0, 1.0, false, 1.5, 0.945},
      {"cs_call_setup_success_ratio", KpiClass::kAccessibility, 0.99, -0.05,
       -0.35, -0.12, 0.005, 0.0, 1.0, false, 1.5, 0.935},
      {"ps_session_setup_success_ratio", KpiClass::kAccessibility, 0.985,
       -0.06, -0.30, -0.15, 0.006, 0.0, 1.0, false, 1.5, 0.92},
      {"paging_success_ratio", KpiClass::kAccessibility, 0.99, -0.03, -0.25,
       -0.05, 0.004, 0.0, 1.0, false, 1.5, 0.945},
      {"hsdpa_allocation_success_ratio", KpiClass::kAccessibility, 0.97,
       -0.12, -0.20, -0.20, 0.01, 0.0, 1.0, false, 1.5, 0.85},
      // k = 6: noise rise (the interference KPI highlighted in Fig. 16).
      {"noise_rise_db", KpiClass::kCoverage, 2.0, 3.2, 6.0, 3.5, 0.35, 0.0,
       25.0, true, 1.0, 5.8},
      // k = 7: pilot pollution.
      {"pilot_pollution_ratio", KpiClass::kCoverage, 0.03, 0.02, 0.10, 0.06,
       0.008, 0.0, 1.0, true, 1.0, 0.09},
      // k = 8: data utilization rate (Fig. 15/16).
      {"data_utilization_rate", KpiClass::kCongestion, 0.15, 0.62, 0.10,
       0.30, 0.04, 0.0, 1.0, true, 2.0, 0.83},
      // k = 9: users queued for a high-speed channel (Fig. 15/16).
      {"hs_users_queued", KpiClass::kCongestion, 0.2, 5.0, 2.0, 4.0, 0.5,
       0.0, 60.0, true, 2.0, 5.6},
      // k = 10: channel setup failure (the signalling KPI of Fig. 16).
      {"channel_setup_failure_ratio", KpiClass::kAccessibility, 0.01, 0.05,
       0.30, 0.10, 0.006, 0.0, 1.0, true, 1.5, 0.065},
      // k = 11: CS drop ratio.
      {"cs_drop_ratio", KpiClass::kRetainability, 0.008, 0.02, 0.25, 0.05,
       0.004, 0.0, 1.0, true, 1.5, 0.033},
      // k = 12: absolute noise floor (Fig. 16).
      {"noise_floor_dbm", KpiClass::kCoverage, -103.0, 4.0, 9.0, 6.0, 0.8,
       -110.0, -70.0, true, 1.0, -95.0},
      // k = 13: PS drop ratio.
      {"ps_drop_ratio", KpiClass::kRetainability, 0.012, 0.03, 0.28, 0.10,
       0.005, 0.0, 1.0, true, 1.5, 0.05},
      // k = 14: transmission (TTI) occupancy (Fig. 15/16).
      {"tti_occupancy_ratio", KpiClass::kCongestion, 0.25, 0.55, 0.05, 0.25,
       0.03, 0.0, 1.0, true, 2.0, 0.86},
      // k = 15: HS drop ratio.
      {"hs_drop_ratio", KpiClass::kRetainability, 0.015, 0.04, 0.25, 0.12,
       0.006, 0.0, 1.0, true, 1.5, 0.062},
      // k = 16..17: mobility.
      {"soft_handover_success_ratio", KpiClass::kMobility, 0.975, -0.02,
       -0.30, -0.06, 0.005, 0.0, 1.0, false, 0.75, 0.935},
      {"irat_handover_success_ratio", KpiClass::kMobility, 0.94, -0.03,
       -0.25, -0.08, 0.01, 0.0, 1.0, false, 0.75, 0.885},
      // k = 18: PS data throughput (the data-based KPI of Fig. 1B).
      {"ps_data_throughput_mbps", KpiClass::kCongestion, 7.5, -4.5, -3.0,
       -3.0, 0.45, 0.05, 30.0, false, 2.0, 2.6},
      // k = 19: congestion ratio.
      {"congestion_ratio", KpiClass::kCongestion, 0.02, 0.28, 0.05, 0.25,
       0.02, 0.0, 1.0, true, 2.0, 0.33},
      // k = 20: transmit power utilization.
      {"tx_power_utilization", KpiClass::kCoverage, 0.45, 0.38, 0.10, 0.20,
       0.03, 0.0, 1.0, true, 1.0, 0.88},
      // k = 21: CS voice blocking (the voice-based KPI of Fig. 1A).
      {"cs_voice_blocking_ratio", KpiClass::kCongestion, 0.004, 0.045, 0.25,
       0.08, 0.004, 0.0, 1.0, true, 2.0, 0.055},
  };
  // Pre-failure precursors: interference and signalling indicators creep
  // up before a failure, below their scoring thresholds (Sec. V-D's
  // interference/signalling KPIs are exactly the informative ones for the
  // 'become a hot spot' task).
  specs[5].precursor_coef = 2.2;    // noise_rise_db (ε 5.8, baseline 2)
  specs[6].precursor_coef = 0.035;  // pilot_pollution_ratio (ε 0.09)
  specs[9].precursor_coef = 0.03;   // channel_setup_failure_ratio (ε 0.065)
  specs[11].precursor_coef = 4.5;   // noise_floor_dbm (ε -95, baseline -103)
  return KpiCatalog(std::move(specs));
}

const KpiSpec& KpiCatalog::spec(int k) const {
  HOTSPOT_CHECK(k >= 0 && k < size());
  return specs_[static_cast<size_t>(k)];
}

int KpiCatalog::IndexOf(const std::string& name) const {
  for (int k = 0; k < size(); ++k) {
    if (specs_[static_cast<size_t>(k)].name == name) return k;
  }
  return -1;
}

}  // namespace hotspot::simnet
