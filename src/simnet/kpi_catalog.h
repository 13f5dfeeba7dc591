#ifndef HOTSPOT_SIMNET_KPI_CATALOG_H_
#define HOTSPOT_SIMNET_KPI_CATALOG_H_

#include <string>
#include <vector>

namespace hotspot::simnet {

/// The paper's five KPI classes (Sec. II-B).
enum class KpiClass {
  kCoverage,       ///< radio interference, noise, power characteristics
  kAccessibility,  ///< channel establishment, paging, HS allocation
  kRetainability,  ///< abnormally dropped channels
  kMobility,       ///< handover success ratios
  kCongestion,     ///< TTIs, queued users, congestion ratios, free channels
};

/// Static description of one key performance indicator: what it measures
/// and how the synthetic generator derives it from the latent sector state
/// (load, failure intensity, persistent degradation).
///
/// The generated value is
///   clamp(baseline + load_coef·load + failure_coef·failure
///         + degradation_coef·degradation + noise_sigma·N(0,1), lo, hi).
/// For "success ratio"-style KPIs the coefficients are negative and
/// `higher_is_worse` is false.
struct KpiSpec {
  std::string name;
  KpiClass kpi_class = KpiClass::kCoverage;
  double baseline = 0.0;
  double load_coef = 0.0;
  double failure_coef = 0.0;
  double degradation_coef = 0.0;
  double noise_sigma = 0.0;
  double lo = 0.0;  ///< physical lower clamp
  double hi = 1.0;  ///< physical upper clamp
  bool higher_is_worse = true;
  /// Operator scoring parameters (Eq. 1): indicator weight Ω_k and
  /// threshold ε_k, tripped in the KPI's bad direction.
  double score_weight = 1.0;
  double score_threshold = 0.5;
  /// Response to the pre-failure precursor latent (interference creeping
  /// up in the days before a hardware failure). Kept small enough that a
  /// precursor does NOT trip the score threshold — it is visible to
  /// feature-based forecasters only.
  double precursor_coef = 0.0;
};

/// Ordered collection of KPI specs. The default catalog has the paper's
/// l = 21 indicators arranged so that the 1-based feature indices quoted in
/// Sec. V-D line up: k=6 noise rise, k=8 data utilization rate, k=9 queued
/// HS users, k=10 channel setup failure, k=12 noise floor, k=14 TTI
/// occupancy.
class KpiCatalog {
 public:
  KpiCatalog() = default;
  explicit KpiCatalog(std::vector<KpiSpec> specs) : specs_(std::move(specs)) {}

  /// The default 21-KPI catalog described above.
  static KpiCatalog Default();

  int size() const { return static_cast<int>(specs_.size()); }
  const KpiSpec& spec(int k) const;
  const std::vector<KpiSpec>& specs() const { return specs_; }

  /// Index of the KPI with the given name; -1 when absent.
  int IndexOf(const std::string& name) const;

 private:
  std::vector<KpiSpec> specs_;
};

}  // namespace hotspot::simnet

#endif  // HOTSPOT_SIMNET_KPI_CATALOG_H_
