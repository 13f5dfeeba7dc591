#ifndef HOTSPOT_STATS_HISTOGRAM_H_
#define HOTSPOT_STATS_HISTOGRAM_H_

#include <span>
#include <string>
#include <vector>

namespace hotspot {

/// Fixed-bin histogram over [lo, hi). Values outside the range are clamped
/// into the first/last bin; NaN values are ignored.
class Histogram {
 public:
  Histogram(double lo, double hi, int bins);

  void Add(double value);
  void AddAll(std::span<const float> values);

  int bins() const { return static_cast<int>(counts_.size()); }
  long long count(int bin) const;
  long long total() const { return total_; }

  /// Fraction of observations in `bin` (0 when empty).
  double RelativeCount(int bin) const;

  /// Center of `bin`.
  double BinCenter(int bin) const;
  /// Lower edge of `bin`.
  double BinLow(int bin) const;

  /// Index of the bin with the most observations (lowest index wins ties).
  int ArgMaxBin() const;

  /// Renders an ASCII bar chart (optionally log-scaled counts), used by the
  /// figure benches to reproduce the paper's histogram plots in text form.
  std::string ToAscii(int width = 50, bool log_scale = false) const;

 private:
  double lo_;
  double hi_;
  std::vector<long long> counts_;
  long long total_ = 0;
};

/// Integer-valued histogram over {0, 1, ..., max_value}; negative or larger
/// values are ignored. Used for the duration / run-length statistics of
/// Sec. III, where bins are exact counts (hours, days, weeks).
class CountHistogram {
 public:
  explicit CountHistogram(int max_value);

  void Add(int value);

  int max_value() const { return static_cast<int>(counts_.size()) - 1; }
  long long count(int value) const;
  long long total() const { return total_; }
  double RelativeCount(int value) const;

  /// Values with locally-maximal relative counts above `min_fraction`
  /// (used by tests to verify the paper's "peaks at 1, 2, 5, 7" claims).
  std::vector<int> Peaks(double min_fraction = 0.0) const;

  std::string ToAscii(int width = 50, bool log_scale = false) const;

 private:
  std::vector<long long> counts_;
  long long total_ = 0;
};

}  // namespace hotspot

#endif  // HOTSPOT_STATS_HISTOGRAM_H_
