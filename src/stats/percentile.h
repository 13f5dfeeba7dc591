#ifndef HOTSPOT_STATS_PERCENTILE_H_
#define HOTSPOT_STATS_PERCENTILE_H_

#include <vector>

namespace hotspot {

/// Returns the p-th percentile (p in [0, 100]) of `values` using linear
/// interpolation between order statistics (the numpy default). NaN values
/// are dropped first. Returns NaN when no finite values remain.
double Percentile(std::vector<float> values, double p);

/// Returns several percentiles in one sort. `ps` entries must be in
/// [0, 100]. NaN values are dropped; all-NaN input yields NaNs.
std::vector<double> Percentiles(std::vector<float> values,
                                const std::vector<double>& ps);

/// The values of `values` that are not NaN, sorted ascending by an LSD
/// radix sort; -0 lands just below +0. On a large column whose comparisons
/// mispredict often this is several times faster than std::sort.
std::vector<float> RadixSorted(const std::vector<float>& values);

/// Percentiles() of RadixSorted(values), bit for bit, without the sort: it
/// counts the values by the top 16 bits of their radix keys, keeps only
/// the keys of the buckets that hold a rank an interpolation reads, and
/// counts those by their low 16 bits. Besides the kept keys it holds one
/// array of 2^16 counters.
std::vector<double> RadixPercentiles(const std::vector<float>& values,
                                     const std::vector<double>& ps);

/// Mean of finite values (NaN when none).
double Mean(const std::vector<float>& values);

/// Population standard deviation of finite values (NaN when none).
double StdDev(const std::vector<float>& values);

/// Min / max of finite values (NaN when none).
double MinValue(const std::vector<float>& values);
double MaxValue(const std::vector<float>& values);

}  // namespace hotspot

#endif  // HOTSPOT_STATS_PERCENTILE_H_
