#include "stats/percentile.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "tensor/matrix.h"
#include "util/logging.h"

namespace hotspot {

namespace {

void DropMissing(std::vector<float>& values) {
  values.erase(std::remove_if(values.begin(), values.end(),
                              [](float v) { return IsMissing(v); }),
               values.end());
}

double InterpolatedPercentile(const std::vector<float>& sorted, double p) {
  if (sorted.empty()) return std::nan("");
  if (sorted.size() == 1) return sorted[0];
  double rank = p / 100.0 * (static_cast<double>(sorted.size()) - 1.0);
  size_t lo = static_cast<size_t>(rank);
  if (lo >= sorted.size() - 1) return sorted.back();
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

}  // namespace

double Percentile(std::vector<float> values, double p) {
  HOTSPOT_CHECK(p >= 0.0 && p <= 100.0);
  DropMissing(values);
  std::sort(values.begin(), values.end());
  return InterpolatedPercentile(values, p);
}

std::vector<double> Percentiles(std::vector<float> values,
                                const std::vector<double>& ps) {
  DropMissing(values);
  std::sort(values.begin(), values.end());
  return SortedPercentiles(values, ps);
}

std::vector<double> SortedPercentiles(const std::vector<float>& sorted,
                                      const std::vector<double>& ps) {
  std::vector<double> out;
  out.reserve(ps.size());
  for (double p : ps) {
    HOTSPOT_CHECK(p >= 0.0 && p <= 100.0);
    out.push_back(InterpolatedPercentile(sorted, p));
  }
  return out;
}

std::vector<float> RadixSorted(const std::vector<float>& values) {
  // One byte per pass over keys that order like the values: the sign bit
  // flipped for positives, every bit flipped for negatives.
  std::vector<uint32_t> keys;
  keys.reserve(values.size());
  for (float value : values) {
    if (IsMissing(value)) continue;
    const uint32_t bits = std::bit_cast<uint32_t>(value);
    keys.push_back((bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u);
  }
  const size_t n = keys.size();
  {
    std::vector<uint32_t> sorted(n);
    for (int shift = 0; shift < 32; shift += 8) {
      size_t starts[257] = {};
      for (uint32_t key : keys) ++starts[((key >> shift) & 0xffu) + 1];
      // A byte every key shares leaves the order as it is.
      if (n == 0 || starts[((keys[0] >> shift) & 0xffu) + 1] == n) continue;
      for (int digit = 0; digit < 256; ++digit) {
        starts[digit + 1] += starts[digit];
      }
      for (uint32_t key : keys) sorted[starts[(key >> shift) & 0xffu]++] = key;
      keys.swap(sorted);
    }
  }  // the pass buffer goes before the result is allocated
  std::vector<float> result(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t key = keys[i];
    result[i] = std::bit_cast<float>(
        (key & 0x80000000u) != 0 ? key & 0x7fffffffu : ~key);
  }
  return result;
}

double Mean(const std::vector<float>& values) {
  double sum = 0.0;
  long long count = 0;
  for (float v : values) {
    if (IsMissing(v)) continue;
    sum += v;
    ++count;
  }
  return count == 0 ? std::nan("") : sum / static_cast<double>(count);
}

double StdDev(const std::vector<float>& values) {
  double mean = Mean(values);
  if (std::isnan(mean)) return mean;
  double sum_sq = 0.0;
  long long count = 0;
  for (float v : values) {
    if (IsMissing(v)) continue;
    double d = v - mean;
    sum_sq += d * d;
    ++count;
  }
  return std::sqrt(sum_sq / static_cast<double>(count));
}

double MinValue(const std::vector<float>& values) {
  double best = std::nan("");
  for (float v : values) {
    if (IsMissing(v)) continue;
    if (std::isnan(best) || v < best) best = v;
  }
  return best;
}

double MaxValue(const std::vector<float>& values) {
  double best = std::nan("");
  for (float v : values) {
    if (IsMissing(v)) continue;
    if (std::isnan(best) || v > best) best = v;
  }
  return best;
}

}  // namespace hotspot
