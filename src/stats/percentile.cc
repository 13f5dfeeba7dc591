#include "stats/percentile.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "tensor/matrix.h"
#include "util/logging.h"

namespace hotspot {

namespace {

void DropMissing(std::vector<float>& values) {
  values.erase(std::remove_if(values.begin(), values.end(),
                              [](float v) { return IsMissing(v); }),
               values.end());
}

/// The p-th percentile of `count` ascending values, the i-th read as
/// at(i).
template <typename At>
double InterpolatedPercentile(size_t count, const At& at, double p) {
  if (count == 0) return std::nan("");
  if (count == 1) return at(0);
  double rank = p / 100.0 * (static_cast<double>(count) - 1.0);
  size_t lo = static_cast<size_t>(rank);
  if (lo >= count - 1) return at(count - 1);
  double frac = rank - static_cast<double>(lo);
  return at(lo) + frac * (at(lo + 1) - at(lo));
}

/// A key that orders like `value`: the sign bit flipped for positives,
/// every bit flipped for negatives, so -0 sits just below +0.
uint32_t OrderKey(float value) {
  const uint32_t bits = std::bit_cast<uint32_t>(value);
  return (bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u;
}

float FromOrderKey(uint32_t key) {
  return std::bit_cast<float>((key & 0x80000000u) != 0 ? key & 0x7fffffffu
                                                        : ~key);
}

}  // namespace

double Percentile(std::vector<float> values, double p) {
  HOTSPOT_CHECK(p >= 0.0 && p <= 100.0);
  return Percentiles(std::move(values), {p})[0];
}

std::vector<double> Percentiles(std::vector<float> values,
                                const std::vector<double>& ps) {
  DropMissing(values);
  std::sort(values.begin(), values.end());
  std::vector<double> out;
  out.reserve(ps.size());
  for (double p : ps) {
    HOTSPOT_CHECK(p >= 0.0 && p <= 100.0);
    out.push_back(InterpolatedPercentile(
        values.size(), [&](size_t i) { return values[i]; }, p));
  }
  return out;
}

std::vector<double> RadixPercentiles(const std::vector<float>& values,
                                     const std::vector<double>& ps) {
  // The keys' top 16 bits pick a bucket; count each bucket's keys.
  constexpr uint32_t kUnwanted = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> counts(size_t{1} << 16, 0);
  size_t n = 0;
  for (float value : values) {
    if (IsMissing(value)) continue;
    ++counts[OrderKey(value) >> 16];
    ++n;
  }
  HOTSPOT_CHECK_LT(n, size_t{kUnwanted});
  // The ranks the interpolations read, ascending.
  std::vector<size_t> ranks;
  for (double p : ps) {
    HOTSPOT_CHECK(p >= 0.0 && p <= 100.0);
    InterpolatedPercentile(
        n,
        [&](size_t i) {
          ranks.push_back(i);
          return 0.0f;
        },
        p);
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());

  // Only a bucket that holds one of the ranks is kept: its keys get a
  // segment of `kept`, and its count becomes the segment's write cursor.
  struct Bucket {
    uint32_t top;
    size_t first_rank;  ///< rank of its smallest key among all keys
    size_t begin;       ///< its segment of `kept`
    size_t size;
  };
  std::vector<Bucket> buckets;
  size_t rank_begin = 0;
  size_t kept_size = 0;
  for (size_t top = 0, next = 0; top < counts.size(); ++top) {
    const size_t size = counts[top];
    if (next < ranks.size() && ranks[next] < rank_begin + size) {
      buckets.push_back({static_cast<uint32_t>(top), rank_begin, kept_size,
                         size});
      counts[top] = static_cast<uint32_t>(kept_size);
      kept_size += size;
      while (next < ranks.size() && ranks[next] < rank_begin + size) ++next;
    } else {
      counts[top] = kUnwanted;
    }
    rank_begin += size;
  }
  std::vector<uint32_t> kept(kept_size);
  for (float value : values) {
    if (IsMissing(value)) continue;
    const uint32_t key = OrderKey(value);
    uint32_t& cursor = counts[key >> 16];
    if (cursor != kUnwanted) kept[cursor++] = key;
  }

  // Within a bucket the low 16 bits order the keys; counting them finds
  // the key at each rank the bucket holds.
  std::vector<float> at_rank(ranks.size());
  size_t next = 0;
  for (const Bucket& bucket : buckets) {
    std::fill(counts.begin(), counts.end(), 0u);
    for (size_t i = bucket.begin; i < bucket.begin + bucket.size; ++i) {
      ++counts[kept[i] & 0xffffu];
    }
    // Past the loop body, `below` is one more than the highest rank of the
    // keys whose low bits are at most `low`.
    size_t below = bucket.first_rank;
    for (uint32_t low = 0; next < ranks.size() &&
                           ranks[next] < bucket.first_rank + bucket.size;
         ++low) {
      below += counts[low];
      for (; next < ranks.size() && ranks[next] < below; ++next) {
        at_rank[next] = FromOrderKey((bucket.top << 16) | low);
      }
    }
  }

  std::vector<double> out;
  out.reserve(ps.size());
  for (double p : ps) {
    out.push_back(InterpolatedPercentile(
        n,
        [&](size_t i) {
          return at_rank[static_cast<size_t>(
              std::lower_bound(ranks.begin(), ranks.end(), i) -
              ranks.begin())];
        },
        p));
  }
  return out;
}

std::vector<float> RadixSorted(const std::vector<float>& values) {
  // One byte per pass over keys that order like the values.
  std::vector<uint32_t> keys;
  keys.reserve(values.size());
  for (float value : values) {
    if (!IsMissing(value)) keys.push_back(OrderKey(value));
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
  for (size_t i = 0; i < n; ++i) result[i] = FromOrderKey(keys[i]);
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
