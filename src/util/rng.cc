#include "util/rng.h"

#include <cmath>

#include "util/logging.h"

namespace hotspot {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

uint64_t RotL(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (uint64_t& s : state_) s = SplitMix64(sm);
}

uint64_t Rng::NextUint64() {
  const uint64_t result = RotL(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  HOTSPOT_CHECK_LE(lo, hi);
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<int64_t>(NextUint64());  // full range
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  uint64_t value = NextUint64();
  while (value >= limit) value = NextUint64();
  return lo + static_cast<int64_t>(value % range);
}

double Rng::UniformDouble() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

double Rng::Gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = UniformDouble();
  while (u1 <= 0.0) u1 = UniformDouble();
  double u2 = UniformDouble();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double angle = 2.0 * M_PI * u2;
  cached_gaussian_ = radius * std::sin(angle);
  has_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

void Rng::SkipGaussians(int64_t count) {
  if (count > 0 && has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    --count;
  }
  for (; count >= 2; count -= 2) {
    // One pair's draws: u1, redrawn while it is zero, then u2.
    while (NextUint64() >> 11 == 0) continue;
    NextUint64();
  }
  if (count == 1) Gaussian();
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * Gaussian();
}

double Rng::Exponential(double rate) {
  HOTSPOT_CHECK_GT(rate, 0.0);
  double u = UniformDouble();
  while (u <= 0.0) u = UniformDouble();
  return -std::log(u) / rate;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

void Rng::Discard(int64_t draws) {
  for (; draws > 0; --draws) NextUint64();
}

int Rng::Poisson(double mean) {
  HOTSPOT_CHECK_GE(mean, 0.0);
  if (mean == 0.0) return 0;
  if (mean > 64.0) {
    // Normal approximation with continuity correction, clamped at zero.
    double value = Gaussian(mean, std::sqrt(mean));
    return value < 0.0 ? 0 : static_cast<int>(value + 0.5);
  }
  double threshold = std::exp(-mean);
  int count = -1;
  double product = 1.0;
  do {
    ++count;
    product *= UniformDouble();
  } while (product > threshold);
  return count;
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  HOTSPOT_CHECK_GE(k, 0);
  HOTSPOT_CHECK_LE(k, n);
  std::vector<int> pool(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) pool[static_cast<size_t>(i)] = i;
  for (int i = 0; i < k; ++i) {
    int j = static_cast<int>(UniformInt(i, n - 1));
    std::swap(pool[static_cast<size_t>(i)], pool[static_cast<size_t>(j)]);
  }
  pool.resize(static_cast<size_t>(k));
  return pool;
}

Rng Rng::Fork(uint64_t stream) {
  return Rng(NextUint64() ^ (stream * 0xd1342543de82ef95ull + 1));
}

}  // namespace hotspot
