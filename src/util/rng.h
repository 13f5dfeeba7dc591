#ifndef HOTSPOT_UTIL_RNG_H_
#define HOTSPOT_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hotspot {

/// One splitmix64 step: advances `state` by the golden-ratio increment and
/// returns the full-avalanche mix of the new state. Seeds Rng, and hashes
/// sector ids for the fleet's shard placement.
uint64_t SplitMix64(uint64_t& state);

/// Deterministic pseudo-random number generator (xoshiro256++ seeded via
/// SplitMix64). Used everywhere instead of <random> engines so that results
/// are bit-for-bit reproducible across standard libraries and platforms.
///
/// Not cryptographically secure; statistical quality is more than sufficient
/// for simulation and randomized ML.
class Rng {
 public:
  /// Constructs a generator whose stream is fully determined by `seed`.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Returns the next 64 uniformly random bits.
  uint64_t NextUint64();

  /// Returns a uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Returns a uniform double in [0, 1).
  double UniformDouble();

  /// Returns a uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Returns a standard normal variate (Box-Muller, cached pair).
  double Gaussian();

  /// Advances the stream exactly as `count` calls of Gaussian() would,
  /// the cached half and the redraw of a zero first uniform included.
  /// Pairs skipped whole cost their draws only; a pair the skip ends
  /// inside is computed, so its second half is cached as Gaussian() would.
  void SkipGaussians(int64_t count);

  /// Returns a normal variate with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// Returns an exponential variate with the given rate (rate > 0).
  double Exponential(double rate);

  /// Returns true with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// How many NextUint64() draws one Bernoulli(p) call takes: none when
  /// p <= 0 or p >= 1, whose outcome is certain, else one.
  static int BernoulliDraws(double p) { return p <= 0.0 || p >= 1.0 ? 0 : 1; }

  /// Advances the stream exactly as `draws` calls of NextUint64() would.
  void Discard(int64_t draws);

  /// Returns a Poisson variate with the given mean (Knuth for small means,
  /// normal approximation above 64).
  int Poisson(double mean);

  /// Fisher-Yates shuffles `values` in place.
  template <typename T>
  void Shuffle(std::vector<T>& values) {
    for (size_t i = values.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(values[i - 1], values[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) in increasing stream order
  /// (reservoir-free partial Fisher-Yates). Requires 0 <= k <= n.
  std::vector<int> SampleWithoutReplacement(int n, int k);

  /// Derives an independent child generator; `stream` distinguishes children
  /// derived from the same parent state.
  Rng Fork(uint64_t stream);

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace hotspot

#endif  // HOTSPOT_UTIL_RNG_H_
