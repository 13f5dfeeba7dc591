#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>

#include "gtest/gtest.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/rng.h"

namespace hotspot {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(3, 6);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 6);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleValue) {
  Rng rng(7);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) {
    double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  double mean = sum / kSamples;
  double var = sum_sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, GaussianShiftScale) {
  Rng rng(17);
  double sum = 0.0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.Gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / kSamples, 5.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(19);
  double sum = 0.0;
  const int kSamples = 30000;
  for (int i = 0; i < kSamples; ++i) sum += rng.Exponential(0.5);
  EXPECT_NEAR(sum / kSamples, 2.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int hits = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.02);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(29);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  EXPECT_FALSE(rng.Bernoulli(-1.0));
  EXPECT_TRUE(rng.Bernoulli(2.0));
}

TEST(Rng, PoissonMeanSmall) {
  Rng rng(31);
  long long sum = 0;
  const int kSamples = 30000;
  for (int i = 0; i < kSamples; ++i) sum += rng.Poisson(3.0);
  EXPECT_NEAR(static_cast<double>(sum) / kSamples, 3.0, 0.1);
}

TEST(Rng, PoissonMeanLargeUsesNormalApprox) {
  Rng rng(37);
  long long sum = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) sum += rng.Poisson(100.0);
  EXPECT_NEAR(static_cast<double>(sum) / kSamples, 100.0, 1.0);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(41);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(43);
  std::vector<int> sample = rng.SampleWithoutReplacement(50, 20);
  ASSERT_EQ(sample.size(), 20u);
  std::set<int> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 50);
  }
}

TEST(Rng, SampleWithoutReplacementFull) {
  Rng rng(47);
  std::vector<int> sample = rng.SampleWithoutReplacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sample[static_cast<size_t>(i)], i);
}

TEST(Rng, SampleWithoutReplacementEmpty) {
  Rng rng(53);
  EXPECT_TRUE(rng.SampleWithoutReplacement(10, 0).empty());
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng parent(59);
  Rng child1 = parent.Fork(1);
  Rng child2 = parent.Fork(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child1.NextUint64() == child2.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(61);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

/// Expects `a` and `b` to give the same next 16 draws of each kind, bit
/// for bit; each kind is drawn from fresh copies, so a cached Gaussian
/// half is compared too.
void ExpectSameStream(const Rng& a, const Rng& b) {
  Rng a_bits = a, b_bits = b;
  Rng a_uniform = a, b_uniform = b;
  Rng a_gaussian = a, b_gaussian = b;
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a_bits.NextUint64(), b_bits.NextUint64()) << "draw " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a_uniform.UniformDouble()),
              std::bit_cast<uint64_t>(b_uniform.UniformDouble()))
        << "draw " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a_gaussian.Gaussian()),
              std::bit_cast<uint64_t>(b_gaussian.Gaussian()))
        << "draw " << i;
  }
}

TEST(Rng, SkipGaussiansLeavesTheStreamWhereGaussianCallsWould) {
  for (bool cached_half : {false, true}) {
    Rng start(67);
    if (cached_half) start.Gaussian();  // caches the pair's second half
    for (int count = 0; count <= 9; ++count) {
      SCOPED_TRACE(::testing::Message() << "cached half " << cached_half
                                        << ", count " << count);
      Rng called = start;
      for (int i = 0; i < count; ++i) called.Gaussian();
      Rng skipped = start;
      skipped.SkipGaussians(count);
      ExpectSameStream(called, skipped);
    }
  }
}

TEST(Rng, DiscardLeavesTheStreamWhereNextUint64CallsWould) {
  for (bool cached_half : {false, true}) {
    Rng start(71);
    if (cached_half) start.Gaussian();
    for (int draws = 0; draws <= 9; ++draws) {
      SCOPED_TRACE(::testing::Message() << "cached half " << cached_half
                                        << ", draws " << draws);
      Rng called = start;
      for (int i = 0; i < draws; ++i) called.NextUint64();
      Rng discarded = start;
      discarded.Discard(draws);
      ExpectSameStream(called, discarded);
    }
  }
}

TEST(Rng, BernoulliDrawsCountsWhatBernoulliTakes) {
  for (double p : {-1.0, 0.0, 1e-300, 0.3, 1.0, 2.0, std::nan("")}) {
    SCOPED_TRACE(::testing::Message() << "p " << p);
    Rng called(73);
    called.Bernoulli(p);
    Rng discarded(73);
    discarded.Discard(Rng::BernoulliDraws(p));
    ExpectSameStream(called, discarded);
  }
}

TEST(CsvWriter, PlainRow) {
  std::ostringstream out;
  CsvWriter writer(&out);
  writer.WriteRow({"a", "b", "c"});
  EXPECT_EQ(out.str(), "a,b,c\n");
  EXPECT_EQ(writer.rows_written(), 1);
}

TEST(CsvWriter, EscapesSeparatorsAndQuotes) {
  std::ostringstream out;
  CsvWriter writer(&out);
  writer.WriteRow({"a,b", "say \"hi\"", "line\nbreak"});
  EXPECT_EQ(out.str(), "\"a,b\",\"say \"\"hi\"\"\",\"line\nbreak\"\n");
}

TEST(CsvWriter, NumericRow) {
  std::ostringstream out;
  CsvWriter writer(&out);
  writer.WriteNumericRow({1.0, 2.5});
  EXPECT_EQ(out.str(), "1,2.5\n");
}

TEST(CsvWriter, CustomSeparator) {
  std::ostringstream out;
  CsvWriter writer(&out, ';');
  writer.WriteRow({"a", "b,c"});
  EXPECT_EQ(out.str(), "a;b,c\n");
}

TEST(FormatNumber, SignificantDigits) {
  EXPECT_EQ(FormatNumber(3.14159265, 3), "3.14");
  EXPECT_EQ(FormatNumber(1234567.0, 3), "1.23e+06");
  EXPECT_EQ(FormatNumber(0.5), "0.5");
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddNumericRow({2.0, 3.5});
  std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("name"), std::string::npos);
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("3.5"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2);
}

TEST(Logging, LevelNames) {
  EXPECT_STREQ(LogLevelName(LogLevel::kInfo), "INFO");
  EXPECT_STREQ(LogLevelName(LogLevel::kError), "ERROR");
}

TEST(Logging, MinLevelRoundTrip) {
  LogLevel previous = SetMinLogLevel(LogLevel::kError);
  EXPECT_EQ(MinLogLevel(), LogLevel::kError);
  SetMinLogLevel(previous);
  EXPECT_EQ(MinLogLevel(), previous);
}

TEST(CheckMacros, FatalOnViolation) {
  EXPECT_DEATH({ HOTSPOT_CHECK_EQ(1, 2) << "boom"; }, "Check failed");
}

TEST(CheckMacros, PassesSilently) {
  HOTSPOT_CHECK(true);
  HOTSPOT_CHECK_LE(1, 1);
  HOTSPOT_CHECK_GT(2, 1);
}

}  // namespace
}  // namespace hotspot
