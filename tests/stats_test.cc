#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "stats/average_precision.h"
#include "stats/confidence.h"
#include "stats/correlation.h"
#include "stats/histogram.h"
#include "stats/ks_test.h"
#include "stats/percentile.h"
#include "stats/runlength.h"
#include "tensor/matrix.h"
#include "util/rng.h"

namespace hotspot {
namespace {

TEST(Histogram, BinningAndClamping) {
  Histogram hist(0.0, 1.0, 10);
  hist.Add(0.05);   // bin 0
  hist.Add(0.95);   // bin 9
  hist.Add(-5.0);   // clamped to bin 0
  hist.Add(5.0);    // clamped to bin 9
  hist.Add(std::nan(""));  // ignored
  EXPECT_EQ(hist.total(), 4);
  EXPECT_EQ(hist.count(0), 2);
  EXPECT_EQ(hist.count(9), 2);
  EXPECT_DOUBLE_EQ(hist.RelativeCount(0), 0.5);
}

TEST(Histogram, BinGeometry) {
  Histogram hist(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(hist.BinLow(1), 2.0);
  EXPECT_DOUBLE_EQ(hist.BinCenter(1), 3.0);
}

TEST(Histogram, ArgMaxBin) {
  Histogram hist(0.0, 1.0, 4);
  hist.Add(0.6);
  hist.Add(0.6);
  hist.Add(0.1);
  EXPECT_EQ(hist.ArgMaxBin(), 2);
}

TEST(Histogram, AsciiRendering) {
  Histogram hist(0.0, 1.0, 2);
  hist.Add(0.25);
  std::string ascii = hist.ToAscii(10);
  EXPECT_NE(ascii.find('#'), std::string::npos);
}

TEST(CountHistogram, CountsAndIgnoresOutOfRange) {
  CountHistogram hist(5);
  hist.Add(0);
  hist.Add(3);
  hist.Add(3);
  hist.Add(-1);  // ignored
  hist.Add(6);   // ignored
  EXPECT_EQ(hist.total(), 3);
  EXPECT_EQ(hist.count(3), 2);
  EXPECT_DOUBLE_EQ(hist.RelativeCount(3), 2.0 / 3.0);
}

TEST(CountHistogram, PeaksFindLocalMaxima) {
  CountHistogram hist(6);
  // Counts: 0,5,1,4,1,0,0 -> peaks at 1 and 3.
  for (int i = 0; i < 5; ++i) hist.Add(1);
  hist.Add(2);
  for (int i = 0; i < 4; ++i) hist.Add(3);
  hist.Add(4);
  std::vector<int> peaks = hist.Peaks(0.05);
  EXPECT_EQ(peaks, (std::vector<int>{1, 3}));
}

TEST(Percentile, KnownQuartiles) {
  std::vector<float> values = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 25.0), 2.0);
  // Interpolated.
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4}, 50.0), 2.5);
}

TEST(Percentile, DropsNaN) {
  std::vector<float> values = {MissingValue(), 10.0f, MissingValue(), 20.0f};
  EXPECT_DOUBLE_EQ(Percentile(values, 50.0), 15.0);
  EXPECT_TRUE(std::isnan(Percentile({MissingValue()}, 50.0)));
}

TEST(Percentile, MultiplePercentilesSingleSort) {
  std::vector<double> result =
      Percentiles({4, 1, 3, 2, 5}, {0.0, 50.0, 100.0});
  EXPECT_DOUBLE_EQ(result[0], 1.0);
  EXPECT_DOUBLE_EQ(result[1], 3.0);
  EXPECT_DOUBLE_EQ(result[2], 5.0);
}

TEST(Percentile, RadixSelectionMatchesTheSortAtEveryRank) {
  // Without signed zeros, the radix order and std::sort agree, so the
  // selection must give Percentiles()' bits at every point of a dense grid:
  // many ranks per bucket, ranks at both ends, and buckets crowded by ties,
  // infinities, subnormals and keys that share their top 16 bits.
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<double> grid;
  for (int step = 0; step <= 400; ++step) grid.push_back(step * 0.25);
  Rng rng(43);
  for (int n : {0, 1, 2, 5, 1000, 70001}) {
    std::vector<float> values(static_cast<size_t>(n));
    for (float& v : values) {
      const int64_t kind = rng.UniformInt(0, 6);
      v = kind == 0   ? std::nanf("")
          : kind == 1 ? (rng.Bernoulli(0.5) ? -inf : inf)
          : kind == 2 ? static_cast<float>(rng.UniformInt(-3, 3))
          : kind == 3 ? static_cast<float>(rng.UniformInt(1, 50)) * 1e-44f
          : kind == 4 ? 2.0f + static_cast<float>(rng.UniformInt(0, 99)) *
                                   0x1p-22f
                      : static_cast<float>(rng.Gaussian(0.0, 100.0));
    }
    const std::vector<double> expected = Percentiles(values, grid);
    const std::vector<double> selected = RadixPercentiles(values, grid);
    ASSERT_EQ(selected.size(), expected.size());
    for (size_t q = 0; q < grid.size(); ++q) {
      EXPECT_EQ(std::bit_cast<uint64_t>(selected[q]),
                std::bit_cast<uint64_t>(expected[q]))
          << "n " << n << " p " << grid[q];
    }
  }
}

TEST(Percentile, SummaryStats) {
  std::vector<float> values = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(values), 5.0);
  EXPECT_DOUBLE_EQ(StdDev(values), 2.0);
  EXPECT_DOUBLE_EQ(MinValue(values), 2.0);
  EXPECT_DOUBLE_EQ(MaxValue(values), 9.0);
  EXPECT_TRUE(std::isnan(Mean({})));
  EXPECT_TRUE(std::isnan(MinValue({MissingValue()})));
}

TEST(Correlation, PerfectPositiveAndNegative) {
  std::vector<float> x = {1, 2, 3, 4};
  std::vector<float> y = {2, 4, 6, 8};
  std::vector<float> z = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-9);
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-9);
}

TEST(Correlation, ConstantSeriesIsNaN) {
  std::vector<float> x = {1, 2, 3};
  std::vector<float> c = {5, 5, 5};
  EXPECT_TRUE(std::isnan(PearsonCorrelation(x, c)));
}

TEST(Correlation, SkipsNaNPairs) {
  std::vector<float> x = {1, MissingValue(), 2, 3};
  std::vector<float> y = {2, 100.0f, 4, 6};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-9);
}

TEST(Correlation, TooFewPairsIsNaN) {
  std::vector<float> x = {1.0f, MissingValue()};
  std::vector<float> y = {2.0f, 3.0f};
  EXPECT_TRUE(std::isnan(PearsonCorrelation(x, y)));
}

TEST(RunLength, BasicRuns) {
  std::vector<float> binary = {0, 1, 1, 0, 1, 1, 1, 0, 0, 1};
  EXPECT_EQ(RunLengthsOfOnes(binary), (std::vector<int>{2, 3, 1}));
}

TEST(RunLength, TrailingRunCounted) {
  EXPECT_EQ(RunLengthsOfOnes({1, 1}), (std::vector<int>{2}));
  EXPECT_TRUE(RunLengthsOfOnes({0, 0}).empty());
}

TEST(RunLength, NaNBreaksRun) {
  std::vector<float> binary = {1, MissingValue(), 1};
  EXPECT_EQ(RunLengthsOfOnes(binary), (std::vector<int>{1, 1}));
}

TEST(RunLength, CountOnesPerBlock) {
  std::vector<float> binary = {1, 0, 1, 1, 1, 0, 0, 0};
  EXPECT_EQ(CountOnesPerBlock(binary, 4), (std::vector<int>{3, 1}));
  // Trailing partial block dropped.
  EXPECT_EQ(CountOnesPerBlock(binary, 3), (std::vector<int>{2, 2}));
}

TEST(KsTest, IdenticalSamplesHaveHighP) {
  std::vector<double> a, b;
  for (int i = 0; i < 200; ++i) {
    a.push_back(i * 0.01);
    b.push_back(i * 0.01);
  }
  KsResult result = KolmogorovSmirnovTest(a, b);
  EXPECT_NEAR(result.statistic, 0.0, 1e-12);
  EXPECT_GT(result.p_value, 0.99);
}

TEST(KsTest, ShiftedSamplesHaveLowP) {
  std::vector<double> a, b;
  for (int i = 0; i < 200; ++i) {
    a.push_back(i * 0.01);
    b.push_back(i * 0.01 + 1.0);
  }
  KsResult result = KolmogorovSmirnovTest(a, b);
  EXPECT_GT(result.statistic, 0.4);
  EXPECT_LT(result.p_value, 0.001);
}

TEST(KsTest, StatisticExactOnTinySamples) {
  // F1 jumps at {1,2}, F2 jumps at {3,4}; max gap is 1.0.
  KsResult result = KolmogorovSmirnovTest({1, 2}, {3, 4});
  EXPECT_DOUBLE_EQ(result.statistic, 1.0);
}

TEST(KsTest, SymmetricInArguments) {
  std::vector<double> a = {0.1, 0.5, 0.9, 1.4, 2.0};
  std::vector<double> b = {0.2, 0.6, 1.1, 1.2};
  KsResult ab = KolmogorovSmirnovTest(a, b);
  KsResult ba = KolmogorovSmirnovTest(b, a);
  EXPECT_DOUBLE_EQ(ab.statistic, ba.statistic);
  EXPECT_DOUBLE_EQ(ab.p_value, ba.p_value);
}

TEST(KsTest, KolmogorovSurvivalReferenceValues) {
  // Q(λ) reference values of the Kolmogorov distribution.
  EXPECT_NEAR(KolmogorovSurvival(0.5), 0.9639, 1e-3);
  EXPECT_NEAR(KolmogorovSurvival(1.0), 0.2700, 1e-3);
  EXPECT_NEAR(KolmogorovSurvival(1.36), 0.0491, 1e-3);
  EXPECT_DOUBLE_EQ(KolmogorovSurvival(0.0), 1.0);
}

TEST(KsTest, HeavyTiesFromSameDistribution) {
  // Discrete samples with many ties (counter-style KPIs): two draws of the
  // same support must not look different.
  std::vector<double> a, b;
  for (int i = 0; i < 120; ++i) {
    a.push_back(i % 4);
    b.push_back((i + 1) % 4);
  }
  KsResult result = KolmogorovSmirnovTest(a, b);
  EXPECT_LT(result.statistic, 0.05);
  EXPECT_GT(result.p_value, 0.5);
}

TEST(KsTest, AllIdenticalValuesInBothSamples) {
  // Degenerate but legal: a constant channel (e.g. a KPI pinned at 0)
  // compared against its own fingerprint. Zero evidence of drift.
  std::vector<double> a(50, 3.25);
  std::vector<double> b(40, 3.25);
  KsResult result = KolmogorovSmirnovTest(a, b);
  EXPECT_DOUBLE_EQ(result.statistic, 0.0);
  EXPECT_GT(result.p_value, 0.99);
}

TEST(KsTest, ConstantSamplesAtDifferentValues) {
  // Two different constants: maximal statistic, decisive p with enough
  // samples.
  std::vector<double> a(64, 0.0);
  std::vector<double> b(64, 1.0);
  KsResult result = KolmogorovSmirnovTest(a, b);
  EXPECT_DOUBLE_EQ(result.statistic, 1.0);
  EXPECT_LT(result.p_value, 1e-6);
}

TEST(KsTest, TinyWindowsStayConservative) {
  // Below ~8 samples the asymptotic p-value must stay well-behaved: in
  // [0, 1], and not significant for overlapping draws.
  for (int n = 1; n < 8; ++n) {
    std::vector<double> a, b;
    for (int i = 0; i < n; ++i) {
      a.push_back(i);
      b.push_back(i + 0.5);
    }
    KsResult result = KolmogorovSmirnovTest(a, b);
    EXPECT_GE(result.p_value, 0.0) << n;
    EXPECT_LE(result.p_value, 1.0) << n;
    EXPECT_GE(result.statistic, 0.0) << n;
    EXPECT_LE(result.statistic, 1.0) << n;
    if (n > 1) EXPECT_GT(result.p_value, 0.05) << n;
  }
}

TEST(KsTest, MaskedVariantDropsNaN) {
  // NaN-padded inputs must give exactly the all-finite answer.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> a, b, a_masked, b_masked;
  for (int i = 0; i < 100; ++i) {
    a.push_back(i * 0.02);
    b.push_back(i * 0.02 + 0.8);
    a_masked.push_back(a.back());
    b_masked.push_back(b.back());
    if (i % 5 == 0) a_masked.push_back(nan);
    if (i % 7 == 0) {
      b_masked.push_back(nan);
      b_masked.push_back(std::numeric_limits<double>::infinity());
    }
  }
  KsResult clean = KolmogorovSmirnovTest(a, b);
  KsResult masked = KolmogorovSmirnovTestMasked(a_masked, b_masked);
  EXPECT_DOUBLE_EQ(masked.statistic, clean.statistic);
  EXPECT_DOUBLE_EQ(masked.p_value, clean.p_value);
}

TEST(KsTest, MaskedVariantWithNoFiniteDataIsNoEvidence) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> all_nan(16, nan);
  std::vector<double> finite = {0.0, 1.0, 2.0};
  for (const auto& [a, b] :
       {std::pair(all_nan, finite), std::pair(finite, all_nan),
        std::pair(all_nan, all_nan),
        std::pair(std::vector<double>{}, finite)}) {
    KsResult result = KolmogorovSmirnovTestMasked(a, b);
    EXPECT_DOUBLE_EQ(result.statistic, 0.0);
    EXPECT_DOUBLE_EQ(result.p_value, 1.0);
  }
}

TEST(AveragePrecision, PerfectRankingIsOne) {
  std::vector<float> labels = {1, 1, 0, 0};
  std::vector<float> scores = {0.9f, 0.8f, 0.2f, 0.1f};
  EXPECT_DOUBLE_EQ(AveragePrecision(labels, scores), 1.0);
}

TEST(AveragePrecision, WorstRanking) {
  // Positives ranked last: AP = (1/3 + 2/4) / 2.
  std::vector<float> labels = {0, 0, 1, 1};
  std::vector<float> scores = {0.9f, 0.8f, 0.2f, 0.1f};
  EXPECT_NEAR(AveragePrecision(labels, scores), (1.0 / 3.0 + 0.5) / 2.0,
              1e-12);
}

TEST(AveragePrecision, MatchesSklearnExample) {
  // sklearn.metrics.average_precision_score([0,0,1,1],[0.1,0.4,0.35,0.8])
  // = 0.8333...
  std::vector<float> labels = {0, 0, 1, 1};
  std::vector<float> scores = {0.1f, 0.4f, 0.35f, 0.8f};
  EXPECT_NEAR(AveragePrecision(labels, scores), 0.8333333333, 1e-9);
}

TEST(AveragePrecision, NoPositivesIsNaN) {
  EXPECT_TRUE(std::isnan(AveragePrecision({0, 0}, {0.5f, 0.6f})));
}

TEST(AveragePrecision, TiesAreGrouped) {
  // Two tied scores, one positive: precision evaluated at the group end,
  // invariant to the order of the tied items.
  std::vector<float> labels_a = {1, 0};
  std::vector<float> labels_b = {0, 1};
  std::vector<float> scores = {0.5f, 0.5f};
  double ap_a = AveragePrecision(labels_a, scores);
  double ap_b = AveragePrecision(labels_b, scores);
  EXPECT_DOUBLE_EQ(ap_a, ap_b);
  EXPECT_DOUBLE_EQ(ap_a, 0.5);
}

TEST(AveragePrecision, AllTiedEqualsPrevalence) {
  std::vector<float> labels = {1, 0, 0, 0};
  std::vector<float> scores(4, 0.7f);
  EXPECT_DOUBLE_EQ(AveragePrecision(labels, scores), 0.25);
}

TEST(PrecisionRecall, CurveShape) {
  std::vector<float> labels = {1, 0, 1, 0};
  std::vector<float> scores = {0.9f, 0.7f, 0.6f, 0.1f};
  std::vector<PrPoint> curve = PrecisionRecallCurve(labels, scores);
  ASSERT_EQ(curve.size(), 4u);
  EXPECT_DOUBLE_EQ(curve[0].recall, 0.5);
  EXPECT_DOUBLE_EQ(curve[0].precision, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().recall, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().precision, 0.5);
}

TEST(PrecisionRecall, EmptyWithoutPositives) {
  EXPECT_TRUE(PrecisionRecallCurve({0, 0}, {0.1f, 0.2f}).empty());
}

TEST(Lift, RatioAndDegenerate) {
  EXPECT_DOUBLE_EQ(Lift(0.4, 0.1), 4.0);
  EXPECT_TRUE(std::isnan(Lift(0.4, 0.0)));
}

TEST(RelativeImprovement, MatchesPaperFormula) {
  // ∆ = 100(Λj/Λi − 1).
  EXPECT_NEAR(RelativeImprovement(10.0, 11.4), 14.0, 1e-9);
  EXPECT_DOUBLE_EQ(RelativeImprovement(2.0, 1.0), -50.0);
  EXPECT_TRUE(std::isnan(RelativeImprovement(0.0, 1.0)));
}

TEST(MeanCi, BasicInterval) {
  MeanCi ci = MeanWithCi95({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(ci.mean, 3.0);
  EXPECT_EQ(ci.count, 5);
  EXPECT_LT(ci.ci_low, 3.0);
  EXPECT_GT(ci.ci_high, 3.0);
  EXPECT_NEAR(ci.ci_high - ci.mean, 1.96 * std::sqrt(2.5) / std::sqrt(5.0),
              1e-9);
}

TEST(MeanCi, HandlesNaNAndSingletons) {
  MeanCi ci = MeanWithCi95({2.0, std::nan("")});
  EXPECT_EQ(ci.count, 1);
  EXPECT_DOUBLE_EQ(ci.mean, 2.0);
  EXPECT_DOUBLE_EQ(ci.ci_low, 2.0);
  MeanCi empty = MeanWithCi95({});
  EXPECT_EQ(empty.count, 0);
  EXPECT_TRUE(std::isnan(empty.mean));
}

}  // namespace
}  // namespace hotspot
