#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

#include "gtest/gtest.h"
#include "tensor/matrix.h"
#include "tensor/storage.h"
#include "tensor/temporal.h"
#include "tensor/tensor3.h"

namespace hotspot {
namespace {

/// Writes distinct bits into every cell: -0, NaNs with distinct payloads
/// and ordinary values, which only a bitwise copy carries unchanged.
void WriteDistinctBits(std::span<float> cells) {
  for (size_t c = 0; c < cells.size(); ++c) {
    const uint32_t bits =
        c == 0       ? 0x80000000u
        : c % 2 == 1 ? 0x7fc00000u | static_cast<uint32_t>(c)
                     : std::bit_cast<uint32_t>(static_cast<float>(c));
    cells[c] = std::bit_cast<float>(bits);
  }
}

bool SameBits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Cells of `cells` whose bits are `value`'s.
size_t CountBits(std::span<const float> cells, float value) {
  return static_cast<size_t>(
      std::count_if(cells.begin(), cells.end(), [&](float cell) {
        return std::bit_cast<uint32_t>(cell) == std::bit_cast<uint32_t>(value);
      }));
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix<float> m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_FLOAT_EQ(m(1, 2), 1.5f);
  m(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(m.At(1, 2), 7.0f);
}

TEST(Matrix, RowPointerIsContiguous) {
  Matrix<int> m(3, 4);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) m(r, c) = r * 10 + c;
  }
  const int* row1 = m.Row(1);
  for (int c = 0; c < 4; ++c) EXPECT_EQ(row1[c], 10 + c);
}

TEST(Matrix, RowAndColVectors) {
  Matrix<float> m(2, 3);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(0, 2) = 3;
  m(1, 0) = 4;
  m(1, 1) = 5;
  m(1, 2) = 6;
  EXPECT_EQ(m.RowVector(1), (std::vector<float>{4, 5, 6}));
  EXPECT_EQ(m.ColVector(2), (std::vector<float>{3, 6}));
}

TEST(Matrix, FillOverwrites) {
  Matrix<float> m(2, 2, 1.0f);
  m.Fill(9.0f);
  for (float v : m.data()) EXPECT_FLOAT_EQ(v, 9.0f);
}

TEST(Matrix, OutOfBoundsDies) {
  Matrix<float> m(2, 2);
  EXPECT_DEATH(m(2, 0), "Check failed");
  EXPECT_DEATH(m(0, -1), "Check failed");
}

TEST(Matrix, MissingValueHelpers) {
  EXPECT_TRUE(IsMissing(MissingValue()));
  EXPECT_FALSE(IsMissing(0.0f));
  EXPECT_FALSE(IsMissing(-1e30f));
}

TEST(Tensor3, ShapeAndIndexing) {
  Tensor3<float> t(2, 3, 4, 0.5f);
  EXPECT_EQ(t.dim0(), 2);
  EXPECT_EQ(t.dim1(), 3);
  EXPECT_EQ(t.dim2(), 4);
  EXPECT_EQ(t.size(), 24u);
  t(1, 2, 3) = 8.0f;
  EXPECT_FLOAT_EQ(t.At(1, 2, 3), 8.0f);
  EXPECT_FLOAT_EQ(t(0, 0, 0), 0.5f);
}

TEST(Tensor3, SliceIsContiguousFeatureVector) {
  Tensor3<float> t(2, 2, 3);
  for (int k = 0; k < 3; ++k) t(1, 0, k) = static_cast<float>(k);
  const float* slice = t.Slice(1, 0);
  for (int k = 0; k < 3; ++k) EXPECT_FLOAT_EQ(slice[k], k);
}

TEST(Tensor3, TimeSeriesExtraction) {
  Tensor3<float> t(1, 5, 2);
  for (int j = 0; j < 5; ++j) t(0, j, 1) = static_cast<float>(j * j);
  std::vector<float> series = t.TimeSeries(0, 1, 1, 4);
  ASSERT_EQ(series.size(), 3u);
  EXPECT_FLOAT_EQ(series[0], 1.0f);
  EXPECT_FLOAT_EQ(series[2], 9.0f);
}

TEST(Tensor3, SectorSlab) {
  Tensor3<float> t(2, 4, 2);
  for (int j = 0; j < 4; ++j) {
    t(1, j, 0) = static_cast<float>(j);
    t(1, j, 1) = static_cast<float>(10 + j);
  }
  Matrix<float> slab = t.SectorSlab(1, 1, 3);
  EXPECT_EQ(slab.rows(), 2);
  EXPECT_EQ(slab.cols(), 2);
  EXPECT_FLOAT_EQ(slab(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(slab(1, 1), 12.0f);
}

TEST(Tensor3, UnfilledConstructorsGiveTheShape) {
  Tensor3<float> t(3, 5, 7, kUninitialized);
  EXPECT_EQ(t.dim0(), 3);
  EXPECT_EQ(t.dim1(), 5);
  EXPECT_EQ(t.dim2(), 7);
  EXPECT_EQ(t.size(), 105u);
  EXPECT_EQ(t.data().size(), 105u);
  EXPECT_EQ(t.Slice(2, 4) - t.Slice(0, 0), (2 * 5 + 4) * 7);
  Matrix<float> m(4, 6, kUninitialized);
  EXPECT_EQ(m.rows(), 4);
  EXPECT_EQ(m.cols(), 6);
  EXPECT_EQ(m.size(), 24u);
  EXPECT_EQ(m.Row(3) - m.Row(0), 18);
  EXPECT_EQ(Tensor3<float>(0, 5, 7, kUninitialized).size(), 0u);
  EXPECT_EQ(Matrix<float>(4, 0, kUninitialized).size(), 0u);
}

TEST(Tensor3, CopyAndMoveOfUnfilledStorageCarryEveryCellBitwise) {
  Tensor3<float> t(3, 4, 5, kUninitialized);
  WriteDistinctBits(t.data());
  Tensor3<float> copy = t;
  EXPECT_TRUE(SameBits(copy.data(), t.data()));
  Tensor3<float> assigned;
  assigned = t;
  EXPECT_TRUE(SameBits(assigned.data(), t.data()));
  // Over a larger tensor (the cells fit its buffer) and a smaller one (they
  // need a new buffer), and onto itself.
  Tensor3<float> larger(4, 5, 6, 7.0f);
  larger = t;
  EXPECT_TRUE(SameBits(larger.data(), t.data()));
  Tensor3<float> smaller(1, 1, 2, 7.0f);
  smaller = t;
  EXPECT_TRUE(SameBits(smaller.data(), t.data()));
  const Tensor3<float>& same = assigned;
  assigned = same;
  EXPECT_TRUE(SameBits(assigned.data(), t.data()));
  Tensor3<float> moved = std::move(copy);
  EXPECT_EQ(moved.dim0(), 3);
  EXPECT_EQ(moved.dim1(), 4);
  EXPECT_EQ(moved.dim2(), 5);
  EXPECT_TRUE(SameBits(moved.data(), t.data()));

  Matrix<float> m(6, 7, kUninitialized);
  WriteDistinctBits(m.data());
  Matrix<float> m_copy = m;
  EXPECT_TRUE(SameBits(m_copy.data(), m.data()));
  Matrix<float> m_moved;
  m_moved = std::move(m_copy);
  EXPECT_EQ(m_moved.rows(), 6);
  EXPECT_EQ(m_moved.cols(), 7);
  EXPECT_TRUE(SameBits(m_moved.data(), m.data()));
}

TEST(Tensor3, ValueConstructorsStillFill) {
  // Unfilled blocks of the same sizes, written and freed first, leave
  // nonzero bits for the allocator to hand back.
  {
    Tensor3<float> t(3, 4, 5, kUninitialized);
    WriteDistinctBits(t.data());
    Matrix<float> m(6, 7, kUninitialized);
    WriteDistinctBits(m.data());
  }
  Tensor3<float> zeros(3, 4, 5);
  EXPECT_EQ(CountBits(zeros.data(), 0.0f), zeros.size());
  Tensor3<float> filled(3, 4, 5, 2.5f);
  EXPECT_EQ(CountBits(filled.data(), 2.5f), filled.size());
  Matrix<float> m_zeros(6, 7);
  EXPECT_EQ(CountBits(m_zeros.data(), 0.0f), m_zeros.size());
  Matrix<float> m_filled(6, 7, -0.0f);
  EXPECT_EQ(CountBits(m_filled.data(), -0.0f), m_filled.size());
}

TEST(Tensor3, FillSetsEveryCellOfUnfilledStorage) {
  Tensor3<float> t(3, 4, 5, kUninitialized);
  t.Fill(-1.25f);
  EXPECT_EQ(CountBits(t.data(), -1.25f), t.size());
  Matrix<float> m(6, 7, kUninitialized);
  m.Fill(0.0f);
  EXPECT_EQ(CountBits(m.data(), 0.0f), m.size());
}

TEST(Temporal, IntegrationHoursConstants) {
  EXPECT_EQ(IntegrationHours(Resolution::kHourly), 1);
  EXPECT_EQ(IntegrationHours(Resolution::kDaily), 24);
  EXPECT_EQ(IntegrationHours(Resolution::kWeekly), 168);
}

TEST(Temporal, TrailingMeanBasic) {
  std::vector<float> z = {1, 2, 3, 4, 5};
  // Window of 3 ending at (and including) index 4: mean(3, 4, 5).
  EXPECT_DOUBLE_EQ(TrailingMean(4, 3, z), 4.0);
  // Window of 1: just the sample.
  EXPECT_DOUBLE_EQ(TrailingMean(2, 1, z), 3.0);
}

TEST(Temporal, TrailingMeanClipsAtBoundaries) {
  std::vector<float> z = {2, 4, 6};
  // Window of 5 ending at index 1 only covers indices 0..1.
  EXPECT_DOUBLE_EQ(TrailingMean(1, 5, z), 3.0);
  // Entirely out of range -> NaN.
  EXPECT_TRUE(std::isnan(TrailingMean(-1, 1, z)));
  EXPECT_TRUE(std::isnan(TrailingMean(10, 2, z)));
}

TEST(Temporal, TrailingMeanSkipsNaN) {
  std::vector<float> z = {1.0f, MissingValue(), 3.0f};
  EXPECT_DOUBLE_EQ(TrailingMean(2, 3, z), 2.0);
  std::vector<float> all_missing = {MissingValue(), MissingValue()};
  EXPECT_TRUE(std::isnan(TrailingMean(1, 2, all_missing)));
}

TEST(Temporal, IntegrateScoresDaily) {
  Matrix<float> hourly(1, 48);
  for (int j = 0; j < 24; ++j) hourly(0, j) = 1.0f;
  for (int j = 24; j < 48; ++j) hourly(0, j) = 3.0f;
  Matrix<float> daily = IntegrateScores(hourly, Resolution::kDaily);
  ASSERT_EQ(daily.cols(), 2);
  EXPECT_FLOAT_EQ(daily(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(daily(0, 1), 3.0f);
}

TEST(Temporal, IntegrateScoresWeeklyDropsPartialWeek) {
  Matrix<float> hourly(1, 168 + 24, 2.0f);
  Matrix<float> weekly = IntegrateScores(hourly, Resolution::kWeekly);
  EXPECT_EQ(weekly.cols(), 1);
  EXPECT_FLOAT_EQ(weekly(0, 0), 2.0f);
}

TEST(Temporal, IntegrateScoresIgnoresNaN) {
  Matrix<float> hourly(1, 24, 5.0f);
  hourly(0, 3) = MissingValue();
  Matrix<float> daily = IntegrateScores(hourly, Resolution::kDaily);
  EXPECT_FLOAT_EQ(daily(0, 0), 5.0f);
}

TEST(Temporal, IntegrateScoresAllNaNWindowIsNaN) {
  Matrix<float> hourly(1, 24, MissingValue());
  Matrix<float> daily = IntegrateScores(hourly, Resolution::kDaily);
  EXPECT_TRUE(IsMissing(daily(0, 0)));
}

TEST(Temporal, UpsampleTimeRepeatsValues) {
  Matrix<float> coarse(1, 2);
  coarse(0, 0) = 1.0f;
  coarse(0, 1) = 2.0f;
  Matrix<float> fine = UpsampleTime(coarse, 3);
  ASSERT_EQ(fine.cols(), 6);
  EXPECT_FLOAT_EQ(fine(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(fine(0, 2), 1.0f);
  EXPECT_FLOAT_EQ(fine(0, 3), 2.0f);
  EXPECT_FLOAT_EQ(fine(0, 5), 2.0f);
}

TEST(Temporal, UpsampleVector) {
  std::vector<float> fine = UpsampleVector({1.0f, 2.0f}, 2);
  EXPECT_EQ(fine, (std::vector<float>{1.0f, 1.0f, 2.0f, 2.0f}));
}

TEST(Temporal, IntegrationInverseOfUpsample) {
  // Integrating an upsampled series recovers the original.
  Matrix<float> coarse(2, 3);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) coarse(i, j) = static_cast<float>(i + j);
  }
  Matrix<float> fine = UpsampleTime(coarse, 24);
  Matrix<float> back = IntegrateScores(fine, Resolution::kDaily);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(back(i, j), coarse(i, j));
  }
}

}  // namespace
}  // namespace hotspot
