#include "core/shape.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/error.h"

namespace fluid::core {
namespace {

TEST(ShapeTest, DefaultIsRankZeroWithOneElement) {
  Shape s;
  EXPECT_EQ(s.rank(), 0u);
  EXPECT_EQ(s.numel(), 1);
}

TEST(ShapeTest, NumelIsProductOfDims) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.numel(), 24);
}

TEST(ShapeTest, ZeroExtentGivesZeroNumel) {
  Shape s{4, 0, 7};
  EXPECT_EQ(s.numel(), 0);
}

TEST(ShapeTest, NegativeExtentThrows) {
  EXPECT_THROW(Shape({2, -1}), Error);
}

TEST(ShapeTest, DimSupportsNegativeAxes) {
  Shape s{5, 6, 7};
  EXPECT_EQ(s.dim(0), 5);
  EXPECT_EQ(s.dim(-1), 7);
  EXPECT_EQ(s.dim(-3), 5);
  EXPECT_THROW(s.dim(3), Error);
  EXPECT_THROW(s.dim(-4), Error);
}

TEST(ShapeTest, StridesAreRowMajor) {
  Shape s{2, 3, 4};
  const auto strides = s.Strides();
  ASSERT_EQ(strides.size(), 3u);
  EXPECT_EQ(strides[0], 12);
  EXPECT_EQ(strides[1], 4);
  EXPECT_EQ(strides[2], 1);
}

TEST(ShapeTest, OffsetMatchesStrides) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.Offset({0, 0, 0}), 0);
  EXPECT_EQ(s.Offset({1, 2, 3}), 23);
  EXPECT_EQ(s.Offset({1, 0, 2}), 14);
}

TEST(ShapeTest, OffsetChecksBounds) {
  Shape s{2, 3};
  EXPECT_THROW(s.Offset({2, 0}), Error);
  EXPECT_THROW(s.Offset({0, 3}), Error);
  EXPECT_THROW(s.Offset({0}), Error);
}

TEST(ShapeTest, EqualityComparesDims) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
  EXPECT_NE(Shape({2, 3}), Shape({2, 3, 1}));
}

TEST(ShapeTest, ToStringIsReadable) {
  EXPECT_EQ(Shape({1, 28, 28}).ToString(), "[1, 28, 28]");
  EXPECT_EQ(Shape{}.ToString(), "[]");
}

TEST(CheckedNumelTest, ProductOfUntrustedDims) {
  const std::vector<std::int64_t> ok = {2, 3, 4};
  ASSERT_TRUE(CheckedNumel(ok).ok());
  EXPECT_EQ(*CheckedNumel(ok), 24);
  EXPECT_EQ(*CheckedNumel(std::vector<std::int64_t>{}), 1);
  EXPECT_EQ(*CheckedNumel(std::vector<std::int64_t>{0, INT64_MAX}), 0);
}

TEST(CheckedNumelTest, OverflowAndNegativeDimsAreDataLoss) {
  const std::vector<std::int64_t> wraps = {INT64_MAX / 2, 3};
  EXPECT_EQ(CheckedNumel(wraps).status().code(), StatusCode::kDataLoss);
  const std::vector<std::int64_t> wraps_to_small = {
      std::int64_t{1} << 32, std::int64_t{1} << 32, 4};
  EXPECT_EQ(CheckedNumel(wraps_to_small).status().code(),
            StatusCode::kDataLoss);
  const std::vector<std::int64_t> negative = {4, -1};
  EXPECT_EQ(CheckedNumel(negative).status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace fluid::core
