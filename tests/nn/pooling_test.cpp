#include "nn/pooling.h"

#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "core/error.h"
#include "core/rng.h"

namespace fluid::nn {
namespace {

TEST(MaxPool2dTest, PicksWindowMaxima) {
  MaxPool2d pool(2);
  core::Tensor x(core::Shape{1, 1, 4, 4},
                 {1,  2,  5,  4,
                  3,  0,  1,  2,
                  9,  8,  0,  0,
                  7,  6,  0, 10});
  core::Tensor y = pool.Forward(x, false);
  ASSERT_EQ(y.shape(), core::Shape({1, 1, 2, 2}));
  EXPECT_EQ(y.at(0), 3.0F);
  EXPECT_EQ(y.at(1), 5.0F);
  EXPECT_EQ(y.at(2), 9.0F);
  EXPECT_EQ(y.at(3), 10.0F);
}

TEST(MaxPool2dTest, OddExtentFloorsAndIgnoresTail) {
  MaxPool2d pool(2);
  // 5x5 input → 2x2 output; row/col 4 are never read.
  core::Tensor x({1, 1, 5, 5});
  x({0, 0, 4, 4}) = 100.0F;
  core::Tensor y = pool.Forward(x, false);
  ASSERT_EQ(y.shape(), core::Shape({1, 1, 2, 2}));
  for (const float v : y.data()) EXPECT_EQ(v, 0.0F);
}

TEST(MaxPool2dTest, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  core::Tensor x(core::Shape{1, 1, 2, 2}, {1, 4, 2, 3});
  pool.Forward(x, true);
  core::Tensor g(core::Shape{1, 1, 1, 1}, {5.0F});
  core::Tensor gi = pool.Backward(g);
  EXPECT_EQ(gi.at(0), 0.0F);
  EXPECT_EQ(gi.at(1), 5.0F);  // the max location
  EXPECT_EQ(gi.at(2), 0.0F);
  EXPECT_EQ(gi.at(3), 0.0F);
}

TEST(MaxPool2dTest, TieBreaksToFirstSeen) {
  MaxPool2d pool(2);
  core::Tensor x(core::Shape{1, 1, 2, 2}, {7, 7, 7, 7});
  pool.Forward(x, true);
  core::Tensor g(core::Shape{1, 1, 1, 1}, {1.0F});
  core::Tensor gi = pool.Backward(g);
  EXPECT_EQ(gi.at(0), 1.0F);
  EXPECT_EQ(gi.at(1) + gi.at(2) + gi.at(3), 0.0F);
}

TEST(MaxPool2dTest, WindowLargerThanInputThrows) {
  MaxPool2d pool(4);
  EXPECT_THROW(pool.Forward(core::Tensor({1, 1, 2, 2}), false), core::Error);
}

TEST(MaxPool2dTest, BackwardWithoutForwardThrows) {
  MaxPool2d pool(2);
  EXPECT_THROW(pool.Backward(core::Tensor({1, 1, 1, 1})), core::Error);
}

TEST(MaxPool2dTest, PerChannelIndependence) {
  MaxPool2d pool(2);
  core::Tensor x({1, 2, 2, 2});
  x({0, 0, 0, 0}) = 1.0F;
  x({0, 1, 1, 1}) = 2.0F;
  core::Tensor y = pool.Forward(x, false);
  EXPECT_EQ(y({0, 0, 0, 0}), 1.0F);
  EXPECT_EQ(y({0, 1, 0, 0}), 2.0F);
}

TEST(MaxPool2dTest, InferenceFastPathMatchesTheGenericLoopBitwise) {
  // The 2x2 inference path must reproduce the generic window loop (run
  // here through a training Forward) bit for bit — NaNs, infinities,
  // ties (+0 vs -0 included), whole windows at or below the -3.4e38
  // floor, and odd extents where the last row and column are dropped.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float below_floor = -std::numeric_limits<float>::max();
  const float specials[] = {nan,  inf,      -inf,        0.0F,
                            -0.0F, -3.4e38F, below_floor, 1.0F,
                            1.0F, std::numeric_limits<float>::denorm_min()};
  const std::int64_t extents[][4] = {
      {8, 16, 28, 28}, {1, 16, 28, 28}, {2, 3, 5, 7}, {1, 1, 3, 3},
      {3, 2, 2, 9},    {1, 4, 11, 4}};
  core::Rng rng(41);
  for (const auto& e : extents) {
    core::Tensor x = core::Tensor::UniformRandom(
        core::Shape{e[0], e[1], e[2], e[3]}, rng, -2.0F, 2.0F);
    auto d = x.data();
    for (std::size_t i = 0; i < d.size(); ++i) {
      // Most elements become special values; ties come from the
      // repeated entries and from truncating some of the rest.
      const auto pick = rng.NextU64() % 16;
      if (pick < std::size(specials)) {
        d[i] = specials[pick];
      } else if (pick == 15) {
        d[i] = static_cast<float>(static_cast<int>(d[i]));
      }
    }
    // The first window lies entirely at or below the floor, the second
    // is entirely NaN.
    const auto w = static_cast<std::size_t>(e[3]);
    d[0] = -inf;
    d[1] = -3.4e38F;
    d[w] = below_floor;
    d[w + 1] = std::numeric_limits<float>::lowest();
    if (w >= 4) d[2] = d[3] = d[w + 2] = d[w + 3] = nan;
    MaxPool2d generic(2), fast(2);
    const core::Tensor want = generic.Forward(x, /*training=*/true);
    const core::Tensor got = fast.Forward(x, /*training=*/false);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                          static_cast<std::size_t>(got.numel()) * sizeof(float)),
              0)
        << "shape " << x.shape().ToString();
    EXPECT_EQ(got.at(0), -3.4e38F);  // the window at or below the floor
    if (w >= 4) {
      EXPECT_EQ(got.at(1), -3.4e38F);  // the all-NaN window
    }
  }
}

}  // namespace
}  // namespace fluid::nn
