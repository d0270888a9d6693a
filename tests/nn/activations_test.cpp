#include "nn/activations.h"

#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/error.h"

namespace fluid::nn {
namespace {

TEST(ReLUTest, ClampsNegativesToZero) {
  ReLU relu;
  core::Tensor x(core::Shape{4}, {-1.0F, 0.0F, 2.0F, -0.5F});
  core::Tensor y = relu.Forward(x, false);
  EXPECT_EQ(y.at(0), 0.0F);
  EXPECT_EQ(y.at(1), 0.0F);
  EXPECT_EQ(y.at(2), 2.0F);
  EXPECT_EQ(y.at(3), 0.0F);
}

TEST(ReLUTest, BackwardGatesByInputSign) {
  ReLU relu;
  core::Tensor x(core::Shape{3}, {-1.0F, 0.5F, 3.0F});
  relu.Forward(x, true);
  core::Tensor g(core::Shape{3}, {10.0F, 10.0F, 10.0F});
  core::Tensor gi = relu.Backward(g);
  EXPECT_EQ(gi.at(0), 0.0F);
  EXPECT_EQ(gi.at(1), 10.0F);
  EXPECT_EQ(gi.at(2), 10.0F);
}

TEST(ReLUTest, BackwardWithoutForwardThrows) {
  ReLU relu;
  EXPECT_THROW(relu.Backward(core::Tensor({2})), core::Error);
}

TEST(ReLUTest, HasNoParams) {
  ReLU relu;
  EXPECT_TRUE(relu.Params().empty());
}

// The activations run as vector selects; every value — NaN of either
// sign, ±inf, ±0, denormals — must come out with exactly the bits of the
// scalar ternary, in whole blocks and in the scalar tail alike.
TEST(ActivationParityTest, SelectsMatchTheTernaryBitwiseOnSpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float fmin = std::numeric_limits<float>::min();
  const std::vector<float> specials = {
      nan,    -nan,         inf,     -inf,     0.0F,     -0.0F,
      denorm, -denorm,      fmin / 2, -fmin / 2, fmin,   -fmin,
      1.5F,   -1.5F,        3.4e38F, -3.4e38F, 1e-30F, -1e-30F};
  auto same_bits = [](float a, float b) {
    return std::memcmp(&a, &b, sizeof(float)) == 0;
  };
  // 3 full blocks plus a ragged tail of every special value.
  const std::int64_t n = 3 * 16 + 11;
  core::Tensor x({n});
  for (std::int64_t i = 0; i < n; ++i) {
    x.at(i) = specials[static_cast<std::size_t>(i) % specials.size()];
  }
  for (const float slope : {0.0F, 0.01F, 0.5F}) {
    LeakyReLU leaky(slope);
    const core::Tensor fwd = leaky.Forward(x, false);
    const core::Tensor inf_path = leaky.ForwardInference(x.Clone());
    for (std::int64_t i = 0; i < n; ++i) {
      const float v = x.at(i);
      const float want = v > 0.0F ? v : slope * v;
      EXPECT_TRUE(same_bits(fwd.at(i), want)) << "leaky " << slope << " @" << i;
      EXPECT_TRUE(same_bits(inf_path.at(i), want))
          << "leaky inference " << slope << " @" << i;
    }
  }
  ReLU relu;
  const core::Tensor fwd = relu.Forward(x, false);
  const core::Tensor inf_path = relu.ForwardInference(x.Clone());
  for (std::int64_t i = 0; i < n; ++i) {
    const float v = x.at(i);
    const float want = v > 0.0F ? v : 0.0F;
    EXPECT_TRUE(same_bits(fwd.at(i), want)) << "relu @" << i;
    EXPECT_TRUE(same_bits(inf_path.at(i), want)) << "relu inference @" << i;
  }
}

}  // namespace
}  // namespace fluid::nn
