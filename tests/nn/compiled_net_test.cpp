// CompiledNet parity: every plan's output must equal
// Sequential::Forward(x, false) BIT FOR BIT on the same SIMD tier — the
// direct kernels reproduce the im2col + GEMM path's per-element arithmetic,
// so any difference is a bug, not rounding. Covered: every paper subnet,
// the HA halves at each cut, batch sizes 1..64, every tier this host
// supports (auto, avx2, scalar), 1 and 4 threads, and inputs/biases full
// of NaN, ±inf, ±0 and denormals.

#include "nn/compiled_net.h"

#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/error.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/simd/gemm_kernel.h"
#include "core/tensor_ops.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/pooling.h"
#include "slim/fluid_model.h"
#include "train/model_zoo.h"

namespace fluid::nn {
namespace {

namespace simd = core::simd;

// Restores the active GEMM tier and the thread count on scope exit.
class TierAndThreadsGuard {
 public:
  TierAndThreadsGuard()
      : kernel_(&simd::ActiveGemmKernel()), threads_(core::NumThreads()) {}
  ~TierAndThreadsGuard() {
    simd::SetGemmKernelForTesting(kernel_);
    core::SetNumThreads(threads_);
  }
  TierAndThreadsGuard(const TierAndThreadsGuard&) = delete;
  TierAndThreadsGuard& operator=(const TierAndThreadsGuard&) = delete;

 private:
  const simd::GemmKernel* kernel_;
  int threads_;
};

// The auto-resolved tier plus every other tier this host can run.
std::vector<const simd::GemmKernel*> TiersToTest() {
  std::vector<const simd::GemmKernel*> tiers{simd::ResolveGemmKernel(nullptr)};
  for (const simd::GemmKernel* k : simd::AllGemmKernels()) {
    if (k->supported() && k != tiers.front()) tiers.push_back(k);
  }
  return tiers;
}

::testing::AssertionResult BitwiseEqual(const core::Tensor& want,
                                        const core::Tensor& got) {
  if (want.shape() != got.shape()) {
    return ::testing::AssertionFailure() << "shape " << got.shape().ToString()
                                         << " != " << want.shape().ToString();
  }
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    const float a = want.at(i), b = got.at(i);
    if (std::memcmp(&a, &b, sizeof(float)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << b << " != " << a
             << " (bits differ)";
    }
  }
  return ::testing::AssertionSuccess();
}

// A model under test: built twice (reference + the copy the plan owns).
struct Case {
  std::string name;
  std::function<Sequential()> build;
  core::Shape row_shape;  // one sample, without the batch axis
};

core::Tensor RandomBatch(const core::Shape& row_shape, std::int64_t batch,
                         core::Rng& rng) {
  std::vector<std::int64_t> dims{batch};
  for (std::size_t i = 0; i < row_shape.rank(); ++i) {
    dims.push_back(row_shape[i]);
  }
  return core::Tensor::UniformRandom(core::Shape(dims), rng, -1, 1);
}

// Forward every case at every batch size on every tier and thread count,
// through both the borrowing and the consuming entry points.
void ExpectParity(const std::vector<Case>& cases,
                  const std::vector<std::int64_t>& batches,
                  const std::vector<int>& thread_counts = {1, 4}) {
  TierAndThreadsGuard guard;
  core::Rng rng(99);
  for (const Case& c : cases) {
    Sequential reference = c.build();
    CompiledNet plan(c.build());
    for (const simd::GemmKernel* tier : TiersToTest()) {
      simd::SetGemmKernelForTesting(tier);
      for (int threads : thread_counts) {
        core::SetNumThreads(threads);
        for (std::int64_t batch : batches) {
          SCOPED_TRACE(c.name + " tier=" + tier->name +
                       " threads=" + std::to_string(threads) +
                       " batch=" + std::to_string(batch));
          const core::Tensor x = RandomBatch(c.row_shape, batch, rng);
          const core::Tensor want = reference.Forward(x, false);
          EXPECT_TRUE(BitwiseEqual(want, plan.Forward(x)));
          EXPECT_TRUE(BitwiseEqual(want, plan.Forward(x.Clone())));
        }
      }
    }
  }
}

class CompiledNetPaperTest : public ::testing::Test {
 protected:
  slim::FluidModel fluid_ = slim::FluidModel::PaperDefault(21);
  const slim::FluidNetConfig& cfg_ = fluid_.config();
  core::Shape image_{1, 28, 28};

  Case Subnet(const slim::SubnetSpec& spec) {
    return {spec.name, [this, spec] { return fluid_.ExtractSubnet(spec); },
            image_};
  }
  // The HA pipeline halves of the combined model cut after `cut` stages.
  Case Half(std::int64_t cut, bool front) {
    const std::int64_t width = fluid_.family().max_width();
    auto build = [this, cut, front, width] {
      Sequential full = fluid_.ExtractSubnet(fluid_.family().Combined());
      auto halves = train::SplitConvNet(cfg_, width, full, cut);
      return front ? std::move(halves.front) : std::move(halves.back);
    };
    const std::int64_t sp = cfg_.SpatialAfter(cut - 1);
    return {std::string(front ? "front" : "back") + "@cut" +
                std::to_string(cut),
            build, front ? image_ : core::Shape({width, sp, sp})};
  }
};

TEST_F(CompiledNetPaperTest, PaperSubnetsLowerToFusedOpsOnly) {
  CompiledNet plan(fluid_.ExtractSubnet(fluid_.family().Combined()));
  EXPECT_EQ(plan.ToString(),
            "conv3x3 1->16 +leaky(0.01) +pool2\n"
            "conv3x3 16->16 +leaky(0.01) +pool2\n"
            "conv3x3 16->16 +leaky(0.01) +pool2\n"
            "flatten+dense 144->10\n");
}

TEST_F(CompiledNetPaperTest, EverySubnetMatchesSequentialBitwise) {
  std::vector<Case> cases;
  for (const auto& spec : fluid_.family().All()) cases.push_back(Subnet(spec));
  ExpectParity(cases, {1, 2, 3, 8, 17, 64});
}

TEST_F(CompiledNetPaperTest, HaHalvesAtEachCutMatchSequentialBitwise) {
  std::vector<Case> cases;
  for (std::int64_t cut = 1; cut < cfg_.num_conv_layers; ++cut) {
    cases.push_back(Half(cut, /*front=*/true));
    cases.push_back(Half(cut, /*front=*/false));
  }
  ExpectParity(cases, {1, 2, 5, 8, 64});
}

TEST_F(CompiledNetPaperTest, EveryBatchSizeFromOneToSixtyFourMatches) {
  std::vector<std::int64_t> batches;
  for (std::int64_t b = 1; b <= 64; ++b) batches.push_back(b);
  ExpectParity({Subnet(fluid_.family().MasterResident()),
                Subnet(fluid_.family().WorkerResident())},
               batches, {1});
}

TEST_F(CompiledNetPaperTest, RowsDoNotDependOnTheirBatchPosition) {
  // The oracle's premise: a row's logits are the same alone or inside a
  // batch, at any position.
  CompiledNet plan(fluid_.ExtractSubnet(fluid_.family().Combined()));
  core::Rng rng(5);
  const core::Tensor batch = RandomBatch(image_, 9, rng);
  const core::Tensor all = plan.Forward(batch);
  for (std::int64_t r = 0; r < 9; ++r) {
    const core::Tensor one = plan.Forward(core::SliceAxis0(batch, r, 1));
    EXPECT_TRUE(BitwiseEqual(core::SliceAxis0(all, r, 1), one)) << "row " << r;
  }
}

TEST_F(CompiledNetPaperTest, Int8ModelsRunAsGenericStepsAndMatch) {
  const auto spec = fluid_.family().Combined();
  Sequential reference = fluid_.ExtractSubnetQuantized(spec);
  CompiledNet plan(fluid_.ExtractSubnetQuantized(spec));
  EXPECT_EQ(plan.ToString().find("conv3x3"), std::string::npos);
  core::Rng rng(6);
  for (std::int64_t batch : {1, 4, 33}) {
    const core::Tensor x = RandomBatch(image_, batch, rng);
    EXPECT_TRUE(BitwiseEqual(reference.Forward(x, false), plan.Forward(x)));
  }
}

// Special values in the input and in the bias: NaN (both signs), ±inf,
// ±0, denormals and values below the pool floor must all come out exactly
// as the layer-by-layer path produces them.
TEST(CompiledNetTest, SpecialValuesMatchBitwise) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> specials = {
      nan, -nan, inf, -inf, 0.0F, -0.0F, denorm, -denorm, 1e-39F, -1e-39F,
      3.4e38F, -3.4e38F, 1.0F, -1.0F};
  auto build = [](bool relu) {
    core::Rng rng(8);
    Sequential m;
    m.Emplace<Conv2d>(2, 5, 3, 1, 1, rng, "c1");
    if (relu) {
      m.Emplace<ReLU>();
    } else {
      m.Emplace<LeakyReLU>(0.05F);
    }
    m.Emplace<MaxPool2d>(2);
    m.Emplace<Conv2d>(5, 18, 3, 1, 1, rng, "c2");  // two lane groups
    m.Emplace<LeakyReLU>(0.0F);
    m.Emplace<Conv2d>(18, 3, 1, 1, 0, rng, "c3");  // no activation, no pool
    m.Emplace<Flatten>();
    m.Emplace<Dense>(3 * 4 * 4, 7, rng, "fc");
    // Signed-zero biases: (0 + acc) + (−0) vs + (+0) must round alike.
    for (auto& p : m.Params()) {
      if (p.name.ends_with(".bias")) {
        for (std::int64_t i = 0; i < p.value->numel(); ++i) {
          p.value->at(i) = (i % 2 == 0) ? -0.0F : 0.0F;
        }
      }
    }
    return m;
  };
  TierAndThreadsGuard guard;
  for (bool relu : {false, true}) {
    Sequential reference = build(relu);
    CompiledNet plan(build(relu));
    core::Rng rng(9);
    core::Tensor x = core::Tensor::UniformRandom({6, 2, 9, 9}, rng, -2, 2);
    for (std::int64_t i = 0; i < x.numel(); i += 3) {
      x.at(i) = specials[static_cast<std::size_t>(i / 3) % specials.size()];
    }
    for (const simd::GemmKernel* tier : TiersToTest()) {
      simd::SetGemmKernelForTesting(tier);
      for (int threads : {1, 4}) {
        core::SetNumThreads(threads);
        SCOPED_TRACE(std::string(relu ? "relu" : "leaky") + " tier=" +
                     tier->name + " threads=" + std::to_string(threads));
        EXPECT_TRUE(BitwiseEqual(reference.Forward(x, false), plan.Forward(x)));
      }
    }
  }
}

// Layers outside the op set stay generic steps; a Dense wider than kc
// reduces in kc chunks exactly like the GEMM; odd extents drop the last
// conv row/column under the pool.
TEST(CompiledNetTest, GenericStepsAndEdgeShapesMatch) {
  auto build = [] {
    core::Rng rng(10);
    Sequential m;
    m.Emplace<Conv2d>(3, 32, 3, 2, 1, rng, "strided");  // stride 2: generic
    m.Emplace<LeakyReLU>(0.01F);
    m.Emplace<Conv2d>(32, 8, 3, 1, 1, rng, "wide");  // patch 288 > kc
    m.Emplace<ReLU>();
    m.Emplace<Conv2d>(8, 20, 3, 1, 0, rng, "odd");  // lowered, odd extent
    m.Emplace<MaxPool2d>(2);
    m.Emplace<LeakyReLU>(0.2F);  // lone activation: generic
    m.Emplace<Flatten>();
    m.Emplace<Dense>(20 * 2 * 3, 13, rng, "fc");  // 120 ≤ kc
    m.Emplace<Dense>(13, 300, rng, "fc2");        // 300 outputs, 19 groups
    m.Emplace<Dense>(300, 4, rng, "fc3");         // 300 > kc: chunked
    return m;
  };
  CompiledNet plan(build());
  EXPECT_EQ(plan.ToString(),
            "layer Conv2d(3->32, k=3, s=2, p=1)\n"
            "layer LeakyReLU(0.01)\n"
            "layer Conv2d(32->8, k=3, s=1, p=1)\n"
            "layer ReLU\n"
            "conv3x3 8->20 +pool2\n"
            "layer LeakyReLU(0.2)\n"
            "flatten+dense 120->13\n"
            "dense 13->300\n"
            "dense 300->4\n");
  ExpectParity({{"generic", build, core::Shape({3, 13, 15})}}, {1, 3, 16});
}

TEST(CompiledNetTest, ShapeMismatchThrowsLikeTheLayers) {
  core::Rng rng(11);
  Sequential m;
  m.Emplace<Conv2d>(1, 4, 3, 1, 1, rng, "c");
  m.Emplace<Flatten>();
  m.Emplace<Dense>(4 * 5 * 5, 2, rng, "fc");
  CompiledNet plan(std::move(m));
  EXPECT_THROW(plan.Forward(core::Tensor({1, 2, 5, 5})), core::Error);
  EXPECT_THROW(plan.Forward(core::Tensor({1, 1, 6, 6})), core::Error);
  EXPECT_NO_THROW(plan.Forward(core::Tensor({2, 1, 5, 5})));
}

TEST(CompiledNetTest, EmptyPlanIsTheIdentity) {
  CompiledNet plan;
  core::Tensor x = core::Tensor::Full({2, 3}, 1.5F);
  EXPECT_TRUE(BitwiseEqual(x, plan.Forward(x)));
  EXPECT_TRUE(BitwiseEqual(x, plan.Forward(x.Clone())));
}

}  // namespace
}  // namespace fluid::nn
