#include "core/serialize.h"

#include <cstdio>

#include <gtest/gtest.h>

namespace fluid::core {
namespace {

TEST(SerializeTest, ScalarRoundTrip) {
  ByteWriter w;
  w.WriteU8(7);
  w.WriteU32(123456);
  w.WriteU64(0xDEADBEEFCAFEF00DULL);
  w.WriteI64(-42);
  w.WriteF32(3.25F);
  w.WriteF64(-1.5e300);

  ByteReader r(w.buffer());
  EXPECT_EQ(r.ReadU8(), 7);
  EXPECT_EQ(r.ReadU32(), 123456u);
  EXPECT_EQ(r.ReadU64(), 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(r.ReadI64(), -42);
  EXPECT_EQ(r.ReadF32(), 3.25F);
  EXPECT_EQ(r.ReadF64(), -1.5e300);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, StringRoundTripIncludingEmpty) {
  ByteWriter w;
  w.WriteString("hello");
  w.WriteString("");
  w.WriteString(std::string("with\0null", 9));
  ByteReader r(w.buffer());
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_EQ(r.ReadString().size(), 9u);
}

TEST(SerializeTest, TensorRoundTrip) {
  Tensor t(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  ByteWriter w;
  w.WriteTensor(t);
  ByteReader r(w.buffer());
  Tensor back = r.ReadTensor();
  EXPECT_EQ(back.shape(), t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    EXPECT_EQ(back.at(i), t.at(i));
  }
}

TEST(SerializeTest, EmptyAndScalarTensorRoundTrip) {
  // Default (empty) tensor: shape [0], zero elements.
  ByteWriter w;
  w.WriteTensor(Tensor{});
  ByteReader r(w.buffer());
  Tensor back = r.ReadTensor();
  EXPECT_EQ(back.shape(), Shape({0}));
  EXPECT_TRUE(back.empty());

  // Rank-0 scalar: one element.
  Tensor scalar((Shape()));
  scalar.at(0) = 6.5F;
  ByteWriter w2;
  w2.WriteTensor(scalar);
  ByteReader r2(w2.buffer());
  Tensor back2 = r2.ReadTensor();
  EXPECT_EQ(back2.shape().rank(), 0u);
  EXPECT_EQ(back2.at(0), 6.5F);
}

TEST(SerializeTest, TruncatedInputGivesDataLossStatus) {
  ByteWriter w;
  w.WriteU64(5);
  auto buf = w.TakeBuffer();
  buf.pop_back();
  ByteReader r(buf);
  std::uint64_t v = 0;
  const auto st = r.TryReadU64(v);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);
}

TEST(SerializeTest, CorruptTensorShapeIsRejectedNotCrashing) {
  ByteWriter w;
  w.WriteU32(2);       // rank
  w.WriteI64(1000000); // dims that cannot match payload
  w.WriteI64(1000000);
  w.WriteU64(0);       // zero floats
  ByteReader r(w.buffer());
  Tensor t;
  EXPECT_EQ(r.TryReadTensor(t).code(), StatusCode::kDataLoss);
}

TEST(SerializeTest, OverflowingShapeProductIsDataLoss) {
  // 2^32 · 2^32 wraps int64 to 0, which would "match" an empty payload.
  ByteWriter w;
  w.WriteU32(2);
  w.WriteI64(std::int64_t{1} << 32);
  w.WriteI64(std::int64_t{1} << 32);
  w.WriteU64(0);
  ByteReader r(w.buffer());
  Tensor t;
  EXPECT_EQ(r.TryReadTensor(t).code(), StatusCode::kDataLoss);
}

TEST(SerializeTest, ImplausibleRankRejected) {
  ByteWriter w;
  w.WriteU32(1000);
  ByteReader r(w.buffer());
  Tensor t;
  EXPECT_EQ(r.TryReadTensor(t).code(), StatusCode::kDataLoss);
}

TEST(SerializeTest, FileRoundTripAndMissingFile) {
  const std::string path = ::testing::TempDir() + "/fluid_serialize_test.bin";
  ByteWriter w;
  w.WriteString("persisted");
  ASSERT_TRUE(WriteFile(path, w.buffer()).ok());
  auto back = ReadFile(path);
  ASSERT_TRUE(back.ok());
  ByteReader r(*back);
  EXPECT_EQ(r.ReadString(), "persisted");
  std::remove(path.c_str());

  EXPECT_EQ(ReadFile(path + ".does_not_exist").status().code(),
            StatusCode::kNotFound);
}

TEST(SerializeTest, FloatsBlockRoundTrip) {
  ByteWriter w;
  const std::vector<float> values{1.5F, -2.5F, 0.0F};
  w.WriteFloats(values);
  ByteReader r(w.buffer());
  std::vector<float> back;
  ASSERT_TRUE(r.TryReadFloats(back).ok());
  EXPECT_EQ(back, values);
}

}  // namespace
}  // namespace fluid::core
