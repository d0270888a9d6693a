#include "core/serialize.h"

#include <cstdio>
#include <cstring>

#include "core/buffer_pool.h"

namespace fluid::core {

namespace {

template <typename T>
void AppendLE(std::vector<std::uint8_t>& buf, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::uint8_t raw[sizeof(T)];
  std::memcpy(raw, &v, sizeof(T));  // host is little-endian on all targets we support
  buf.insert(buf.end(), raw, raw + sizeof(T));
}

}  // namespace

void ByteWriter::WriteU8(std::uint8_t v) { buffer_.push_back(v); }
void ByteWriter::WriteU32(std::uint32_t v) { AppendLE(buffer_, v); }
void ByteWriter::WriteU64(std::uint64_t v) { AppendLE(buffer_, v); }
void ByteWriter::WriteI64(std::int64_t v) { AppendLE(buffer_, v); }
void ByteWriter::WriteF32(float v) { AppendLE(buffer_, v); }
void ByteWriter::WriteF64(double v) { AppendLE(buffer_, v); }

void ByteWriter::WriteString(std::string_view s) {
  WriteU32(static_cast<std::uint32_t>(s.size()));
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void ByteWriter::WriteBytes(std::span<const std::uint8_t> bytes) {
  WriteU64(bytes.size());
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::WriteFloats(std::span<const float> values) {
  WriteU64(values.size());
  const auto* raw = reinterpret_cast<const std::uint8_t*>(values.data());
  buffer_.insert(buffer_.end(), raw, raw + values.size() * sizeof(float));
}

void ByteWriter::WriteTensor(const Tensor& t) {
  WriteU32(static_cast<std::uint32_t>(t.shape().rank()));
  for (const auto d : t.shape().dims()) WriteI64(d);
  WriteFloats(t.data());
}

Status ByteReader::Take(std::size_t n, const std::uint8_t*& ptr) {
  if (remaining() < n) {
    return Status::DataLoss("ByteReader: truncated input (need " +
                            std::to_string(n) + " bytes, have " +
                            std::to_string(remaining()) + ")");
  }
  ptr = bytes_.data() + pos_;
  pos_ += n;
  return Status::Ok();
}

#define FLUID_DEFINE_TRYREAD(NAME, TYPE)                      \
  Status ByteReader::TryRead##NAME(TYPE& out) {               \
    const std::uint8_t* p = nullptr;                          \
    FLUID_RETURN_IF_ERROR(Take(sizeof(TYPE), p));             \
    std::memcpy(&out, p, sizeof(TYPE));                       \
    return Status::Ok();                                      \
  }

FLUID_DEFINE_TRYREAD(U8, std::uint8_t)
FLUID_DEFINE_TRYREAD(U32, std::uint32_t)
FLUID_DEFINE_TRYREAD(U64, std::uint64_t)
FLUID_DEFINE_TRYREAD(I64, std::int64_t)
FLUID_DEFINE_TRYREAD(F32, float)
FLUID_DEFINE_TRYREAD(F64, double)
#undef FLUID_DEFINE_TRYREAD

Status ByteReader::TryReadString(std::string& out) {
  std::uint32_t len = 0;
  FLUID_RETURN_IF_ERROR(TryReadU32(len));
  const std::uint8_t* p = nullptr;
  FLUID_RETURN_IF_ERROR(Take(len, p));
  out.assign(reinterpret_cast<const char*>(p), len);
  return Status::Ok();
}

namespace {

// Fill `out` with `len` elements copied from `p`, pulling pooled storage
// when the current capacity cannot hold them. The length is already
// bounds-checked against the input by the caller's Take, so pool sizing
// here cannot be driven past the frame size by a hostile length.
template <typename T>
void FillFromPool(std::vector<T>& out, const std::uint8_t* p,
                  std::size_t len) {
  if (out.capacity() < len) {
    out = PoolGet<T>(len);
  } else {
    out.resize(len);
  }
  // An empty vector's data() may be null, and memcpy from/to null is
  // undefined even for zero bytes.
  if (len != 0) std::memcpy(out.data(), p, len * sizeof(T));
}

}  // namespace

Status ByteReader::TryReadBytes(std::vector<std::uint8_t>& out) {
  std::uint64_t len = 0;
  FLUID_RETURN_IF_ERROR(TryReadU64(len));
  const std::uint8_t* p = nullptr;
  FLUID_RETURN_IF_ERROR(Take(static_cast<std::size_t>(len), p));
  FillFromPool(out, p, static_cast<std::size_t>(len));
  return Status::Ok();
}

Status ByteReader::TryReadBytes(std::vector<std::int8_t>& out) {
  std::uint64_t len = 0;
  FLUID_RETURN_IF_ERROR(TryReadU64(len));
  const std::uint8_t* p = nullptr;
  FLUID_RETURN_IF_ERROR(Take(static_cast<std::size_t>(len), p));
  FillFromPool(out, p, static_cast<std::size_t>(len));
  return Status::Ok();
}

Status ByteReader::TryReadFloats(std::vector<float>& out) {
  std::uint64_t count = 0;
  FLUID_RETURN_IF_ERROR(TryReadU64(count));
  // Bound the count before multiplying: count * sizeof(float) can wrap
  // size_t for a hostile frame, sneaking past Take's remaining() check and
  // into a throwing resize.
  if (count > remaining() / sizeof(float)) {
    return Status::DataLoss("float block larger than remaining input");
  }
  const std::uint8_t* p = nullptr;
  FLUID_RETURN_IF_ERROR(Take(static_cast<std::size_t>(count) * sizeof(float), p));
  FillFromPool(out, p, static_cast<std::size_t>(count));
  return Status::Ok();
}

Status ByteReader::TryReadTensor(Tensor& out) {
  std::uint32_t rank = 0;
  FLUID_RETURN_IF_ERROR(TryReadU32(rank));
  if (rank > Shape::kMaxRank) {
    return Status::DataLoss("tensor rank implausibly large");
  }
  std::vector<std::int64_t> dims(rank);
  for (auto& d : dims) {
    FLUID_RETURN_IF_ERROR(TryReadI64(d));
    if (d < 0) return Status::DataLoss("negative tensor dim");
  }
  std::vector<float> values;
  FLUID_RETURN_IF_ERROR(TryReadFloats(values));
  const StatusOr<std::int64_t> numel = CheckedNumel(dims);
  if (!numel.ok()) return numel.status();
  if (*numel != static_cast<std::int64_t>(values.size())) {
    return Status::DataLoss("tensor payload size does not match shape");
  }
  out = Tensor(Shape(dims), std::move(values));
  return Status::Ok();
}

std::uint8_t ByteReader::ReadU8() { std::uint8_t v = 0; TryReadU8(v).ThrowIfError(); return v; }
std::uint32_t ByteReader::ReadU32() { std::uint32_t v = 0; TryReadU32(v).ThrowIfError(); return v; }
std::uint64_t ByteReader::ReadU64() { std::uint64_t v = 0; TryReadU64(v).ThrowIfError(); return v; }
std::int64_t ByteReader::ReadI64() { std::int64_t v = 0; TryReadI64(v).ThrowIfError(); return v; }
float ByteReader::ReadF32() { float v = 0; TryReadF32(v).ThrowIfError(); return v; }
double ByteReader::ReadF64() { double v = 0; TryReadF64(v).ThrowIfError(); return v; }
std::string ByteReader::ReadString() { std::string v; TryReadString(v).ThrowIfError(); return v; }
Tensor ByteReader::ReadTensor() { Tensor t; TryReadTensor(t).ThrowIfError(); return t; }

Status WriteFile(const std::string& path, std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return Status::Internal("cannot open " + tmp + " for writing");
  const std::size_t written = bytes.empty()
                                  ? 0
                                  : std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flush_ok = std::fclose(f) == 0;
  if (written != bytes.size() || !flush_ok) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename " + tmp + " -> " + path + " failed");
  }
  return Status::Ok();
}

StatusOr<std::vector<std::uint8_t>> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Status::NotFound("cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    return Status::Internal("ftell failed on " + path);
  }
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(size));
  const std::size_t read = buf.empty() ? 0 : std::fread(buf.data(), 1, buf.size(), f);
  std::fclose(f);
  if (read != buf.size()) return Status::DataLoss("short read from " + path);
  return buf;
}

}  // namespace fluid::core
