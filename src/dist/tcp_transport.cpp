#include "dist/tcp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <limits.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/buffer_pool.h"
#include "core/logging.h"
#include "core/serialize.h"
#include "core/shape.h"

namespace fluid::dist {

namespace {

using Clock = std::chrono::steady_clock;

// Bodies up to this size decode out of the receive accumulator (one
// DecodeMessage over a contiguous frame — cheap for control-plane frames
// and small replies, and naturally resumable across Recv deadlines).
// Larger bodies — the tensor-carrying data plane — go through the
// streaming decoder below, which reads the bulk payload bytes straight
// into pooled tensor/int8 storage instead of staging the frame.
constexpr std::uint32_t kStreamBody = 4096;

std::string ErrnoText(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

class TcpTransport final : public Transport {
 public:
  TcpTransport(int fd, std::string peer) : fd_(fd), peer_(std::move(peer)) {
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Bound Send: a wedged (not closed) peer whose receive window fills
    // must surface as a failure, not block the serving thread forever.
    // This makes the EAGAIN branch in Send() live.
    struct timeval send_timeout {2, 0};  // 2 s
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
                 sizeof(send_timeout));
  }

  ~TcpTransport() override {
    Close();
    ::close(fd_);
  }

  core::Status Send(const Message& msg) override {
    // One frame is a batch of one: same scatter-gather path, so even
    // single-frame sends ship tensor storage without a bulk memcpy.
    return SendBatch(std::span<const Message>(&msg, 1));
  }

  core::Status SendBatch(std::span<const Message> msgs) override {
    if (msgs.empty()) return core::Status::Ok();
    if (closed_) {
      return core::Status::Unavailable("tcp: endpoint closed");
    }
    // Enforce the receiver's frame limit on the sender too: an oversized
    // frame would be rejected as corruption over there and cost us the
    // connection; failing fast here keeps a healthy link healthy.
    // EncodedSize is exact, so the check runs before any buffer exists.
    for (const Message& m : msgs) {
      const std::int64_t total = EncodedSize(m);
      if (total > static_cast<std::int64_t>(kMaxFrameBody) + 8) {
        return core::Status::InvalidArgument(
            "tcp: frame of " + std::to_string(total) + " bytes exceeds the " +
            std::to_string(kMaxFrameBody) + "-byte wire limit");
      }
    }
    // Scatter-encode the whole batch: small fields land in one pooled
    // scaffold buffer, bulk blocks (fp32 floats, int8 bytes) are
    // referenced in place. Segments carry scaffold offsets, so the
    // scaffold growing across frames never invalidates them.
    core::ByteWriter scaffold(
        core::PoolGet<std::uint8_t>(128 * msgs.size()));
    seg_scratch_.clear();
    std::int64_t batch_bytes = 0;
    for (const Message& m : msgs) {
      batch_bytes += EncodeMessageScatter(m, scaffold, seg_scratch_);
    }
    iov_scratch_.clear();
    iov_scratch_.reserve(seg_scratch_.size());
    const std::uint8_t* base = scaffold.buffer().data();
    for (const WireSegment& s : seg_scratch_) {
      struct iovec io;
      io.iov_base = const_cast<std::uint8_t*>(
          s.bulk != nullptr ? s.bulk : base + s.scaffold_off);
      io.iov_len = s.size;
      iov_scratch_.push_back(io);
    }
    // One writev per IOV_MAX window — for typical batches (≤ 5 iovecs per
    // frame) that is one syscall for the whole fan-out/window.
    core::Status st = core::Status::Ok();
    std::size_t idx = 0;
    while (idx < iov_scratch_.size()) {
      struct msghdr mh {};
      mh.msg_iov = iov_scratch_.data() + idx;
      mh.msg_iovlen = std::min<std::size_t>(
          iov_scratch_.size() - idx, static_cast<std::size_t>(IOV_MAX));
      // MSG_NOSIGNAL: a peer that died mid-write must produce EPIPE, not
      // kill the process with SIGPIPE.
      const ssize_t n = ::sendmsg(fd_, &mh, MSG_NOSIGNAL);
      if (n > 0) {
        // Partial writes advance through the iovec list in place.
        std::size_t left = static_cast<std::size_t>(n);
        while (left > 0 && idx < iov_scratch_.size()) {
          struct iovec& io = iov_scratch_[idx];
          if (left >= io.iov_len) {
            left -= io.iov_len;
            ++idx;
          } else {
            io.iov_base = static_cast<std::uint8_t*>(io.iov_base) + left;
            io.iov_len -= left;
            left = 0;
          }
        }
        continue;
      }
      if (n < 0 && (errno == EINTR)) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        // Blocking socket: only reachable via SO_SNDTIMEO; treat a stalled
        // peer like a dead one.
        Close();
        st = core::Status::Unavailable("tcp: send stalled");
        break;
      }
      Close();
      st = core::Status::Unavailable(ErrnoText("tcp: send failed"));
      break;
    }
    core::PoolPut(scaffold.TakeBuffer());
    if (st.ok()) {
      bytes_sent_.fetch_add(batch_bytes, std::memory_order_relaxed);
      frames_sent_.fetch_add(static_cast<std::int64_t>(msgs.size()),
                             std::memory_order_relaxed);
      if (msgs.size() > 1) {
        batched_sends_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return st;
  }

  core::Status Recv(Message& out, std::chrono::milliseconds timeout) override {
    if (closed_) {
      return core::Status::Unavailable("tcp: endpoint closed");
    }
    const auto deadline = Clock::now() + timeout;
    // Frame header: u32 magic + u32 body_len.
    constexpr std::size_t kHeader = 8;
    for (;;) {
      // ---- Drain buffered bytes through the frame state machine. ----
      if (rx_phase_ == RxPhase::kFraming) {
        // Check the magic as soon as 4 bytes exist — before trusting the
        // length field. A desynced peer is cut off immediately instead of
        // stalling Recv on a garbage-derived body_len that never fills.
        if (rx_.size() >= 4) {
          std::uint32_t magic = 0;
          std::memcpy(&magic, rx_.data(), sizeof(magic));
          if (magic != kFrameMagic) {
            Close();
            return core::Status::DataLoss("tcp: bad frame magic");
          }
        }
        if (rx_.size() >= kHeader) {
          std::uint32_t body_len = 0;
          std::memcpy(&body_len, rx_.data() + 4, sizeof(body_len));
          if (body_len > kMaxFrameBody) {
            Close();
            return core::Status::DataLoss("tcp: frame length " +
                                          std::to_string(body_len) +
                                          " exceeds limit");
          }
          if (body_len <= kStreamBody || rx_force_staged_) {
            const std::size_t frame = kHeader + body_len;
            if (rx_.size() >= frame) {
              const auto st = DecodeMessage(
                  std::span<const std::uint8_t>(rx_.data(), frame), out);
              rx_.erase(rx_.begin(),
                        rx_.begin() + static_cast<std::ptrdiff_t>(frame));
              rx_force_staged_ = false;
              if (!st.ok()) {
                // Bogus body: the stream cannot be trusted to be
                // frame-aligned any more. Drop the connection.
                Close();
                return st;
              }
              bytes_recv_.fetch_add(static_cast<std::int64_t>(frame),
                                    std::memory_order_relaxed);
              frames_recv_.fetch_add(1, std::memory_order_relaxed);
              return st;
            }
          } else {
            const auto st = TryStartStream(body_len);
            if (!st.ok()) {
              Close();
              return st;
            }
            // Either the phase advanced, the frame fell back to the
            // staged path (huge tag / no bulk block), or the prelude
            // needs more bytes. The fallback re-runs framing now.
            if (rx_force_staged_) continue;
          }
        }
      }
      if (rx_phase_ == RxPhase::kBulk) {
        // Bytes that arrived buffered behind the prelude move into the
        // payload's final (pooled) storage; everything after them is
        // received straight into that storage below.
        if (!rx_.empty() && rx_bulk_left_ > 0) {
          const std::size_t take = std::min(rx_.size(), rx_bulk_left_);
          std::memcpy(rx_bulk_, rx_.data(), take);
          rx_bulk_ += take;
          rx_bulk_left_ -= take;
          rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(take));
        }
        if (rx_bulk_left_ == 0) rx_phase_ = RxPhase::kTrailer;
      }
      if (rx_phase_ == RxPhase::kTrailer && rx_.size() >= rx_trailer_left_) {
        const auto st = FinishStream(out);
        if (!st.ok()) {
          Close();
        }
        return st;
      }

      // ---- Need more bytes. ----
      const auto left = RemainingMs(deadline);
      struct pollfd pfd {fd_, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (pr == 0) {
        return core::Status::DeadlineExceeded("tcp: Recv timeout");
      }
      if (pr < 0) {
        if (errno == EINTR) continue;
        Close();
        return core::Status::Unavailable(ErrnoText("tcp: poll failed"));
      }
      ssize_t n = 0;
      if (rx_phase_ == RxPhase::kBulk && rx_.empty()) {
        // Zero-copy: payload bytes land in the pooled tensor/int8 storage
        // directly from the kernel — no pass through the accumulator.
        n = ::recv(fd_, rx_bulk_, rx_bulk_left_, 0);
        if (n > 0) {
          rx_bulk_ += n;
          rx_bulk_left_ -= static_cast<std::size_t>(n);
          continue;
        }
      } else {
        std::uint8_t buf[16384];
        n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n > 0) {
          rx_.insert(rx_.end(), buf, buf + n);
          continue;
        }
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      // EOF or reset. EOF mid-frame is data loss: the peer vanished with a
      // frame half-sent and the remainder will never arrive.
      const bool mid_frame = !rx_.empty() || rx_phase_ != RxPhase::kFraming;
      Close();
      if (n == 0 && !mid_frame) {
        return core::Status::Unavailable("tcp: peer closed");
      }
      if (n == 0) {
        return core::Status::DataLoss("tcp: EOF inside a frame");
      }
      return core::Status::Unavailable(ErrnoText("tcp: recv failed"));
    }
  }

  void Close() override {
    // Close may race with a Recv poll on another thread (WorkerNode::Crash
    // closes the transport out from under the serving loop), so only
    // shutdown() here — it wakes the poller with EOF — and leave the fd
    // open until destruction to avoid fd-reuse races.
    if (!closed_.exchange(true)) {
      ::shutdown(fd_, SHUT_RDWR);
    }
  }

  bool closed() const override { return closed_; }

  std::string Describe() const override { return "tcp:" + peer_; }

  WireStats wire_stats() const override {
    WireStats s;
    s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
    s.bytes_recv = bytes_recv_.load(std::memory_order_relaxed);
    s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
    s.frames_recv = frames_recv_.load(std::memory_order_relaxed);
    s.batched_sends = batched_sends_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  enum class RxPhase : std::uint8_t {
    kFraming,  // accumulating header + prelude (or a whole staged frame)
    kBulk,     // receiving payload bytes straight into pooled storage
    kTrailer,  // accumulating the small post-bulk fields
  };

  // Bounds-checked little-endian cursor over the accumulator. Running out
  // of bytes is not corruption here — the body is known to extend past
  // what has arrived — so reads return false and the caller polls for
  // more instead of failing the connection.
  struct Cursor {
    const std::uint8_t* p;
    std::size_t left;
    template <typename T>
    bool Fixed(T& v) {
      if (left < sizeof(T)) return false;
      std::memcpy(&v, p, sizeof(T));
      p += sizeof(T);
      left -= sizeof(T);
      return true;
    }
    bool Skip(std::size_t n) {
      if (left < n) return false;
      p += n;
      left -= n;
      return true;
    }
  };

  // Parse the prelude of a large frame (everything before its first bulk
  // block) out of the accumulator and switch to streaming its payload
  // bytes directly into pooled storage. Three outcomes, all Status-ok:
  // phase advanced to kBulk; rx_force_staged_ set (frames whose bulk is
  // the tag — deploys — or that carry no bulk at all fall back to the
  // staged decoder); or nothing changed because the prelude needs more
  // bytes. A non-ok Status means the frame is corrupt and the caller
  // drops the connection, exactly like a staged DecodeMessage failure.
  core::Status TryStartStream(std::uint32_t body_len) {
    if (rx_.size() - 8 >= body_len) {
      // The whole body is already buffered: streaming would save nothing,
      // and the staged decoder is the authority on any corruption the
      // prelude parse below would only half-see. This also guarantees the
      // "need more bytes" returns below always make progress — more bytes
      // of *this* body are genuinely still in flight.
      rx_force_staged_ = true;
      return core::Status::Ok();
    }
    const std::size_t avail = rx_.size() - 8;
    Cursor c{rx_.data() + 8, avail};
    std::uint8_t version = 0, type = 0;
    if (!c.Fixed(version)) return core::Status::Ok();
    if (version < 1 || version > kMaxWireVersion) {
      return core::Status::DataLoss("tcp: unsupported frame version " +
                                    std::to_string(version));
    }
    if (!c.Fixed(type)) return core::Status::Ok();
    if (type > static_cast<std::uint8_t>(MsgType::kHeartbeat)) {
      return core::Status::InvalidArgument("tcp: unknown message type " +
                                           std::to_string(type));
    }
    Message msg;
    msg.type = static_cast<MsgType>(type);
    if (!c.Fixed(msg.seq)) return core::Status::Ok();
    if (version >= 2 && !c.Fixed(msg.batch)) return core::Status::Ok();
    std::uint32_t tag_len = 0;
    if (!c.Fixed(tag_len)) return core::Status::Ok();
    if (tag_len > body_len) {
      return core::Status::DataLoss("tcp: tag length exceeds frame body");
    }
    if (tag_len > kStreamBody) {
      // Deploy-style frame: the tag is the bulk. Stage it whole.
      rx_force_staged_ = true;
      return core::Status::Ok();
    }
    const std::uint8_t* tag_ptr = c.p;
    if (!c.Skip(tag_len)) return core::Status::Ok();
    std::uint8_t has_tensor = 0;
    if (!c.Fixed(has_tensor)) return core::Status::Ok();
    std::size_t bulk = 0;
    bool incomplete = false;
    if (has_tensor != 0) {
      std::vector<std::int64_t> dims;
      std::uint64_t count = 0;
      FLUID_RETURN_IF_ERROR(
          ParseBulkShape(c, body_len, 4, dims, count, incomplete));
      if (incomplete) return core::Status::Ok();
      msg.payload = core::AcquireTensor(core::Shape(std::move(dims)));
      rx_bulk_ = reinterpret_cast<std::uint8_t*>(msg.payload.data().data());
      bulk = static_cast<std::size_t>(count) * sizeof(float);
      rx_bulk_is_tensor_ = true;
    } else {
      // No fp32 payload: the only other bulk block is a quantized one
      // (v3+). A big body without either has nothing to stream — let the
      // staged decoder judge it once it is fully buffered.
      if (version < 3) {
        rx_force_staged_ = true;
        return core::Status::Ok();
      }
      std::uint8_t has_q = 0;
      if (!c.Fixed(has_q)) return core::Status::Ok();
      if (has_q == 0) {
        rx_force_staged_ = true;
        return core::Status::Ok();
      }
      float scale = 0.0F;
      if (!c.Fixed(scale)) return core::Status::Ok();
      if (!std::isfinite(scale) || scale <= 0.0F) {
        return core::Status::DataLoss("tcp: implausible quantized scale");
      }
      std::vector<std::int64_t> dims;
      std::uint64_t count = 0;
      FLUID_RETURN_IF_ERROR(
          ParseBulkShape(c, body_len, 1, dims, count, incomplete));
      if (incomplete) return core::Status::Ok();
      msg.qpayload.scale = scale;
      msg.qpayload.shape = core::Shape(std::move(dims));
      msg.qpayload.data =
          core::PoolGet<std::int8_t>(static_cast<std::size_t>(count));
      rx_bulk_ = reinterpret_cast<std::uint8_t*>(msg.qpayload.data.data());
      bulk = static_cast<std::size_t>(count);
      rx_bulk_is_tensor_ = false;
    }
    msg.tag.assign(reinterpret_cast<const char*>(tag_ptr), tag_len);
    const std::size_t prelude = avail - c.left;  // body bytes consumed
    if (prelude + bulk > body_len) {
      return core::Status::DataLoss("tcp: payload exceeds frame body");
    }
    rx_msg_ = std::move(msg);
    rx_version_ = version;
    rx_body_len_ = body_len;
    rx_bulk_left_ = bulk;
    rx_trailer_left_ = body_len - prelude - bulk;
    rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(8 + prelude));
    rx_phase_ = RxPhase::kBulk;
    return core::Status::Ok();
  }

  // Shared shape prelude of both bulk blocks: u32 rank, i64 dims, then a
  // u64 element count that must match the shape product and fit in the
  // body. `elem` is the wire size of one element (4 for fp32, 1 for int8).
  // Running out of buffered bytes sets `incomplete` (not an error).
  core::Status ParseBulkShape(Cursor& c, std::uint32_t body_len,
                              std::size_t elem, std::vector<std::int64_t>& dims,
                              std::uint64_t& count, bool& incomplete) {
    std::uint32_t rank = 0;
    if (!c.Fixed(rank)) {
      incomplete = true;
      return core::Status::Ok();
    }
    if (rank > core::Shape::kMaxRank) {
      return core::Status::DataLoss("tcp: payload rank implausibly large");
    }
    dims.resize(rank);
    std::int64_t prod = 1;
    for (std::size_t i = 0; i < dims.size(); ++i) {
      if (!c.Fixed(dims[i])) {
        incomplete = true;
        return core::Status::Ok();
      }
      if (dims[i] < 0) {
        return core::Status::DataLoss("tcp: negative payload dim");
      }
      // Bounded as each dim arrives, so a hostile shape is refused before
      // the rest of its frame is buffered.
      const core::StatusOr<std::int64_t> numel = core::CheckedNumel(
          std::span<const std::int64_t>(dims.data(), i + 1));
      if (!numel.ok()) return numel.status();
      prod = *numel;
      if (prod > static_cast<std::int64_t>(kMaxFrameBody)) {
        return core::Status::DataLoss("tcp: payload exceeds frame body");
      }
    }
    if (!c.Fixed(count)) {
      incomplete = true;
      return core::Status::Ok();
    }
    if (count != static_cast<std::uint64_t>(prod)) {
      return core::Status::DataLoss(
          "tcp: payload size does not match shape");
    }
    if (count * elem > body_len) {
      return core::Status::DataLoss("tcp: payload exceeds frame body");
    }
    return core::Status::Ok();
  }

  // The streamed frame's bulk is complete and all trailer bytes are
  // buffered: parse the small post-bulk fields with the same validation
  // DecodeMessage applies, hand the message out, and reset for the next
  // frame.
  core::Status FinishStream(Message& out) {
    core::ByteReader r(
        std::span<const std::uint8_t>(rx_.data(), rx_trailer_left_));
    if (rx_bulk_is_tensor_ && rx_version_ >= 3) {
      std::uint8_t has_q = 0;
      FLUID_RETURN_IF_ERROR(r.TryReadU8(has_q));
      if (has_q != 0) {
        FLUID_RETURN_IF_ERROR(
            quant::QuantizedTensor::Decode(r, rx_msg_.qpayload));
      }
    }
    if (rx_version_ >= 4) {
      FLUID_RETURN_IF_ERROR(r.TryReadU8(rx_msg_.priority));
      FLUID_RETURN_IF_ERROR(r.TryReadI64(rx_msg_.slo_ms));
      const std::int64_t floor = rx_version_ >= 5 ? -1 : 0;
      if (rx_msg_.slo_ms < floor) {
        return core::Status::DataLoss("tcp: frame with negative slo_ms");
      }
    }
    if (rx_version_ >= 5) {
      std::uint8_t input_quant = 0;
      FLUID_RETURN_IF_ERROR(r.TryReadU8(input_quant));
      if (input_quant > 1) {
        return core::Status::DataLoss("tcp: bogus input_quant marker");
      }
      if (input_quant != 0 && !rx_msg_.has_qpayload()) {
        return core::Status::DataLoss(
            "tcp: input_quant set without a quantized payload");
      }
      rx_msg_.input_quant = input_quant != 0;
    }
    if (rx_version_ >= 6) {
      std::uint8_t has_trace = 0;
      FLUID_RETURN_IF_ERROR(r.TryReadU8(has_trace));
      if (has_trace > 1) {
        return core::Status::DataLoss("tcp: bogus has_trace flag");
      }
      if (has_trace != 0) {
        FLUID_RETURN_IF_ERROR(r.TryReadU64(rx_msg_.trace_id));
        FLUID_RETURN_IF_ERROR(r.TryReadU64(rx_msg_.trace_span));
        FLUID_RETURN_IF_ERROR(r.TryReadI64(rx_msg_.trace_sent_us));
        FLUID_RETURN_IF_ERROR(r.TryReadI64(rx_msg_.trace_service_us));
        if (rx_msg_.trace_id == 0) {
          return core::Status::DataLoss("tcp: trace block without an id");
        }
        if (rx_msg_.trace_sent_us < 0 || rx_msg_.trace_service_us < 0) {
          return core::Status::DataLoss(
              "tcp: trace block with negative timestamps");
        }
      }
    }
    rx_.erase(rx_.begin(),
              rx_.begin() + static_cast<std::ptrdiff_t>(rx_trailer_left_));
    bytes_recv_.fetch_add(static_cast<std::int64_t>(8 + rx_body_len_),
                          std::memory_order_relaxed);
    frames_recv_.fetch_add(1, std::memory_order_relaxed);
    out = std::move(rx_msg_);
    rx_msg_ = Message{};
    rx_phase_ = RxPhase::kFraming;
    rx_bulk_ = nullptr;
    rx_bulk_left_ = 0;
    rx_trailer_left_ = 0;
    return core::Status::Ok();
  }

  // Full duplex (transport.h): the receive state (rx_*) and the send
  // scratch below are touched only by the one receiver and the one
  // sender respectively; what both sides share — the closed flag and the
  // wire counters — is atomic, so Send, Recv, Close and wire_stats() may
  // run on different threads.
  const int fd_;
  const std::string peer_;
  std::atomic<bool> closed_{false};
  std::vector<std::uint8_t> rx_;  // partial-frame / prelude accumulator
  // Streaming decode state; survives across Recv deadline returns.
  RxPhase rx_phase_ = RxPhase::kFraming;
  bool rx_force_staged_ = false;  // this frame decodes staged despite size
  Message rx_msg_;                // partially decoded streaming frame
  std::uint8_t rx_version_ = 0;
  std::uint32_t rx_body_len_ = 0;
  std::uint8_t* rx_bulk_ = nullptr;  // next payload byte to fill
  std::size_t rx_bulk_left_ = 0;
  std::size_t rx_trailer_left_ = 0;
  bool rx_bulk_is_tensor_ = false;
  // Send-side scratch, reused so steady-state batches stop allocating.
  std::vector<WireSegment> seg_scratch_;
  std::vector<struct iovec> iov_scratch_;
  // Wire counters; relaxed atomics so wire_stats() may race Send/Recv.
  std::atomic<std::int64_t> bytes_sent_{0};
  std::atomic<std::int64_t> bytes_recv_{0};
  std::atomic<std::int64_t> frames_sent_{0};
  std::atomic<std::int64_t> frames_recv_{0};
  std::atomic<std::int64_t> batched_sends_{0};
};

}  // namespace

TcpListener::TcpListener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  FLUID_CHECK_MSG(fd_ >= 0, "TcpListener: socket() failed");
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  FLUID_CHECK_MSG(
      ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      ErrnoText("TcpListener: bind failed"));
  FLUID_CHECK_MSG(::listen(fd_, 16) == 0, ErrnoText("TcpListener: listen failed"));
  socklen_t len = sizeof(addr);
  FLUID_CHECK_MSG(
      ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
      ErrnoText("TcpListener: getsockname failed"));
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

core::StatusOr<TransportPtr> TcpListener::Accept(
    std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    struct pollfd pfd {fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(RemainingMs(deadline).count()));
    if (pr == 0) {
      return core::Status::DeadlineExceeded("TcpListener: Accept timeout");
    }
    if (pr < 0) {
      if (errno == EINTR) continue;
      return core::Status::Unavailable(ErrnoText("TcpListener: poll failed"));
    }
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int fd = ::accept(fd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return core::Status::Unavailable(ErrnoText("TcpListener: accept failed"));
    }
    char ip[INET_ADDRSTRLEN] = "?";
    ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip));
    return TransportPtr(std::make_unique<TcpTransport>(
        fd, std::string(ip) + ":" + std::to_string(ntohs(peer.sin_port))));
  }
}

core::StatusOr<TransportPtr> TcpConnect(const std::string& host,
                                        std::uint16_t port,
                                        std::chrono::milliseconds timeout) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return core::Status::InvalidArgument("TcpConnect: bad IPv4 address " + host);
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return core::Status::Unavailable(ErrnoText("TcpConnect: socket failed"));
  }
  // Non-blocking connect so the timeout is enforceable, then back to
  // blocking for the transport's send path.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const auto deadline = Clock::now() + timeout;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    const auto st = core::Status::Unavailable(ErrnoText("TcpConnect: connect"));
    ::close(fd);
    return st;
  }
  for (;;) {
    struct pollfd pfd {fd, POLLOUT, 0};
    const int pr = ::poll(&pfd, 1, static_cast<int>(RemainingMs(deadline).count()));
    if (pr == 0) {
      ::close(fd);
      return core::Status::DeadlineExceeded("TcpConnect: timeout");
    }
    if (pr < 0) {
      if (errno == EINTR) continue;
      const auto st = core::Status::Unavailable(ErrnoText("TcpConnect: poll"));
      ::close(fd);
      return st;
    }
    break;
  }
  int err = 0;
  socklen_t errlen = sizeof(err);
  ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &errlen);
  if (err != 0) {
    ::close(fd);
    return core::Status::Unavailable(std::string("TcpConnect: ") +
                                     std::strerror(err));
  }
  ::fcntl(fd, F_SETFL, flags);
  return TransportPtr(std::make_unique<TcpTransport>(
      fd, host + ":" + std::to_string(port)));
}

}  // namespace fluid::dist
