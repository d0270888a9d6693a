#pragma once
// Transport: the byte-level channel a master and a worker talk over.
//
// A Transport endpoint carries whole dist::Message frames in both
// directions. Implementations are duplex and connection-oriented; once
// either side closes (or the process behind it dies) every subsequent
// Send/Recv fails with a Status instead of throwing, so the serving loops
// can treat peer death as data, not control flow. The two implementations
// are the in-memory pair below (tests, single-process benches) and the
// TCP transport in dist/tcp_transport.h (real deployments).
//
// Concurrency contract (full duplex): one sender and one receiver may run
// on an endpoint at the same time — a thread blocked in Recv must not
// stop another thread's Send/SendBatch, and neither call may race the
// other's state. Close() and closed() may be called from any thread and
// wake a blocked Recv; wire_stats() may be read from any thread while
// traffic flows. Two concurrent senders (or two receivers) on one
// endpoint are NOT supported — callers serialize those themselves (the
// master sends under its serving-core lock; its per-link receive path is
// the endpoint's only receiver).
//
// Failure taxonomy every implementation honours:
//   kDeadlineExceeded — nothing arrived within the Recv timeout;
//                       the connection is still usable.
//   kUnavailable      — the peer is gone (closed, crashed, reset);
//                       terminal for this endpoint.
//   kDataLoss         — the byte stream desynchronised (bad magic, bogus
//                       length, truncated frame); terminal: the endpoint
//                       closes itself because framing cannot recover.

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "core/error.h"
#include "dist/message.h"

namespace fluid::dist {

/// Wire-level counters every transport keeps: the serving stack surfaces
/// them per master/worker and the benches record them, so byte costs are
/// a first-class, regression-pinned metric.
struct WireStats {
  std::int64_t bytes_sent = 0;    // full frames (header + body) shipped
  std::int64_t bytes_recv = 0;    // full frames received and decoded
  std::int64_t frames_sent = 0;
  std::int64_t frames_recv = 0;
  std::int64_t batched_sends = 0;  // SendBatch calls that shipped > 1 frame

  WireStats& operator+=(const WireStats& o) {
    bytes_sent += o.bytes_sent;
    bytes_recv += o.bytes_recv;
    frames_sent += o.frames_sent;
    frames_recv += o.frames_recv;
    batched_sends += o.batched_sends;
    return *this;
  }

  /// Value form of +=, for fleet-level aggregation (router/orchestrator
  /// summing per-partition wire costs).
  friend WireStats operator+(WireStats a, const WireStats& b) {
    a += b;
    return a;
  }
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Enqueue one frame to the peer. Never throws; never blocks on the
  /// peer's application (only on flow control).
  virtual core::Status Send(const Message& msg) = 0;

  /// Ship several frames as one link transaction, in order. The contract
  /// is all-or-prefix: on failure some prefix of `msgs` may have reached
  /// the wire, and the connection is in whatever state a failed Send
  /// leaves it — callers treat the whole batch as suspect, exactly like a
  /// failed Send. The base implementation is the trivial loop; TCP sends
  /// one scatter-gather writev (one syscall, no bulk memcpy) and the
  /// emulated link charges its latency once per batch.
  virtual core::Status SendBatch(std::span<const Message> msgs);

  /// Wait up to `timeout` for one complete frame.
  virtual core::Status Recv(Message& out, std::chrono::milliseconds timeout) = 0;

  /// Byte/frame counters since construction. Implementations that cannot
  /// count return zeros.
  virtual WireStats wire_stats() const { return {}; }

  /// Idempotent; wakes a Recv blocked on this endpoint, which reports
  /// kUnavailable. After Close, the peer's Recv drains buffered frames
  /// and then reports kUnavailable.
  virtual void Close() = 0;

  /// True once this endpoint can no longer exchange frames.
  virtual bool closed() const = 0;

  /// Human-readable endpoint description for logs ("mem", "tcp:127.0.0.1:...").
  virtual std::string Describe() const = 0;
};

using TransportPtr = std::unique_ptr<Transport>;

/// Time left until `deadline`, clamped at zero — the shared idiom for
/// threading one caller timeout through a sequence of blocking calls.
inline std::chrono::milliseconds RemainingMs(
    std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  return left.count() > 0 ? left : std::chrono::milliseconds(0);
}

/// A connected pair of in-process endpoints. Frames are encoded to bytes
/// and decoded on receipt — the codec is exercised exactly as on a real
/// wire, so byte-level accounting (EncodedSize) and decode-never-throws
/// semantics hold here too.
std::pair<TransportPtr, TransportPtr> MakeInMemoryPair();

/// An in-process pair whose frames pay a link cost before delivery:
/// each direction is a serial link with per-frame `latency` plus
/// bytes / `bandwidth_bytes_per_s` of transfer time, frames queueing
/// behind each other exactly like sim::LinkModel charges them. This is
/// the live counterpart of the paper's offline-measured TCP link (the
/// DESIGN.md §3 substitution): benches and tests get wire-realistic
/// serving behaviour — coalescing amortises per-frame latency, windowed
/// sends overlap it — without a real radio in the loop. latency <= 0 and
/// infinite bandwidth degrade to MakeInMemoryPair behaviour. SendBatch
/// charges the link as one transaction: one latency head start for the
/// whole batch, each frame deliverable as its own bytes finish
/// serialising behind its predecessors'.
std::pair<TransportPtr, TransportPtr> MakeEmulatedLinkPair(
    std::chrono::duration<double> latency, double bandwidth_bytes_per_s);

}  // namespace fluid::dist
