#include "dist/transport.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

#include "core/buffer_pool.h"

namespace fluid::dist {

namespace {

using SteadyClock = std::chrono::steady_clock;

// Shared state of one connected pair. Two byte-frame queues (one per
// direction) under a single lock; each endpoint owns a "closed" flag.
// Closing either side wakes every waiter on both directions.
// Each queued frame carries the time it becomes deliverable (`ready`):
// the plain in-memory pair delivers immediately; the emulated-link pair
// charges latency + serialisation onto a per-direction serial link.
struct PairState {
  std::mutex mu;
  // cv[i]: a frame for end i was queued, or either end closed. One per
  // direction, so a send wakes only the receiver it is addressed to.
  std::condition_variable cv[2];
  struct Frame {
    std::vector<std::uint8_t> bytes;
    SteadyClock::time_point ready;
  };
  std::deque<Frame> queue[2];  // queue[i]: frames for end i
  SteadyClock::time_point link_free[2] = {};  // direction busy until
  bool end_closed[2] = {false, false};
  WireStats stats[2];  // per-endpoint counters, guarded by mu
  // Link model (zero-cost for the plain pair).
  std::chrono::duration<double> latency{0.0};
  double bandwidth_bytes_per_s = 0.0;  // <= 0: infinite
};

class InMemoryTransport final : public Transport {
 public:
  InMemoryTransport(std::shared_ptr<PairState> state, int side)
      : state_(std::move(state)), side_(side) {}

  ~InMemoryTransport() override { Close(); }

  core::Status Send(const Message& msg) override {
    return SendBatch(std::span<const Message>(&msg, 1));
  }

  core::Status SendBatch(std::span<const Message> msgs) override {
    if (msgs.empty()) return core::Status::Ok();
    // Pooled frame buffers, all encoded before taking the pair lock. The
    // matching PoolPut happens on the receiving side after decode, so a
    // steady send/recv loop cycles the same storage through the pool.
    thread_local std::vector<PairState::Frame> frames;
    frames.clear();
    frames.reserve(msgs.size());
    for (const Message& msg : msgs) {
      auto bytes = core::PoolGet<std::uint8_t>(
          static_cast<std::size_t>(EncodedSize(msg)));
      EncodeMessageInto(msg, bytes);
      frames.push_back({std::move(bytes), {}});
    }
    std::unique_lock<std::mutex> lock(state_->mu);
    auto recycle = [&] {
      for (auto& f : frames) core::PoolPut(std::move(f.bytes));
      frames.clear();
    };
    if (state_->end_closed[side_]) {
      recycle();
      return core::Status::Unavailable("in-memory transport: endpoint closed");
    }
    if (state_->end_closed[1 - side_]) {
      recycle();
      return core::Status::Unavailable("in-memory transport: peer closed");
    }
    // The whole batch is one link transaction: a single latency head
    // start, then the frames serialise back to back at the link's
    // bandwidth — frame k is deliverable as its own bytes finish behind
    // its predecessors', queued behind whatever this direction was still
    // transmitting. Zero-cost link model: everything ready immediately.
    const auto now = SteadyClock::now();
    const bool emulated =
        state_->latency.count() > 0 || state_->bandwidth_bytes_per_s > 0;
    const int dir = 1 - side_;
    const auto start = std::max(now, state_->link_free[dir]);
    std::chrono::duration<double> cumulative{0.0};
    WireStats& st = state_->stats[side_];
    // The receiver sleeps on an empty inbox, or until the inbox's front
    // frame lands — never earlier than anything queued behind it. So only
    // a send into an empty inbox needs to wake it.
    const bool wake = state_->queue[1 - side_].empty();
    for (auto& f : frames) {
      auto ready = now;
      if (emulated) {
        if (state_->bandwidth_bytes_per_s > 0) {
          cumulative += std::chrono::duration<double>(
              static_cast<double>(f.bytes.size()) /
              state_->bandwidth_bytes_per_s);
        }
        ready = start + std::chrono::duration_cast<SteadyClock::duration>(
                            state_->latency + cumulative);
      }
      st.bytes_sent += static_cast<std::int64_t>(f.bytes.size());
      ++st.frames_sent;
      f.ready = ready;
      state_->queue[1 - side_].push_back(std::move(f));
    }
    frames.clear();
    if (emulated) {
      state_->link_free[dir] =
          start + std::chrono::duration_cast<SteadyClock::duration>(cumulative);
    }
    if (msgs.size() > 1) ++st.batched_sends;
    lock.unlock();  // notify unlocked: the receiver wakes to a free mutex
    if (wake) state_->cv[1 - side_].notify_all();
    return core::Status::Ok();
  }

  core::Status Recv(Message& out, std::chrono::milliseconds timeout) override {
    std::unique_lock<std::mutex> lock(state_->mu);
    auto& inbox = state_->queue[side_];
    const auto deadline = SteadyClock::now() + timeout;
    for (;;) {
      // A zero-timeout poll of an empty open inbox answers without
      // touching the condition variable (no futex round trip).
      if (timeout.count() <= 0 && inbox.empty() && !state_->end_closed[0] &&
          !state_->end_closed[1]) {
        return core::Status::DeadlineExceeded(
            "in-memory transport: Recv timeout");
      }
      state_->cv[side_].wait_until(lock, deadline, [&] {
        return !inbox.empty() || state_->end_closed[side_] ||
               state_->end_closed[1 - side_];
      });
      // An endpoint closed on this side stops at once (like TCP's
      // shutdown), so a receive thread woken by Close exits promptly.
      if (state_->end_closed[side_]) {
        return core::Status::Unavailable(
            "in-memory transport: endpoint closed");
      }
      // Buffered frames still deliver after the peer closed — a graceful
      // close must not drop in-flight replies. A frame still "on the
      // link" (ready in the future) is not visible yet; wait for it, but
      // never past the caller's deadline.
      if (!inbox.empty()) {
        const auto now = SteadyClock::now();
        if (inbox.front().ready > now) {
          if (now >= deadline) {
            return core::Status::DeadlineExceeded(
                "in-memory transport: Recv timeout");
          }
          // Later frames land no earlier than this one (the link is
          // serial), so only this endpoint's own Close cuts the wait.
          state_->cv[side_].wait_until(
              lock, std::min(inbox.front().ready, deadline),
              [&] { return state_->end_closed[side_]; });
          continue;
        }
        auto bytes = std::move(inbox.front().bytes);
        inbox.pop_front();
        state_->stats[side_].bytes_recv +=
            static_cast<std::int64_t>(bytes.size());
        ++state_->stats[side_].frames_recv;
        lock.unlock();
        const core::Status st = DecodeMessage(bytes, out);
        core::PoolPut(std::move(bytes));
        return st;
      }
      if (state_->end_closed[side_] || state_->end_closed[1 - side_]) {
        return core::Status::Unavailable("in-memory transport: peer closed");
      }
      if (SteadyClock::now() >= deadline) {
        return core::Status::DeadlineExceeded(
            "in-memory transport: Recv timeout");
      }
    }
  }

  void Close() override {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->end_closed[side_] = true;
    state_->cv[0].notify_all();
    state_->cv[1].notify_all();
  }

  bool closed() const override {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->end_closed[side_] ||
           (state_->end_closed[1 - side_] && state_->queue[side_].empty());
  }

  WireStats wire_stats() const override {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->stats[side_];
  }

  std::string Describe() const override {
    const bool emulated = state_->latency.count() > 0 ||
                          state_->bandwidth_bytes_per_s > 0;
    return std::string(emulated ? "memlink" : "mem") +
           (side_ == 0 ? ":a" : ":b");
  }

 private:
  std::shared_ptr<PairState> state_;
  int side_;
};

}  // namespace

core::Status Transport::SendBatch(std::span<const Message> msgs) {
  // Contract-keeping default for transports without a vectored path: the
  // frames still go out in order, one Send each.
  for (const Message& msg : msgs) {
    FLUID_RETURN_IF_ERROR(Send(msg));
  }
  return core::Status::Ok();
}

std::pair<TransportPtr, TransportPtr> MakeInMemoryPair() {
  auto state = std::make_shared<PairState>();
  return {std::make_unique<InMemoryTransport>(state, 0),
          std::make_unique<InMemoryTransport>(state, 1)};
}

std::pair<TransportPtr, TransportPtr> MakeEmulatedLinkPair(
    std::chrono::duration<double> latency, double bandwidth_bytes_per_s) {
  auto state = std::make_shared<PairState>();
  if (latency.count() > 0) state->latency = latency;
  if (bandwidth_bytes_per_s > 0) {
    state->bandwidth_bytes_per_s = bandwidth_bytes_per_s;
  }
  return {std::make_unique<InMemoryTransport>(state, 0),
          std::make_unique<InMemoryTransport>(state, 1)};
}

}  // namespace fluid::dist
