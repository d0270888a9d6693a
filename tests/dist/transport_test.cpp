#include "dist/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "core/tensor_ops.h"
#include "dist/tcp_transport.h"

namespace fluid::dist {
namespace {

using namespace std::chrono_literals;

core::Tensor SomeTensor(std::uint64_t seed) {
  core::Rng rng(seed);
  return core::Tensor::UniformRandom({2, 3, 4}, rng, -1, 1);
}

TEST(InMemoryTransportTest, RoundTripsBothDirections) {
  auto [a, b] = MakeInMemoryPair();
  const core::Tensor t = SomeTensor(1);
  ASSERT_TRUE(a->Send(Message::WithTensor(MsgType::kInfer, 5, "m", t)).ok());
  ASSERT_TRUE(b->Send(Message::HeaderOnly(MsgType::kAck, 5)).ok());

  Message got;
  ASSERT_TRUE(b->Recv(got, 100ms).ok());
  EXPECT_EQ(got.type, MsgType::kInfer);
  EXPECT_EQ(got.seq, 5);
  EXPECT_EQ(got.tag, "m");
  EXPECT_EQ(core::MaxAbsDiff(got.payload, t), 0.0F);

  ASSERT_TRUE(a->Recv(got, 100ms).ok());
  EXPECT_EQ(got.type, MsgType::kAck);
}

TEST(EmulatedLinkTest, FramesPayLatencyBeforeDelivery) {
  auto [a, b] = MakeEmulatedLinkPair(std::chrono::duration<double>(0.030),
                                     /*bandwidth_bytes_per_s=*/0);
  ASSERT_TRUE(a->Send(Message::HeaderOnly(MsgType::kAck, 1)).ok());

  // Not deliverable before the 30 ms link latency has elapsed...
  Message got;
  const auto early = b->Recv(got, 5ms);
  EXPECT_EQ(early.code(), core::StatusCode::kDeadlineExceeded);
  // ...but arrives intact once it has (generous budget for slow CI).
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(b->Recv(got, 2000ms).ok());
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(waited, 10ms);  // most of the latency is paid inside Recv
  EXPECT_EQ(got.type, MsgType::kAck);
  EXPECT_EQ(got.seq, 1);
}

TEST(EmulatedLinkTest, FramesQueueBehindEachOtherAndKeepOrder) {
  // Serial link: the second frame's payload transfers after the first's,
  // and delivery order matches send order.
  auto [a, b] = MakeEmulatedLinkPair(std::chrono::duration<double>(0.005),
                                     /*bandwidth_bytes_per_s=*/1e6);
  const core::Tensor t = SomeTensor(3);
  ASSERT_TRUE(a->Send(Message::WithTensor(MsgType::kInfer, 1, "x", t)).ok());
  ASSERT_TRUE(a->Send(Message::WithTensor(MsgType::kInfer, 2, "y", t)).ok());
  Message got;
  ASSERT_TRUE(b->Recv(got, 2000ms).ok());
  EXPECT_EQ(got.seq, 1);
  ASSERT_TRUE(b->Recv(got, 2000ms).ok());
  EXPECT_EQ(got.seq, 2);
}

TEST(EmulatedLinkTest, ZeroCostLinkBehavesLikeThePlainPair) {
  auto [a, b] = MakeEmulatedLinkPair(std::chrono::duration<double>(0.0), 0);
  ASSERT_TRUE(a->Send(Message::HeaderOnly(MsgType::kHeartbeat, 9)).ok());
  Message got;
  ASSERT_TRUE(b->Recv(got, 100ms).ok());
  EXPECT_EQ(got.type, MsgType::kHeartbeat);
}

TEST(InMemoryTransportTest, RecvTimesOutOnIdleLink) {
  auto [a, b] = MakeInMemoryPair();
  Message got;
  const auto st = a->Recv(got, 10ms);
  EXPECT_EQ(st.code(), core::StatusCode::kDeadlineExceeded);
  // The link still works afterwards.
  ASSERT_TRUE(b->Send(Message::HeaderOnly(MsgType::kHeartbeat, 1)).ok());
  EXPECT_TRUE(a->Recv(got, 100ms).ok());
}

TEST(InMemoryTransportTest, PeerCloseFailsSendAndRecvWithoutThrowing) {
  auto [a, b] = MakeInMemoryPair();
  b->Close();
  EXPECT_EQ(a->Send(Message::HeaderOnly(MsgType::kAck, 1)).code(),
            core::StatusCode::kUnavailable);
  Message got;
  EXPECT_EQ(a->Recv(got, 10ms).code(), core::StatusCode::kUnavailable);
}

TEST(InMemoryTransportTest, BufferedFramesDeliverAfterPeerClose) {
  auto [a, b] = MakeInMemoryPair();
  ASSERT_TRUE(b->Send(Message::HeaderOnly(MsgType::kResult, 9, "last")).ok());
  b->Close();
  Message got;
  ASSERT_TRUE(a->Recv(got, 100ms).ok());
  EXPECT_EQ(got.seq, 9);
  EXPECT_EQ(a->Recv(got, 10ms).code(), core::StatusCode::kUnavailable);
}

TEST(InMemoryTransportTest, CloseUnblocksAConcurrentRecv) {
  auto [a, b] = MakeInMemoryPair();
  std::thread closer([&b] {
    std::this_thread::sleep_for(20ms);
    b->Close();
  });
  Message got;
  const auto st = a->Recv(got, 5s);
  EXPECT_EQ(st.code(), core::StatusCode::kUnavailable);
  closer.join();
}

// ---- TCP ------------------------------------------------------------------

struct TcpPair {
  TransportPtr client;
  TransportPtr server;
};

TcpPair MakeTcpPair() {
  TcpListener listener(0);
  auto client = TcpConnect("127.0.0.1", listener.port(), 2000ms);
  auto server = listener.Accept(2000ms);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return {std::move(*client), std::move(*server)};
}

// A *raw* client socket (not a Transport) accepted by the listener — the
// hostile-peer harness for the corruption tests.
struct RawPeer {
  int fd = -1;
  TransportPtr server;
  RawPeer() = default;
  RawPeer(RawPeer&& other) noexcept
      : fd(std::exchange(other.fd, -1)), server(std::move(other.server)) {}
  ~RawPeer() {
    if (fd >= 0) ::close(fd);
  }
};

RawPeer ConnectRaw(TcpListener& listener) {
  RawPeer peer;
  peer.fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(peer.fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(listener.port());
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(peer.fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  auto server = listener.Accept(2000ms);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  if (server.ok()) peer.server = std::move(*server);
  return peer;
}

TEST(TcpTransportTest, RoundTripsTensorFrames) {
  auto pair = MakeTcpPair();
  const core::Tensor t = SomeTensor(2);
  ASSERT_TRUE(
      pair.client->Send(Message::WithTensor(MsgType::kResult, 3, "r", t)).ok());
  Message got;
  ASSERT_TRUE(pair.server->Recv(got, 2000ms).ok());
  EXPECT_EQ(got.type, MsgType::kResult);
  EXPECT_EQ(core::MaxAbsDiff(got.payload, t), 0.0F);

  ASSERT_TRUE(pair.server->Send(Message::HeaderOnly(MsgType::kAck, 3)).ok());
  ASSERT_TRUE(pair.client->Recv(got, 2000ms).ok());
  EXPECT_EQ(got.type, MsgType::kAck);
}

TEST(TcpTransportTest, ManyFramesInOneBurstStayFrameAligned) {
  auto pair = MakeTcpPair();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(pair.client
                    ->Send(Message::HeaderOnly(MsgType::kHeartbeat, i,
                                               "tag" + std::to_string(i)))
                    .ok());
  }
  for (int i = 0; i < 50; ++i) {
    Message got;
    ASSERT_TRUE(pair.server->Recv(got, 2000ms).ok()) << "frame " << i;
    EXPECT_EQ(got.seq, i);
    EXPECT_EQ(got.tag, "tag" + std::to_string(i));
  }
}

TEST(TcpTransportTest, GarbageBytesReturnDataLossNotThrow) {
  TcpListener listener(0);
  RawPeer peer = ConnectRaw(listener);

  const char garbage[] = "this is not a FLMS frame at all ...............";
  ASSERT_GT(::send(peer.fd, garbage, sizeof(garbage), 0), 0);

  Message got;
  const auto st = peer.server->Recv(got, 2000ms);
  EXPECT_EQ(st.code(), core::StatusCode::kDataLoss);
  EXPECT_TRUE(peer.server->closed());
}

TEST(TcpTransportTest, GarbageBurstWithPlausibleLengthIsStillDataLoss) {
  // Regression: >= 8 garbage bytes arriving in one recv used to skip the
  // early magic check; if the garbage-derived length field was small the
  // reader stalled forever in kDeadlineExceeded instead of kDataLoss.
  TcpListener listener(0);
  RawPeer peer = ConnectRaw(listener);

  std::uint8_t burst[16];
  std::memset(burst, 0xAB, sizeof(burst));   // bad magic
  const std::uint32_t small_len = 4;         // innocent-looking length
  std::memcpy(burst + 4, &small_len, 4);
  ASSERT_EQ(::send(peer.fd, burst, sizeof(burst), 0), 16);

  Message got;
  const auto st = peer.server->Recv(got, 2000ms);
  EXPECT_EQ(st.code(), core::StatusCode::kDataLoss);
}

TEST(TcpTransportTest, TruncatedFrameIsDataLossOnPeerDeath) {
  TcpListener listener(0);
  RawPeer peer = ConnectRaw(listener);

  // First half of a legitimate frame, then the peer "loses power".
  const auto bytes = EncodeMessage(
      Message::WithTensor(MsgType::kInfer, 1, "x", SomeTensor(3)));
  ASSERT_GT(::send(peer.fd, bytes.data(), bytes.size() / 2, 0), 0);
  ::close(peer.fd);
  peer.fd = -1;

  Message got;
  const auto st = peer.server->Recv(got, 2000ms);
  EXPECT_EQ(st.code(), core::StatusCode::kDataLoss);
}

TEST(TcpTransportTest, AbsurdFrameLengthIsDataLoss) {
  TcpListener listener(0);
  RawPeer peer = ConnectRaw(listener);

  // Valid magic, hostile length.
  std::uint8_t hdr[8];
  const std::uint32_t len = 0xFFFFFFFFu;
  std::memcpy(hdr, &kFrameMagic, 4);
  std::memcpy(hdr + 4, &len, 4);
  ASSERT_EQ(::send(peer.fd, hdr, sizeof(hdr), 0), 8);

  Message got;
  const auto st = peer.server->Recv(got, 2000ms);
  EXPECT_EQ(st.code(), core::StatusCode::kDataLoss);
}

TEST(TcpTransportTest, OversizedFrameIsRejectedBySenderWithoutClosing) {
  auto pair = MakeTcpPair();
  // A payload whose encoded frame exceeds the wire limit must fail fast
  // on the sender and leave the connection healthy.
  core::Tensor huge({(64 << 20) / 4 + 1024});
  const auto st =
      pair.client->Send(Message::WithTensor(MsgType::kDeploy, 1, "big",
                                            std::move(huge)));
  EXPECT_EQ(st.code(), core::StatusCode::kInvalidArgument);
  EXPECT_FALSE(pair.client->closed());
  ASSERT_TRUE(pair.client->Send(Message::HeaderOnly(MsgType::kAck, 2)).ok());
  Message got;
  ASSERT_TRUE(pair.server->Recv(got, 2000ms).ok());
  EXPECT_EQ(got.seq, 2);
}

// ---- SendBatch / vectored wire path ---------------------------------------

TEST(InMemoryTransportTest, SendBatchDeliversInOrderAndCountsOneBatchedSend) {
  auto [a, b] = MakeInMemoryPair();
  const core::Tensor t = SomeTensor(7);
  const Message batch[] = {
      Message::WithBatch(MsgType::kInfer, 1, "x", t.Clone()),
      Message::HeaderOnly(MsgType::kHeartbeat, 2),
      Message::WithBatch(MsgType::kInfer, 3, "y", t.Clone()),
  };
  std::int64_t wire_bytes = 0;
  for (const Message& m : batch) wire_bytes += EncodedSize(m);
  ASSERT_TRUE(a->SendBatch(batch).ok());
  for (std::int64_t seq = 1; seq <= 3; ++seq) {
    Message got;
    ASSERT_TRUE(b->Recv(got, 1000ms).ok()) << "seq " << seq;
    EXPECT_EQ(got.seq, seq);
  }
  const WireStats sent = a->wire_stats();
  EXPECT_EQ(sent.frames_sent, 3);
  EXPECT_EQ(sent.batched_sends, 1);
  EXPECT_EQ(sent.bytes_sent, wire_bytes);
  const WireStats recvd = b->wire_stats();
  EXPECT_EQ(recvd.frames_recv, 3);
  EXPECT_EQ(recvd.bytes_recv, wire_bytes);
}

TEST(EmulatedLinkTest, SendBatchPaysLatencyOncePerBatch) {
  // A batch is one link transaction: a single latency head start, then
  // the frames serialize back to back. All three must arrive little after
  // one latency, not one per frame.
  auto [a, b] = MakeEmulatedLinkPair(std::chrono::duration<double>(0.050),
                                     /*bandwidth_bytes_per_s=*/0);
  const Message batch[] = {
      Message::HeaderOnly(MsgType::kAck, 1),
      Message::HeaderOnly(MsgType::kAck, 2),
      Message::HeaderOnly(MsgType::kAck, 3),
  };
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(a->SendBatch(batch).ok());
  Message got;
  for (std::int64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(b->Recv(got, 2000ms).ok());
    EXPECT_EQ(got.seq, seq);
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, 40ms);   // the one head start is still paid
  EXPECT_LT(elapsed, 120ms);  // but not once per frame
}

TEST(TcpTransportTest, SendBatchRoundTripsMixedVersionsInOneWritev) {
  auto pair = MakeTcpPair();
  core::Rng rng(42);
  // Big enough that the fp32 and int8 bulks stream straight into pooled
  // storage on the receiver (> the staged-decode cutoff), plus a tiny
  // header-only frame riding in the same writev.
  core::Tensor big = core::Tensor::UniformRandom({4, 16, 14, 14}, rng, -1, 1);
  core::Tensor input = core::Tensor::UniformRandom({4, 1, 28, 28}, rng, 0, 1);
  const quant::QuantizedTensor q = quant::QuantizeTensor(input);
  const Message batch[] = {
      Message::WithBatch(MsgType::kInfer, 1, "fp32", big.Clone()),
      Message::HeaderOnly(MsgType::kHeartbeat, 2),
      Message::WithQuantInput(MsgType::kInfer, 3, "upper50", q),
  };
  std::int64_t wire_bytes = 0;
  for (const Message& m : batch) wire_bytes += EncodedSize(m);
  ASSERT_TRUE(pair.client->SendBatch(batch).ok());

  Message got;
  ASSERT_TRUE(pair.server->Recv(got, 2000ms).ok());
  EXPECT_EQ(got.seq, 1);
  EXPECT_EQ(core::MaxAbsDiff(got.payload, big), 0.0F);
  ASSERT_TRUE(pair.server->Recv(got, 2000ms).ok());
  EXPECT_EQ(got.seq, 2);
  EXPECT_EQ(got.type, MsgType::kHeartbeat);
  ASSERT_TRUE(pair.server->Recv(got, 2000ms).ok());
  EXPECT_EQ(got.seq, 3);
  ASSERT_TRUE(got.has_qpayload());
  EXPECT_TRUE(got.input_quant);
  EXPECT_EQ(got.qpayload.scale, q.scale);
  EXPECT_EQ(got.qpayload.data, q.data);

  const WireStats sent = pair.client->wire_stats();
  EXPECT_EQ(sent.frames_sent, 3);
  EXPECT_EQ(sent.batched_sends, 1);
  EXPECT_EQ(sent.bytes_sent, wire_bytes);
  const WireStats recvd = pair.server->wire_stats();
  EXPECT_EQ(recvd.frames_recv, 3);
  EXPECT_EQ(recvd.bytes_recv, wire_bytes);
}

TEST(TcpTransportTest, SingleFrameSendDoesNotCountAsBatched) {
  auto pair = MakeTcpPair();
  ASSERT_TRUE(pair.client->Send(Message::HeaderOnly(MsgType::kAck, 1)).ok());
  Message got;
  ASSERT_TRUE(pair.server->Recv(got, 2000ms).ok());
  EXPECT_EQ(pair.client->wire_stats().frames_sent, 1);
  EXPECT_EQ(pair.client->wire_stats().batched_sends, 0);
}

TEST(TcpTransportTest, LargeFrameDribbledBytewiseStillDecodes) {
  // The streaming receive path must assemble a frame that arrives in many
  // small TCP segments — the prelude split across reads, the bulk filling
  // pooled storage a chunk at a time.
  TcpListener listener(0);
  RawPeer peer = ConnectRaw(listener);
  core::Rng rng(5);
  core::Tensor input = core::Tensor::UniformRandom({8, 1, 28, 28}, rng, 0, 1);
  const quant::QuantizedTensor q = quant::QuantizeTensor(input);
  Message msg = Message::WithQuantInput(MsgType::kInfer, 11, "upper50", q);
  msg.SetSlo(1, 99);
  const auto bytes = EncodeMessage(msg);
  ASSERT_GT(bytes.size(), 4096u) << "frame too small to exercise streaming";

  std::thread dribbler([&] {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const std::size_t n = std::min<std::size_t>(977, bytes.size() - off);
      ASSERT_EQ(::send(peer.fd, bytes.data() + off, n, 0),
                static_cast<ssize_t>(n));
      off += n;
      std::this_thread::sleep_for(1ms);
    }
  });
  Message got;
  const auto st = peer.server->Recv(got, 5000ms);
  dribbler.join();
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(got.seq, 11);
  EXPECT_EQ(got.tag, "upper50");
  ASSERT_TRUE(got.has_qpayload());
  EXPECT_TRUE(got.input_quant);
  EXPECT_EQ(got.priority, 1);
  EXPECT_EQ(got.slo_ms, 99);
  EXPECT_EQ(got.qpayload.scale, q.scale);
  EXPECT_EQ(got.qpayload.shape, q.shape);
  EXPECT_EQ(got.qpayload.data, q.data);
}

TEST(TcpTransportTest, DribbledCorruptShapeIsDataLossNotHang) {
  // Same dribble delivery, but the tensor's element count disagrees with
  // its dims: whichever decode path sees it first must fail the stream as
  // DataLoss instead of waiting for bytes that will never come.
  TcpListener listener(0);
  RawPeer peer = ConnectRaw(listener);
  auto bytes = EncodeMessage(
      Message::WithTensor(MsgType::kInfer, 1, "x", SomeTensor(9)));
  // Body layout: [ver][type][seq][batch][tag u32+1]["x"][has_tensor][rank]
  // then the dims; bump dim0's low byte so count != prod(dims).
  const std::size_t dim0_off = 8 + 1 + 1 + 8 + 8 + 4 + 1 + 1 + 4;
  ASSERT_LT(dim0_off, bytes.size());
  bytes[dim0_off] += 1;
  std::thread dribbler([&] {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const std::size_t n = std::min<std::size_t>(64, bytes.size() - off);
      if (::send(peer.fd, bytes.data() + off, n, MSG_NOSIGNAL) <= 0) return;
      off += n;
      std::this_thread::sleep_for(1ms);
    }
  });
  Message got;
  const auto st = peer.server->Recv(got, 5000ms);
  dribbler.join();
  EXPECT_EQ(st.code(), core::StatusCode::kDataLoss);
  EXPECT_TRUE(peer.server->closed());
}

TEST(TcpTransportTest, SendBatchFailsCleanlyOnClosedPeer) {
  auto pair = MakeTcpPair();
  pair.server->Close();
  const Message batch[] = {
      Message::HeaderOnly(MsgType::kAck, 1),
      Message::HeaderOnly(MsgType::kAck, 2),
  };
  // The peer teardown may race the first writev into a success; a second
  // batch must surface the dead link as a Status, never a signal/throw.
  core::Status st = pair.client->SendBatch(batch);
  for (int i = 0; i < 20 && st.ok(); ++i) {
    std::this_thread::sleep_for(10ms);
    st = pair.client->SendBatch(batch);
  }
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(pair.client->closed());
}

TEST(TcpTransportTest, ConnectToDeadPortFailsWithStatus) {
  // Grab an ephemeral port, then close the listener so nobody listens.
  std::uint16_t dead_port = 0;
  {
    TcpListener listener(0);
    dead_port = listener.port();
  }
  auto client = TcpConnect("127.0.0.1", dead_port, 500ms);
  EXPECT_FALSE(client.ok());
}

TEST(TcpTransportTest, AcceptTimesOutWithStatus) {
  TcpListener listener(0);
  auto server = listener.Accept(30ms);
  EXPECT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), core::StatusCode::kDeadlineExceeded);
}

TEST(TcpTransportTest, BadAddressIsInvalidArgument) {
  auto client = TcpConnect("not-an-ip", 1, 100ms);
  EXPECT_EQ(client.status().code(), core::StatusCode::kInvalidArgument);
}

// ---- full-duplex contract ---------------------------------------------------
// One sender thread and one receiver thread on the same endpoint, with
// wire_stats()/closed() read from a third, while the peer echoes every
// frame back; then a Close from yet another thread wakes a blocked Recv.
// The frames are large enough to take TCP's streaming decode path. The
// dist suite runs under ThreadSanitizer in CI, which is what checks the
// "may run concurrently" half of the contract.

void ExerciseFullDuplex(Transport& near, Transport& far) {
  constexpr int kFrames = 120;
  auto payload = [](int i) {
    core::Rng rng(static_cast<std::uint64_t>(i) + 1);
    return core::Tensor::UniformRandom({2, 3, 28, 28}, rng, -1, 1);
  };
  std::thread echo([&far] {
    for (int i = 0; i < kFrames; ++i) {
      Message msg;
      if (!far.Recv(msg, 5000ms).ok()) return;
      msg.type = MsgType::kResult;
      if (!far.Send(msg).ok()) return;
    }
  });
  int received = 0;
  std::thread receiver([&] {
    for (; received < kFrames; ++received) {
      Message got;
      const core::Status st = near.Recv(got, 5000ms);
      if (!st.ok()) {
        ADD_FAILURE() << "Recv: " << st.ToString();
        return;
      }
      EXPECT_EQ(got.seq, received);
      EXPECT_EQ(core::MaxAbsDiff(got.payload, payload(received)), 0.0F);
    }
  });
  std::atomic<bool> done{false};
  std::thread observer([&] {
    while (!done.load()) {
      const WireStats ws = near.wire_stats();
      EXPECT_LE(ws.frames_recv, ws.frames_sent);
      EXPECT_FALSE(near.closed());
      std::this_thread::sleep_for(200us);
    }
  });
  for (int i = 0; i < kFrames; ++i) {
    const core::Status st =
        near.Send(Message::WithTensor(MsgType::kInfer, i, "duplex", payload(i)));
    if (!st.ok()) {
      ADD_FAILURE() << "Send: " << st.ToString();
      break;
    }
  }
  receiver.join();
  echo.join();
  done = true;
  observer.join();
  EXPECT_EQ(received, kFrames);
  const WireStats ws = near.wire_stats();
  EXPECT_EQ(ws.frames_sent, kFrames);
  EXPECT_EQ(ws.frames_recv, kFrames);

  std::thread closer([&near] {
    std::this_thread::sleep_for(20ms);
    near.Close();
  });
  Message got;
  EXPECT_EQ(near.Recv(got, 5s).code(), core::StatusCode::kUnavailable);
  closer.join();
  EXPECT_TRUE(near.closed());
}

TEST(FullDuplexTransportTest, ConcurrentSendAndRecvOverLoopbackTcp) {
  auto pair = MakeTcpPair();
  ASSERT_NE(pair.client, nullptr);
  ASSERT_NE(pair.server, nullptr);
  ExerciseFullDuplex(*pair.client, *pair.server);
}

TEST(FullDuplexTransportTest, ConcurrentSendAndRecvOverTheEmulatedLink) {
  auto [a, b] = MakeEmulatedLinkPair(std::chrono::duration<double>(2e-3),
                                     100e6 / 8.0);
  ExerciseFullDuplex(*a, *b);
}

TEST(FullDuplexTransportTest, OwnCloseEndsRecvEvenWithFramesBuffered) {
  // A receive thread woken by its own endpoint's Close must exit at once,
  // not first drain frames still in flight on the link.
  auto [a, b] = MakeEmulatedLinkPair(std::chrono::duration<double>(0.5), 0.0);
  ASSERT_TRUE(b->Send(Message::HeaderOnly(MsgType::kAck, 1)).ok());
  a->Close();
  Message got;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(a->Recv(got, 5s).code(), core::StatusCode::kUnavailable);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 250ms);
}

}  // namespace
}  // namespace fluid::dist
