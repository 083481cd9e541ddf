// Tests for the transport layer (src/net): wire serialization round-trips,
// framing integrity, and fault injection — truncated frames, bad magic,
// oversized declarations, deadline expiry, seeded byte mutations of whole
// frames — over real loopback sockets.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstring>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "test_helpers.hpp"

namespace cosched {
namespace {

// ------------------------------------------------------------ wire

TEST(Wire, IntegersRoundTripBigEndian) {
  WireWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-42);
  w.i64(-1234567890123456789ll);
  w.boolean(true);
  std::vector<std::uint8_t> bytes = w.take();
  // Big-endian on the wire: the u16's high byte first.
  EXPECT_EQ(bytes[1], 0xBE);
  EXPECT_EQ(bytes[2], 0xEF);

  WireReader r(bytes);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123456789ll);
  EXPECT_TRUE(r.boolean());
  EXPECT_TRUE(r.complete());
}

TEST(Wire, RealsRoundTripExactly) {
  const Real values[] = {0.0,
                         -0.0,
                         1.0 / 3.0,
                         -123.456789e-12,
                         std::numeric_limits<Real>::infinity(),
                         std::numeric_limits<Real>::denorm_min(),
                         std::numeric_limits<Real>::max()};
  WireWriter w;
  for (Real v : values) w.real(v);
  WireReader r(w.bytes());
  for (Real v : values) {
    Real got = r.real();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(v));
  }
  EXPECT_TRUE(r.complete());
}

TEST(Wire, StringsRoundTripIncludingEmbeddedNul) {
  WireWriter w;
  w.str("");
  w.str(std::string("a\0b", 3));
  w.str("plain");
  WireReader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string("a\0b", 3));
  EXPECT_EQ(r.str(), "plain");
  EXPECT_TRUE(r.complete());
}

TEST(Wire, ReaderFailsClosedOnShortBuffer) {
  WireWriter w;
  w.u32(7);
  std::vector<std::uint8_t> bytes = w.take();
  bytes.pop_back();
  WireReader r(bytes);
  EXPECT_EQ(r.u32(), 0u);  // zero after failure, never garbage
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.complete());
  EXPECT_EQ(r.u64(), 0u);  // stays failed
}

TEST(Wire, ReaderRejectsLyingStringLength) {
  WireWriter w;
  w.u32(1000);  // claims 1000 bytes follow; none do
  WireReader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

TEST(Wire, CompleteDetectsTrailingBytes) {
  WireWriter w;
  w.u8(1);
  w.u8(2);
  WireReader r(w.bytes());
  EXPECT_EQ(r.u8(), 1);
  EXPECT_TRUE(r.ok());
  EXPECT_FALSE(r.complete());  // one byte unread
}

// ------------------------------------------------------------ sockets

struct Loopback {
  Socket listener;
  Socket client;
  Socket server;

  static Loopback make() {
    Loopback lb;
    NetStatus status = NetStatus::Ok;
    lb.listener = Socket::listen_on("127.0.0.1", 0, 4, status);
    EXPECT_EQ(status, NetStatus::Ok);
    lb.client = Socket::connect_to("127.0.0.1", lb.listener.local_port(),
                                   Deadline::after(2.0), status);
    EXPECT_EQ(status, NetStatus::Ok);
    lb.server = lb.listener.accept_connection(Deadline::after(2.0), status);
    EXPECT_EQ(status, NetStatus::Ok);
    return lb;
  }
};

TEST(SocketTest, ConnectRefusedIsReported) {
  NetStatus status = NetStatus::Ok;
  Socket listener = Socket::listen_on("127.0.0.1", 0, 1, status);
  ASSERT_EQ(status, NetStatus::Ok);
  std::uint16_t dead_port = listener.local_port();
  listener.close();  // nobody listens here any more
  Socket c = Socket::connect_to("127.0.0.1", dead_port, Deadline::after(2.0),
                                status);
  EXPECT_FALSE(c.valid());
  EXPECT_EQ(status, NetStatus::Refused);
}

TEST(SocketTest, AcceptTimesOutWithoutAPeer) {
  NetStatus status = NetStatus::Ok;
  Socket listener = Socket::listen_on("127.0.0.1", 0, 1, status);
  ASSERT_EQ(status, NetStatus::Ok);
  Socket conn = listener.accept_connection(Deadline::after(0.05), status);
  EXPECT_EQ(status, NetStatus::Timeout);
  EXPECT_FALSE(conn.valid());
}

TEST(SocketTest, SendRecvMoveBytesFaithfully) {
  Loopback lb = Loopback::make();
  std::vector<std::uint8_t> out(4096);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<std::uint8_t>(i * 31 + 7);
  ASSERT_EQ(lb.client.send_all(out.data(), out.size(), Deadline::after(2.0)),
            NetStatus::Ok);
  std::vector<std::uint8_t> in(out.size());
  ASSERT_EQ(lb.server.recv_all(in.data(), in.size(), Deadline::after(2.0)),
            NetStatus::Ok);
  EXPECT_EQ(in, out);
}

TEST(SocketTest, RecvReportsCleanPeerClose) {
  Loopback lb = Loopback::make();
  lb.client.close();
  std::uint8_t byte = 0;
  EXPECT_EQ(lb.server.recv_all(&byte, 1, Deadline::after(2.0)),
            NetStatus::Closed);
}

TEST(SocketTest, RecvTimesOutOnSilentPeer) {
  Loopback lb = Loopback::make();
  std::uint8_t byte = 0;
  EXPECT_EQ(lb.server.recv_all(&byte, 1, Deadline::after(0.05)),
            NetStatus::Timeout);
}

// ------------------------------------------------------------ framing

TEST(Frame, RoundTripsPayload) {
  Loopback lb = Loopback::make();
  std::vector<std::uint8_t> payload = {1, 2, 3, 250, 251, 252};
  ASSERT_EQ(write_frame(lb.client, payload, Deadline::after(2.0)),
            FrameStatus::Ok);
  std::vector<std::uint8_t> got;
  ASSERT_EQ(read_frame(lb.server, got, Deadline::after(2.0)), FrameStatus::Ok);
  EXPECT_EQ(got, payload);
}

TEST(Frame, EmptyPayloadIsLegal) {
  Loopback lb = Loopback::make();
  ASSERT_EQ(write_frame(lb.client, nullptr, 0, Deadline::after(2.0)),
            FrameStatus::Ok);
  std::vector<std::uint8_t> got = {9, 9};
  ASSERT_EQ(read_frame(lb.server, got, Deadline::after(2.0)), FrameStatus::Ok);
  EXPECT_TRUE(got.empty());
}

TEST(Frame, CleanEofBetweenFramesIsClosed) {
  Loopback lb = Loopback::make();
  std::vector<std::uint8_t> payload = {7};
  ASSERT_EQ(write_frame(lb.client, payload, Deadline::after(2.0)),
            FrameStatus::Ok);
  lb.client.close();
  std::vector<std::uint8_t> got;
  ASSERT_EQ(read_frame(lb.server, got, Deadline::after(2.0)), FrameStatus::Ok);
  EXPECT_EQ(read_frame(lb.server, got, Deadline::after(2.0)),
            FrameStatus::Closed);
}

TEST(Frame, TruncatedHeaderIsTruncatedNotClosed) {
  Loopback lb = Loopback::make();
  // 3 bytes of magic, then gone: mid-frame EOF.
  const std::uint8_t partial[] = {0x43, 0x53, 0x43};
  ASSERT_EQ(lb.client.send_all(partial, sizeof partial, Deadline::after(2.0)),
            NetStatus::Ok);
  lb.client.close();
  std::vector<std::uint8_t> got;
  EXPECT_EQ(read_frame(lb.server, got, Deadline::after(2.0)),
            FrameStatus::Truncated);
}

TEST(Frame, TruncatedPayloadIsTruncated) {
  Loopback lb = Loopback::make();
  WireWriter w;
  w.u32(kFrameMagic);
  w.u32(100);  // declares 100 payload bytes...
  std::vector<std::uint8_t> header = w.take();
  header.push_back(1);  // ...delivers 3
  header.push_back(2);
  header.push_back(3);
  ASSERT_EQ(
      lb.client.send_all(header.data(), header.size(), Deadline::after(2.0)),
      NetStatus::Ok);
  lb.client.close();
  std::vector<std::uint8_t> got;
  EXPECT_EQ(read_frame(lb.server, got, Deadline::after(2.0)),
            FrameStatus::Truncated);
}

TEST(Frame, GarbageMagicIsRejected) {
  Loopback lb = Loopback::make();
  WireWriter w;
  w.u32(0x48545450);  // "HTTP"
  w.u32(4);
  w.u32(0);
  ASSERT_EQ(lb.client.send_all(w.bytes().data(), w.bytes().size(),
                               Deadline::after(2.0)),
            NetStatus::Ok);
  std::vector<std::uint8_t> got;
  EXPECT_EQ(read_frame(lb.server, got, Deadline::after(2.0)),
            FrameStatus::BadMagic);
}

TEST(Frame, OversizedDeclarationRejectedBeforeAllocation) {
  Loopback lb = Loopback::make();
  WireWriter w;
  w.u32(kFrameMagic);
  w.u32(0xFFFFFFFFu);  // 4 GiB claim; must not be trusted
  ASSERT_EQ(lb.client.send_all(w.bytes().data(), w.bytes().size(),
                               Deadline::after(2.0)),
            NetStatus::Ok);
  std::vector<std::uint8_t> got;
  EXPECT_EQ(read_frame(lb.server, got, Deadline::after(2.0), 1024),
            FrameStatus::Oversized);
}

TEST(Frame, ReadTimesOutMidFrame) {
  Loopback lb = Loopback::make();
  WireWriter w;
  w.u32(kFrameMagic);
  w.u32(64);  // promises payload, never sends it
  ASSERT_EQ(lb.client.send_all(w.bytes().data(), w.bytes().size(),
                               Deadline::after(2.0)),
            NetStatus::Ok);
  std::vector<std::uint8_t> got;
  EXPECT_EQ(read_frame(lb.server, got, Deadline::after(0.05)),
            FrameStatus::Timeout);
}

TEST(Frame, ManyFramesBackToBack) {
  Loopback lb = Loopback::make();
  std::thread writer([&] {
    for (std::uint8_t i = 0; i < 50; ++i) {
      std::vector<std::uint8_t> payload(static_cast<std::size_t>(i) * 7 + 1,
                                        i);
      ASSERT_EQ(write_frame(lb.client, payload, Deadline::after(5.0)),
                FrameStatus::Ok);
    }
    lb.client.shutdown_send();
  });
  std::vector<std::uint8_t> got;
  for (std::uint8_t i = 0; i < 50; ++i) {
    ASSERT_EQ(read_frame(lb.server, got, Deadline::after(5.0)),
              FrameStatus::Ok);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(i) * 7 + 1);
    for (std::uint8_t byte : got) EXPECT_EQ(byte, i);
  }
  EXPECT_EQ(read_frame(lb.server, got, Deadline::after(2.0)),
            FrameStatus::Closed);
  writer.join();
}

// ------------------------------------------------------------ frame mutation

/// read_frame over a fresh socket pair that carries `stream` and then EOF.
/// The writer has closed, so every outcome must be a definite FrameStatus:
/// never a wait for more bytes, never a crash. True when a frame came out.
bool reads_a_frame(const std::vector<std::uint8_t>& stream,
                   std::set<FrameStatus>& seen) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    ADD_FAILURE() << "socketpair failed";
    return false;
  }
  Socket writer(fds[0]);
  Socket reader(fds[1]);
  EXPECT_EQ(writer.send_all(stream.data(), stream.size(), Deadline::after(2.0)),
            NetStatus::Ok);
  writer.close();
  std::vector<std::uint8_t> payload;
  FrameStatus status = read_frame(reader, payload, Deadline::after(2.0));
  seen.insert(status);
  EXPECT_NE(status, FrameStatus::Timeout);
  EXPECT_NE(status, FrameStatus::Error);
  if (status != FrameStatus::Ok) return false;
  EXPECT_LE(payload.size() + 8, stream.size());
  return true;
}

std::vector<std::uint8_t> frame_of(const std::vector<std::uint8_t>& payload) {
  WireWriter w;
  w.u32(kFrameMagic);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes_raw(payload);
  return w.take();
}

TEST(FrameMutation, EveryMutatedFrameEndsInAFrameStatus) {
  WireWriter body;
  body.u16(9);
  body.u8(1);
  body.u64(41);
  body.str("tenantA/lu.C.4");
  std::vector<std::uint8_t> two_frames = frame_of(body.bytes());
  std::vector<std::uint8_t> second = frame_of({7, 7, 7});
  two_frames.insert(two_frames.end(), second.begin(), second.end());
  const std::vector<std::uint8_t> inputs[] = {
      frame_of({}), frame_of(body.bytes()), two_frames};
  std::set<FrameStatus> seen;
  std::uint64_t seed = 0xf7a3e100;
  for (const std::vector<std::uint8_t>& input : inputs) {
    ASSERT_TRUE(reads_a_frame(input, seen));
    testhelpers::for_each_mutation(
        input, ++seed,
        [&](const std::vector<std::uint8_t>& stream) {
          return reads_a_frame(stream, seen);
        });
  }
  // The mutations reach every outcome a peer's bytes can produce.
  for (FrameStatus status : {FrameStatus::Ok, FrameStatus::Closed,
                             FrameStatus::Truncated, FrameStatus::BadMagic,
                             FrameStatus::Oversized})
    EXPECT_EQ(seen.count(status), 1u) << to_string(status);
}

}  // namespace
}  // namespace cosched
