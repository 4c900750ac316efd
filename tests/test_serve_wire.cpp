// Wire protocol tests: message encode/decode round-trips, framed I/O
// over a pipe (EOF vs truncation vs oversize), and the full loopback
// integration — a TcpClient docking through a TcpServer backed by a real
// DockingService, ending in a graceful SHUTDOWN.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "src/chem/synthetic.hpp"
#include "src/common/rng.hpp"
#include "src/rl/checkpoint.hpp"
#include "src/serve/tcp.hpp"
#include "src/serve/wire.hpp"
#include "tests/temp_dir.hpp"

namespace dqndock::serve {
namespace {

TEST(WireMessageTest, EncodeDecodeRoundTrip) {
  Message msg{"DOCK", {}};
  msg.set("max_steps", 25L).set("epsilon", 0.125).set("tag", "run-7");
  msg.set("seed", std::uint64_t{42});

  const std::string payload = encodeMessage(msg);
  const Message back = decodeMessage(payload);
  EXPECT_EQ(back.type, "DOCK");
  EXPECT_EQ(back.getInt("max_steps", -1), 25);
  EXPECT_EQ(back.getDouble("epsilon", 0.0), 0.125);
  EXPECT_EQ(back.get("tag"), "run-7");
  EXPECT_EQ(back.getInt("seed", 0), 42);
  EXPECT_FALSE(back.has("missing"));
  EXPECT_EQ(back.get("missing", "fallback"), "fallback");
}

TEST(WireMessageTest, DoubleFieldsRoundTripExactly) {
  Message msg{"OK", {}};
  msg.set("score", 0.1 + 0.2);  // a value with no short decimal form
  const Message back = decodeMessage(encodeMessage(msg));
  EXPECT_EQ(back.getDouble("score", 0.0), 0.1 + 0.2);  // %.17g is lossless
}

TEST(WireMessageTest, EncodeRejectsUnrepresentableContent) {
  EXPECT_THROW(encodeMessage(Message{"", {}}), std::invalid_argument);
  EXPECT_THROW(encodeMessage(Message{"A\nB", {}}), std::invalid_argument);
  EXPECT_THROW(encodeMessage(Message{"OK", {{"k", "line1\nline2"}}}), std::invalid_argument);
  EXPECT_THROW(encodeMessage(Message{"OK", {{"bad=key", "v"}}}), std::invalid_argument);
  EXPECT_THROW(encodeMessage(Message{"OK", {{"", "v"}}}), std::invalid_argument);
}

TEST(WireMessageTest, DecodeRejectsMalformedPayloads) {
  // Malformed peer payloads are ProtocolError (a runtime_error subtype),
  // so servers can distinguish "peer sent garbage" from transport faults.
  EXPECT_THROW(decodeMessage(""), ProtocolError);
  EXPECT_THROW(decodeMessage("OK\nno-equals-sign"), ProtocolError);
}

class PipeFixture : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_EQ(::pipe(fds_), 0); }
  void TearDown() override {
    closeRead();
    closeWrite();
  }
  void closeRead() {
    if (fds_[0] >= 0) ::close(fds_[0]);
    fds_[0] = -1;
  }
  void closeWrite() {
    if (fds_[1] >= 0) ::close(fds_[1]);
    fds_[1] = -1;
  }
  int readFd() const { return fds_[0]; }
  int writeFd() const { return fds_[1]; }

 private:
  int fds_[2] = {-1, -1};
};

TEST_F(PipeFixture, FrameRoundTripAndCleanEof) {
  writeFrame(writeFd(), "hello frame");
  writeFrame(writeFd(), "");  // empty payloads are legal frames
  closeWrite();
  std::string payload;
  ASSERT_TRUE(readFrame(readFd(), payload));
  EXPECT_EQ(payload, "hello frame");
  ASSERT_TRUE(readFrame(readFd(), payload));
  EXPECT_EQ(payload, "");
  EXPECT_FALSE(readFrame(readFd(), payload));  // clean EOF at frame boundary
}

TEST_F(PipeFixture, TruncatedPrefixAndPayloadThrow) {
  // EOF after a PARTIAL length prefix is a mid-frame hangup, never a
  // clean shutdown: it must throw ProtocolError, not return false.
  const unsigned char partialPrefix[2] = {0, 0};
  ASSERT_EQ(::write(writeFd(), partialPrefix, 2), 2);
  closeWrite();
  std::string payload;
  EXPECT_THROW(readFrame(readFd(), payload), ProtocolError);
}

TEST_F(PipeFixture, TruncatedBodyThrows) {
  const unsigned char prefix[4] = {0, 0, 0, 10};  // announces 10 bytes
  ASSERT_EQ(::write(writeFd(), prefix, 4), 4);
  ASSERT_EQ(::write(writeFd(), "abc", 3), 3);  // delivers 3
  closeWrite();
  std::string payload;
  EXPECT_THROW(readFrame(readFd(), payload), ProtocolError);
}

TEST_F(PipeFixture, SingleByteTruncationThrows) {
  // The tightest truncation: one byte of prefix, then hangup.
  const unsigned char oneByte[1] = {7};
  ASSERT_EQ(::write(writeFd(), oneByte, 1), 1);
  closeWrite();
  std::string payload;
  EXPECT_THROW(readFrame(readFd(), payload), ProtocolError);
}

TEST_F(PipeFixture, OversizedFramesRejectedBothDirections) {
  const std::string huge(kMaxFrameBytes + 1, 'x');
  EXPECT_THROW(writeFrame(writeFd(), huge), std::runtime_error);
  const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};  // hostile length
  ASSERT_EQ(::write(writeFd(), prefix, 4), 4);
  closeWrite();
  std::string payload;
  EXPECT_THROW(readFrame(readFd(), payload), ProtocolError);
}

TEST_F(PipeFixture, SendRecvMessageOverPipe) {
  Message msg{"STATUS", {}};
  msg.set("probe", 1L);
  sendMessage(writeFd(), msg);
  closeWrite();
  Message back;
  ASSERT_TRUE(recvMessage(readFd(), back));
  EXPECT_EQ(back.type, "STATUS");
  EXPECT_EQ(back.getInt("probe", 0), 1);
  EXPECT_FALSE(recvMessage(readFd(), back));
}

// ---------------------------------------------------------------------------

/// Full stack on loopback: scenario -> registry -> service -> TCP.
class LoopbackFixture : public ::testing::Test {
 protected:
  LoopbackFixture() : scenario_(chem::buildScenario(chem::ScenarioSpec::tiny())) {
    Rng rng(2024);
    const std::size_t dim = scenario_.ligand.atomCount() * 3;
    registry_ = std::make_unique<ModelRegistry>(
        std::make_unique<rl::MlpQNetwork>(dim, std::vector<std::size_t>{16}, 12, rng));
    ServiceOptions opts;
    opts.workers = 2;
    opts.queueCapacity = 8;
    opts.batcher.flushDeadline = std::chrono::microseconds(50);
    service_ = std::make_unique<DockingService>(scenario_, *registry_, opts);
    server_ = std::make_unique<TcpServer>(*service_, *registry_);
  }

  ~LoopbackFixture() override {
    server_->stop();
    service_->shutdown();
  }

  chem::Scenario scenario_;
  std::unique_ptr<ModelRegistry> registry_;
  std::unique_ptr<DockingService> service_;
  std::unique_ptr<TcpServer> server_;
};

TEST_F(LoopbackFixture, PingAndStatus) {
  TcpClient client(server_->port());
  EXPECT_EQ(client.request(Message{"PING", {}}).type, "OK");

  const Message status = client.request(Message{"STATUS", {}});
  ASSERT_EQ(status.type, "OK");
  EXPECT_EQ(status.getInt("workers", 0), 2);
  EXPECT_EQ(status.getInt("queue_capacity", 0), 8);
  EXPECT_EQ(status.getInt("model_version", 0), 1);
}

TEST_F(LoopbackFixture, FullDockOverTcp) {
  TcpClient client(server_->port());
  Message dock{"DOCK", {}};
  dock.set("max_steps", 6L).set("seed", 3L).set("priority", "high");
  const Message reply = client.request(dock);
  ASSERT_EQ(reply.type, "OK") << reply.get("error");
  EXPECT_EQ(reply.get("status"), "done");
  EXPECT_GE(reply.getInt("steps", -1), 1);
  EXPECT_LE(reply.getInt("steps", 99), 6);
  EXPECT_EQ(reply.getInt("model_version", 0), 1);
  EXPECT_GE(reply.getDouble("best_score", -1e300), reply.getDouble("final_score", 1e300));
  EXPECT_FALSE(reply.get("termination").empty());
  EXPECT_TRUE(reply.has("best_rmsd"));
}

TEST_F(LoopbackFixture, ScreenOverTcp) {
  TcpClient client(server_->port());
  Message screen{"SCREEN", {}};
  screen.set("library_size", 2L).set("min_atoms", 6L).set("max_atoms", 8L).set("evals", 40L);
  const Message reply = client.request(screen);
  ASSERT_EQ(reply.type, "OK") << reply.get("error");
  EXPECT_EQ(reply.getInt("ligands", 0), 2);
  EXPECT_FALSE(reply.get("best_ligand").empty());
  EXPECT_GT(reply.getInt("evaluations", 0), 0);
}

TEST_F(LoopbackFixture, ConcurrentClientsShareTheService) {
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> okCount{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TcpClient client(server_->port());
      Message dock{"DOCK", {}};
      dock.set("max_steps", 4L).set("seed", static_cast<long>(c + 1));
      if (client.request(dock).type == "OK") okCount.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(okCount.load(), kClients);
  EXPECT_GE(server_->stats().connections, static_cast<std::uint64_t>(kClients));
}

TEST_F(LoopbackFixture, PublishHotSwapsTheServedModel) {
  // Write a matching-architecture checkpoint with different weights.
  Rng rng(777);
  const std::size_t dim = scenario_.ligand.atomCount() * 3;
  rl::MlpQNetwork retrained(dim, std::vector<std::size_t>{16}, 12, rng);
  const dqndock::testutil::TempDir dir;
  const std::string path = dir.file("dqndock_publish_test.bin");
  rl::saveWeightsFile(path, retrained);

  TcpClient client(server_->port());
  Message publish{"PUBLISH", {}};
  publish.set("path", path);
  const Message reply = client.request(publish);
  ASSERT_EQ(reply.type, "OK") << reply.get("error");
  EXPECT_EQ(reply.getInt("model_version", 0), 2);

  // A dock after the swap reports the new version.
  Message dock{"DOCK", {}};
  dock.set("max_steps", 3L);
  EXPECT_EQ(client.request(dock).getInt("model_version", 0), 2);
}

TEST_F(LoopbackFixture, BadRequestsComeBackAsErrors) {
  TcpClient client(server_->port());
  const Message unknown = client.request(Message{"FROBNICATE", {}});
  EXPECT_EQ(unknown.type, "ERROR");
  EXPECT_NE(unknown.get("reason").find("unknown request type"), std::string::npos);

  Message publish{"PUBLISH", {}};
  EXPECT_EQ(client.request(publish).type, "ERROR");  // missing path=
  publish.set("path", "/nonexistent/weights.bin");
  EXPECT_EQ(client.request(publish).type, "ERROR");  // unreadable path
  EXPECT_EQ(registry_->currentVersion(), 1u);        // nothing swapped

  // The connection survives all of it.
  EXPECT_EQ(client.request(Message{"PING", {}}).type, "OK");
}

/// Minimal raw loopback listener for simulating a misbehaving server.
class RawListener {
 public:
  RawListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    EXPECT_EQ(::listen(fd_, 1), 0);
    socklen_t len = sizeof addr;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }
  ~RawListener() {
    if (fd_ >= 0) ::close(fd_);
  }
  std::uint16_t port() const { return port_; }
  int acceptOne() { return ::accept(fd_, nullptr, nullptr); }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

TEST(TcpClientFramingTest, ClosesConnectionAfterFramingError) {
  // A "server" that answers with a truncated length prefix then hangs up:
  // the client must throw ProtocolError AND close its fd — after a
  // framing failure the stream position is unknown, so reuse could pair
  // the next request with a stale reply.
  RawListener listener;
  std::thread server([&] {
    const int fd = listener.acceptOne();
    ASSERT_GE(fd, 0);
    char buf[4096];
    ASSERT_GT(::read(fd, buf, sizeof buf), 0);  // drain the request frame
    const unsigned char partial[2] = {0, 9};
    ASSERT_EQ(::write(fd, partial, 2), 2);
    ::close(fd);
  });
  TcpClient client(listener.port());
  EXPECT_THROW(client.request(Message{"PING", {}}), ProtocolError);
  server.join();
  // The fd is gone: later requests fail fast with "closed", they never
  // touch a desynchronised stream.
  try {
    client.request(Message{"PING", {}});
    FAIL() << "expected request() on a closed client to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("closed"), std::string::npos);
  }
}

TEST(TcpClientFramingTest, CleanServerHangupAlsoClosesClient) {
  // Orderly EOF instead of a reply is still a failed request/response
  // exchange from the client's point of view — same close-on-throw rule.
  RawListener listener;
  std::thread server([&] {
    const int fd = listener.acceptOne();
    ASSERT_GE(fd, 0);
    char buf[4096];
    ASSERT_GT(::read(fd, buf, sizeof buf), 0);
    ::close(fd);  // hang up with no reply at all
  });
  TcpClient client(listener.port());
  EXPECT_THROW(client.request(Message{"PING", {}}), std::runtime_error);
  server.join();
  EXPECT_THROW(client.request(Message{"PING", {}}), std::runtime_error);
}

TEST_F(LoopbackFixture, ProtocolErrorStatCountsGarbageNotCleanHangup) {
  // A well-behaved client that connects, pings, and disconnects cleanly
  // must not count as a protocol error.
  {
    TcpClient client(server_->port());
    ASSERT_EQ(client.request(Message{"PING", {}}).type, "OK");
  }
  // A raw peer that sends a truncated frame and hangs up must.
  {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server_->port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    const unsigned char partial[3] = {0, 0, 0};
    ASSERT_EQ(::write(fd, partial, 3), 3);
    ::close(fd);
  }
  // The handler thread processes the hangup asynchronously.
  for (int i = 0; i < 200 && server_->stats().protocolErrors == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server_->stats().protocolErrors, 1u);
}

TEST_F(LoopbackFixture, ShutdownRequestStopsTheServerGracefully) {
  {
    TcpClient client(server_->port());
    Message dock{"DOCK", {}};
    dock.set("max_steps", 3L);
    ASSERT_EQ(client.request(dock).type, "OK");
    EXPECT_EQ(client.request(Message{"SHUTDOWN", {}}).type, "OK");
  }
  server_->waitUntilStopped();
  server_->stop();  // joins handlers; idempotent with the fixture dtor
  EXPECT_TRUE(server_->stopRequested());
  // New connections are refused once the listener is gone.
  EXPECT_THROW(TcpClient(server_->port()), std::runtime_error);
}

}  // namespace
}  // namespace dqndock::serve
