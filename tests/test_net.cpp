// Tests for the transport layer: sockets, scatter-gather sends, the drain
// server, and the simulated-bandwidth wrapper.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/timing.hpp"
#include "net/drain_server.hpp"
#include "net/inmemory.hpp"
#include "net/simulated_wire.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"

namespace bsoap::net {
namespace {

std::string recv_all(Transport& transport) {
  std::string out;
  char buf[4096];
  for (;;) {
    Result<std::size_t> got = transport.recv(buf, sizeof(buf));
    if (!got.ok() || got.value() == 0) return out;
    out.append(buf, got.value());
  }
}

TEST(SocketPair, SendRecv) {
  auto pair = make_socketpair_transports();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = pair.value();
  ASSERT_TRUE(a->send("ping").ok());
  a->shutdown_send();
  EXPECT_EQ(recv_all(*b), "ping");
}

TEST(SocketPair, GatherSend) {
  auto pair = make_socketpair_transports();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = pair.value();
  // More slices than the writev batch limit (64) to exercise batching.
  std::vector<std::string> pieces;
  std::vector<ConstSlice> slices;
  std::string expected;
  for (int i = 0; i < 150; ++i) {
    pieces.push_back("piece-" + std::to_string(i) + ";");
    expected += pieces.back();
  }
  for (const std::string& p : pieces) {
    slices.push_back(ConstSlice{p.data(), p.size()});
  }
  ASSERT_TRUE(a->send_slices(slices).ok());
  a->shutdown_send();
  EXPECT_EQ(recv_all(*b), expected);
}

TEST(SocketPair, LargeTransferThroughSmallBuffers) {
  // SO_SNDBUF is 32 KiB (paper options); a 4 MiB transfer requires the
  // write loop to handle short writes while a reader drains.
  auto pair = make_socketpair_transports();
  ASSERT_TRUE(pair.ok());
  auto& [a, b] = pair.value();
  const std::string big(4 * 1024 * 1024, 'z');
  std::string received;
  std::thread reader([&] { received = recv_all(*b); });
  ASSERT_TRUE(a->send(big).ok());
  a->shutdown_send();
  reader.join();
  EXPECT_EQ(received.size(), big.size());
  EXPECT_EQ(received, big);
}

TEST(Tcp, ListenConnectExchange) {
  Result<TcpListener> listener = TcpListener::bind();
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener.value().port();
  ASSERT_NE(port, 0);

  std::string received;
  std::thread server([&] {
    Result<std::unique_ptr<Transport>> conn = listener.value().accept();
    ASSERT_TRUE(conn.ok());
    received = recv_all(*conn.value());
  });

  Result<std::unique_ptr<Transport>> client = tcp_connect(port);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->send("over tcp").ok());
  client.value()->shutdown_send();
  server.join();
  EXPECT_EQ(received, "over tcp");
}

TEST(DrainServerTest, CountsBytes) {
  Result<std::unique_ptr<DrainServer>> server = DrainServer::start();
  ASSERT_TRUE(server.ok());
  {
    Result<std::unique_ptr<Transport>> client =
        tcp_connect(server.value()->port());
    ASSERT_TRUE(client.ok());
    const std::string payload(100000, 'q');
    ASSERT_TRUE(client.value()->send(payload).ok());
    client.value()->shutdown_send();
    // Wait for the drain worker to consume everything.
    StopWatch watch;
    while (server.value()->bytes_drained() < payload.size() &&
           watch.elapsed_ms() < 5000) {
    }
    EXPECT_EQ(server.value()->bytes_drained(), payload.size());
  }
  server.value()->stop();
}

TEST(InMemory, BlockingRead) {
  auto [a, b] = make_inmemory_transports();
  std::string received;
  std::thread reader([&] { received = recv_all(*b); });
  ASSERT_TRUE(a->send("x").ok());
  ASSERT_TRUE(a->send("y").ok());
  a->shutdown_send();
  reader.join();
  EXPECT_EQ(received, "xy");
}

TEST(SimulatedWire, AddsProportionalDelay) {
  auto [a, b] = make_inmemory_transports();
  // 8 Mbit/s: 10 KB should take ~10 ms.
  auto wire = std::make_unique<SimulatedWireTransport>(std::move(a), 8e6);
  std::thread reader([t = std::move(b)]() mutable { recv_all(*t); });
  const std::string payload(10000, 'w');
  StopWatch watch;
  ASSERT_TRUE(wire->send(payload).ok());
  const double elapsed = watch.elapsed_ms();
  wire->shutdown_send();
  reader.join();
  EXPECT_GE(elapsed, 9.0);
  EXPECT_LT(elapsed, 100.0);
}

TEST(PaperSocketOptions, Applied) {
  auto pair = make_socketpair_transports();
  ASSERT_TRUE(pair.ok());
  // Options applied without error — verified indirectly by the factory
  // succeeding; TCP_NODELAY on AF_UNIX is intentionally ignored.
  SUCCEED();
}

}  // namespace
}  // namespace bsoap::net
