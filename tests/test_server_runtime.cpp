// Server runtime tests: bounded worker pool admission (queueing then 503),
// connection lifecycle (idle/read timeouts, slot reaping, graceful drain),
// response-side differential serialization (MCM/PSM hits via ServerStats),
// and HTTP error mapping (400 on unparseable head or body).
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/client.hpp"
#include "http/connection.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "server/paced_transport.hpp"
#include "server/server_runtime.hpp"
#include "soap/soap_server.hpp"
#include "soap/workload.hpp"

namespace bsoap::server {
namespace {

using namespace std::chrono_literals;
using core::BsoapClient;
using soap::RpcCall;
using soap::Value;

/// Polls `pred` until it holds or `timeout` elapses.
template <typename Pred>
bool wait_for(Pred pred, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

/// sum(data): the test service. Deterministic, shape-stable responses.
Result<Value> sum_handler(const RpcCall& call) {
  if (call.method != "sum") return Error{ErrorCode::kNotFound, "no method"};
  double total = 0;
  for (const double v : call.params[0].value.doubles()) total += v;
  return Value::from_double(total);
}

RpcCall make_sum_call(std::vector<double> values) {
  RpcCall call;
  call.method = "sum";
  call.service_namespace = "urn:calc";
  call.params.push_back(
      soap::Param{"data", Value::from_double_array(std::move(values))});
  return call;
}

TEST(ServerRuntime, ResponsesTakeDifferentialFastPaths) {
  ServerRuntimeOptions options;
  options.workers = 1;  // one pipeline -> deterministic match counters
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  Result<std::unique_ptr<net::Transport>> transport =
      net::tcp_connect(server.value()->port());
  ASSERT_TRUE(transport.ok());
  BsoapClient client(*transport.value());

  // Identical call, identical response: first-time then content matches
  // (the response bytes are resent from the saved template untouched).
  const RpcCall call = make_sum_call({1.5, 2.5, 3.0});
  for (int i = 0; i < 3; ++i) {
    Result<Value> result = client.invoke(call);
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    EXPECT_EQ(result.value().as_double(), 7.0);
  }
  // Counters are incremented by the worker after the response bytes go out,
  // so they can trail the client's read by a scheduling quantum.
  ASSERT_TRUE(wait_for(
      [&] { return server.value()->stats().responses_total() == 3; }));
  ServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.response_first_time, 1u);
  EXPECT_EQ(stats.response_content_match, 2u);
  EXPECT_EQ(stats.response_diff_hits(), 2u);

  // Same response shape, new value: the stuffed double is rewritten in
  // place — a perfect structural match, and the client sees the new sum.
  Result<Value> changed = client.invoke(make_sum_call({4.0, 5.0, 6.0}));
  ASSERT_TRUE(changed.ok());
  EXPECT_EQ(changed.value().as_double(), 15.0);
  ASSERT_TRUE(wait_for(
      [&] { return server.value()->stats().responses_total() == 4; }));
  stats = server.value()->stats();
  EXPECT_EQ(stats.response_perfect_match, 1u);
  EXPECT_EQ(stats.responses_total(), 4u);
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.faults, 0u);
  EXPECT_GT(stats.response_template_bytes, 0u);

  server.value()->stop();
}

class PerWorkerStores : public ::testing::TestWithParam<IoModel> {};

TEST_P(PerWorkerStores, EachWorkerSerializesAShapeAtMostOnce) {
  ServerRuntimeOptions options;
  options.workers = 4;
  options.io_model = GetParam();
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  // Sequential connections may land on different workers. Each worker owns
  // its template store, so it pays one first-time response for the shape
  // and every later response it sends for that shape is a differential hit.
  const RpcCall call = make_sum_call({1.0, 2.0, 4.0});
  for (int conn = 0; conn < 8; ++conn) {
    Result<std::unique_ptr<net::Transport>> transport =
        net::tcp_connect(server.value()->port());
    ASSERT_TRUE(transport.ok());
    BsoapClient client(*transport.value());
    Result<Value> result = client.invoke(call);
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    EXPECT_EQ(result.value().as_double(), 7.0);
  }
  ASSERT_TRUE(wait_for(
      [&] { return server.value()->stats().responses_total() == 8; }));
  ServerStats stats = server.value()->stats();
  EXPECT_GE(stats.response_first_time, 1u);
  EXPECT_LE(stats.response_first_time, options.workers);
  EXPECT_EQ(stats.response_diff_hits(), 8u - stats.response_first_time);
  EXPECT_EQ(stats.response_template_evictions, 0u);
  EXPECT_GT(stats.response_template_bytes, 0u);
  server.value()->stop();
}

INSTANTIATE_TEST_SUITE_P(BothEngines, PerWorkerStores,
                         ::testing::Values(IoModel::kBlocking,
                                           IoModel::kReactor));

TEST(ServerRuntime, DiffResponsesOffServesFromScratch) {
  ServerRuntimeOptions options;
  options.workers = 1;
  options.diff_responses = false;
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  Result<std::unique_ptr<net::Transport>> transport =
      net::tcp_connect(server.value()->port());
  ASSERT_TRUE(transport.ok());
  BsoapClient client(*transport.value());
  const RpcCall call = make_sum_call({1.0, 2.0});
  for (int i = 0; i < 3; ++i) {
    Result<Value> result = client.invoke(call);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().as_double(), 3.0);
  }
  ASSERT_TRUE(wait_for(
      [&] { return server.value()->stats().responses_total() == 3; }));
  const ServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.response_first_time, 3u);
  EXPECT_EQ(stats.response_diff_hits(), 0u);
  server.value()->stop();
}

TEST(ServerRuntime, OverloadQueuesThenAnswers503) {
  std::atomic<int> entered{0};
  std::atomic<bool> release{false};
  ServerRuntimeOptions options;
  options.workers = 1;
  options.accept_backlog = 1;
  Result<std::unique_ptr<ServerRuntime>> server = ServerRuntime::start(
      [&](const RpcCall& call) -> Result<Value> {
        entered.fetch_add(1);
        while (!release.load()) std::this_thread::sleep_for(1ms);
        return sum_handler(call);
      },
      options);
  ASSERT_TRUE(server.ok());
  ServerRuntime& runtime = *server.value();

  // A occupies the single worker (handler gated open).
  std::thread client_a([&] {
    Result<std::unique_ptr<net::Transport>> t =
        net::tcp_connect(runtime.port());
    ASSERT_TRUE(t.ok());
    BsoapClient client(*t.value());
    Result<Value> result = client.invoke(make_sum_call({1.0, 2.0}));
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    EXPECT_EQ(result.value().as_double(), 3.0);
  });
  ASSERT_TRUE(wait_for([&] { return entered.load() == 1; }));

  // B waits in the accept queue.
  std::thread client_b([&] {
    Result<std::unique_ptr<net::Transport>> t =
        net::tcp_connect(runtime.port());
    ASSERT_TRUE(t.ok());
    BsoapClient client(*t.value());
    Result<Value> result = client.invoke(make_sum_call({2.0, 2.0}));
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    EXPECT_EQ(result.value().as_double(), 4.0);
  });
  ASSERT_TRUE(wait_for([&] { return runtime.stats().queue_depth == 1; }));

  // C overflows the backlog: answered 503 without touching a worker.
  Result<std::unique_ptr<net::Transport>> c =
      net::tcp_connect(runtime.port());
  ASSERT_TRUE(c.ok());
  http::HttpConnection c_conn(*c.value());
  Result<http::HttpResponse> rejected = c_conn.read_response();
  ASSERT_TRUE(rejected.ok()) << rejected.error().to_string();
  EXPECT_EQ(rejected.value().status, 503);
  ASSERT_NE(rejected.value().find("Connection"), nullptr);
  EXPECT_EQ(rejected.value().find("Connection")->value, "close");
  EXPECT_NE(rejected.value().body.find("Fault"), std::string::npos);

  release.store(true);
  client_a.join();  // closes A's connection, freeing the worker for B
  client_b.join();

  ASSERT_TRUE(wait_for([&] { return runtime.stats().requests == 2; }));
  const ServerStats stats = runtime.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_GE(stats.queue_high_water, 1u);
  runtime.stop();
}

TEST(ServerRuntime, MaxConnectionsCapRejectsAtAdmission) {
  ServerRuntimeOptions options;
  options.workers = 1;
  options.max_connections = 1;
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());
  ServerRuntime& runtime = *server.value();

  // A holds the only connection slot (keep-alive keeps it active).
  Result<std::unique_ptr<net::Transport>> a = net::tcp_connect(runtime.port());
  ASSERT_TRUE(a.ok());
  BsoapClient client(*a.value());
  ASSERT_TRUE(client.invoke(make_sum_call({1.0})).ok());
  ASSERT_TRUE(wait_for([&] { return runtime.stats().active == 1; }));

  Result<std::unique_ptr<net::Transport>> b = net::tcp_connect(runtime.port());
  ASSERT_TRUE(b.ok());
  http::HttpConnection b_conn(*b.value());
  Result<http::HttpResponse> rejected = b_conn.read_response();
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected.value().status, 503);
  EXPECT_EQ(runtime.stats().rejected, 1u);
  runtime.stop();
}

TEST(ServerRuntime, IdleConnectionsAreClosedAndReaped) {
  ServerRuntimeOptions options;
  options.workers = 1;
  options.idle_timeout = 50ms;
  options.poll_slice = 5ms;
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());
  ServerRuntime& runtime = *server.value();

  Result<std::unique_ptr<net::Transport>> transport =
      net::tcp_connect(runtime.port());
  ASSERT_TRUE(transport.ok());
  BsoapClient client(*transport.value());
  ASSERT_TRUE(client.invoke(make_sum_call({1.0, 2.0})).ok());

  // Stay idle past the deadline: the server closes, the slot is reaped.
  ASSERT_TRUE(wait_for([&] { return runtime.stats().idle_closed == 1; }));
  ASSERT_TRUE(wait_for([&] { return runtime.stats().active == 0; }));

  // The client sees a clean end-of-stream.
  char byte = 0;
  Result<std::size_t> got = transport.value()->recv(&byte, 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), 0u);
  runtime.stop();
}

TEST(ServerRuntime, StalledRequestHitsReadTimeout) {
  ServerRuntimeOptions options;
  options.workers = 1;
  options.idle_timeout = 2000ms;
  options.read_timeout = 50ms;
  options.poll_slice = 5ms;
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());
  ServerRuntime& runtime = *server.value();

  Result<std::unique_ptr<net::Transport>> transport =
      net::tcp_connect(runtime.port());
  ASSERT_TRUE(transport.ok());
  // First bytes of a request, then silence: the read deadline (not the much
  // longer idle deadline) must close the connection.
  ASSERT_TRUE(transport.value()->send("POST / HTTP/1.1\r\nContent-Le").ok());
  ASSERT_TRUE(wait_for([&] { return runtime.stats().read_timeouts == 1; }));
  ASSERT_TRUE(wait_for([&] { return runtime.stats().active == 0; }));
  runtime.stop();
}

TEST(ServerRuntime, GracefulDrainFinishesInFlightAnd503sQueued) {
  std::atomic<int> entered{0};
  ServerRuntimeOptions options;
  options.workers = 1;
  Result<std::unique_ptr<ServerRuntime>> server = ServerRuntime::start(
      [&](const RpcCall& call) -> Result<Value> {
        entered.fetch_add(1);
        std::this_thread::sleep_for(150ms);
        return sum_handler(call);
      },
      options);
  ASSERT_TRUE(server.ok());
  ServerRuntime& runtime = *server.value();

  // A is mid-request when stop() lands: its response must still arrive.
  std::thread client_a([&] {
    Result<std::unique_ptr<net::Transport>> t =
        net::tcp_connect(runtime.port());
    ASSERT_TRUE(t.ok());
    BsoapClient client(*t.value());
    Result<Value> result = client.invoke(make_sum_call({3.0, 4.0}));
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    EXPECT_EQ(result.value().as_double(), 7.0);
  });
  ASSERT_TRUE(wait_for([&] { return entered.load() == 1; }));

  // B is queued behind A and never reaches a worker: honest 503 at stop.
  std::thread client_b([&] {
    Result<std::unique_ptr<net::Transport>> t =
        net::tcp_connect(runtime.port());
    ASSERT_TRUE(t.ok());
    BsoapClient client(*t.value());
    Result<Value> result = client.invoke(make_sum_call({1.0}));
    EXPECT_FALSE(result.ok());
  });
  ASSERT_TRUE(wait_for([&] { return runtime.stats().queue_depth == 1; }));

  runtime.stop();
  client_a.join();
  client_b.join();

  const ServerStats stats = runtime.stats();
  EXPECT_EQ(stats.requests, 1u);  // A answered, B drained
  EXPECT_EQ(stats.drained, 1u);
  EXPECT_EQ(stats.active, 0u);
}

TEST(ServerRuntime, UnparseableHttpAnswers400AndCloses) {
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler);
  ASSERT_TRUE(server.ok());
  ServerRuntime& runtime = *server.value();

  Result<std::unique_ptr<net::Transport>> transport =
      net::tcp_connect(runtime.port());
  ASSERT_TRUE(transport.ok());
  ASSERT_TRUE(transport.value()->send("NONSENSE STREAM\r\n\r\n").ok());
  http::HttpConnection conn(*transport.value());
  Result<http::HttpResponse> response = conn.read_response();
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response.value().status, 400);
  EXPECT_NE(response.value().body.find("Client"), std::string::npos);
  EXPECT_EQ(runtime.stats().bad_requests, 1u);
  // The stream is out of sync, so the server closes it.
  ASSERT_TRUE(wait_for([&] { return runtime.stats().active == 0; }));
  runtime.stop();
}

TEST(ServerRuntime, BadSoapBodyAnswers400FaultAndKeepsConnection) {
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler);
  ASSERT_TRUE(server.ok());
  ServerRuntime& runtime = *server.value();

  Result<std::unique_ptr<net::Transport>> transport =
      net::tcp_connect(runtime.port());
  ASSERT_TRUE(transport.ok());

  {
    http::HttpRequest bad;
    bad.headers.push_back(
        http::Header{"Content-Type", "text/xml; charset=utf-8"});
    const std::string body = "<this is not a SOAP envelope";
    const net::ConstSlice slice{body.data(), body.size()};
    http::HttpConnection conn(*transport.value());
    ASSERT_TRUE(conn.send_request(std::move(bad), {&slice, 1}).ok());
    Result<http::HttpResponse> response = conn.read_response();
    ASSERT_TRUE(response.ok()) << response.error().to_string();
    EXPECT_EQ(response.value().status, 400);
    EXPECT_NE(response.value().body.find("SOAP-ENV:Client"),
              std::string::npos);
  }

  // HTTP framing was intact, so the same connection serves a good request.
  BsoapClient client(*transport.value());
  Result<Value> result = client.invoke(make_sum_call({5.0, 6.0}));
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.value().as_double(), 11.0);

  ASSERT_TRUE(wait_for([&] { return runtime.stats().requests == 1; }));
  const ServerStats stats = runtime.stats();
  EXPECT_EQ(stats.bad_requests, 1u);
  EXPECT_EQ(stats.faults, 1u);
  EXPECT_EQ(stats.requests, 1u);
  runtime.stop();
}

TEST(ServerRuntime, WorkerSlotsReapedAcrossSequentialConnections) {
  ServerRuntimeOptions options;
  options.workers = 2;
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());
  ServerRuntime& runtime = *server.value();

  // Many short-lived connections must not leak slots: each close frees its
  // worker for the next client.
  constexpr int kConnections = 6;
  for (int i = 0; i < kConnections; ++i) {
    Result<std::unique_ptr<net::Transport>> transport =
        net::tcp_connect(runtime.port());
    ASSERT_TRUE(transport.ok());
    BsoapClient client(*transport.value());
    Result<Value> result =
        client.invoke(make_sum_call({static_cast<double>(i), 1.0}));
    ASSERT_TRUE(result.ok()) << result.error().to_string();
  }
  ASSERT_TRUE(wait_for([&] { return runtime.stats().active == 0; }));
  const ServerStats stats = runtime.stats();
  EXPECT_EQ(stats.accepted, static_cast<std::uint64_t>(kConnections));
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kConnections));
  EXPECT_EQ(stats.rejected, 0u);
  runtime.stop();
}

TEST(ServerRuntime, ConcurrentClientsStress) {
  // More client threads than workers: connections queue and every request
  // is still answered exactly once. This is the TSan workout for the pool.
  ServerRuntimeOptions options;
  options.workers = 4;
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());
  ServerRuntime& runtime = *server.value();

  constexpr int kThreads = 8;
  constexpr int kIterations = 15;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        Result<std::unique_ptr<net::Transport>> transport =
            net::tcp_connect(runtime.port());
        if (!transport.ok()) {
          failures.fetch_add(1);
          continue;
        }
        BsoapClient client(*transport.value());
        const double a = t, b = i;
        Result<Value> result = client.invoke(make_sum_call({a, b}));
        if (!result.ok() || result.value().as_double() != a + b) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();

  EXPECT_EQ(failures.load(), 0);
  ASSERT_TRUE(wait_for([&] { return runtime.stats().active == 0; }));
  const ServerStats stats = runtime.stats();
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kThreads * kIterations));
  EXPECT_EQ(stats.rejected, 0u);
  runtime.stop();
  // stop() is idempotent.
  runtime.stop();
}

TEST(ServerRuntime, DefaultStartCountsInvokesAndMatchKinds) {
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler);
  ASSERT_TRUE(server.ok());

  Result<std::unique_ptr<net::Transport>> transport =
      net::tcp_connect(server.value()->port());
  ASSERT_TRUE(transport.ok());
  BsoapClient client(*transport.value());
  const RpcCall call = make_sum_call({2.0, 3.0});
  for (int i = 0; i < 2; ++i) {
    Result<Value> result = client.invoke(call);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().as_double(), 5.0);
  }
  // Match-kind counters are recorded after the response write, so they can
  // trail the client's read.
  ASSERT_TRUE(wait_for(
      [&] { return server.value()->stats().responses_total() == 2; }));
  const ServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.faults, 0u);
  EXPECT_EQ(stats.response_first_time, 1u);
  EXPECT_EQ(stats.response_content_match, 1u);
  server.value()->stop();
}

// --- PacedTransport slice-direct writes -------------------------------------

TEST(PacedTransport, GatheredSendsDrainPartialWritesWithoutCopies) {
  Result<std::pair<std::unique_ptr<net::Transport>,
                   std::unique_ptr<net::Transport>>>
      pair = net::make_socketpair_transports();
  ASSERT_TRUE(pair.ok());
  auto [writer_side, reader_side] = std::move(pair.value());

  // Shrink the send buffer so a multi-megabyte gathered send cannot fit in
  // one kernel round: the paced loop must hit EAGAIN, count a partial
  // write, and resume from the advanced slice descriptors.
  const int fd = writer_side->native_handle();
  ASSERT_GE(fd, 0);
  const int small = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)), 0);

  Timeouts timeouts;
  timeouts.read = std::chrono::milliseconds(5000);
  timeouts.slice = std::chrono::milliseconds(5);
  std::atomic<std::uint64_t> partial_writes{0};
  PacedTransport paced(std::move(writer_side), timeouts, nullptr,
                       &partial_writes);
  ASSERT_TRUE(paced.paced_io());

  const std::string head(512, 'h');
  const std::string body(2 * 1024 * 1024, 'b');
  const std::string tail(64, 't');
  std::string received;
  std::thread reader([&] {
    // Let the writer fill the buffer first so the partial round is certain.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    char chunk[16384];
    for (;;) {
      Result<std::size_t> got = reader_side->recv(chunk, sizeof(chunk));
      if (!got.ok() || got.value() == 0) break;
      received.append(chunk, got.value());
      if (received.size() == head.size() + body.size() + tail.size()) break;
    }
  });

  const net::ConstSlice slices[3] = {{head.data(), head.size()},
                                     {body.data(), body.size()},
                                     {tail.data(), tail.size()}};
  const Status sent = paced.send_slices(std::span<const net::ConstSlice>(
      slices, 3));
  EXPECT_TRUE(sent.ok()) << sent.error().to_string();
  reader.join();

  EXPECT_GE(partial_writes.load(), 1u);
  EXPECT_EQ(received, head + body + tail);
}

TEST(PacedTransport, StalledReaderHitsWriteTimeout) {
  Result<std::pair<std::unique_ptr<net::Transport>,
                   std::unique_ptr<net::Transport>>>
      pair = net::make_socketpair_transports();
  ASSERT_TRUE(pair.ok());
  auto [writer_side, reader_side] = std::move(pair.value());
  const int fd = writer_side->native_handle();
  const int small = 4096;
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)), 0);

  Timeouts timeouts;
  timeouts.read = std::chrono::milliseconds(100);
  timeouts.slice = std::chrono::milliseconds(5);
  PacedTransport paced(std::move(writer_side), timeouts, nullptr, nullptr);
  ASSERT_TRUE(paced.paced_io());

  // Nobody reads: the response cannot drain, so the paced write gives up
  // within the read-timeout budget instead of pinning the worker.
  const std::string body(4 * 1024 * 1024, 'x');
  const auto begin = std::chrono::steady_clock::now();
  const Status sent = paced.send(body.data(), body.size());
  ASSERT_FALSE(sent.ok());
  EXPECT_EQ(sent.error().code, ErrorCode::kTimeout);
  EXPECT_LT(std::chrono::steady_clock::now() - begin,
            std::chrono::milliseconds(2000));
}

}  // namespace
}  // namespace bsoap::server
