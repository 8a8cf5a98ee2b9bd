// Reactor engine tests: the epoll-driven connection core must be
// indistinguishable from the blocking engine on the wire — byte-for-byte
// identical responses over keep-alive sequences, the same timeout and
// overload answers — while scaling to connection counts the blocking pool
// cannot hold (a thousand mostly-idle keep-alives over a handful of
// workers).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "buffer/sinks.hpp"
#include "core/client.hpp"
#include "http/http_message.hpp"
#include "net/tcp.hpp"
#include "server/server_runtime.hpp"
#include "soap/envelope_writer.hpp"
#include "soap/soap_server.hpp"

namespace bsoap::server {
namespace {

using namespace std::chrono_literals;
using core::BsoapClient;
using soap::RpcCall;
using soap::Value;

template <typename Pred>
bool wait_for(Pred pred, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

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

/// Raw wire bytes for one POST with the given SOAP body.
std::string raw_request(const std::string& body) {
  http::HttpRequest request;
  request.headers.push_back(
      http::Header{"Content-Type", "text/xml; charset=utf-8"});
  request.headers.push_back(
      http::Header{"Content-Length", std::to_string(body.size())});
  return http::serialize_request_head(request) + body;
}

std::string envelope_for(const RpcCall& call) {
  buffer::StringSink sink;
  soap::write_rpc_envelope(sink, call);
  return sink.str();
}

std::string read_until_eof(net::Transport& transport) {
  std::string all;
  char buf[16 * 1024];
  for (;;) {
    Result<std::size_t> got = transport.recv(buf, sizeof(buf));
    if (!got.ok() || got.value() == 0) break;
    all.append(buf, got.value());
  }
  return all;
}

struct WireRun {
  std::string bytes;
  ServerStats stats;
};

/// Plays `wire` into a fresh single-worker server of the given engine over
/// one keep-alive connection and returns everything the server answered.
WireRun run_wire(IoModel model, const std::string& wire) {
  ServerRuntimeOptions options;
  options.workers = 1;  // one pipeline: deterministic match-kind counters
  options.io_model = model;
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler, options);
  EXPECT_TRUE(server.ok());

  Result<std::unique_ptr<net::Transport>> transport =
      net::tcp_connect(server.value()->port());
  EXPECT_TRUE(transport.ok());
  EXPECT_TRUE(transport.value()->send(wire).ok());
  transport.value()->shutdown_send();

  WireRun run;
  run.bytes = read_until_eof(*transport.value());
  // Let the server observe our EOF and retire the connection before
  // snapshotting, so counters are final.
  EXPECT_TRUE(wait_for([&] { return server.value()->stats().active == 0; }));
  run.stats = server.value()->stats();
  server.value()->stop();
  return run;
}

// The acceptance bar for the whole refactor: a pipelined keep-alive
// sequence mixing differential fast paths (first-time, content match,
// perfect structural on a value change, partial on a shape change), a SOAP
// parse failure (400 + fault, connection stays usable), and a handler
// fault (500, stays usable) must come back byte-identical from both
// engines, with identical request/fault/match-kind accounting.
TEST(Reactor, ByteIdenticalToBlockingOverKeepAliveSequence) {
  std::string wire;
  wire += raw_request(envelope_for(make_sum_call({1.5, 2.5, 3.0})));
  wire += raw_request(envelope_for(make_sum_call({1.5, 2.5, 3.0})));
  wire += raw_request(envelope_for(make_sum_call({4.0, 5.0, 6.0})));
  wire += raw_request("<not-even-soap>");
  wire += raw_request(envelope_for(make_sum_call({7.0, 8.0})));
  RpcCall unknown;
  unknown.method = "launch";
  unknown.service_namespace = "urn:calc";
  unknown.params.push_back(
      soap::Param{"data", Value::from_double_array({1.0})});
  wire += raw_request(envelope_for(unknown));
  wire += raw_request(envelope_for(make_sum_call({9.0, 10.0, 11.0})));

  const WireRun blocking = run_wire(IoModel::kBlocking, wire);
  const WireRun reactor = run_wire(IoModel::kReactor, wire);

  EXPECT_FALSE(blocking.bytes.empty());
  EXPECT_EQ(blocking.bytes, reactor.bytes);

  EXPECT_EQ(blocking.stats.requests, reactor.stats.requests);
  EXPECT_EQ(blocking.stats.faults, reactor.stats.faults);
  EXPECT_EQ(blocking.stats.bad_requests, reactor.stats.bad_requests);
  EXPECT_EQ(blocking.stats.response_first_time,
            reactor.stats.response_first_time);
  EXPECT_EQ(blocking.stats.response_content_match,
            reactor.stats.response_content_match);
  EXPECT_EQ(blocking.stats.response_perfect_match,
            reactor.stats.response_perfect_match);
  EXPECT_EQ(blocking.stats.response_partial_match,
            reactor.stats.response_partial_match);
  EXPECT_EQ(reactor.stats.requests, 5u);
  EXPECT_EQ(reactor.stats.faults, 2u);  // SOAP parse 400 + handler 500
  EXPECT_EQ(reactor.stats.bad_requests, 1u);

  // Small responses on a drained loopback socket never hit EAGAIN: the
  // worker's direct writes must land without copying a single byte for the
  // EPOLLOUT drain path.
  EXPECT_EQ(reactor.stats.write_copied_bytes, 0u);
}

// The EAGAIN tail path in isolation: an inner transport that accepts a
// fixed byte budget per gathered write forces DirectSliceTransport to park
// the remainder. Only the unsent suffix may be copied, the copy must
// reproduce the original byte stream exactly, and a clean send copies
// nothing.
TEST(Reactor, DirectSliceTransportCopiesOnlyTheEagainTail) {
  class ThrottledInner final : public net::Transport {
   public:
    using net::Transport::send;
    explicit ThrottledInner(std::size_t budget) : budget_(budget) {}
    Status send(const char* data, std::size_t n) override {
      accepted_.append(data, n);
      return Status{};
    }
    Status send_slices(std::span<const net::ConstSlice> slices) override {
      for (const net::ConstSlice& s : slices) accepted_.append(s.data, s.len);
      return Status{};
    }
    Result<net::IoResult> send_slices_some(
        std::span<const net::ConstSlice> slices) override {
      std::size_t total = 0;
      for (const net::ConstSlice& s : slices) {
        const std::size_t take = std::min(s.len, budget_);
        accepted_.append(s.data, take);
        total += take;
        budget_ -= take;
        if (take < s.len) return net::IoResult{total, true};
      }
      return net::IoResult{total, false};
    }
    Result<std::size_t> recv(char*, std::size_t) override {
      return Error{ErrorCode::kUnsupported, "write-only"};
    }
    void shutdown_send() override {}
    std::string accepted_;
    std::size_t budget_;
  };

  const std::string part1 = "<xml>differential ";
  const std::string part2 = "serialization ";
  const std::string part3 = "tail</xml>";
  const std::vector<net::ConstSlice> slices{
      net::ConstSlice{part1.data(), part1.size()},
      net::ConstSlice{part2.data(), part2.size()},
      net::ConstSlice{part3.data(), part3.size()}};
  const std::string all = part1 + part2 + part3;

  // Budget cuts mid-slice-2: the accepted prefix plus the parked tail must
  // re-assemble the exact wire bytes, and only the tail was copied.
  ThrottledInner inner(part1.size() + 4);
  DirectSliceTransport direct(inner);
  ASSERT_TRUE(direct.send_slices(slices).ok());
  EXPECT_EQ(inner.accepted_, all.substr(0, part1.size() + 4));
  EXPECT_EQ(direct.copied_bytes(), all.size() - part1.size() - 4);
  // A follow-up write while a tail is parked must append to the tail (the
  // socket is not writable; ordering would invert otherwise).
  ASSERT_TRUE(direct.send("-trailer").ok());
  EXPECT_EQ(inner.accepted_ + direct.take_tail(), all + "-trailer");
  EXPECT_FALSE(direct.write_error());

  // A clean send through an unthrottled inner copies nothing.
  ThrottledInner roomy(1 << 20);
  DirectSliceTransport clean(roomy);
  ASSERT_TRUE(clean.send_slices(slices).ok());
  EXPECT_EQ(roomy.accepted_, all);
  EXPECT_EQ(clean.copied_bytes(), 0u);
}

// Multi-megabyte responses against a deliberately slow reader: the direct
// write path will stall on socket buffers and ride the EPOLLOUT tail, and
// the reassembled stream must still be byte-identical to the blocking
// engine's.
TEST(Reactor, LargeResponsesByteIdenticalUnderSlowReader) {
  soap::RpcHandler fill_handler = [](const RpcCall& call) -> Result<Value> {
    if (call.method != "fill") return Error{ErrorCode::kNotFound, "no method"};
    const std::size_t n =
        static_cast<std::size_t>(call.params[0].value.doubles()[0]);
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) values[i] = 0.25 * static_cast<double>(i);
    return Value::from_double_array(std::move(values));
  };
  RpcCall fill;
  fill.method = "fill";
  fill.service_namespace = "urn:calc";
  fill.params.push_back(
      soap::Param{"n", Value::from_double_array({60000.0})});
  const std::string wire = raw_request(envelope_for(fill));

  auto run_slow = [&](IoModel model) {
    ServerRuntimeOptions options;
    options.workers = 1;
    options.io_model = model;
    Result<std::unique_ptr<ServerRuntime>> server =
        ServerRuntime::start(fill_handler, options);
    EXPECT_TRUE(server.ok());
    Result<std::unique_ptr<net::Transport>> transport =
        net::tcp_connect(server.value()->port());
    EXPECT_TRUE(transport.ok());
    EXPECT_TRUE(transport.value()->send(wire).ok());
    transport.value()->shutdown_send();
    // Drain in small sips so the server-side socket buffer fills and the
    // worker's nonblocking write actually stalls.
    std::string all;
    char buf[8 * 1024];
    for (;;) {
      Result<std::size_t> got = transport.value()->recv(buf, sizeof(buf));
      if (!got.ok() || got.value() == 0) break;
      all.append(buf, got.value());
      std::this_thread::sleep_for(1ms);
    }
    EXPECT_TRUE(wait_for([&] { return server.value()->stats().active == 0; }));
    server.value()->stop();
    return all;
  };

  const std::string blocking = run_slow(IoModel::kBlocking);
  const std::string reactor = run_slow(IoModel::kReactor);
  EXPECT_GT(blocking.size(), 1024u * 1024u);  // genuinely larger than buffers
  EXPECT_EQ(blocking, reactor);
}

TEST(Reactor, UnparseableHttpGets400AndCloseOnBothEngines) {
  const std::string wire = "BLARGH money HTTP/9.9\r\n\r\n";
  const WireRun blocking = run_wire(IoModel::kBlocking, wire);
  const WireRun reactor = run_wire(IoModel::kReactor, wire);
  EXPECT_FALSE(blocking.bytes.empty());
  EXPECT_EQ(blocking.bytes, reactor.bytes);
  EXPECT_NE(blocking.bytes.find("400 Bad Request"), std::string::npos);
  EXPECT_EQ(reactor.stats.bad_requests, 1u);
}

TEST(Reactor, IdleConnectionsCloseOnTheIdleTimeout) {
  ServerRuntimeOptions options;
  options.io_model = IoModel::kReactor;
  options.idle_timeout = 100ms;
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  Result<std::unique_ptr<net::Transport>> transport =
      net::tcp_connect(server.value()->port());
  ASSERT_TRUE(transport.ok());
  // Never send a byte: the server should hang up, without an answer, once
  // the idle deadline passes.
  const std::string answer = read_until_eof(*transport.value());
  EXPECT_EQ(answer, "");
  ASSERT_TRUE(wait_for([&] { return server.value()->stats().idle_closed == 1; }));
  EXPECT_EQ(server.value()->stats().active, 0u);
  server.value()->stop();
}

TEST(Reactor, SlowLorisPartialHeaderHitsTheReadTimeout) {
  ServerRuntimeOptions options;
  options.io_model = IoModel::kReactor;
  options.read_timeout = 150ms;
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  Result<std::unique_ptr<net::Transport>> transport =
      net::tcp_connect(server.value()->port());
  ASSERT_TRUE(transport.ok());
  // A few header bytes, then silence: the read deadline (not the longer
  // idle one) must reap the connection.
  ASSERT_TRUE(transport.value()->send("POST / HT").ok());
  const std::string answer = read_until_eof(*transport.value());
  EXPECT_EQ(answer, "");
  ASSERT_TRUE(
      wait_for([&] { return server.value()->stats().read_timeouts == 1; }));
  ServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.idle_closed, 0u);
  EXPECT_GE(stats.partial_reads, 1u);  // the header fragment left a partial
  server.value()->stop();
}

TEST(Reactor, DrainFinishesInFlightRequests) {
  std::atomic<bool> release{false};
  std::atomic<int> entered{0};
  soap::RpcHandler slow_handler = [&](const RpcCall& call) -> Result<Value> {
    entered.fetch_add(1);
    while (!release.load()) std::this_thread::sleep_for(1ms);
    return sum_handler(call);
  };

  ServerRuntimeOptions options;
  options.io_model = IoModel::kReactor;
  options.workers = 1;
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(slow_handler, options);
  ASSERT_TRUE(server.ok());

  Result<Value> answer = Error{ErrorCode::kInternal, "not answered"};
  std::thread client_thread([&] {
    Result<std::unique_ptr<net::Transport>> transport =
        net::tcp_connect(server.value()->port());
    ASSERT_TRUE(transport.ok());
    BsoapClient client(*transport.value());
    answer = client.invoke(make_sum_call({20.0, 22.0}));
  });
  ASSERT_TRUE(wait_for([&] { return entered.load() == 1; }));

  // Stop while the request is dispatched: drain must wait for the worker,
  // deliver the response, then close.
  std::thread stopper([&] { server.value()->stop(); });
  std::this_thread::sleep_for(20ms);
  release.store(true);
  stopper.join();
  client_thread.join();
  ASSERT_TRUE(answer.ok()) << answer.error().to_string();
  EXPECT_EQ(answer.value().as_double(), 42.0);
  EXPECT_EQ(server.value()->stats().requests, 1u);
}

TEST(Reactor, OverloadAnswers503IdenticalToBlocking) {
  // max_connections = 0: every connection is refused at admission, on both
  // engines, with the same rendered 503.
  std::string blocking_bytes;
  std::string reactor_bytes;
  for (const IoModel model : {IoModel::kBlocking, IoModel::kReactor}) {
    ServerRuntimeOptions options;
    options.io_model = model;
    options.max_connections = 0;
    Result<std::unique_ptr<ServerRuntime>> server =
        ServerRuntime::start(sum_handler, options);
    ASSERT_TRUE(server.ok());
    Result<std::unique_ptr<net::Transport>> transport =
        net::tcp_connect(server.value()->port());
    ASSERT_TRUE(transport.ok());
    const std::string bytes = read_until_eof(*transport.value());
    (model == IoModel::kBlocking ? blocking_bytes : reactor_bytes) = bytes;
    ASSERT_TRUE(wait_for([&] { return server.value()->stats().rejected == 1; }));
    server.value()->stop();
  }
  EXPECT_FALSE(blocking_bytes.empty());
  EXPECT_EQ(blocking_bytes, reactor_bytes);
  EXPECT_NE(reactor_bytes.find("503 Service Unavailable"), std::string::npos);
  EXPECT_NE(reactor_bytes.find("Connection: close"), std::string::npos);
}

TEST(Reactor, HoldsAThousandIdleConnectionsWhileServingActiveOnes) {
  ServerRuntimeOptions options;
  options.io_model = IoModel::kReactor;
  options.workers = 2;
  options.max_connections = 1100;
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  // A fleet the blocking pool could never hold: 1000 keep-alive connections
  // that connect and go quiet.
  std::vector<std::unique_ptr<net::Transport>> idle;
  idle.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    Result<std::unique_ptr<net::Transport>> transport =
        net::tcp_connect(server.value()->port());
    ASSERT_TRUE(transport.ok()) << "connection " << i;
    idle.push_back(std::move(transport.value()));
  }
  ASSERT_TRUE(wait_for([&] { return server.value()->stats().accepted >= 1000; }));

  // A handful of active clients must be served promptly through the fleet.
  // Their transports stay open so the active gauge below is exact.
  std::vector<std::unique_ptr<net::Transport>> active;
  for (int c = 0; c < 5; ++c) {
    Result<std::unique_ptr<net::Transport>> transport =
        net::tcp_connect(server.value()->port());
    ASSERT_TRUE(transport.ok());
    active.push_back(std::move(transport.value()));
    BsoapClient client(*active.back());
    for (int i = 0; i < 3; ++i) {
      Result<Value> result = client.invoke(make_sum_call({1.0 * c, 2.0 * i}));
      ASSERT_TRUE(result.ok()) << result.error().to_string();
      EXPECT_EQ(result.value().as_double(), 1.0 * c + 2.0 * i);
    }
  }

  ServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.requests, 15u);
  EXPECT_EQ(stats.active, 1005u);
  EXPECT_GE(stats.conns_idle, 1000u);
  EXPECT_GE(stats.epoll_wakeups, 1u);
  server.value()->stop();
}

TEST(Reactor, DispatchStressAcrossEightWorkers) {
  ServerRuntimeOptions options;
  options.io_model = IoModel::kReactor;
  options.workers = 8;
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      Result<std::unique_ptr<net::Transport>> transport =
          net::tcp_connect(server.value()->port());
      if (!transport.ok()) return;
      BsoapClient client(*transport.value());
      for (int i = 0; i < kPerThread; ++i) {
        Result<Value> result =
            client.invoke(make_sum_call({1.0 * t, 1.0 * i, 0.5}));
        if (result.ok() &&
            result.value().as_double() == 1.0 * t + 1.0 * i + 0.5) {
          ok_count.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();

  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);
  // A worker records the response's match kind after its write, so the
  // client can read the last response before it is counted: wait for it.
  ASSERT_TRUE(wait_for([&] {
    return server.value()->stats().responses_total() ==
           static_cast<std::uint64_t>(kThreads * kPerThread);
  }));
  const ServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.faults, 0u);
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  server.value()->stop();
}

}  // namespace
}  // namespace bsoap::server
