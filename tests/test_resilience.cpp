// Client resilience tests: retry policy backoff, connection pool checkout /
// reuse / liveness-reconnect, deterministic fault injection, and — the core
// of the layer — template-state recovery: a send that fails mid-write and
// retries on a fresh connection produces wire bytes identical to a send that
// never failed, and the template keeps matching differentially afterwards.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/client.hpp"
#include "http/connection.hpp"
#include "net/connection_pool.hpp"
#include "net/fault_injection.hpp"
#include "net/inmemory.hpp"
#include "net/tcp.hpp"
#include "resilience/retry_policy.hpp"
#include "server/server_runtime.hpp"
#include "soap/envelope_reader.hpp"
#include "soap/workload.hpp"

namespace bsoap::core {
namespace {

using namespace std::chrono_literals;
using soap::RpcCall;
using soap::Value;

/// Reads a peer's raw bytes until end of stream (the writer must be
/// destroyed or shut down first).
std::string drain_raw(net::Transport& transport) {
  std::string out;
  char buf[4096];
  for (;;) {
    Result<std::size_t> got = transport.recv(buf, sizeof(buf));
    if (!got.ok() || got.value() == 0) break;
    out.append(buf, got.value());
  }
  return out;
}

/// Parses the HTTP requests a server-side transport received.
struct CapturingServer {
  explicit CapturingServer(net::Transport& transport)
      : connection(transport) {}

  Result<RpcCall> next_call() {
    Result<http::HttpRequest> request = connection.read_request();
    if (!request.ok()) return request.error();
    return soap::read_rpc_envelope(request.value().body);
  }

  http::HttpConnection connection;
};

/// A dialable in-memory endpoint: every dial creates a fresh pipe pair and
/// keeps the server end for inspection. `plan_for` (dial index, 0-based)
/// wraps the connection in fault injection; a default FaultPlan is clean.
struct InMemoryEndpoint {
  std::vector<std::unique_ptr<net::Transport>> server_ends;
  std::function<net::FaultPlan(std::size_t)> plan_for;
  std::size_t dials = 0;

  net::Dialer dialer() {
    return [this]() -> Result<std::unique_ptr<net::Transport>> {
      auto [client_end, server_end] = net::make_inmemory_transports();
      server_ends.push_back(std::move(server_end));
      const std::size_t index = dials++;
      std::unique_ptr<net::Transport> out = std::move(client_end);
      if (plan_for) {
        out = std::make_unique<net::FaultInjectingTransport>(std::move(out),
                                                             plan_for(index));
      }
      return out;
    };
  }
};

/// Fast, deterministic retry policy for tests.
resilience::RetryPolicy fast_retry(std::uint32_t attempts) {
  return resilience::RetryPolicy{}
      .with_max_attempts(attempts)
      .with_initial_backoff(1ms)
      .with_jitter(false);
}

// --- RetryPolicy ----------------------------------------------------------

TEST(RetryPolicy, BackoffIsExponentialAndCappedWithoutJitter) {
  resilience::RetryPolicy policy = resilience::RetryPolicy{}
                                       .with_initial_backoff(10ms)
                                       .with_multiplier(2.0)
                                       .with_max_backoff(50ms)
                                       .with_jitter(false);
  Rng rng(1);
  EXPECT_EQ(policy.backoff_for(1, rng), 10ms);
  EXPECT_EQ(policy.backoff_for(2, rng), 20ms);
  EXPECT_EQ(policy.backoff_for(3, rng), 40ms);
  EXPECT_EQ(policy.backoff_for(4, rng), 50ms);  // capped
  EXPECT_EQ(policy.backoff_for(10, rng), 50ms);
}

TEST(RetryPolicy, JitterStaysWithinEqualJitterBounds) {
  resilience::RetryPolicy policy =
      resilience::RetryPolicy{}.with_initial_backoff(100ms).with_jitter(true);
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const auto delay = policy.backoff_for(1, rng);
    EXPECT_GE(delay, 50ms);
    EXPECT_LE(delay, 100ms);
  }
}

TEST(RetryPolicy, DefaultRetryableSet) {
  EXPECT_TRUE(resilience::default_retryable(ErrorCode::kIoError));
  EXPECT_TRUE(resilience::default_retryable(ErrorCode::kClosed));
  EXPECT_TRUE(resilience::default_retryable(ErrorCode::kTimeout));
  EXPECT_TRUE(resilience::default_retryable(ErrorCode::kUnavailable));
  EXPECT_FALSE(resilience::default_retryable(ErrorCode::kInvalidArgument));
  EXPECT_FALSE(resilience::default_retryable(ErrorCode::kProtocolError));
  EXPECT_FALSE(resilience::default_retryable(ErrorCode::kParseError));
  EXPECT_FALSE(resilience::default_retryable(ErrorCode::kRetryExhausted));
}

TEST(RetryPolicy, NewErrorCodesHaveNames) {
  EXPECT_STREQ(error_code_name(ErrorCode::kUnavailable), "kUnavailable");
  EXPECT_STREQ(error_code_name(ErrorCode::kRetryExhausted),
               "kRetryExhausted");
}

// --- FaultInjectingTransport ----------------------------------------------

TEST(FaultInjection, CutsAfterExactlyNBytesThenReportsClosed) {
  auto [client_end, server_end] = net::make_inmemory_transports();
  net::FaultPlan plan;
  plan.fail_after_bytes = 10;
  net::FaultInjectingTransport faulty(std::move(client_end), plan);

  const char payload[] = "0123456789abcdefghij";  // 20 bytes
  Status cut = faulty.send(payload, 20);
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.error().code, ErrorCode::kIoError);
  EXPECT_EQ(faulty.bytes_forwarded(), 10u);
  EXPECT_TRUE(faulty.broken());

  Status after = faulty.send(payload, 1);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.error().code, ErrorCode::kClosed);

  EXPECT_EQ(drain_raw(*server_end), "0123456789");
}

TEST(FaultInjection, DialRefusalIsUnavailable) {
  InMemoryEndpoint endpoint;
  net::FaultPlan plan;
  plan.connect_refusal_rate = 1.0;
  net::Dialer dial = net::faulty_dialer(endpoint.dialer(), plan);
  Result<std::unique_ptr<net::Transport>> conn = dial();
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.error().code, ErrorCode::kUnavailable);
}

// --- ConnectionPool -------------------------------------------------------

TEST(ConnectionPool, FixedPoolCirculatesItsSeededConnection) {
  auto [client_end, server_end] = net::make_inmemory_transports();
  net::ConnectionPool pool(
      net::ConnectionPool::Options{/*max_idle=*/1, /*dial=*/nullptr});
  ASSERT_TRUE(pool.fixed());
  pool.add(std::move(client_end));

  Result<net::ConnectionPool::Lease> lease = pool.checkout();
  ASSERT_TRUE(lease.ok());
  // Fixed pool with its one connection out: checkout fails, no dial.
  Result<net::ConnectionPool::Lease> second = pool.checkout();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.error().code, ErrorCode::kUnavailable);

  // Even a discard returns the connection (legacy single-transport flow).
  lease.value().discard();
  EXPECT_TRUE(pool.checkout().ok());
  EXPECT_EQ(pool.stats().dials, 0u);
}

TEST(ConnectionPool, DialsOnDemandAndReusesIdle) {
  InMemoryEndpoint endpoint;
  net::ConnectionPool pool(
      net::ConnectionPool::Options{/*max_idle=*/2, endpoint.dialer()});
  ASSERT_FALSE(pool.fixed());

  Result<net::ConnectionPool::Lease> lease = pool.checkout();
  ASSERT_TRUE(lease.ok());
  lease.value().checkin();
  Result<net::ConnectionPool::Lease> again = pool.checkout();
  ASSERT_TRUE(again.ok());
  again.value().checkin();

  const net::ConnectionPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.dials, 1u);
  EXPECT_EQ(stats.reuses, 1u);
}

TEST(ConnectionPool, DiscardedConnectionsAreNotReused) {
  InMemoryEndpoint endpoint;
  net::ConnectionPool pool(
      net::ConnectionPool::Options{/*max_idle=*/2, endpoint.dialer()});
  Result<net::ConnectionPool::Lease> lease = pool.checkout();
  ASSERT_TRUE(lease.ok());
  lease.value().discard();
  EXPECT_EQ(pool.idle_count(), 0u);
  Result<net::ConnectionPool::Lease> fresh = pool.checkout();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(pool.stats().dials, 2u);
  EXPECT_EQ(pool.stats().discards, 1u);
  fresh.value().checkin();
}

// --- Template-state recovery ----------------------------------------------

/// Measures the wire size of a first-time send of `call` over a clean
/// pooled client (used to place byte-exact fault cuts).
std::size_t measure_first_send_bytes(const RpcCall& call) {
  InMemoryEndpoint endpoint;
  BsoapClient client(endpoint.dialer(), BsoapClientConfig{});
  Result<SendReport> report = client.send_call(call);
  EXPECT_TRUE(report.ok());
  return report.value().wire_bytes;
}

TEST(TemplateRecovery, RetriedDiffSendMatchesUnfailedWireBytes) {
  auto values = soap::doubles_with_serialized_length(60, 18, 11);
  const RpcCall call_a = soap::make_double_array_call(values);
  values[9] = soap::doubles_with_serialized_length(1, 18, 12)[0];
  values[41] = soap::doubles_with_serialized_length(1, 18, 13)[0];
  const RpcCall call_b = soap::make_double_array_call(values);

  // Reference: the same two sends with no failure, over one connection.
  std::string reference_b;
  std::size_t wire_a = 0;
  {
    InMemoryEndpoint endpoint;
    auto client = std::make_unique<BsoapClient>(endpoint.dialer(),
                                                BsoapClientConfig{});
    Result<SendReport> first = client->send_call(call_a);
    ASSERT_TRUE(first.ok());
    wire_a = first.value().wire_bytes;
    Result<SendReport> second = client->send_call(call_b);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.value().match, MatchKind::kPerfectStructural);
    client.reset();  // close the pooled connection so drain terminates
    ASSERT_EQ(endpoint.server_ends.size(), 1u);
    const std::string raw = drain_raw(*endpoint.server_ends[0]);
    ASSERT_EQ(raw.size(), wire_a + second.value().wire_bytes);
    reference_b = raw.substr(wire_a);
  }

  // Faulty run: connection 0 drops exactly 16 bytes into send B; the retry
  // dials connection 1 and must put byte-identical B on the wire.
  {
    InMemoryEndpoint endpoint;
    endpoint.plan_for = [&](std::size_t index) {
      net::FaultPlan plan;
      if (index == 0) plan.fail_after_bytes = wire_a + 16;
      return plan;
    };
    auto client = std::make_unique<BsoapClient>(
        endpoint.dialer(),
        BsoapClientConfig{}.with_retry(fast_retry(3)));
    ASSERT_TRUE(client->send_call(call_a).ok());
    Result<SendReport> retried = client->send_call(call_b);
    ASSERT_TRUE(retried.ok());
    EXPECT_EQ(retried.value().attempts, 2u);
    EXPECT_EQ(retried.value().recovery, Recovery::kRolledBack);
    EXPECT_EQ(retried.value().match, MatchKind::kPerfectStructural);

    // The acceptance bar: after recovery the template still matches
    // differentially — an unchanged resend is a content match.
    Result<SendReport> unchanged = client->send_call(call_b);
    ASSERT_TRUE(unchanged.ok());
    EXPECT_EQ(unchanged.value().match, MatchKind::kContentMatch);
    EXPECT_EQ(unchanged.value().attempts, 1u);

    client.reset();
    ASSERT_EQ(endpoint.server_ends.size(), 2u);
    // Connection 0 carries A plus exactly the 16 bytes before the cut.
    EXPECT_EQ(drain_raw(*endpoint.server_ends[0]).size(), wire_a + 16);
    // Connection 1 carries the retried B, then the content-match resend.
    const std::string raw = drain_raw(*endpoint.server_ends[1]);
    ASSERT_GE(raw.size(), reference_b.size());
    EXPECT_EQ(raw.substr(0, reference_b.size()), reference_b);
    EXPECT_EQ(raw.substr(reference_b.size()), reference_b);
  }
}

TEST(TemplateRecovery, ExhaustedRetriesRollBackToExactPriorState) {
  auto values = soap::doubles_with_serialized_length(40, 18, 21);
  const RpcCall call_a = soap::make_double_array_call(values);
  values[3] = soap::doubles_with_serialized_length(1, 18, 22)[0];
  const RpcCall call_b = soap::make_double_array_call(values);
  const std::size_t wire_a = measure_first_send_bytes(call_a);

  InMemoryEndpoint endpoint;
  endpoint.plan_for = [&](std::size_t index) {
    net::FaultPlan plan;
    if (index == 0) {
      plan.fail_after_bytes = wire_a + 8;  // A fits; B is cut
    } else if (index <= 2) {
      plan.fail_after_bytes = 32;  // retries die in the HTTP head
    }
    return plan;  // connections 3+ are clean
  };
  BsoapClient client(endpoint.dialer(),
                     BsoapClientConfig{}.with_retry(fast_retry(3)));
  ASSERT_TRUE(client.send_call(call_a).ok());

  Result<SendReport> failed = client.send_call(call_b);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, ErrorCode::kRetryExhausted);
  EXPECT_EQ(client.pool().stats().dials, 3u);

  // Every attempt rolled the template back, so resending the ORIGINAL
  // values is a content match with zero rewrites: shadows, buffer bytes,
  // and stats all match the pre-failure state exactly.
  Result<SendReport> original = client.send_call(call_a);
  ASSERT_TRUE(original.ok());
  EXPECT_EQ(original.value().match, MatchKind::kContentMatch);
  EXPECT_EQ(original.value().update.values_rewritten, 0u);

  CapturingServer server(*endpoint.server_ends[3]);
  Result<RpcCall> received = server.next_call();
  ASSERT_TRUE(received.ok());
  EXPECT_TRUE(received.value().params[0].value == call_a.params[0].value);
}

TEST(TemplateRecovery, StructuralFailureInvalidatesAndRetriesFirstTime) {
  // B grows one value from 6 to 18 serialized chars: the update expands the
  // field, which cannot be rolled back — recovery must invalidate.
  auto values = soap::doubles_with_serialized_length(20, 6, 31);
  const RpcCall call_a = soap::make_double_array_call(values);
  values[5] = soap::doubles_with_serialized_length(1, 18, 32)[0];
  const RpcCall call_b = soap::make_double_array_call(values);
  const std::size_t wire_a = measure_first_send_bytes(call_a);

  InMemoryEndpoint endpoint;
  endpoint.plan_for = [&](std::size_t index) {
    net::FaultPlan plan;
    if (index == 0) plan.fail_after_bytes = wire_a + 8;
    return plan;
  };
  BsoapClient client(endpoint.dialer(),
                     BsoapClientConfig{}.with_retry(fast_retry(3)));
  ASSERT_TRUE(client.send_call(call_a).ok());

  Result<SendReport> retried = client.send_call(call_b);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.value().attempts, 2u);
  EXPECT_EQ(retried.value().recovery, Recovery::kInvalidated);
  EXPECT_EQ(retried.value().match, MatchKind::kFirstTime);
  EXPECT_EQ(client.store().invalidations(), 1u);
  // The dropped template had grown in place before the failed write; the
  // byte accounting must forget its grown size, leaving exactly the
  // rebuilt template.
  EXPECT_EQ(client.store().size(), 1u);
  EXPECT_EQ(client.store().bytes_retained(),
            retried.value().body_bytes_logical);

  CapturingServer server(*endpoint.server_ends[1]);
  Result<RpcCall> received = server.next_call();
  ASSERT_TRUE(received.ok());
  EXPECT_TRUE(received.value().params[0].value == call_b.params[0].value);
}

TEST(TemplateRecovery, FirstTimeSendFailureErasesTheStoredTemplate) {
  const RpcCall call =
      soap::make_double_array_call(soap::random_doubles(30, 41));
  InMemoryEndpoint endpoint;
  endpoint.plan_for = [](std::size_t index) {
    net::FaultPlan plan;
    if (index == 0) plan.fail_after_bytes = 32;
    return plan;
  };
  BsoapClient client(endpoint.dialer(),
                     BsoapClientConfig{}.with_retry(fast_retry(3)));

  // The first-time send fails mid-write; the half-born template is erased
  // and the retry is itself a clean first-time send.
  Result<SendReport> report = client.send_call(call);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().attempts, 2u);
  EXPECT_EQ(report.value().recovery, Recovery::kInvalidated);
  EXPECT_EQ(report.value().match, MatchKind::kFirstTime);

  // And the template it left behind is healthy: unchanged resend matches.
  Result<SendReport> unchanged = client.send_call(call);
  ASSERT_TRUE(unchanged.ok());
  EXPECT_EQ(unchanged.value().match, MatchKind::kContentMatch);
}

TEST(TemplateRecovery, TrackedMessageRollsBackToStillDirtyOnSingleAttempt) {
  // Legacy single-transport client: one attempt, no retry. A failed tracked
  // send must leave the changed field dirty (rolled back, not half-sent).
  auto values = soap::doubles_with_serialized_length(25, 18, 51);
  const RpcCall probe_call = soap::make_double_array_call(values);
  const std::size_t wire_first = measure_first_send_bytes(probe_call);

  auto [client_end, server_end] = net::make_inmemory_transports();
  net::FaultPlan plan;
  plan.fail_after_bytes = wire_first + 8;
  net::FaultInjectingTransport faulty(std::move(client_end), plan);
  BsoapClient client(faulty);

  std::unique_ptr<BoundMessage> message =
      client.bind(soap::make_double_array_call(values));
  ASSERT_TRUE(message->send().ok());
  EXPECT_EQ(message->dirty_count(), 0u);

  message->set_double_element(0, 7,
                              soap::doubles_with_serialized_length(1, 18, 52)[0]);
  EXPECT_EQ(message->dirty_count(), 1u);
  Result<SendReport> failed = message->send();
  ASSERT_FALSE(failed.ok());
  // Single attempt: the underlying error surfaces, not kRetryExhausted.
  EXPECT_EQ(failed.error().code, ErrorCode::kIoError);
  EXPECT_EQ(message->dirty_count(), 1u);  // rolled back to still-dirty
}

TEST(TemplateRecovery, TrackedMessageRebuildsAfterStructuralFailure) {
  auto values = soap::doubles_with_serialized_length(20, 6, 61);
  const RpcCall probe_call = soap::make_double_array_call(values);
  const std::size_t wire_first = measure_first_send_bytes(probe_call);

  InMemoryEndpoint endpoint;
  endpoint.plan_for = [&](std::size_t index) {
    net::FaultPlan plan;
    if (index == 0) plan.fail_after_bytes = wire_first + 8;
    return plan;
  };
  BsoapClient client(endpoint.dialer(),
                     BsoapClientConfig{}.with_retry(fast_retry(3)));
  std::unique_ptr<BoundMessage> message =
      client.bind(soap::make_double_array_call(values));
  ASSERT_TRUE(message->send().ok());

  // Expanding update (6 -> 18 chars) + mid-write failure: rollback is
  // refused, the template is rebuilt in place, the retry sends first-time.
  const double wide = soap::doubles_with_serialized_length(1, 18, 62)[0];
  message->set_double_element(0, 5, wide);
  Result<SendReport> retried = message->send();
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(retried.value().attempts, 2u);
  EXPECT_EQ(retried.value().recovery, Recovery::kInvalidated);
  EXPECT_EQ(retried.value().match, MatchKind::kFirstTime);
  EXPECT_EQ(message->dirty_count(), 0u);

  // The rebuilt template is live: an unchanged send is a content match and
  // the server sees the expanded value.
  Result<SendReport> unchanged = message->send();
  ASSERT_TRUE(unchanged.ok());
  EXPECT_EQ(unchanged.value().match, MatchKind::kContentMatch);

  CapturingServer server(*endpoint.server_ends[1]);
  Result<RpcCall> received = server.next_call();
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received.value().params[0].value.doubles()[5], wide);
}

TEST(ResilientClient, NonRetryableErrorFailsFast) {
  InMemoryEndpoint endpoint;
  endpoint.plan_for = [](std::size_t) {
    net::FaultPlan plan;
    plan.fail_after_bytes = 16;
    return plan;
  };
  BsoapClient client(
      endpoint.dialer(),
      BsoapClientConfig{}.with_retry(
          fast_retry(5).with_retryable([](ErrorCode) { return false; })));
  Result<SendReport> report =
      client.send_call(soap::make_double_array_call(soap::random_doubles(10, 71)));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, ErrorCode::kIoError);  // not wrapped
  EXPECT_EQ(client.pool().stats().dials, 1u);           // not retried
}

TEST(ResilientClient, RefusedDialsAreRetriedThenExhausted) {
  InMemoryEndpoint endpoint;
  net::FaultPlan plan;
  plan.connect_refusal_rate = 1.0;
  BsoapClient client(net::faulty_dialer(endpoint.dialer(), plan),
                     BsoapClientConfig{}.with_retry(fast_retry(3)));
  Result<SendReport> report =
      client.send_call(soap::make_double_array_call(soap::random_doubles(10, 72)));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.error().code, ErrorCode::kRetryExhausted);
}

// --- Pool + server runtime ------------------------------------------------

Result<Value> sum_handler(const RpcCall& call) {
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

TEST(ResilientClient, ReusesKeepAliveAndReconnectsAfterServerIdleClose) {
  server::ServerRuntimeOptions options;
  options.workers = 1;
  options.idle_timeout = 100ms;
  Result<std::unique_ptr<server::ServerRuntime>> server =
      server::ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());
  const std::uint16_t port = server.value()->port();

  BsoapClient client([port] { return net::tcp_connect(port); },
                     BsoapClientConfig{}.with_retry(fast_retry(3)));

  Result<Value> first = client.invoke(make_sum_call({1.0, 2.0, 3.0}));
  ASSERT_TRUE(first.ok());
  EXPECT_DOUBLE_EQ(first.value().as_double(), 6.0);
  EXPECT_EQ(client.pool().stats().dials, 1u);

  // Immediate second call: the idle keep-alive connection is reused.
  Result<Value> second = client.invoke(make_sum_call({1.0, 2.0, 4.0}));
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(second.value().as_double(), 7.0);
  EXPECT_EQ(client.pool().stats().dials, 1u);
  EXPECT_GE(client.pool().stats().reuses, 1u);

  // Wait past the server's idle timeout: it closes the connection. The
  // pool's liveness probe sees the close and checkout reconnects.
  std::this_thread::sleep_for(400ms);
  Result<Value> third = client.invoke(make_sum_call({2.0, 2.0, 4.0}));
  ASSERT_TRUE(third.ok());
  EXPECT_DOUBLE_EQ(third.value().as_double(), 8.0);
  EXPECT_EQ(client.pool().stats().dials, 2u);
  EXPECT_GE(client.pool().stats().liveness_closes, 1u);
}

}  // namespace
}  // namespace bsoap::core
