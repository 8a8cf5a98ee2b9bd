// End-to-end client tests: BsoapClient and BoundMessage over in-memory and
// TCP transports, template-store behaviour, HTTP framing of template sends,
// and full request/response loops against the SOAP server.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "baseline/gsoap_like.hpp"
#include "common/rng.hpp"
#include "baseline/xsoap_like.hpp"
#include "core/client.hpp"
#include "core/template_builder.hpp"
#include "http/connection.hpp"
#include "net/inmemory.hpp"
#include "net/tcp.hpp"
#include "soap/envelope_reader.hpp"
#include "server/server_runtime.hpp"
#include "soap/soap_server.hpp"
#include "soap/workload.hpp"

namespace bsoap::core {
namespace {

using soap::RpcCall;
using soap::Value;

/// Receives HTTP requests on the server side of an in-memory pipe and
/// returns the parsed SOAP calls.
struct CapturingServer {
  explicit CapturingServer(net::Transport& transport)
      : connection(transport) {}

  Result<RpcCall> next_call() {
    Result<http::HttpRequest> request = connection.read_request();
    if (!request.ok()) return request.error();
    last_request = request.value();
    return soap::read_rpc_envelope(request.value().body);
  }

  http::HttpConnection connection;
  http::HttpRequest last_request;
};

TEST(BsoapClient, FirstSendThenContentMatch) {
  auto [client_t, server_t] = net::make_inmemory_transports();
  BsoapClient client(*client_t);
  CapturingServer server(*server_t);

  const RpcCall call = soap::make_double_array_call(soap::random_doubles(20, 1));

  Result<SendReport> first = client.send_call(call);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().match, MatchKind::kFirstTime);
  Result<RpcCall> received1 = server.next_call();
  ASSERT_TRUE(received1.ok());
  EXPECT_TRUE(received1.value().params[0].value == call.params[0].value);

  Result<SendReport> second = client.send_call(call);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().match, MatchKind::kContentMatch);
  Result<RpcCall> received2 = server.next_call();
  ASSERT_TRUE(received2.ok());
  EXPECT_TRUE(received2.value().params[0].value == call.params[0].value);
}

TEST(BsoapClient, StructuralMatchRewritesAndServerSeesNewValues) {
  auto [client_t, server_t] = net::make_inmemory_transports();
  BsoapClient client(*client_t);
  CapturingServer server(*server_t);

  auto values = soap::doubles_with_serialized_length(50, 18, 2);
  ASSERT_TRUE(client.send_call(soap::make_double_array_call(values)).ok());
  (void)server.next_call();

  values[7] = soap::doubles_with_serialized_length(1, 18, 3)[0];
  values[33] = soap::doubles_with_serialized_length(1, 18, 4)[0];
  Result<SendReport> report =
      client.send_call(soap::make_double_array_call(values));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().match, MatchKind::kPerfectStructural);
  EXPECT_EQ(report.value().update.values_rewritten, 2u);

  Result<RpcCall> received = server.next_call();
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received.value().params[0].value.doubles(), values);
}

TEST(BsoapClient, HttpFramingHasCorrectContentLength) {
  auto [client_t, server_t] = net::make_inmemory_transports();
  BsoapClient client(*client_t);
  CapturingServer server(*server_t);

  const RpcCall call = soap::make_int_array_call(soap::random_ints(100, 5));
  ASSERT_TRUE(client.send_call(call).ok());
  ASSERT_TRUE(server.next_call().ok());
  const http::Header* cl = server.last_request.find("Content-Length");
  ASSERT_NE(cl, nullptr);
  EXPECT_EQ(cl->value, std::to_string(server.last_request.body.size()));
  EXPECT_EQ(server.last_request.method, "POST");
  ASSERT_NE(server.last_request.find("SOAPAction"), nullptr);
  EXPECT_EQ(server.last_request.find("SOAPAction")->value, "\"sendData\"");
}

TEST(BsoapClient, ChunkedHttpFraming) {
  auto [client_t, server_t] = net::make_inmemory_transports();
  BsoapClientConfig config;
  config.framing = http::Framing::kChunked;
  config.tmpl.chunk.chunk_size = 1024;  // force several chunks
  BsoapClient client(*client_t, config);
  CapturingServer server(*server_t);

  const RpcCall call =
      soap::make_double_array_call(soap::random_doubles(200, 6));
  ASSERT_TRUE(client.send_call(call).ok());
  Result<RpcCall> received = server.next_call();
  ASSERT_TRUE(received.ok());
  ASSERT_NE(server.last_request.find("Transfer-Encoding"), nullptr);
  EXPECT_TRUE(received.value().params[0].value == call.params[0].value);
}

TEST(BsoapClient, SizeChangeIsFirstTimeSendForNewStructure) {
  auto [client_t, server_t] = net::make_inmemory_transports();
  BsoapClient client(*client_t);
  CapturingServer server(*server_t);

  ASSERT_TRUE(
      client.send_call(soap::make_double_array_call(soap::random_doubles(10, 7)))
          .ok());
  (void)server.next_call();
  Result<SendReport> bigger = client.send_call(
      soap::make_double_array_call(soap::random_doubles(11, 8)));
  ASSERT_TRUE(bigger.ok());
  EXPECT_EQ(bigger.value().match, MatchKind::kFirstTime);
  (void)server.next_call();
  EXPECT_EQ(client.store().size(), 2u);
}

TEST(BsoapClient, TemplateStoreLruEviction) {
  auto [client_t, server_t] = net::make_inmemory_transports();
  BsoapClientConfig config;
  config.max_templates = 2;
  BsoapClient client(*client_t, config);
  CapturingServer server(*server_t);

  for (std::size_t n = 5; n < 9; ++n) {
    ASSERT_TRUE(client
                    .send_call(soap::make_double_array_call(
                        soap::random_doubles(n, n)))
                    .ok());
    (void)server.next_call();
  }
  EXPECT_EQ(client.store().size(), 2u);
  EXPECT_EQ(client.store().evictions(), 2u);

  // The evicted structure is a first-time send again.
  Result<SendReport> report = client.send_call(
      soap::make_double_array_call(soap::random_doubles(5, 5)));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().match, MatchKind::kFirstTime);
}

TEST(BsoapClient, TemplateStoreByteBudgetEviction) {
  auto [client_t, server_t] = net::make_inmemory_transports();
  BsoapClientConfig config;
  config.max_templates = 16;  // count bound never binds in this test
  config.max_template_bytes = 4096;
  BsoapClient client(*client_t, config);
  CapturingServer server(*server_t);

  // Each distinct array length saves a new template (~1 KiB of envelope for
  // 20 doubles); four distinct shapes overflow a 4 KiB byte budget even
  // though the count budget has room for all of them.
  for (std::size_t n = 20; n < 28; n += 2) {
    ASSERT_TRUE(
        client.send_call(soap::make_double_array_call(soap::random_doubles(n, n)))
            .ok());
    (void)server.next_call();
  }
  EXPECT_LE(client.store().bytes_retained(), 4096u);
  EXPECT_LT(client.store().size(), 4u);
  EXPECT_GT(client.store().byte_evictions(), 0u);
  EXPECT_EQ(client.store().evictions(), 0u);  // count LRU never triggered

  // Evicted shapes are first-time sends again; retained ones still match.
  Result<SendReport> oldest = client.send_call(
      soap::make_double_array_call(soap::random_doubles(20, 20)));
  ASSERT_TRUE(oldest.ok());
  EXPECT_EQ(oldest.value().match, MatchKind::kFirstTime);
  (void)server.next_call();
  Result<SendReport> newest = client.send_call(
      soap::make_double_array_call(soap::random_doubles(26, 26)));
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ(newest.value().match, MatchKind::kContentMatch);
  (void)server.next_call();
}

TEST(BsoapClient, ByteBudgetEnforcedAfterInPlaceTemplateGrowth) {
  auto [client_t, server_t] = net::make_inmemory_transports();
  BsoapClientConfig config;
  config.max_templates = 16;
  // Exact stuffing so longer values force in-place expansion (growth).
  config.tmpl.stuffing.mode = StuffingPolicy::Mode::kExact;
  BsoapClient client(*client_t, config);
  CapturingServer server(*server_t);

  // Two shapes of short values fit the budget comfortably...
  std::vector<double> growing(40, 1.0);
  ASSERT_TRUE(client.send_call(soap::make_double_array_call(growing)).ok());
  (void)server.next_call();
  ASSERT_TRUE(
      client.send_call(soap::make_double_array_call(std::vector<double>(44, 2.0)))
          .ok());
  (void)server.next_call();
  const std::size_t resident = client.store().bytes_retained();
  ASSERT_EQ(client.store().size(), 2u);

  // ...then pin the budget at the current occupancy and grow the first
  // template in place: every value expands from 1 to 24 characters, a
  // partial structural match that pushes the store over budget mid-send.
  client.store().set_max_bytes(resident);
  std::fill(growing.begin(), growing.end(), -2.2250738585072014e-308);
  Result<SendReport> grown =
      client.send_call(soap::make_double_array_call(growing));
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(grown.value().match, MatchKind::kPartialStructural);
  (void)server.next_call();

  // The growth delta was visible to the budget pass: the other shape was
  // evicted, and the cached byte total agrees with the debug walk.
  EXPECT_GT(client.store().byte_evictions(), 0u);
  EXPECT_EQ(client.store().size(), 1u);
  EXPECT_LE(client.store().bytes_retained(), resident);
}

TEST(TemplateStore, ClearRoutesThroughTheSingleRemovalPath) {
  TemplateStore store(8, 0);
  for (std::size_t n = 10; n < 13; ++n) {
    store.insert(build_template(
        soap::make_double_array_call(soap::random_doubles(n, n)),
        TemplateConfig{}));
  }
  ASSERT_EQ(store.size(), 3u);
  ASSERT_GT(store.bytes_retained(), 0u);
  const std::uint64_t evictions_before = store.evictions();

  store.clear();

  // Contents are gone, byte accounting is zeroed (the debug cross-check
  // walk inside bytes_retained() verifies index/LRU/bytes agree), and
  // clear() is not an eviction — the tallies are history, not contents.
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.bytes_retained(), 0u);
  EXPECT_EQ(store.evictions(), evictions_before);

  // The store stays usable after clear().
  MessageTemplate* again = store.insert(build_template(
      soap::make_double_array_call(soap::random_doubles(10, 10)),
      TemplateConfig{}));
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(store.find(again->signature), again);
  EXPECT_EQ(store.bytes_retained(), again->buffer().total_size());
}

TEST(BsoapClient, ByteBudgetKeepsMostRecentTemplateEvenWhenOversized) {
  auto [client_t, server_t] = net::make_inmemory_transports();
  BsoapClientConfig config;
  config.max_template_bytes = 64;  // smaller than any single envelope
  BsoapClient client(*client_t, config);
  CapturingServer server(*server_t);

  // The template in use is never evicted: repeated sends of one oversized
  // message still hit the differential path.
  const RpcCall call = soap::make_double_array_call(soap::random_doubles(30, 2));
  ASSERT_TRUE(client.send_call(call).ok());
  (void)server.next_call();
  Result<SendReport> again = client.send_call(call);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().match, MatchKind::kContentMatch);
  EXPECT_EQ(client.store().size(), 1u);
  EXPECT_GT(client.store().bytes_retained(), 64u);
  (void)server.next_call();
}

TEST(BsoapClient, FullSerializationModeNeverReuses) {
  auto [client_t, server_t] = net::make_inmemory_transports();
  BsoapClientConfig config;
  config.differential = false;
  BsoapClient client(*client_t, config);
  CapturingServer server(*server_t);

  const RpcCall call = soap::make_double_array_call(soap::random_doubles(30, 9));
  for (int i = 0; i < 3; ++i) {
    Result<SendReport> report = client.send_call(call);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().match, MatchKind::kFirstTime);
    Result<RpcCall> received = server.next_call();
    ASSERT_TRUE(received.ok());
    EXPECT_TRUE(received.value().params[0].value == call.params[0].value);
  }
  EXPECT_EQ(client.store().size(), 0u);
}

TEST(BoundMessage, DirtyBitDrivenSends) {
  auto [client_t, server_t] = net::make_inmemory_transports();
  BsoapClient client(*client_t);
  CapturingServer server(*server_t);

  auto values = soap::doubles_with_serialized_length(40, 18, 10);
  auto message = client.bind(soap::make_double_array_call(values));

  // Clean DUT: content match.
  Result<SendReport> first = message->send();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().match, MatchKind::kContentMatch);
  (void)server.next_call();

  // Dirty two elements.
  const double nv = soap::doubles_with_serialized_length(1, 18, 11)[0];
  message->set_double_element(0, 5, nv);
  message->set_double_element(0, 6, nv);
  EXPECT_EQ(message->dirty_count(), 2u);
  Result<SendReport> second = message->send();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().match, MatchKind::kPerfectStructural);
  EXPECT_EQ(second.value().update.values_rewritten, 2u);
  EXPECT_EQ(message->dirty_count(), 0u);

  Result<RpcCall> received = server.next_call();
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received.value().params[0].value.doubles()[5], nv);
  EXPECT_EQ(received.value().params[0].value.doubles()[6], nv);
}

TEST(BoundMessage, MioSetters) {
  auto [client_t, server_t] = net::make_inmemory_transports();
  BsoapClient client(*client_t);
  CapturingServer server(*server_t);

  auto mios = soap::random_mios(10, 12);
  auto message = client.bind(soap::make_mio_array_call(mios));
  ASSERT_TRUE(message->send().ok());  // prime the template
  (void)server.next_call();

  message->set_mio_field_value(0, 4, 123.5);
  EXPECT_EQ(message->dirty_count(), 1u);  // only the double leaf
  ASSERT_TRUE(message->send().ok());
  Result<RpcCall> received = server.next_call();
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received.value().params[0].value.mios()[4].value, 123.5);
  EXPECT_EQ(received.value().params[0].value.mios()[4].x, mios[4].x);

  message->set_mio_element(0, 2, soap::Mio{9, 8, 7.5});
  EXPECT_EQ(message->dirty_count(), 3u);
  ASSERT_TRUE(message->send().ok());
  received = server.next_call();
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received.value().params[0].value.mios()[2], (soap::Mio{9, 8, 7.5}));
}

TEST(BoundMessage, ScalarAndStringSetters) {
  auto [client_t, server_t] = net::make_inmemory_transports();
  BsoapClient client(*client_t);
  CapturingServer server(*server_t);

  RpcCall call;
  call.method = "update";
  call.service_namespace = "urn:t";
  call.params.push_back(soap::Param{"count", Value::from_int(1)});
  call.params.push_back(soap::Param{"label", Value::from_string("first")});
  auto message = client.bind(std::move(call));
  ASSERT_TRUE(message->send().ok());
  (void)server.next_call();

  message->set_int(0, 42);
  message->set_string(1, "second & longer label");
  ASSERT_TRUE(message->send().ok());
  Result<RpcCall> received = server.next_call();
  ASSERT_TRUE(received.ok());
  EXPECT_EQ(received.value().params[0].value.as_int(), 42);
  EXPECT_EQ(received.value().params[1].value.as_string(),
            "second & longer label");
}

TEST(BoundMessage, RandomizedMixedOperationsMatchOracle) {
  // Long random sequence of setter + send operations; the server-visible
  // array must always equal the in-memory array.
  Rng rng(8086);
  auto [client_t, server_t] = net::make_inmemory_transports();
  core::BsoapClientConfig config;
  config.tmpl.stuffing.mode =
      rng.chance(1, 2) ? StuffingPolicy::Mode::kTypeMax
                       : StuffingPolicy::Mode::kExact;
  BsoapClient client(*client_t, config);
  CapturingServer server(*server_t);

  auto mios = soap::random_mios(40, 1);
  auto message = client.bind(soap::make_mio_array_call(mios));

  for (int step = 0; step < 30; ++step) {
    const std::size_t ops = rng.next_below(8);
    for (std::size_t o = 0; o < ops; ++o) {
      const std::size_t idx = rng.next_below(mios.size());
      if (rng.chance(1, 2)) {
        const double v = Rng(rng.next_u64()).next_unit_double();
        mios[idx].value = v;
        message->set_mio_field_value(0, idx, v);
      } else {
        const soap::Mio m{static_cast<std::int32_t>(rng.next_in(-9999, 9999)),
                          static_cast<std::int32_t>(rng.next_in(0, 1 << 20)),
                          Rng(rng.next_u64()).next_finite_double()};
        mios[idx] = m;
        message->set_mio_element(0, idx, m);
      }
    }
    ASSERT_TRUE(message->send().ok());
    Result<RpcCall> received = server.next_call();
    ASSERT_TRUE(received.ok()) << "step " << step;
    ASSERT_EQ(received.value().params[0].value.mios(), mios)
        << "step " << step;
    ASSERT_TRUE(message->tmpl().check_invariants());
  }
}

TEST(BsoapClient, StuffedConfigKeepsStructuralMatchesUnderWidthChanges) {
  auto [client_t, server_t] = net::make_inmemory_transports();
  core::BsoapClientConfig config;
  config.tmpl.stuffing.mode = StuffingPolicy::Mode::kTypeMax;
  BsoapClient client(*client_t, config);
  CapturingServer server(*server_t);

  auto values = soap::random_unit_doubles(50, 3);
  ASSERT_TRUE(client.send_call(soap::make_double_array_call(values)).ok());
  (void)server.next_call();
  for (int round = 0; round < 5; ++round) {
    // Wild width swings: 1-char and 24-char values never expand a stuffed
    // field, so every send stays a perfect structural match.
    values[static_cast<std::size_t>(round)] = round % 2 == 0 ? 1.0 : -2.2250738585072014e-308;
    Result<SendReport> report =
        client.send_call(soap::make_double_array_call(values));
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().match, MatchKind::kPerfectStructural);
    Result<RpcCall> received = server.next_call();
    ASSERT_TRUE(received.ok());
    EXPECT_EQ(received.value().params[0].value.doubles(), values);
  }
}

TEST(EndToEnd, InvokeAgainstSoapServer) {
  // Full RPC loop over real TCP against the handler-driven server.
  auto server = server::ServerRuntime::start([](const RpcCall& call) -> Result<Value> {
    if (call.method != "sum") {
      return Error{ErrorCode::kNotFound, "unknown method"};
    }
    double total = 0;
    for (const double v : call.params[0].value.doubles()) total += v;
    return Value::from_double(total);
  });
  ASSERT_TRUE(server.ok());

  Result<std::unique_ptr<net::Transport>> transport =
      net::tcp_connect(server.value()->port());
  ASSERT_TRUE(transport.ok());
  BsoapClient client(*transport.value());

  RpcCall call;
  call.method = "sum";
  call.service_namespace = "urn:calc";
  call.params.push_back(
      soap::Param{"data", Value::from_double_array({1.5, 2.5, 3.0})});

  for (int i = 0; i < 3; ++i) {
    Result<Value> result = client.invoke(call);
    ASSERT_TRUE(result.ok()) << result.error().to_string();
    EXPECT_EQ(result.value().as_double(), 7.0);
  }
  EXPECT_EQ(server.value()->stats().requests, 3u);

  // Faults propagate as errors.
  call.method = "nope";
  Result<Value> fault = client.invoke(call);
  EXPECT_FALSE(fault.ok());
  server.value()->stop();
}

TEST(Baselines, GSoapLikeSendsParseableEnvelopes) {
  auto [client_t, server_t] = net::make_inmemory_transports();
  baseline::GSoapLikeClient client(*client_t);
  CapturingServer server(*server_t);

  const RpcCall call = soap::make_mio_array_call(soap::random_mios(30, 13));
  Result<std::size_t> sent = client.send_call(call);
  ASSERT_TRUE(sent.ok());
  EXPECT_EQ(sent.value(), client.last_envelope_size());
  Result<RpcCall> received = server.next_call();
  ASSERT_TRUE(received.ok());
  EXPECT_TRUE(received.value().params[0].value == call.params[0].value);
}

TEST(Baselines, XSoapLikeSendsParseableEnvelopes) {
  auto [client_t, server_t] = net::make_inmemory_transports();
  baseline::XSoapLikeClient client(*client_t);
  CapturingServer server(*server_t);

  const RpcCall call =
      soap::make_double_array_call(soap::random_unit_doubles(30, 14));
  ASSERT_TRUE(client.send_call(call).ok());
  Result<RpcCall> received = server.next_call();
  ASSERT_TRUE(received.ok());
  const auto& got = received.value().params[0].value.doubles();
  ASSERT_EQ(got.size(), 30u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    // %.17g round-trips exactly.
    EXPECT_EQ(got[i], call.params[0].value.doubles()[i]);
  }
}

TEST(Baselines, GSoapLikeInvokeRoundTrip) {
  auto server = server::ServerRuntime::start(
      [](const RpcCall& call) -> Result<Value> {
        return Value::from_int(
            static_cast<std::int32_t>(call.params.size()));
      });
  ASSERT_TRUE(server.ok());
  Result<std::unique_ptr<net::Transport>> transport =
      net::tcp_connect(server.value()->port());
  ASSERT_TRUE(transport.ok());
  baseline::GSoapLikeClient client(*transport.value());

  RpcCall call;
  call.method = "count";
  call.service_namespace = "urn:c";
  call.params.push_back(soap::Param{"a", Value::from_int(1)});
  call.params.push_back(soap::Param{"b", Value::from_int(2)});
  Result<Value> result = client.invoke(call);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.value().as_int(), 2);
  server.value()->stop();
}

}  // namespace
}  // namespace bsoap::core
