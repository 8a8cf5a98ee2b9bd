// Server-level differential deserialization tests: the fused
// ReplicaStore + ParsedReplica receive path in ServerRuntime. Covers the
// stats surface (content hits / fast parses / full parses / demotions) on
// both connection engines, handler-input equivalence against an
// always-full-parse oracle server, NACK-then-re-pin recovery, demotion on a
// structural patch (crafted with a valid checksum), the
// max_inflate_bytes 413 bound on patch-reconstructed bodies, and two
// shared-replica stress shapes (distinct replicas under 8 workers, and 8
// raw clients hammering ONE template ID to contend the clone-or-lock
// lease; both run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "buffer/sinks.hpp"
#include "common/poly_hash.hpp"
#include "common/rng.hpp"
#include "core/client.hpp"
#include "core/parsed_replica.hpp"
#include "diffwire/replica_store.hpp"
#include "diffwire/wire_format.hpp"
#include "http/http_message.hpp"
#include "net/tcp.hpp"
#include "server/recv_observer.hpp"
#include "server/server_runtime.hpp"
#include "soap/envelope_writer.hpp"
#include "soap/workload.hpp"
#include "replica_apply.hpp"

namespace bsoap::server {
namespace {

using bsoap::testing::apply_copy;

using namespace std::chrono_literals;
using core::BsoapClient;
using core::BsoapClientConfig;
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

std::string serialize(const RpcCall& call) {
  buffer::StringSink sink;
  soap::write_rpc_envelope(sink, call);
  return sink.take();
}

Result<Value> sum_handler(const RpcCall& call) {
  if (call.method != "sendData") {
    return Error{ErrorCode::kNotFound, "no method"};
  }
  double total = 0;
  for (const double v : call.params[0].value.doubles()) total += v;
  return Value::from_double(total);
}

double sum_of(const std::vector<double>& values) {
  double total = 0;
  for (const double v : values) total += v;
  return total;
}

BsoapClientConfig diff_client_config() {
  BsoapClientConfig cfg;
  cfg.tmpl.stuffing.mode = core::StuffingPolicy::Mode::kTypeMax;
  cfg.tmpl.stuffing.stuff_on_expand = true;
  cfg.diffwire = true;
  return cfg;
}

net::Dialer tcp_dialer(std::uint16_t port) {
  return [port] { return net::tcp_connect(port); };
}

/// Drives `iters` invokes with one value mutated per step; every result
/// must match the locally computed sum.
void drive_mutating_invokes(BsoapClient& client, int iters,
                            std::uint64_t seed) {
  std::vector<double> values =
      soap::doubles_with_serialized_length(64, 17, seed);
  bsoap::Rng rng(seed ^ 0xabcdef);
  for (int i = 0; i < iters; ++i) {
    values[static_cast<std::size_t>(i) % values.size()] =
        soap::double_with_serialized_length(rng, 17);
    Result<Value> result = client.invoke(soap::make_double_array_call(values));
    ASSERT_TRUE(result.ok()) << "iter " << i << ": "
                             << result.error().to_string();
    EXPECT_EQ(result.value().as_double(), sum_of(values)) << "iter " << i;
  }
}

// --- raw-socket plumbing ---------------------------------------------------

/// Reads one Content-Length-framed HTTP response off the transport.
Result<http::HttpResponse> read_response(net::Transport& transport) {
  std::string buffer;
  char chunk[2048];
  std::size_t head_end = std::string::npos;
  while (head_end == std::string::npos) {
    Result<std::size_t> got = transport.recv(chunk, sizeof(chunk));
    if (!got.ok()) return got.error();
    if (got.value() == 0) {
      return Error{ErrorCode::kClosed, "eof before response head"};
    }
    buffer.append(chunk, got.value());
    head_end = buffer.find("\r\n\r\n");
  }
  Result<http::HttpResponse> head =
      http::parse_response_head(buffer.substr(0, head_end + 4));
  if (!head.ok()) return head.error();
  http::HttpResponse response = std::move(head.value());
  std::size_t body_len = 0;
  if (const http::Header* cl = response.find("Content-Length")) {
    body_len = static_cast<std::size_t>(std::stoull(cl->value));
  }
  response.body = buffer.substr(head_end + 4);
  while (response.body.size() < body_len) {
    Result<std::size_t> got = transport.recv(chunk, sizeof(chunk));
    if (!got.ok()) return got.error();
    if (got.value() == 0) return Error{ErrorCode::kClosed, "eof mid-body"};
    response.body.append(chunk, got.value());
  }
  return response;
}

std::string offer_request(std::uint64_t id, const std::string& body) {
  http::HttpRequest request;
  request.headers.push_back({"Content-Type", "text/xml; charset=utf-8"});
  request.headers.push_back({diffwire::kDiffHeader, diffwire::kOfferValue});
  request.headers.push_back(
      {diffwire::kTemplateHeader, diffwire::format_template_id(id)});
  request.headers.push_back({"Content-Length", std::to_string(body.size())});
  return http::serialize_request_head(request) + body;
}

std::string patch_request(const std::string& frame) {
  http::HttpRequest request;
  request.headers.push_back({"Content-Type", diffwire::kPatchContentType});
  request.headers.push_back({diffwire::kDiffHeader, diffwire::kPatchValue});
  request.headers.push_back({"Content-Length", std::to_string(frame.size())});
  return http::serialize_request_head(request) + frame;
}

struct ByteRun {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
};

/// Byte-diffs two same-length bodies into patch runs, merging runs whose
/// unchanged gap is at most `merge_gap` (the shape the client pipeline
/// produces for adjacent field rewrites).
std::vector<ByteRun> byte_diff_runs(const std::string& old_body,
                                    const std::string& fresh,
                                    std::size_t merge_gap) {
  std::vector<ByteRun> runs;
  std::size_t i = 0;
  while (i < old_body.size()) {
    if (old_body[i] == fresh[i]) {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    while (i < old_body.size() && old_body[i] != fresh[i]) ++i;
    if (!runs.empty() &&
        begin - (runs.back().offset + runs.back().length) <= merge_gap) {
      runs.back().length =
          static_cast<std::uint32_t>(i) - runs.back().offset;
    } else {
      runs.push_back(ByteRun{static_cast<std::uint32_t>(begin),
                             static_cast<std::uint32_t>(i - begin)});
    }
  }
  return runs;
}

/// Builds a valid patch frame carrying `runs` of `fresh` (checksum over the
/// whole intended body, as the client pipeline computes it).
std::string make_patch_frame(std::uint64_t id, std::uint32_t epoch,
                             const std::string& fresh,
                             const std::vector<ByteRun>& runs) {
  diffwire::PatchHeader header;
  header.template_id = id;
  header.epoch = epoch;
  header.run_count = static_cast<std::uint32_t>(runs.size());
  header.body_len = static_cast<std::uint32_t>(fresh.size());
  header.checksum = poly::hash(fresh);
  std::string frame;
  diffwire::append_patch_header(frame, header);
  for (const ByteRun& run : runs) {
    diffwire::append_run_header(frame, run.offset, run.length);
    frame.append(fresh.data() + run.offset, run.length);
  }
  return frame;
}

// --- fused-path stats on both engines --------------------------------------

void expect_fused_engine_behavior(IoModel io_model, std::size_t workers) {
  RecvStageTimings timings;
  ServerRuntimeOptions options;
  options.workers = workers;
  options.io_model = io_model;
  options.recv_observer = &timings;
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  BsoapClient client(tcp_dialer(server.value()->port()),
                     diff_client_config());
  // Invoke 1 pins (full parse); 2..10 are patch frames whose dirty runs
  // re-parse only the touched leaves.
  drive_mutating_invokes(client, 10, 5);
  // An unchanged resend crosses as a header-only replay: the cached call is
  // served with zero parse work (a content hit).
  std::vector<double> fixed =
      soap::doubles_with_serialized_length(32, 17, 6);
  const RpcCall repeat = soap::make_double_array_call(fixed);
  Result<Value> first = client.invoke(repeat);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().as_double(), sum_of(fixed));
  Result<Value> second = client.invoke(repeat);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().as_double(), sum_of(fixed));

  ASSERT_TRUE(wait_for([&] {
    return server.value()->stats().requests >= 12u;
  }));
  const ServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.deser_full_parses, 2u);   // the two offers
  EXPECT_EQ(stats.deser_fast_parses, 9u);   // one per mutating patch
  EXPECT_EQ(stats.deser_content_hits, 1u);  // the replay
  EXPECT_EQ(stats.deser_demotions, 0u);
  EXPECT_GE(stats.deser_leaves_reparsed, 9u);
  EXPECT_EQ(stats.patch_nacks, 0u);
  EXPECT_EQ(stats.faults, 0u);

  // Receive-stage timings: every diff request records a parse stage and
  // every patch frame records an apply stage.
  const RecvStageTimings::Snapshot snap = timings.snapshot();
  EXPECT_EQ(snap.parse.count, stats.requests);
  EXPECT_EQ(snap.patch_apply.count, stats.patch_sends);
  server.value()->stop();
}

TEST(DiffDeserServer, BlockingEngineFastParsesAndReplays) {
  expect_fused_engine_behavior(IoModel::kBlocking, 1);
}

TEST(DiffDeserServer, ReactorEngineFastParsesAndReplays) {
  expect_fused_engine_behavior(IoModel::kReactor, 2);
}

// --- handler inputs vs the always-full-parse oracle ------------------------

/// Records the canonical serialization of every call a handler sees.
struct CallRecorder {
  std::mutex mu;
  std::vector<std::string> seen;

  soap::RpcHandler handler() {
    return [this](const RpcCall& call) -> Result<Value> {
      std::lock_guard<std::mutex> lock(mu);
      seen.push_back(serialize(call));
      return Value::from_double(0.0);
    };
  }
};

/// One mutation schedule, replayed identically against several servers:
/// fixed-width rewrites (patch fast parses), NaN / -0.0 / INF lexicals, and
/// a width-changing step that forces a structural fallback re-offer.
void drive_equivalence_stream(BsoapClient& client) {
  std::vector<double> values =
      soap::doubles_with_serialized_length(48, 17, 77);
  bsoap::Rng rng(0x5eed);
  for (int i = 0; i < 8; ++i) {
    values[static_cast<std::size_t>(i * 5)] =
        soap::double_with_serialized_length(rng, 17);
    ASSERT_TRUE(client.invoke(soap::make_double_array_call(values)).ok());
  }
  values[7] = std::numeric_limits<double>::quiet_NaN();
  values[9] = -0.0;
  values[11] = std::numeric_limits<double>::infinity();
  ASSERT_TRUE(client.invoke(soap::make_double_array_call(values)).ok());
  values[13] = 1.5;  // shorter lexical: structural fallback, full re-offer
  ASSERT_TRUE(client.invoke(soap::make_double_array_call(values)).ok());
  for (int i = 0; i < 4; ++i) {
    values[static_cast<std::size_t>(i * 7)] =
        soap::double_with_serialized_length(rng, 17);
    ASSERT_TRUE(client.invoke(soap::make_double_array_call(values)).ok());
  }
}

TEST(DiffDeserServer, HandlerInputsMatchFullParseOracle) {
  // Oracle: the same runtime with differential deserialization disabled —
  // every request takes the ordinary full parse.
  CallRecorder oracle_calls;
  ServerRuntimeOptions oracle_options;
  oracle_options.workers = 1;
  oracle_options.diff_deserialize = false;
  Result<std::unique_ptr<ServerRuntime>> oracle =
      ServerRuntime::start(oracle_calls.handler(), oracle_options);
  ASSERT_TRUE(oracle.ok());

  CallRecorder fused_calls;
  ServerRuntimeOptions fused_options;
  fused_options.workers = 1;
  Result<std::unique_ptr<ServerRuntime>> fused =
      ServerRuntime::start(fused_calls.handler(), fused_options);
  ASSERT_TRUE(fused.ok());

  CallRecorder reactor_calls;
  ServerRuntimeOptions reactor_options;
  reactor_options.workers = 1;
  reactor_options.io_model = IoModel::kReactor;
  Result<std::unique_ptr<ServerRuntime>> reactor =
      ServerRuntime::start(reactor_calls.handler(), reactor_options);
  ASSERT_TRUE(reactor.ok());

  {
    BsoapClient client(tcp_dialer(oracle.value()->port()),
                       diff_client_config());
    drive_equivalence_stream(client);
  }
  {
    BsoapClient client(tcp_dialer(fused.value()->port()),
                       diff_client_config());
    drive_equivalence_stream(client);
  }
  {
    BsoapClient client(tcp_dialer(reactor.value()->port()),
                       diff_client_config());
    drive_equivalence_stream(client);
  }

  // The oracle really full-parsed everything, and the fused server really
  // took the differential paths — yet every handler saw identical calls.
  EXPECT_EQ(oracle.value()->stats().deser_fast_parses, 0u);
  EXPECT_EQ(oracle.value()->stats().deser_content_hits, 0u);
  EXPECT_GT(fused.value()->stats().deser_fast_parses, 0u);
  EXPECT_EQ(fused_calls.seen, oracle_calls.seen);
  EXPECT_EQ(reactor_calls.seen, oracle_calls.seen);

  oracle.value()->stop();
  fused.value()->stop();
  reactor.value()->stop();
}

// --- NACK -> re-pin recovery rebuilds the cached parse ----------------------

TEST(DiffDeserServer, NackThenRepinRecoversCachedParse) {
  ServerRuntimeOptions options;
  options.workers = 1;
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  BsoapClient client(tcp_dialer(server.value()->port()),
                     diff_client_config());
  drive_mutating_invokes(client, 5, 21);  // 1 offer + 4 patches

  // Replica loss: the next patch NACKs before any parse work, the client
  // falls back to a full send (re-pin -> fresh cached parse), and the
  // patches after it fast-parse against the rebuilt region map.
  server.value()->replicas()->clear();
  drive_mutating_invokes(client, 3, 22);

  ASSERT_TRUE(wait_for(
      [&] { return server.value()->stats().patch_nacks == 1u; }));
  const ServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.deser_full_parses, 2u);  // offer + post-NACK re-pin
  EXPECT_EQ(stats.deser_fast_parses, 6u);  // 4 before the NACK, 2 after
  EXPECT_EQ(stats.deser_demotions, 0u);
  EXPECT_EQ(stats.faults, 0u);
  server.value()->stop();
}

// --- demotion: a checksum-valid patch that rewrites structure ---------------

TEST(DiffDeserServer, StructuralPatchDemotesToFullParse) {
  // Handler that accepts any method, so the demoted parse's result is
  // observable; records what it saw.
  struct Observed {
    std::mutex mu;
    std::vector<std::string> methods;
  } observed;
  soap::RpcHandler handler = [&observed](const RpcCall& call) -> Result<Value> {
    std::lock_guard<std::mutex> lock(observed.mu);
    observed.methods.push_back(call.method);
    return Value::from_double(1.0);
  };

  ServerRuntimeOptions options;
  options.workers = 1;
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(handler, options);
  ASSERT_TRUE(server.ok());

  Result<std::unique_ptr<net::Transport>> conn =
      net::tcp_connect(server.value()->port());
  ASSERT_TRUE(conn.ok());

  const std::uint64_t id = 0xfeedfacecafe0001ull;
  const std::string body = serialize(soap::make_double_array_call(
      soap::doubles_with_serialized_length(8, 17, 7)));
  ASSERT_TRUE(conn.value()->send(offer_request(id, body)).ok());
  Result<http::HttpResponse> ack = read_response(*conn.value());
  ASSERT_TRUE(ack.ok()) << ack.error().to_string();
  EXPECT_EQ(ack.value().status, 200);
  ASSERT_NE(ack.value().find(diffwire::kDiffHeader), nullptr);
  EXPECT_EQ(ack.value().find(diffwire::kDiffHeader)->value,
            diffwire::kAckValue);

  // A patch whose runs rewrite the method name in BOTH tags: the checksum
  // is valid, so the ReplicaStore applies it — but the runs hit structural
  // bytes outside every leaf region, so the cached parse demotes to a full
  // parse of the reconstructed body instead of serving stale values.
  std::string mutated = body;
  for (std::size_t at = mutated.find("sendData"); at != std::string::npos;
       at = mutated.find("sendData", at)) {
    mutated.replace(at, 8, "sendGate");
  }
  ASSERT_EQ(mutated.size(), body.size());
  const std::vector<ByteRun> runs = byte_diff_runs(body, mutated, 8);
  ASSERT_GE(runs.size(), 2u);  // one per rewritten tag
  ASSERT_TRUE(
      conn.value()->send(patch_request(make_patch_frame(id, 1, mutated, runs)))
          .ok());
  Result<http::HttpResponse> patched = read_response(*conn.value());
  ASSERT_TRUE(patched.ok()) << patched.error().to_string();
  EXPECT_EQ(patched.value().status, 200);

  const ServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.patch_sends, 1u);
  EXPECT_EQ(stats.patch_nacks, 0u);
  EXPECT_EQ(stats.deser_demotions, 1u);
  EXPECT_EQ(stats.deser_full_parses, 2u);  // the offer + the demoted patch
  EXPECT_EQ(stats.deser_fast_parses, 0u);
  {
    std::lock_guard<std::mutex> lock(observed.mu);
    ASSERT_EQ(observed.methods.size(), 2u);
    EXPECT_EQ(observed.methods[0], "sendData");
    EXPECT_EQ(observed.methods[1], "sendGate");
  }
  server.value()->stop();
}

// --- max_inflate_bytes bounds patch-reconstructed bodies --------------------

TEST(DiffDeserServer, OversizedPatchBodyAnswers413) {
  ServerRuntimeOptions options;
  options.workers = 1;
  options.max_inflate_bytes = 512;
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  Result<std::unique_ptr<net::Transport>> conn =
      net::tcp_connect(server.value()->port());
  ASSERT_TRUE(conn.ok());

  // A frame claiming a reconstruction far over the bound must be refused
  // before any replica work — the same 413 a decompression bomb gets.
  diffwire::PatchHeader header;
  header.template_id = 42;
  header.epoch = 1;
  header.run_count = 0;
  header.body_len = 100000;
  std::string frame;
  diffwire::append_patch_header(frame, header);
  ASSERT_TRUE(conn.value()->send(patch_request(frame)).ok());
  Result<http::HttpResponse> response = read_response(*conn.value());
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response.value().status, 413);

  EXPECT_EQ(server.value()->stats().bad_requests, 1u);
  EXPECT_EQ(server.value()->stats().patch_sends, 0u);
  server.value()->stop();
}

// --- the replica byte budget charges cached parses -------------------------

// The replica byte budget covers each replica's cached parse, not only its
// body: a ParsedReplica holds the parsed call, the region/slot tables and
// the structure pieces, so charging only the body let more replicas stay
// pinned than the budget was sized for.
TEST(DiffDeserServer, ReplicaBudgetChargesTheCachedParse) {
  constexpr std::size_t kReplicas = 4;
  const auto body_for = [](std::uint64_t seed) {
    return serialize(soap::make_double_array_call(
        soap::doubles_with_serialized_length(200, 18, seed)));
  };
  // Pins `body` with its cached parse in the slot, as an offer does.
  const auto pin_parsed = [](diffwire::ReplicaStore& store, std::uint64_t id,
                             std::string body) {
    store.pin(id, std::move(body),
              [](std::string_view pinned,
                 std::shared_ptr<diffwire::ReplicaAttachment>& slot) {
                EXPECT_TRUE(core::ParsedReplica::serve(
                                core::ParsedReplica::in(slot), pinned, {},
                                nullptr)
                                .ok());
              });
  };
  const std::string probe_body = body_for(1);
  auto probe = std::make_shared<core::ParsedReplica>();
  ASSERT_TRUE(core::ParsedReplica::serve(probe, probe_body, {}, nullptr).ok());
  const std::size_t parse_bytes = probe->bytes();
  ASSERT_GT(parse_bytes, 200 * sizeof(double));
  const std::size_t footprint = probe_body.size() + parse_bytes;

  diffwire::ReplicaStore::Options options;
  options.max_replicas = 100;
  options.max_bytes = kReplicas * footprint;
  diffwire::ReplicaStore store(options);
  for (std::uint64_t id = 1; id <= 2 * kReplicas; ++id) {
    pin_parsed(store, id, body_for(id));
  }
  diffwire::ReplicaStore::Stats stats = store.stats();
  EXPECT_EQ(stats.pinned_replicas, kReplicas);
  EXPECT_EQ(stats.evictions, kReplicas);
  EXPECT_EQ(stats.pinned_bytes, kReplicas * footprint);

  // A re-pin starts with an empty slot: the stale parse's charge goes.
  const std::uint64_t newest = 2 * kReplicas;
  store.pin(newest, body_for(newest));
  stats = store.stats();
  EXPECT_EQ(stats.pinned_bytes, kReplicas * footprint - parse_bytes);

  // A NACK erases the replica with its parse.
  const std::uint64_t parsed = newest - 1;
  diffwire::PatchFrame bad;
  bad.header.template_id = parsed;
  bad.header.epoch = 7;  // epoch gap
  bad.header.body_len = static_cast<std::uint32_t>(probe_body.size());
  std::string scratch;
  EXPECT_FALSE(apply_copy(store, bad, &scratch).ok());
  stats = store.stats();
  EXPECT_EQ(stats.pinned_replicas, kReplicas - 1);
  EXPECT_EQ(stats.pinned_bytes, (kReplicas - 1) * footprint - parse_bytes);

  store.clear();
  EXPECT_EQ(store.stats().pinned_bytes, 0u);
}

// --- stress: 8 clients x 8 workers ------------------------------------------

TEST(DiffDeserServer, EightClientEightWorkerStress) {
  ServerRuntimeOptions options;
  options.workers = 8;
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  // Distinct session tokens pin eight separate replicas in the shared
  // store; every worker serves leases concurrently while every result is
  // checked against the locally computed sum.
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 40;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      BsoapClient client(tcp_dialer(server.value()->port()),
                         diff_client_config());
      std::vector<double> values = soap::doubles_with_serialized_length(
          32, 17, 300 + static_cast<std::uint64_t>(t));
      bsoap::Rng rng(400 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kItersPerThread; ++i) {
        values[static_cast<std::size_t>(i) % values.size()] =
            soap::double_with_serialized_length(rng, 17);
        Result<Value> result =
            client.invoke(soap::make_double_array_call(values));
        if (!result.ok() || result.value().as_double() != sum_of(values)) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  const ServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.deser_full_parses, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.deser_fast_parses,
            static_cast<std::uint64_t>(kThreads * (kItersPerThread - 1)));
  EXPECT_EQ(stats.deser_demotions, 0u);
  EXPECT_EQ(stats.patch_nacks, 0u);
  EXPECT_EQ(stats.faults, 0u);
  server.value()->stop();
}

TEST(DiffDeserServer, SharedTemplateIdLeaseContentionStress) {
  // Eight raw clients deliberately share ONE template ID: concurrent
  // offers re-pin the replica out from under in-flight serves, patches
  // race the re-pins (the checksum NACKs any that lose), and leases on the
  // same ParsedReplica contend the clone-or-lock path. Every response must
  // be a clean 200 or 409 — never a fault, never a bad request, never a
  // stale parse (TSan covers the races).
  ServerRuntimeOptions options;
  options.workers = 8;
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  constexpr std::uint64_t kSharedId = 0xabad1deaabad1deaull;
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 24;
  const std::vector<double> base =
      soap::doubles_with_serialized_length(24, 17, 999);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> oks{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Result<std::unique_ptr<net::Transport>> conn =
          net::tcp_connect(server.value()->port());
      if (!conn.ok()) {
        failures.fetch_add(1);
        return;
      }
      bsoap::Rng rng(500 + static_cast<std::uint64_t>(t));
      std::vector<double> values = base;
      std::string known = serialize(soap::make_double_array_call(values));
      std::uint32_t epoch = 0;
      const auto roundtrip = [&](const std::string& wire) -> int {
        if (!conn.value()->send(wire).ok()) return -1;
        Result<http::HttpResponse> response = read_response(*conn.value());
        if (!response.ok()) return -1;
        return response.value().status;
      };
      if (roundtrip(offer_request(kSharedId, known)) != 200) {
        failures.fetch_add(1);
        return;
      }
      oks.fetch_add(1);
      for (int i = 0; i < kItersPerThread; ++i) {
        values[static_cast<std::size_t>(rng.next_below(values.size()))] =
            soap::double_with_serialized_length(rng, 17);
        const std::string fresh =
            serialize(soap::make_double_array_call(values));
        const std::string frame = make_patch_frame(
            kSharedId, epoch + 1, fresh, byte_diff_runs(known, fresh, 18));
        const int status = roundtrip(patch_request(frame));
        if (status == 200) {
          oks.fetch_add(1);
          known = fresh;
          ++epoch;
        } else if (status == diffwire::kNackStatus) {
          // Another thread re-pinned or advanced the replica: fall back to
          // a full offer exactly as the client pipeline would.
          if (roundtrip(offer_request(kSharedId, fresh)) != 200) {
            failures.fetch_add(1);
            return;
          }
          oks.fetch_add(1);
          known = fresh;
          epoch = 0;
        } else {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  const ServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.faults, 0u);
  EXPECT_EQ(stats.bad_requests, 0u);
  EXPECT_EQ(stats.requests, oks.load());
  // Every 200 was served through exactly one deserialization path.
  EXPECT_EQ(stats.deser_content_hits + stats.deser_fast_parses +
                stats.deser_full_parses,
            stats.requests);
  server.value()->stop();
}

}  // namespace
}  // namespace bsoap::server
