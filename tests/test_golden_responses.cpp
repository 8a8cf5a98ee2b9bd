// Golden response captures: a fixed raw-HTTP request sequence, played over
// one keep-alive connection, must produce exactly the response bytes
// checked in under tests/golden/ — on both engines, and with differential
// deserialization on or off. The sequence touches every answer the receive
// path can give: a plain envelope, a malformed envelope (400 + Client
// fault), a handler error (500 + Server fault), a diff-wire offer → patch →
// replay chain, a preset-coded re-offer, and a bad-checksum patch (409
// NACK), then one more plain request to show the connection survived.
//
// Regenerate after an intended wire change with
//   BSOAP_UPDATE_GOLDEN=1 ./test_golden_responses
// and review the diff of the .bin file like any other code change.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "buffer/sinks.hpp"
#include "common/poly_hash.hpp"
#include "compress/deflate.hpp"
#include "diffwire/wire_format.hpp"
#include "http/http_message.hpp"
#include "net/tcp.hpp"
#include "server/server_runtime.hpp"
#include "soap/envelope_writer.hpp"

#ifndef BSOAP_GOLDEN_DIR
#error "BSOAP_GOLDEN_DIR must name the directory holding the captures"
#endif

namespace bsoap::server {
namespace {

using namespace std::chrono_literals;
using soap::RpcCall;
using soap::Value;

constexpr std::uint64_t kTemplateId = 0x0123456789abcdefull;

std::string golden_path() {
  return std::string(BSOAP_GOLDEN_DIR) + "/keepalive_sequence.bin";
}

Result<Value> sum_handler(const RpcCall& call) {
  if (call.method != "sum") return Error{ErrorCode::kNotFound, "no method"};
  double total = 0;
  for (const double v : call.params[0].value.doubles()) total += v;
  return Value::from_double(total);
}

std::string envelope(const std::string& method, std::vector<double> values) {
  RpcCall call;
  call.method = method;
  call.service_namespace = "urn:calc";
  call.params.push_back(
      soap::Param{"data", Value::from_double_array(std::move(values))});
  buffer::StringSink sink;
  soap::write_rpc_envelope(sink, call);
  return sink.take();
}

/// One POST: the given extra headers, then Content-Length and the body.
std::string raw_request(const std::string& body,
                        std::vector<http::Header> headers = {}) {
  http::HttpRequest request;
  request.headers.push_back(http::Header{"Host", "localhost"});
  bool has_type = false;
  for (const http::Header& h : headers) has_type |= h.name == "Content-Type";
  if (!has_type) {
    request.headers.push_back(
        http::Header{"Content-Type", "text/xml; charset=utf-8"});
  }
  for (http::Header& h : headers) request.headers.push_back(std::move(h));
  request.headers.push_back(
      http::Header{"Content-Length", std::to_string(body.size())});
  return http::serialize_request_head(request) + body;
}

std::vector<http::Header> offer_headers() {
  return {http::Header{diffwire::kDiffHeader, diffwire::kOfferValue},
          http::Header{diffwire::kTemplateHeader,
                       diffwire::format_template_id(kTemplateId)},
          http::Header{diffwire::kCodingHeader,
                       diffwire::kCodingPresetValue}};
}

/// A patch frame turning `pinned` into `fresh` (same length) at `epoch`,
/// one run per differing byte span. `checksum_delta` corrupts the
/// whole-body checksum for the NACK case.
std::string patch_request(const std::string& pinned, const std::string& fresh,
                          std::uint32_t epoch,
                          std::uint64_t checksum_delta = 0) {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  for (std::size_t i = 0; i < fresh.size();) {
    if (pinned[i] == fresh[i]) {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    while (i < fresh.size() && pinned[i] != fresh[i]) ++i;
    runs.emplace_back(begin, i - begin);
  }
  diffwire::PatchHeader header;
  header.template_id = kTemplateId;
  header.epoch = epoch;
  header.flags = runs.empty() ? diffwire::kFlagReplay : 0;
  header.run_count = static_cast<std::uint32_t>(runs.size());
  header.body_len = static_cast<std::uint32_t>(fresh.size());
  header.checksum = poly::hash(fresh) + checksum_delta;
  std::string frame;
  diffwire::append_patch_header(frame, header);
  for (const auto& [offset, length] : runs) {
    diffwire::append_run_header(frame, static_cast<std::uint32_t>(offset),
                                static_cast<std::uint32_t>(length));
    frame.append(fresh, offset, length);
  }
  return raw_request(
      frame, {http::Header{"Content-Type", diffwire::kPatchContentType},
              http::Header{diffwire::kDiffHeader, diffwire::kPatchValue}});
}

/// The fixed request sequence, pipelined onto one connection.
std::string request_sequence() {
  // Same-width values, so the patch after the offer rewrites digits in
  // place and the replica keeps its length.
  const std::string pinned = envelope("sum", {1.25, 2.5, 3.75});
  const std::string patched = envelope("sum", {1.25, 2.5, 4.75});
  const std::string reshaped = envelope("sum", {1.25, 2.5, 5.75, 6.0});
  std::string wire;
  wire += raw_request(envelope("sum", {1.5, 2.5, 3.0}));  // plain: 200
  wire += raw_request("<not-even-soap>");                  // 400 Client
  wire += raw_request(envelope("launch", {1.0}));          // 500 Server
  wire += raw_request(pinned, offer_headers());            // offer: ack
  wire += patch_request(pinned, patched, 1);               // patch
  wire += patch_request(patched, patched, 2);              // replay
  // Preset-coded re-offer of a reshaped body, deflated against the pinned
  // generation's dictionary (the offer body): re-pins at epoch 0.
  std::vector<http::Header> coded = offer_headers();
  coded.push_back(http::Header{"Content-Encoding",
                               diffwire::kCodingPresetValue});
  wire += raw_request(compress::zlib_compress(reshaped, pinned), coded);
  wire += patch_request(reshaped, envelope("sum", {1.25, 2.5, 5.75, 7.0}), 1,
                        /*checksum_delta=*/1);              // 409 NACK
  wire += raw_request(envelope("sum", {9.0, 10.0, 11.0}));  // still alive
  return wire;
}

template <typename Pred>
bool wait_for(Pred pred, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return pred();
}

std::string play(ServerRuntimeOptions options) {
  options.workers = 1;  // one response pipeline: deterministic templates
  Result<std::unique_ptr<ServerRuntime>> server =
      ServerRuntime::start(sum_handler, options);
  EXPECT_TRUE(server.ok());
  if (!server.ok()) return {};
  Result<std::unique_ptr<net::Transport>> transport =
      net::tcp_connect(server.value()->port());
  EXPECT_TRUE(transport.ok());
  if (!transport.ok()) return {};
  EXPECT_TRUE(transport.value()->send(request_sequence()).ok());
  transport.value()->shutdown_send();

  std::string all;
  char buf[16 * 1024];
  for (;;) {
    Result<std::size_t> got = transport.value()->recv(buf, sizeof(buf));
    if (!got.ok() || got.value() == 0) break;
    all.append(buf, got.value());
  }
  EXPECT_TRUE(wait_for([&] { return server.value()->stats().active == 0; }));
  const ServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.patch_sends, 2u);
  EXPECT_EQ(stats.patch_replays, 1u);
  EXPECT_EQ(stats.patch_nacks, 1u);
  server.value()->stop();
  return all;
}

std::string read_golden() {
  std::ifstream in(golden_path(), std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(GoldenResponses, BlockingEngineMatchesCapture) {
  ServerRuntimeOptions options;
  options.io_model = IoModel::kBlocking;
  const std::string bytes = play(options);
  ASSERT_FALSE(bytes.empty());
  if (std::getenv("BSOAP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary | std::ios::trunc);
    out << bytes;
    ASSERT_TRUE(out.good());
  }
  EXPECT_EQ(bytes, read_golden());
}

TEST(GoldenResponses, ReactorEngineMatchesCapture) {
  ServerRuntimeOptions options;
  options.io_model = IoModel::kReactor;
  EXPECT_EQ(play(options), read_golden());
}

TEST(GoldenResponses, FullParseReferenceMatchesCapture) {
  // The full-parse reference (no cached replica parse) answers the same
  // bytes: differential deserialization never changes a response.
  for (const IoModel model : {IoModel::kBlocking, IoModel::kReactor}) {
    ServerRuntimeOptions options;
    options.io_model = model;
    options.diff_deserialize = false;
    EXPECT_EQ(play(options), read_golden());
  }
}

TEST(GoldenResponses, CaptureCoversEveryAnswer) {
  const std::string golden = read_golden();
  for (const char* needle :
       {"HTTP/1.1 200 OK", "HTTP/1.1 400 Bad Request", "SOAP-ENV:Client",
        "HTTP/1.1 500 Internal Server Error", "SOAP-ENV:Server",
        "X-BSoap-Diff: ack", "X-BSoap-Coding: deflate-preset",
        "X-BSoap-Diff: nack", "checksum mismatch"}) {
    EXPECT_NE(golden.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace bsoap::server
