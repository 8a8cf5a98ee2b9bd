// Wire-compression layer tests: the ContentCoding API (token parsing,
// per-coding round trips, decompression bounds), preset-dictionary zlib
// streams (dictionary mismatch is a clean error, long dictionaries tail-
// truncate consistently on both sides), the send pipeline's preset coding of
// patch frames and full re-offers (decoded through ReplicaStore exactly as
// the server does), Accept-Encoding negotiation with byte-identical decoded
// responses on both engines, the 413 decompression-bomb bound, and
// end-to-end preset clients including NACK self-healing after replica loss.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "buffer/sinks.hpp"
#include "common/rng.hpp"
#include "compress/deflate.hpp"
#include "core/client.hpp"
#include "core/send_pipeline.hpp"
#include "diffwire/replica_store.hpp"
#include "diffwire/wire_format.hpp"
#include "http/connection.hpp"
#include "http/content_coding.hpp"
#include "http/request_parser.hpp"
#include "net/tcp.hpp"
#include "server/reactor.hpp"
#include "server/server_runtime.hpp"
#include "soap/envelope_writer.hpp"
#include "soap/workload.hpp"
#include "replica_apply.hpp"

namespace bsoap {
namespace {

using bsoap::testing::apply_copy;

using namespace std::chrono_literals;
using core::BsoapClient;
using core::BsoapClientConfig;
using http::ContentCoding;
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

/// Stuffed numeric fields keep value rewrites in place — the structural
/// matches the patch path needs.
core::TemplateConfig stuffed_config() {
  core::TemplateConfig cfg;
  cfg.stuffing.mode = core::StuffingPolicy::Mode::kTypeMax;
  cfg.stuffing.stuff_on_expand = true;
  return cfg;
}

Result<Value> sum_handler(const RpcCall& call) {
  double total = 0;
  for (const double v : call.params[0].value.doubles()) total += v;
  return Value::from_double(total);
}

double sum_of(const std::vector<double>& values) {
  double total = 0;
  for (const double v : values) total += v;
  return total;
}

net::Dialer tcp_dialer(std::uint16_t port) {
  return [port] { return net::tcp_connect(port); };
}

http::HttpRequest parse_bytewise(const std::string& wire) {
  http::RequestParser parser;
  for (const char c : wire) {
    const Status fed = parser.feed(&c, 1);
    EXPECT_TRUE(fed.ok()) << fed.error().to_string();
  }
  EXPECT_TRUE(parser.done());
  return parser.take();
}

std::pair<std::string, core::SendReport> capture_send(
    core::SendPipeline& pipeline, const RpcCall& call) {
  server::CaptureTransport capture;
  core::SendDestination dest;
  dest.transport = &capture;
  Result<core::SendReport> report = pipeline.send(call, dest);
  EXPECT_TRUE(report.ok()) << report.error().to_string();
  return {capture.take(), report.value()};
}

// --- ContentCoding API -----------------------------------------------------

TEST(ContentCodingApi, ParseCodingMatrix) {
  ContentCoding coding = ContentCoding::kIdentity;
  EXPECT_TRUE(http::parse_coding("gzip", &coding));
  EXPECT_EQ(coding, ContentCoding::kGzip);
  EXPECT_TRUE(http::parse_coding(" GZIP ", &coding));  // case + spaces
  EXPECT_EQ(coding, ContentCoding::kGzip);
  EXPECT_TRUE(http::parse_coding("deflate", &coding));
  EXPECT_EQ(coding, ContentCoding::kDeflate);
  EXPECT_TRUE(http::parse_coding("Deflate-Preset", &coding));
  EXPECT_EQ(coding, ContentCoding::kDeflatePreset);
  EXPECT_TRUE(http::parse_coding("identity", &coding));
  EXPECT_EQ(coding, ContentCoding::kIdentity);
  EXPECT_FALSE(http::parse_coding("br", &coding));
  EXPECT_FALSE(http::parse_coding("zstd", &coding));
  EXPECT_FALSE(http::parse_coding("", &coding));
}

TEST(ContentCodingApi, NamesAreTheWireTokens) {
  EXPECT_STREQ(http::coding_name(ContentCoding::kIdentity), "identity");
  EXPECT_STREQ(http::coding_name(ContentCoding::kGzip), "gzip");
  EXPECT_STREQ(http::coding_name(ContentCoding::kDeflate), "deflate");
  EXPECT_STREQ(http::coding_name(ContentCoding::kDeflatePreset),
               "deflate-preset");
  for (const ContentCoding c :
       {ContentCoding::kIdentity, ContentCoding::kGzip,
        ContentCoding::kDeflate, ContentCoding::kDeflatePreset}) {
    EXPECT_STREQ(http::coding_for(c).name(), http::coding_name(c));
  }
}

TEST(ContentCodingApi, GzipAndDeflateCodersRoundTrip) {
  std::string body;
  for (int i = 0; i < 400; ++i) body += "<item>2.5</item>";
  for (const ContentCoding c :
       {ContentCoding::kGzip, ContentCoding::kDeflate}) {
    const http::ContentCoder& coder = http::coding_for(c);
    const std::string coded = coder.encode(body);
    EXPECT_LT(coded.size(), body.size() / 4);
    Result<std::string> back = coder.decode(coded, 1u << 20);
    ASSERT_TRUE(back.ok()) << back.error().to_string();
    EXPECT_EQ(back.value(), body);
  }
}

TEST(ContentCodingApi, DecodeBoundIsOutOfRange) {
  const std::string body(1u << 20, 'z');
  for (const ContentCoding c :
       {ContentCoding::kGzip, ContentCoding::kDeflate}) {
    const http::ContentCoder& coder = http::coding_for(c);
    const std::string coded = coder.encode(body);
    Result<std::string> bounded = coder.decode(coded, 1024);
    ASSERT_FALSE(bounded.ok());
    EXPECT_EQ(bounded.error().code, ErrorCode::kOutOfRange);
    EXPECT_TRUE(coder.decode(coded, 1u << 21).ok());
  }
}

// --- preset dictionaries ---------------------------------------------------

TEST(PresetDictionary, NearIdenticalBodyCompressesToAlmostNothing) {
  buffer::StringSink sink;
  soap::write_rpc_envelope(
      sink, soap::make_double_array_call(
                soap::doubles_with_serialized_length(500, 17, 1)));
  const std::string generation1 = sink.take();
  std::string generation2 = generation1;
  generation2.replace(generation2.size() / 2, 5, "99999");

  const std::string plain = compress::zlib_compress(generation2);
  const std::string preset =
      compress::zlib_compress(generation2, /*dict=*/generation1);
  EXPECT_LT(preset.size(), generation2.size() / 10);
  EXPECT_LT(preset.size(), plain.size() / 4);

  Result<std::string> back =
      compress::zlib_decompress(preset, 1u << 20, generation1);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value(), generation2);
}

TEST(PresetDictionary, MismatchIsACleanError) {
  const std::string dict = "the dictionary both sides must hold";
  const std::string coded = compress::zlib_compress("payload bytes", dict);

  Result<std::string> wrong =
      compress::zlib_decompress(coded, 1u << 20, "a different dictionary");
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.error().code, ErrorCode::kInvalidArgument);
  EXPECT_NE(wrong.error().to_string().find("dictionary mismatch"),
            std::string::npos);

  Result<std::string> missing = compress::zlib_decompress(coded, 1u << 20);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, ErrorCode::kInvalidArgument);

  // A stream without FDICT ignores any dictionary the caller passes.
  const std::string unkeyed = compress::zlib_compress("payload bytes");
  Result<std::string> ok =
      compress::zlib_decompress(unkeyed, 1u << 20, "irrelevant");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), "payload bytes");
}

TEST(PresetDictionary, LongDictionariesTailTruncateConsistently) {
  // Only the last 32 KiB can seed the LZ77 window. Both sides must truncate
  // identically or the DICTID check would reject the full-length dictionary.
  Rng rng(9);
  std::string dict;
  for (int i = 0; i < (48 << 10); ++i) {
    dict += static_cast<char>('a' + rng.next_below(20));
  }
  const std::string body = dict.substr(dict.size() - 2000) + "fresh tail";
  compress::DeflateStream stream;
  stream.preset(dict);
  EXPECT_EQ(stream.dictionary_id(),
            compress::adler32(std::string_view(dict).substr(
                dict.size() - (32 << 10))));
  const std::string coded = compress::zlib_compress(stream, body);
  EXPECT_LT(coded.size(), body.size() / 10);  // tail matches reach the dict

  Result<std::string> full_dict =
      compress::zlib_decompress(coded, 1u << 20, dict);
  ASSERT_TRUE(full_dict.ok()) << full_dict.error().to_string();
  EXPECT_EQ(full_dict.value(), body);
  Result<std::string> tail_only = compress::zlib_decompress(
      coded, 1u << 20, std::string_view(dict).substr(dict.size() - (32 << 10)));
  ASSERT_TRUE(tail_only.ok()) << tail_only.error().to_string();
  EXPECT_EQ(tail_only.value(), body);
}

TEST(PresetDictionary, PresetCoderRoundTrip) {
  const http::ContentCoder& coder =
      http::coding_for(ContentCoding::kDeflatePreset);
  std::string dict;
  for (int i = 0; i < 300; ++i) dict += "<field>value</field>";
  const std::string body = dict + "<field>fresh</field>";
  const std::string coded = coder.encode(body, dict);
  EXPECT_LT(coded.size(), body.size() / 10);
  Result<std::string> back = coder.decode(coded, 1u << 20, dict);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value(), body);
  EXPECT_FALSE(coder.decode(coded, 1u << 20, "wrong").ok());
}

// --- pipeline preset coding ------------------------------------------------

TEST(WireCodingPipeline, PresetPatchFramesGoUncoded) {
  core::SendPipeline::Options options;
  options.tmpl = stuffed_config();
  options.coding = ContentCoding::kDeflatePreset;
  core::SendPipeline pipeline(options);
  core::UpdateJournal journal;
  pipeline.set_journal(&journal);
  diffwire::ClientSession session(/*token=*/3);
  pipeline.set_diffwire(&session);

  core::SendPipeline::Options ref_options;
  ref_options.tmpl = stuffed_config();
  core::SendPipeline reference(ref_options);

  std::vector<double> values = soap::doubles_with_serialized_length(512, 17, 9);
  const RpcCall call1 = soap::make_double_array_call(values);
  const std::uint64_t wire_id = session.wire_id(call1.structure_signature());

  // First send: identity full body (no dictionary yet) that OFFERS preset
  // coding alongside the template.
  auto [wire1, report1] = capture_send(pipeline, call1);
  EXPECT_EQ(report1.coding, ContentCoding::kIdentity);
  http::HttpRequest offer = parse_bytewise(wire1);
  ASSERT_NE(offer.find(diffwire::kCodingHeader), nullptr);
  EXPECT_EQ(offer.find(diffwire::kCodingHeader)->value,
            diffwire::kCodingPresetValue);
  EXPECT_EQ(offer.find("Content-Encoding"), nullptr);
  auto [ref_wire1, ref_report1] = capture_send(reference, call1);
  EXPECT_EQ(offer.body, parse_bytewise(ref_wire1).body);

  // Receiver pins (retaining the pin generation's dictionary) and acks both
  // the template and the coding; the sender recorded its dictionary when the
  // offer write succeeded.
  diffwire::ReplicaStore::Options store_options;
  store_options.retain_dictionaries = true;
  diffwire::ReplicaStore store(store_options);
  store.pin(wire_id, offer.body);
  session.note_ack(wire_id);
  session.note_coding_ack(wire_id);
  ASSERT_TRUE(session.coding_ready(wire_id));

  // Patch frames go uncoded even with the coding acked: the frame is a few
  // hundred bytes, and preset-coding it would index the whole dictionary.
  const std::vector<double> prev = values;
  for (std::size_t i = 0; i < 50; ++i) values[i] = prev[(i + 101) % 512];
  const RpcCall call2 = soap::make_double_array_call(values);
  auto [wire2, report2] = capture_send(pipeline, call2);
  EXPECT_TRUE(report2.patch_send);
  EXPECT_EQ(report2.coding, ContentCoding::kIdentity);
  EXPECT_EQ(report2.coding_bytes_saved, 0u);
  EXPECT_EQ(report2.coding_ns, 0);

  http::HttpRequest patch = parse_bytewise(wire2);
  EXPECT_EQ(patch.find("Content-Encoding"), nullptr);
  ASSERT_NE(patch.find("Content-Type"), nullptr);
  EXPECT_EQ(patch.find("Content-Type")->value, diffwire::kPatchContentType);

  Result<diffwire::PatchFrame> frame = diffwire::decode_patch(patch.body);
  ASSERT_TRUE(frame.ok()) << frame.error().to_string();
  EXPECT_EQ(frame.value().header.template_id, wire_id);
  std::string reconstructed;
  ASSERT_TRUE(apply_copy(store, frame.value(), &reconstructed).ok());
  auto [ref_wire2, ref_report2] = capture_send(reference, call2);
  EXPECT_EQ(reconstructed, parse_bytewise(ref_wire2).body);  // byte-for-byte
}

TEST(WireCodingPipeline, PresetReoffersCompressAgainstPreviousGeneration) {
  core::SendPipeline::Options options;  // exact stuffing: growth must shift
  options.coding = ContentCoding::kDeflatePreset;
  core::SendPipeline pipeline(options);
  core::UpdateJournal journal;
  pipeline.set_journal(&journal);
  diffwire::ClientSession session(/*token=*/5);
  pipeline.set_diffwire(&session);
  core::SendPipeline reference{core::SendPipeline::Options{}};

  std::vector<double> values = soap::doubles_with_serialized_length(256, 17, 5);
  const RpcCall call1 = soap::make_double_array_call(values);
  const std::uint64_t wire_id = session.wire_id(call1.structure_signature());
  auto [wire1, report1] = capture_send(pipeline, call1);
  http::HttpRequest offer1 = parse_bytewise(wire1);
  capture_send(reference, call1);

  diffwire::ReplicaStore::Options store_options;
  store_options.retain_dictionaries = true;
  diffwire::ReplicaStore store(store_options);
  store.pin(wire_id, offer1.body);
  session.note_ack(wire_id);
  session.note_coding_ack(wire_id);

  // A dropped template makes the next send first-time: a full re-offer —
  // but the body is near-identical to the previous generation, so the
  // preset window compresses it to almost nothing (the re-offer series win
  // the bench gates on).
  bsoap::Rng rng(77);
  values[10] = soap::double_with_serialized_length(rng, 23);
  const RpcCall call2 = soap::make_double_array_call(values);
  pipeline.store().erase(call2.structure_signature());
  auto [wire2, report2] = capture_send(pipeline, call2);
  EXPECT_FALSE(report2.patch_send);
  EXPECT_EQ(report2.coding, ContentCoding::kDeflatePreset);

  http::HttpRequest offer2 = parse_bytewise(wire2);
  ASSERT_NE(offer2.find(diffwire::kDiffHeader), nullptr);
  EXPECT_EQ(offer2.find(diffwire::kDiffHeader)->value, diffwire::kOfferValue);
  ASSERT_NE(offer2.find("Content-Encoding"), nullptr);
  EXPECT_EQ(offer2.find("Content-Encoding")->value,
            http::coding_name(ContentCoding::kDeflatePreset));

  Result<std::string> decoded =
      store.decode_preset(wire_id, offer2.body, 1u << 20);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  auto [ref_wire2, ref_report2] = capture_send(reference, call2);
  EXPECT_EQ(decoded.value(), parse_bytewise(ref_wire2).body);
  EXPECT_LT(offer2.body.size(), decoded.value().size() / 4);  // >= 4x shrink

  // The server re-pins the decoded body, rolling the dictionary generation.
  EXPECT_TRUE(store.pin(wire_id, decoded.value()));
}

TEST(WireCodingPipeline, ReoffersAfterPatchesCodeAgainstTheReplicaTail) {
  // After patches the server's replica has moved on from the pinned offer.
  // The sender records the tail of every body it sends, so a re-offer codes
  // against the replica as it stands, and the server picks that dictionary
  // by the body's DICTID (the pin generation's stays decodable too).
  core::SendPipeline::Options options;
  options.tmpl = stuffed_config();
  options.coding = ContentCoding::kDeflatePreset;
  core::SendPipeline pipeline(options);
  core::UpdateJournal journal;
  pipeline.set_journal(&journal);
  diffwire::ClientSession session(/*token=*/6);
  pipeline.set_diffwire(&session);
  core::SendPipeline reference(options);

  std::vector<double> values = soap::doubles_with_serialized_length(300, 17, 8);
  const RpcCall call1 = soap::make_double_array_call(values);
  const std::uint64_t wire_id = session.wire_id(call1.structure_signature());
  auto [wire1, report1] = capture_send(pipeline, call1);
  diffwire::ReplicaStore::Options store_options;
  store_options.retain_dictionaries = true;
  diffwire::ReplicaStore store(store_options);
  const std::string pinned = parse_bytewise(wire1).body;
  store.pin(wire_id, pinned);
  session.note_ack(wire_id);
  session.note_coding_ack(wire_id);

  bsoap::Rng rng(31);
  for (int step = 0; step < 3; ++step) {
    for (int k = 0; k < 40; ++k) {
      values[rng.next_below(values.size())] =
          soap::double_with_serialized_length(rng, 17);
    }
    auto [wire, report] =
        capture_send(pipeline, soap::make_double_array_call(values));
    ASSERT_TRUE(report.patch_send);
    const http::HttpRequest patch = parse_bytewise(wire);  // runs point here
    Result<diffwire::PatchFrame> frame = diffwire::decode_patch(patch.body);
    ASSERT_TRUE(frame.ok());
    std::string replica;
    const Status applied = apply_copy(store, frame.value(), &replica);
    ASSERT_TRUE(applied.ok()) << applied.error().to_string();
  }
  const std::string replica = std::string(
      session.dictionary(wire_id));  // the tail the sender recorded

  const RpcCall call2 = soap::make_double_array_call(values);
  pipeline.store().erase(call2.structure_signature());
  auto [wire2, report2] = capture_send(pipeline, call2);
  EXPECT_EQ(report2.coding, ContentCoding::kDeflatePreset);
  const http::HttpRequest offer = parse_bytewise(wire2);
  const std::optional<std::uint32_t> dict_id =
      compress::zlib_dictionary_id(offer.body);
  ASSERT_TRUE(dict_id.has_value());
  EXPECT_EQ(*dict_id, compress::adler32(replica));
  EXPECT_NE(*dict_id, compress::adler32(pinned));

  Result<std::string> decoded =
      store.decode_preset(wire_id, offer.body, 1u << 20);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  auto [ref_wire2, ref_report2] = capture_send(reference, call2);
  EXPECT_EQ(decoded.value(), parse_bytewise(ref_wire2).body);
}

TEST(WireCodingPipeline, PresetDegradesToIdentityWithoutDiffwire) {
  core::SendPipeline::Options options;
  options.tmpl = stuffed_config();
  options.coding = ContentCoding::kDeflatePreset;
  core::SendPipeline pipeline(options);  // no diff-wire session attached

  const RpcCall call = soap::make_double_array_call(
      soap::doubles_with_serialized_length(64, 17, 2));
  auto [wire, report] = capture_send(pipeline, call);
  EXPECT_EQ(report.coding, ContentCoding::kIdentity);
  http::HttpRequest request = parse_bytewise(wire);
  EXPECT_EQ(request.find("Content-Encoding"), nullptr);
  EXPECT_EQ(request.find(diffwire::kCodingHeader), nullptr);
}

// --- response negotiation --------------------------------------------------

Result<Value> padded_handler(const RpcCall&) {
  std::string text;
  for (int i = 0; i < 200; ++i) text += "padding 0123456789 padding | ";
  return Value::from_string(std::move(text));
}

/// One raw request against a running server; returns the decoded body and
/// reports the negotiated Content-Encoding (empty = identity).
std::string fetch_with_accept(std::uint16_t port, const char* accept,
                              int* status, std::string* encoding) {
  Result<std::unique_ptr<net::Transport>> conn = net::tcp_connect(port);
  EXPECT_TRUE(conn.ok());
  if (!conn.ok()) return {};
  http::HttpConnection connection(*conn.value());

  buffer::StringSink sink;
  soap::write_rpc_envelope(sink,
                           soap::make_double_array_call({1.0, 2.0, 3.0}));
  const std::string envelope = sink.take();

  http::HttpRequest head;
  head.headers.push_back(http::Header{"Host", "localhost"});
  head.headers.push_back(
      http::Header{"Content-Type", "text/xml; charset=utf-8"});
  if (accept != nullptr) {
    head.headers.push_back(http::Header{"Accept-Encoding", accept});
  }
  const net::ConstSlice body[] = {
      net::ConstSlice{envelope.data(), envelope.size()}};
  EXPECT_TRUE(connection.send_request(std::move(head), body).ok());
  Result<http::HttpResponse> response = connection.read_response();
  EXPECT_TRUE(response.ok())
      << (response.ok() ? "" : response.error().to_string());
  if (!response.ok()) return {};
  *status = response.value().status;
  const http::Header* coded = response.value().find("Content-Encoding");
  *encoding = coded != nullptr ? coded->value : "";
  return response.value().body;  // read_response already decoded it
}

void expect_negotiated_responses_match_identity(server::IoModel io_model) {
  server::ServerRuntimeOptions options;
  options.workers = 2;
  options.io_model = io_model;
  Result<std::unique_ptr<server::ServerRuntime>> server =
      server::ServerRuntime::start(padded_handler, options);
  ASSERT_TRUE(server.ok());
  const std::uint16_t port = server.value()->port();

  int status = 0;
  std::string encoding;
  const std::string identity =
      fetch_with_accept(port, nullptr, &status, &encoding);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(encoding, "");
  ASSERT_GT(identity.size(), 256u);  // big enough to be worth coding

  // deflate offered -> deflate on the wire, identical bytes after decode.
  EXPECT_EQ(fetch_with_accept(port, "deflate", &status, &encoding), identity);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(encoding, "deflate");

  // deflate preferred over gzip when both are offered.
  EXPECT_EQ(fetch_with_accept(port, "gzip, deflate", &status, &encoding),
            identity);
  EXPECT_EQ(encoding, "deflate");

  // Unknown tokens and q-values are skipped, not fatal.
  EXPECT_EQ(
      fetch_with_accept(port, "br, gzip;q=0.5", &status, &encoding),
      identity);
  EXPECT_EQ(encoding, "gzip");

  // Nothing the server speaks -> identity.
  EXPECT_EQ(fetch_with_accept(port, "br, zstd", &status, &encoding), identity);
  EXPECT_EQ(encoding, "");

  ASSERT_TRUE(wait_for(
      [&] { return server.value()->stats().compressed_sends >= 3u; }));
  EXPECT_GT(server.value()->stats().coding_bytes_saved, 0u);
  server.value()->stop();
}

TEST(WireCodingEndToEnd, BlockingEngineNegotiatesByteIdenticalResponses) {
  expect_negotiated_responses_match_identity(server::IoModel::kBlocking);
}

TEST(WireCodingEndToEnd, ReactorEngineNegotiatesByteIdenticalResponses) {
  expect_negotiated_responses_match_identity(server::IoModel::kReactor);
}

TEST(WireCodingEndToEnd, DisabledCodingsAnswerIdentity) {
  server::ServerRuntimeOptions options;
  options.workers = 1;
  options.codings.clear();
  Result<std::unique_ptr<server::ServerRuntime>> server =
      server::ServerRuntime::start(padded_handler, options);
  ASSERT_TRUE(server.ok());
  int status = 0;
  std::string encoding;
  const std::string body = fetch_with_accept(server.value()->port(),
                                             "deflate, gzip", &status,
                                             &encoding);
  EXPECT_EQ(status, 200);
  EXPECT_EQ(encoding, "");
  EXPECT_GT(body.size(), 0u);
  EXPECT_EQ(server.value()->stats().compressed_sends, 0u);
  server.value()->stop();
}

// --- decompression bound ---------------------------------------------------

/// Request bodies past the server's body bound: a gzip body that inflates
/// past it, a Content-Length above it (refused at the head, before any body
/// byte arrives) and a chunked body that grows past it (no last chunk).
enum class Oversized { kGzipBomb, kContentLength, kChunked };

void expect_bomb_answers_413(server::IoModel io_model, Oversized body) {
  server::ServerRuntimeOptions options;
  options.workers = 1;
  options.io_model = io_model;
  options.max_inflate_bytes = 64 * 1024;  // above the bomb's gzip stream
  // A server that waited for the body would close on this deadline with
  // no answer at all.
  options.read_timeout = std::chrono::milliseconds(3000);
  Result<std::unique_ptr<server::ServerRuntime>> server =
      server::ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  Result<std::unique_ptr<net::Transport>> conn =
      net::tcp_connect(server.value()->port());
  ASSERT_TRUE(conn.ok());
  http::HttpConnection connection(*conn.value());
  const std::string head = "POST / HTTP/1.1\r\nHost: localhost\r\n";
  switch (body) {
    case Oversized::kGzipBomb: {
      http::HttpRequest request;
      request.headers.push_back(http::Header{"Host", "localhost"});
      const std::string bomb(1u << 20, 'x');  // inflates far past the bound
      ASSERT_TRUE(connection
                      .send_request(std::move(request), bomb,
                                    ContentCoding::kGzip)
                      .ok());
      break;
    }
    case Oversized::kContentLength:
      ASSERT_TRUE(conn.value()
                      ->send(head + "Content-Length: 1048576\r\n\r\n" +
                             std::string(100, 'x'))
                      .ok());
      break;
    case Oversized::kChunked:
      ASSERT_TRUE(conn.value()
                      ->send(head + "Transfer-Encoding: chunked\r\n\r\n" +
                             "10000\r\n" + std::string(65536, 'x') + "\r\n" +
                             "10\r\n" + std::string(16, 'x') + "\r\n")
                      .ok());
      break;
  }
  Result<http::HttpResponse> response = connection.read_response();
  ASSERT_TRUE(response.ok()) << response.error().to_string();
  EXPECT_EQ(response.value().status, 413);
  EXPECT_NE(response.value().body.find("SOAP-ENV:Client"), std::string::npos);
  // Each bound trips where it should: the inflate, the head, the chunks.
  const char* const reason = body == Oversized::kGzipBomb ? "output limit"
                             : body == Oversized::kContentLength
                                 ? "Content-Length: body limit"
                                 : "chunked: body limit";
  EXPECT_NE(response.value().body.find(reason), std::string::npos)
      << response.value().body;
  server.value()->stop();
}

TEST(WireCodingEndToEnd, BlockingEngineAnswersOversizedBodiesWith413) {
  for (const Oversized body : {Oversized::kGzipBomb, Oversized::kContentLength,
                               Oversized::kChunked}) {
    SCOPED_TRACE(static_cast<int>(body));
    expect_bomb_answers_413(server::IoModel::kBlocking, body);
  }
}

TEST(WireCodingEndToEnd, ReactorEngineAnswersOversizedBodiesWith413) {
  for (const Oversized body : {Oversized::kGzipBomb, Oversized::kContentLength,
                               Oversized::kChunked}) {
    SCOPED_TRACE(static_cast<int>(body));
    expect_bomb_answers_413(server::IoModel::kReactor, body);
  }
}

// --- end-to-end coded requests ---------------------------------------------

TEST(WireCodingEndToEnd, DeflateCodedRequestsServeOnBothEngines) {
  for (const server::IoModel io_model :
       {server::IoModel::kBlocking, server::IoModel::kReactor}) {
    server::ServerRuntimeOptions options;
    options.workers = 2;
    options.io_model = io_model;
    Result<std::unique_ptr<server::ServerRuntime>> server =
        server::ServerRuntime::start(sum_handler, options);
    ASSERT_TRUE(server.ok());

    BsoapClientConfig config;
    config.with_compression(ContentCoding::kDeflate);
    BsoapClient client(tcp_dialer(server.value()->port()), config);
    std::vector<double> values =
        soap::doubles_with_serialized_length(64, 17, 13);
    bsoap::Rng rng(14);
    for (int i = 0; i < 5; ++i) {
      values[static_cast<std::size_t>(i) % values.size()] =
          soap::double_with_serialized_length(rng, 17);
      Result<Value> result =
          client.invoke(soap::make_double_array_call(values));
      ASSERT_TRUE(result.ok()) << result.error().to_string();
      EXPECT_EQ(result.value().as_double(), sum_of(values));
    }
    EXPECT_EQ(server.value()->stats().faults, 0u);
    server.value()->stop();
  }
}

// --- end-to-end preset flow ------------------------------------------------

BsoapClientConfig preset_client_config() {
  BsoapClientConfig cfg;
  cfg.tmpl = stuffed_config();
  return cfg.with_diffwire(true).with_compression(
      ContentCoding::kDeflatePreset, /*min_body_bytes=*/32);
}

/// Drives `iters` invokes mutating a block of values per step; every result
/// must match the locally computed sum.
void drive_preset_invokes(BsoapClient& client, int iters, std::uint64_t seed) {
  std::vector<double> values = soap::doubles_with_serialized_length(64, 17, seed);
  bsoap::Rng rng(seed ^ 0x5eed);
  for (int i = 0; i < iters; ++i) {
    for (int k = 0; k < 8; ++k) {
      values[rng.next_below(values.size())] =
          soap::double_with_serialized_length(rng, 17);
    }
    Result<Value> result = client.invoke(soap::make_double_array_call(values));
    ASSERT_TRUE(result.ok()) << "iter " << i << ": "
                             << result.error().to_string();
    EXPECT_EQ(result.value().as_double(), sum_of(values)) << "iter " << i;
  }
}

/// Counts patch and full sends by whether they went out coded.
class CodedSendCounter final : public core::SendObserver {
 public:
  void on_stage(core::SendStage, std::int64_t, std::size_t) override {}
  void on_send(const core::SendReport& report) override {
    const bool coded = report.coding != ContentCoding::kIdentity;
    if (report.patch_send) {
      ++patches;
      coded_patches += coded;
    } else {
      coded_offers += coded;
    }
  }
  std::uint64_t patches = 0;
  std::uint64_t coded_patches = 0;
  std::uint64_t coded_offers = 0;
};

TEST(WireCodingEndToEnd, PresetClientPatchesOnBothEngines) {
  for (const server::IoModel io_model :
       {server::IoModel::kBlocking, server::IoModel::kReactor}) {
    server::ServerRuntimeOptions options;
    options.workers = 2;
    options.io_model = io_model;
    Result<std::unique_ptr<server::ServerRuntime>> server =
        server::ServerRuntime::start(sum_handler, options);
    ASSERT_TRUE(server.ok());

    BsoapClient client(tcp_dialer(server.value()->port()),
                       preset_client_config());
    CodedSendCounter observer;
    client.pipeline().set_observer(&observer);
    drive_preset_invokes(client, 12, 17);

    const diffwire::ClientDiffStats* cs = client.diffwire_stats();
    ASSERT_NE(cs, nullptr);
    EXPECT_EQ(cs->offers_sent, 1u);
    EXPECT_EQ(cs->acks, 1u);
    EXPECT_EQ(cs->patch_sends, 11u);
    EXPECT_EQ(cs->patch_nacks, 0u);
    // Patch frames go uncoded; only a full re-offer is preset-coded.
    EXPECT_EQ(observer.coded_patches, 0u);
    EXPECT_EQ(observer.patches, 11u);
    EXPECT_EQ(observer.coded_offers, 0u);  // the first offer has no dictionary
    const RpcCall call = soap::make_double_array_call(
        soap::doubles_with_serialized_length(64, 17, 18));
    client.store().erase(call.structure_signature());
    Result<Value> reoffer = client.invoke(call);
    ASSERT_TRUE(reoffer.ok()) << reoffer.error().to_string();
    EXPECT_EQ(cs->offers_sent, 2u);
    EXPECT_EQ(observer.coded_offers, 1u);
    EXPECT_EQ(server.value()->stats().faults, 0u);
    server.value()->stop();
  }
}

TEST(WireCodingEndToEnd, PresetNackSelfHealsAfterReplicaLoss) {
  server::ServerRuntimeOptions options;
  options.workers = 1;
  Result<std::unique_ptr<server::ServerRuntime>> server =
      server::ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  BsoapClient client(tcp_dialer(server.value()->port()),
                     preset_client_config());
  drive_preset_invokes(client, 6, 23);

  // Replica loss: the next preset-coded patch names a template the server
  // no longer holds; the NACK erases the client's dictionary too, so the
  // in-invoke retry is an identity full send that re-offers and re-pins.
  server.value()->replicas()->clear();
  drive_preset_invokes(client, 4, 24);

  const diffwire::ClientDiffStats* cs = client.diffwire_stats();
  EXPECT_EQ(cs->patch_nacks, 1u);
  EXPECT_EQ(cs->fallback_full_sends, 1u);
  EXPECT_EQ(cs->offers_sent, 2u);
  EXPECT_EQ(cs->acks, 2u);
  EXPECT_EQ(server.value()->stats().faults, 0u);
  server.value()->stop();
}

TEST(WireCodingEndToEnd, ServerWithoutPresetLeavesClientOnIdentity) {
  server::ServerRuntimeOptions options;
  options.workers = 1;
  options.codings.clear();  // server speaks no codings at all
  Result<std::unique_ptr<server::ServerRuntime>> server =
      server::ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  BsoapClient client(tcp_dialer(server.value()->port()),
                     preset_client_config());
  drive_preset_invokes(client, 6, 29);  // never acked -> identity sends

  const diffwire::ClientDiffStats* cs = client.diffwire_stats();
  EXPECT_EQ(cs->acks, 1u);  // diff-wire still pins; only the coding is off
  EXPECT_EQ(cs->patch_sends, 5u);
  EXPECT_EQ(cs->patch_nacks, 0u);
  EXPECT_EQ(server.value()->stats().compressed_sends, 0u);
  EXPECT_EQ(server.value()->stats().faults, 0u);
  server.value()->stop();
}

/// Counts every byte the client puts on the wire.
class CountingTransport final : public net::Transport {
 public:
  CountingTransport(std::unique_ptr<net::Transport> inner,
                    std::atomic<std::uint64_t>* bytes)
      : inner_(std::move(inner)), bytes_(bytes) {}

  Status send(const char* data, std::size_t n) override {
    bytes_->fetch_add(n, std::memory_order_relaxed);
    return inner_->send(data, n);
  }
  Status send_slices(std::span<const net::ConstSlice> slices) override {
    std::uint64_t total = 0;
    for (const net::ConstSlice& slice : slices) total += slice.len;
    bytes_->fetch_add(total, std::memory_order_relaxed);
    return inner_->send_slices(slices);
  }
  Result<std::size_t> recv(char* out, std::size_t n) override {
    return inner_->recv(out, n);
  }
  void shutdown_send() override { inner_->shutdown_send(); }
  void shutdown_both() override { inner_->shutdown_both(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  std::atomic<std::uint64_t>* bytes_;
};

/// Re-offer workload: before each step the client drops its template, so
/// every send is a first-time full re-offer (a shift would travel as a
/// splice patch), and the preset coding's re-offer shrink is what separates
/// the clients.
std::uint64_t drive_reoffer_series(BsoapClient& client,
                                   std::atomic<std::uint64_t>& bytes,
                                   int iters) {
  std::vector<double> values = soap::doubles_with_serialized_length(256, 17, 3);
  bsoap::Rng rng(71);
  Result<Value> warmup = client.invoke(soap::make_double_array_call(values));
  EXPECT_TRUE(warmup.ok());
  bytes.store(0, std::memory_order_relaxed);
  for (int i = 0; i < iters; ++i) {
    values[static_cast<std::size_t>(i)] =
        soap::double_with_serialized_length(rng, 23);
    const RpcCall call = soap::make_double_array_call(values);
    client.store().erase(call.structure_signature());
    Result<Value> result = client.invoke(call);
    EXPECT_TRUE(result.ok()) << "iter " << i;
    if (result.ok()) {
      EXPECT_EQ(result.value().as_double(), sum_of(values));
    }
  }
  return bytes.load(std::memory_order_relaxed);
}

TEST(WireCodingEndToEnd, PresetReoffersShrinkWireBytesAtLeastTwofold) {
  server::ServerRuntimeOptions options;
  options.workers = 2;
  Result<std::unique_ptr<server::ServerRuntime>> server =
      server::ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());
  const std::uint16_t port = server.value()->port();

  auto counted_dialer = [port](std::atomic<std::uint64_t>* bytes) {
    return [port, bytes]() -> Result<std::unique_ptr<net::Transport>> {
      Result<std::unique_ptr<net::Transport>> conn = net::tcp_connect(port);
      if (!conn.ok()) return conn.error();
      return std::unique_ptr<net::Transport>(
          std::make_unique<CountingTransport>(std::move(conn.value()), bytes));
    };
  };

  std::atomic<std::uint64_t> identity_bytes{0};
  BsoapClientConfig identity_config;
  identity_config.with_diffwire(true);
  BsoapClient identity_client(counted_dialer(&identity_bytes),
                              identity_config);
  const std::uint64_t identity_total =
      drive_reoffer_series(identity_client, identity_bytes, 16);

  std::atomic<std::uint64_t> preset_bytes{0};
  BsoapClientConfig preset_config;
  preset_config.with_diffwire(true).with_compression(
      ContentCoding::kDeflatePreset, /*min_body_bytes=*/64);
  BsoapClient preset_client(counted_dialer(&preset_bytes), preset_config);
  const std::uint64_t preset_total =
      drive_reoffer_series(preset_client, preset_bytes, 16);

  // Identical workloads (same seeds), so the ratio isolates the coding. The
  // acceptance bar is 2x; near-identical generations compress far harder.
  EXPECT_GT(identity_client.diffwire_stats()->offers_sent, 10u);
  EXPECT_GT(preset_client.diffwire_stats()->offers_sent, 10u);
  EXPECT_LT(preset_total * 2, identity_total)
      << "preset " << preset_total << " vs identity " << identity_total;
  EXPECT_EQ(server.value()->stats().faults, 0u);
  server.value()->stop();
}

}  // namespace
}  // namespace bsoap
