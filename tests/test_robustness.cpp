// Robustness fuzzing: parsers must reject malformed input with an error —
// never crash, hang, or mis-parse — under random truncation, byte flips and
// garbage. (The SOAP server faces the network; every parser here is
// attacker-facing in a real deployment.) Every case runs a fixed, seeded
// iteration budget, so the sanitizer builds replay exactly these inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "buffer/sinks.hpp"
#include "common/rng.hpp"
#include "common/poly_hash.hpp"
#include "compress/deflate.hpp"
#include "core/diff_deserializer.hpp"
#include "core/parsed_replica.hpp"
#include "diffwire/replica_store.hpp"
#include "diffwire/wire_format.hpp"
#include "http/http_message.hpp"
#include "http/request_parser.hpp"
#include "soap/base64.hpp"
#include "soap/dime.hpp"
#include "soap/envelope_reader.hpp"
#include "soap/envelope_writer.hpp"
#include "soap/workload.hpp"
#include "wsdl/parser.hpp"
#include "wsdl/writer.hpp"
#include "xml/pull_parser.hpp"
#include "replica_apply.hpp"
#include "typed_array_docs.hpp"

namespace bsoap {
namespace {

using bsoap::testing::apply_copy;

std::string valid_envelope() {
  buffer::StringSink sink;
  soap::write_rpc_envelope(
      sink, soap::make_mio_array_call(soap::random_mios(20, 7)));
  return sink.take();
}

/// Drives the pull parser to completion or first error.
void exhaust_parser(std::string_view doc) {
  xml::XmlPullParser parser(doc);
  for (int guard = 0; guard < 1000000; ++guard) {
    Result<xml::XmlEvent> event = parser.next();
    if (!event.ok()) return;
    if (event.value() == xml::XmlEvent::kEof) return;
  }
  FAIL() << "parser did not terminate";
}

TEST(RobustnessFuzz, XmlParserSurvivesRandomBytes) {
  Rng rng(1001);
  for (int round = 0; round < 500; ++round) {
    std::string doc;
    const std::size_t n = rng.next_below(400);
    for (std::size_t i = 0; i < n; ++i) {
      // Bias towards XML-ish characters so the parser gets past the first
      // byte often enough to exercise deep paths.
      switch (rng.next_below(6)) {
        case 0: doc += '<'; break;
        case 1: doc += '>'; break;
        case 2: doc += '"'; break;
        case 3: doc += '&'; break;
        case 4: doc += static_cast<char>('a' + rng.next_below(26)); break;
        default: doc += static_cast<char>(rng.next_below(256)); break;
      }
    }
    exhaust_parser(doc);
  }
}

TEST(RobustnessFuzz, XmlParserSurvivesMutatedValidDocuments) {
  Rng rng(1002);
  const std::string valid = valid_envelope();
  for (int round = 0; round < 300; ++round) {
    std::string doc = valid;
    const std::size_t flips = 1 + rng.next_below(8);
    for (std::size_t f = 0; f < flips; ++f) {
      doc[rng.next_below(doc.size())] = static_cast<char>(rng.next_below(256));
    }
    exhaust_parser(doc);
    // The full SOAP reader must also either parse or error cleanly.
    (void)soap::read_rpc_envelope(doc);
  }
}

TEST(RobustnessFuzz, EnvelopeReaderSurvivesTruncation) {
  const std::string valid = valid_envelope();
  for (std::size_t cut = 0; cut < valid.size(); cut += 7) {
    (void)soap::read_rpc_envelope(std::string_view(valid).substr(0, cut));
  }
  // The complete document parses.
  EXPECT_TRUE(soap::read_rpc_envelope(valid).ok());
}

TEST(RobustnessFuzz, HttpHeadParserSurvivesGarbage) {
  Rng rng(1003);
  for (int round = 0; round < 500; ++round) {
    std::string head;
    const std::size_t n = rng.next_below(200);
    for (std::size_t i = 0; i < n; ++i) {
      switch (rng.next_below(5)) {
        case 0: head += '\r'; break;
        case 1: head += '\n'; break;
        case 2: head += ':'; break;
        case 3: head += ' '; break;
        default: head += static_cast<char>(32 + rng.next_below(95)); break;
      }
    }
    (void)http::parse_request_head(head);
    (void)http::parse_response_head(head);
  }
}

TEST(RobustnessFuzz, InflateSurvivesRandomStreams) {
  Rng rng(1004);
  for (int round = 0; round < 400; ++round) {
    std::string stream;
    const std::size_t n = rng.next_below(300);
    for (std::size_t i = 0; i < n; ++i) {
      stream += static_cast<char>(rng.next_below(256));
    }
    // Must terminate with either a result or an error; the output bound
    // prevents decompression bombs from hanging the test.
    (void)compress::inflate(stream, 1 << 20);
    (void)compress::gzip_decompress(stream, 1 << 20);
  }
}

TEST(RobustnessFuzz, InflateSurvivesCorruptedValidStreams) {
  Rng rng(1005);
  const std::string valid = compress::deflate(valid_envelope());
  for (int round = 0; round < 300; ++round) {
    std::string stream = valid;
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      stream[rng.next_below(stream.size())] ^=
          static_cast<char>(1 << rng.next_below(8));
    }
    (void)compress::inflate(stream, 1 << 22);
  }
}

TEST(RobustnessFuzz, Base64AndDimeSurviveGarbage) {
  Rng rng(1006);
  for (int round = 0; round < 500; ++round) {
    std::string blob;
    const std::size_t n = rng.next_below(200);
    for (std::size_t i = 0; i < n; ++i) {
      blob += static_cast<char>(rng.next_below(256));
    }
    (void)soap::base64_decode(blob);
    (void)soap::parse_dime(blob);
  }
}

TEST(RobustnessFuzz, WsdlParserSurvivesMutation) {
  Rng rng(1007);
  const std::string valid = wsdl::write_wsdl(
      wsdl::ServiceBuilder("Fuzz", "urn:fuzz")
          .add_operation("op", {wsdl::TypedField{"x", wsdl::XsdType::kInt, ""}},
                         wsdl::TypedField{"return", wsdl::XsdType::kInt, ""})
          .build());
  for (int round = 0; round < 200; ++round) {
    std::string doc = valid;
    const std::size_t flips = 1 + rng.next_below(6);
    for (std::size_t f = 0; f < flips; ++f) {
      doc[rng.next_below(doc.size())] = static_cast<char>(rng.next_below(256));
    }
    (void)wsdl::parse_wsdl(doc);
  }
  EXPECT_TRUE(wsdl::parse_wsdl(valid).ok());
}

/// A valid diff-wire patch frame: `runs` runs of 1..16 bytes each, about a
/// third of them splices.
std::string valid_patch_frame(Rng& rng, std::uint32_t runs) {
  diffwire::PatchHeader header;
  header.template_id = rng.next_u64();
  header.epoch = static_cast<std::uint32_t>(rng.next_below(100));
  header.run_count = runs;
  header.body_len = 4096;
  header.checksum = rng.next_u64();
  std::string frame;
  diffwire::append_patch_header(frame, header);
  std::uint32_t offset = 0;
  for (std::uint32_t r = 0; r < runs; ++r) {
    const auto length = static_cast<std::uint32_t>(1 + rng.next_below(16));
    offset += static_cast<std::uint32_t>(rng.next_below(64));
    std::uint32_t old_len = length;
    if (rng.chance(1, 3)) {
      old_len = static_cast<std::uint32_t>(rng.next_below(24));
      diffwire::append_splice_header(frame, offset, length, old_len);
    } else {
      diffwire::append_run_header(frame, offset, length);
    }
    for (std::uint32_t i = 0; i < length; ++i) {
      frame += static_cast<char>('a' + rng.next_below(26));
    }
    offset += old_len;
  }
  return frame;
}

void overwrite_u32(std::string& frame, std::size_t at, std::uint32_t v) {
  if (at + 4 > frame.size()) return;
  for (int i = 0; i < 4; ++i) {
    frame[at + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// decode_patch must return a frame or an error. A decoded frame must
/// account for every byte of the body: run headers plus run payloads, each
/// payload inside the body, the runs sorted and disjoint in old-body
/// offsets.
void check_decode_patch(const std::string& frame) {
  Result<diffwire::PatchFrame> decoded = diffwire::decode_patch(frame);
  if (!decoded.ok()) return;
  const diffwire::PatchFrame& f = decoded.value();
  ASSERT_EQ(f.runs.size(), f.header.run_count);
  std::size_t covered = diffwire::kFrameHeaderSize;
  std::uint64_t old_end = 0;
  for (const diffwire::PatchRun& run : f.runs) {
    covered += (run.splice ? diffwire::kSpliceHeaderSize
                           : diffwire::kRunHeaderSize) +
               run.length;
    ASSERT_GE(run.data, frame.data());
    ASSERT_LE(run.data + run.length, frame.data() + frame.size());
    ASSERT_GE(run.offset, old_end);
    old_end = std::uint64_t{run.offset} + run.old_length();
  }
  EXPECT_EQ(covered, frame.size());
}

TEST(RobustnessFuzz, PatchDecoderSurvivesMutatedFrames) {
  Rng rng(1008);
  for (int round = 0; round < 400; ++round) {
    std::string frame =
        valid_patch_frame(rng, static_cast<std::uint32_t>(rng.next_below(6)));
    check_decode_patch(frame);  // the unmutated frame
    const std::size_t flips = 1 + rng.next_below(6);
    for (std::size_t f = 0; f < flips; ++f) {
      frame[rng.next_below(frame.size())] =
          static_cast<char>(rng.next_below(256));
    }
    if (rng.next_below(4) == 0) frame.resize(rng.next_below(frame.size() + 1));
    check_decode_patch(frame);
  }
}

TEST(RobustnessFuzz, PatchDecoderSurvivesRandomHeaderFields) {
  Rng rng(1009);
  // Field values biased toward the edges: zero, small, near a boundary of
  // the frame, and anything up to 2^32 - 1.
  const auto pick = [&rng](std::size_t frame_size) -> std::uint32_t {
    switch (rng.next_below(4)) {
      case 0:
        return 0xFFFFFFFFu - static_cast<std::uint32_t>(rng.next_below(4));
      case 1:
        return static_cast<std::uint32_t>(rng.next_below(8));
      case 2:
        return static_cast<std::uint32_t>(frame_size + rng.next_below(9)) - 4;
      default:
        return static_cast<std::uint32_t>(rng.next_u64());
    }
  };
  constexpr std::size_t kRunCountAt = 20;  // u32 run_count in the header
  for (int round = 0; round < 400; ++round) {
    const auto runs = static_cast<std::uint32_t>(rng.next_below(4));
    std::string frame = valid_patch_frame(rng, runs);
    switch (rng.next_below(3)) {
      case 0:
        overwrite_u32(frame, kRunCountAt, pick(frame.size()));
        break;
      default: {
        // A run header's offset or length. Run headers sit at irregular
        // positions, so aim anywhere past the frame header.
        if (frame.size() <= diffwire::kFrameHeaderSize) break;
        const std::size_t at =
            diffwire::kFrameHeaderSize +
            rng.next_below(frame.size() - diffwire::kFrameHeaderSize);
        overwrite_u32(frame, at, pick(frame.size()));
        break;
      }
    }
    check_decode_patch(frame);
  }
}

/// Three pipelined requests covering the body framings the server reads:
/// Content-Length, chunked, and a gzip-coded body.
std::vector<std::string> valid_request_stream(
    std::vector<std::string>* bodies) {
  const std::string envelope = valid_envelope();
  bodies->assign({envelope, envelope.substr(0, 300), envelope});
  std::vector<std::string> wire;
  wire.push_back("POST /svc HTTP/1.1\r\nHost: x\r\nContent-Length: " +
                 std::to_string(envelope.size()) + "\r\n\r\n" + envelope);
  std::string chunked =
      "POST /svc HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n";
  for (std::size_t at = 0; at < 300; at += 100) {
    chunked += "64\r\n" + envelope.substr(at, 100) + "\r\n";
  }
  chunked += "0\r\n\r\n";
  wire.push_back(chunked);
  const std::string gz = compress::gzip_compress(envelope);
  wire.push_back(
      "POST /svc HTTP/1.1\r\nHost: x\r\nContent-Encoding: gzip\r\n"
      "Content-Length: " +
      std::to_string(gz.size()) + "\r\n\r\n" + gz);
  return wire;
}

/// Feeds `stream` to a fresh parser in random-sized pieces, taking every
/// completed request. Stops at the first error (the stream is then out of
/// sync, and the server would answer 400 and close). Returns the bodies of
/// the requests taken.
std::vector<std::string> feed_in_pieces(Rng& rng, const std::string& stream) {
  http::RequestParser parser;
  parser.set_max_inflate_bytes(1 << 20);
  std::vector<std::string> taken;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng.next_below(64), stream.size() - pos);
    Status status = parser.feed(stream.data() + pos, n);
    pos += n;
    while (status.ok() && parser.done()) {
      taken.push_back(parser.take().body);
      status = parser.resume();
    }
    if (!status.ok()) break;
  }
  return taken;
}

TEST(RobustnessFuzz, RequestParserSurvivesSplitsAndMutation) {
  Rng rng(1010);
  std::vector<std::string> bodies;
  const std::vector<std::string> requests = valid_request_stream(&bodies);
  std::string stream;
  for (const std::string& r : requests) stream += r;

  for (int round = 0; round < 300; ++round) {
    // Unmutated, any split yields exactly the three bodies.
    EXPECT_EQ(feed_in_pieces(rng, stream), bodies) << "round " << round;

    std::string mutated = stream;
    const std::size_t flips = 1 + rng.next_below(8);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.next_below(mutated.size())] =
          static_cast<char>(rng.next_below(256));
    }
    if (rng.next_below(4) == 0) {
      mutated.resize(rng.next_below(mutated.size() + 1));
    }
    (void)feed_in_pieces(rng, mutated);
  }
}

// --- preset-dictionary zlib ------------------------------------------------

/// Flips 1..4 random bits, biased toward the 6-byte FDICT header (CMF, FLG,
/// DICTID) where dictionary handling branches.
void flip_bits(Rng& rng, std::string& bytes) {
  const std::size_t flips = 1 + rng.next_below(4);
  for (std::size_t f = 0; f < flips; ++f) {
    const std::size_t span =
        rng.chance(1, 2) ? std::min<std::size_t>(6, bytes.size())
                         : bytes.size();
    const std::size_t at = rng.next_below(span);
    bytes[at] ^= static_cast<char>(1 << rng.next_below(8));
  }
}

TEST(RobustnessFuzz, PresetZlibSurvivesMutatedStreamsAndWrongDictionaries) {
  Rng rng(1011);
  for (int round = 0; round < 300; ++round) {
    // The dictionary is a pin generation's body tail; the input is a later
    // body of the same shape, as on the diff wire.
    const std::string pinned = [&] {
      buffer::StringSink sink;
      soap::write_rpc_envelope(sink, soap::make_double_array_call(
                                         soap::random_doubles(200, round)));
      return sink.take();
    }();
    const std::size_t dict_len =
        std::min<std::size_t>(pinned.size(), 1 + rng.next_below(32768));
    const std::string dict = pinned.substr(pinned.size() - dict_len);
    std::string input = pinned;
    for (int k = 0; k < 20; ++k) {
      input[rng.next_below(input.size())] =
          static_cast<char>('0' + rng.next_below(10));
    }
    const std::string stream = compress::zlib_compress(input, dict);

    Result<std::string> clean =
        compress::zlib_decompress(stream, 1 << 22, dict);
    ASSERT_TRUE(clean.ok()) << clean.error().to_string();
    ASSERT_EQ(clean.value(), input);

    // A dictionary that differs in one byte, lost its head, or is absent:
    // a clean error (DICTID is the dictionary's Adler-32).
    std::string wrong = dict;
    wrong[rng.next_below(wrong.size())] ^=
        static_cast<char>(1 + rng.next_below(255));
    EXPECT_FALSE(compress::zlib_decompress(stream, 1 << 22, wrong).ok());
    EXPECT_FALSE(compress::zlib_decompress(stream, 1 << 22, {}).ok());
    (void)compress::zlib_decompress(stream, 1 << 22,
                                    std::string_view(dict).substr(
                                        rng.next_below(dict.size())));

    // Truncation always loses at least the Adler-32 trailer.
    const std::string cut = stream.substr(0, rng.next_below(stream.size()));
    EXPECT_FALSE(compress::zlib_decompress(cut, 1 << 22, dict).ok());

    // Mutated streams must return a value or an error, under a tight and a
    // loose output bound.
    std::string mutated = stream;
    flip_bits(rng, mutated);
    (void)compress::zlib_decompress(mutated, 1 << 22, dict);
    (void)compress::zlib_decompress(mutated, rng.next_below(input.size()),
                                    dict);
    (void)compress::zlib_decompress(mutated, 1 << 22, wrong);
  }
}

// --- replica apply + cached parse ------------------------------------------

std::string serialize_call(const soap::RpcCall& call) {
  buffer::StringSink sink;
  soap::write_rpc_envelope(sink, call);
  return sink.take();
}

/// Run bytes that look like what the wire carries most of the time (digits,
/// signs, exponents) and sometimes like structure or garbage.
std::string run_bytes(Rng& rng, std::size_t n) {
  static constexpr char kValueish[] = "0123456789.-+eE";
  static constexpr char kMarkup[] = "<>/=\"' itemsendDataxsi:type&;";
  std::string out(n, '\0');
  const std::uint64_t flavour = rng.next_below(10);
  for (char& c : out) {
    if (flavour < 7) {
      c = kValueish[rng.next_below(sizeof(kValueish) - 1)];
    } else if (flavour < 9) {
      c = kMarkup[rng.next_below(sizeof(kMarkup) - 1)];
    } else {
      c = static_cast<char>(rng.next_below(256));
    }
  }
  return out;
}

TEST(RobustnessFuzz, ReplicaApplyAndCachedParseSurviveAdversarialFrames) {
  // Drives ReplicaStore::apply and ParsedReplica the way the server does,
  // with adversarial frames: random and out-of-bounds offsets and lengths,
  // splices, overlapping and unsorted runs, wrong epochs, lengths and
  // roots. Every apply returns
  // ok or a NACK; every served call equals a full parse of the replica
  // bytes, and a serve fails only where the full parse fails too.
  Rng rng(1012);
  diffwire::ReplicaStore store;
  constexpr std::uint64_t kId = 7;
  std::string model;  // the receiver's replica as it should be
  std::uint32_t epoch = 0;
  std::size_t applied = 0;
  std::size_t served_fast = 0;

  const auto pin_fresh = [&] {
    const std::uint64_t seed = rng.next_u64();
    const soap::RpcCall call =
        rng.chance(1, 2)
            ? soap::make_double_array_call(
                  soap::random_doubles(64 + rng.next_below(128), seed))
            : soap::make_mio_array_call(
                  soap::random_mios(16 + rng.next_below(48), seed));
    model = serialize_call(call);
    store.pin(kId, model,
              [](std::string_view pinned,
                 std::shared_ptr<diffwire::ReplicaAttachment>& slot) {
                ASSERT_TRUE(core::ParsedReplica::serve(
                                core::ParsedReplica::in(slot), pinned, {},
                                nullptr)
                                .ok());
              });
    epoch = 0;
  };
  pin_fresh();

  for (int round = 0; round < 2000; ++round) {
    if (rng.chance(1, 40)) pin_fresh();
    struct Spec {
      std::uint32_t offset;
      std::uint32_t old_len;
      std::string bytes;
    };
    std::vector<Spec> specs;
    const std::size_t run_count = rng.next_below(8);
    for (std::size_t r = 0; r < run_count; ++r) {
      std::uint32_t offset = 0;
      std::uint32_t length = 0;
      switch (rng.next_below(7)) {
        case 0:  // anywhere, any length up to the body
          offset = static_cast<std::uint32_t>(rng.next_below(model.size() + 1));
          length = static_cast<std::uint32_t>(
              rng.next_below(model.size() - offset + 1));
          break;
        case 1:  // past the end, or wrapping offset + length around 2^32
          offset = static_cast<std::uint32_t>(
              model.size() - rng.next_below(4) + rng.next_below(8));
          length = static_cast<std::uint32_t>(1 + rng.next_below(16));
          if (rng.chance(1, 2)) length = 0u - offset + length;
          break;
        case 2:  // overlapping the previous run
          if (!specs.empty()) {
            offset = specs.back().offset + specs.back().old_len / 2;
            length = static_cast<std::uint32_t>(rng.next_below(24));
            break;
          }
          [[fallthrough]];
        case 3:  // short, inside the body
          offset = static_cast<std::uint32_t>(rng.next_below(model.size()));
          length = static_cast<std::uint32_t>(rng.next_below(
              std::min<std::size_t>(model.size() - offset, 24) + 1));
          break;
        case 4: {  // a splice inside the body: up to 24 bytes become 0..24
          offset = static_cast<std::uint32_t>(rng.next_below(model.size()));
          const auto old_len = static_cast<std::uint32_t>(rng.next_below(
              std::min<std::size_t>(model.size() - offset, 24) + 1));
          specs.push_back(Spec{offset, old_len,
                               run_bytes(rng, rng.next_below(25))});
          continue;
        }
        default: {  // digits over digits: the value text stays a number
          offset = static_cast<std::uint32_t>(rng.next_below(model.size()));
          while (length < 8 && offset + length < model.size() &&
                 model[offset + length] >= '0' &&
                 model[offset + length] <= '9') {
            ++length;
          }
          std::string digits(length, '0');
          for (char& c : digits) {
            c = static_cast<char>('0' + rng.next_below(10));
          }
          specs.push_back(Spec{offset, length, std::move(digits)});
          continue;
        }
      }
      const bool fits =
          length <= model.size() && offset <= model.size() - length;
      // An out-of-bounds run carries a short payload: apply must reject it
      // on its header fields before touching a byte.
      specs.push_back(Spec{offset, length,
                           run_bytes(rng, fits ? length
                                               : std::min<std::uint32_t>(
                                                     length, 64))});
    }
    if (rng.chance(4, 5)) {
      // Mostly well-formed: sorted, overlaps dropped. The rest stay as
      // drawn (out of order, overlapping) and must NACK.
      std::sort(specs.begin(), specs.end(),
                [](const Spec& a, const Spec& b) {
                  return a.offset < b.offset;
                });
      std::vector<Spec> kept;
      std::uint64_t end = 0;
      for (Spec& spec : specs) {
        if (spec.offset < end) continue;
        end = std::uint64_t{spec.offset} + spec.old_len;
        kept.push_back(std::move(spec));
      }
      specs = std::move(kept);
    }
    // The body the frame describes, when its runs are sorted, disjoint and
    // inside the replica.
    std::string expected;
    bool well_formed = true;
    std::uint64_t cursor = 0;
    for (const Spec& spec : specs) {
      if (spec.offset < cursor ||
          std::uint64_t{spec.offset} + spec.old_len > model.size()) {
        well_formed = false;
        break;
      }
      expected.append(model, cursor, spec.offset - cursor);
      expected += spec.bytes;
      cursor = std::uint64_t{spec.offset} + spec.old_len;
    }
    if (well_formed) expected.append(model, cursor);

    diffwire::PatchFrame frame;
    for (const Spec& spec : specs) {
      const auto length = static_cast<std::uint32_t>(spec.bytes.size());
      frame.runs.push_back(diffwire::PatchRun{spec.offset, length,
                                              spec.bytes.data(),
                                              length != spec.old_len,
                                              spec.old_len});
    }
    const bool wrong_length = rng.chance(1, 20);
    frame.header.template_id = kId;
    frame.header.epoch = rng.chance(1, 20) ? epoch + 2 : epoch + 1;
    frame.header.body_len = static_cast<std::uint32_t>(
        (well_formed ? expected.size() : model.size()) + wrong_length);
    frame.header.run_count = static_cast<std::uint32_t>(frame.runs.size());
    frame.header.checksum = rng.chance(1, 10) ? rng.next_below(poly::kModulus)
                                              : poly::hash(expected);

    // Served the way the server does: in the replica's slot, under its lock.
    std::string reconstructed;
    core::ParsedReplica::ServeReport report;
    std::optional<Result<core::ParsedReplica::Lease>> served;
    const Status status = store.apply(
        frame, [&](std::string_view body,
                   std::shared_ptr<diffwire::ReplicaAttachment>& slot) {
          reconstructed.assign(body);
          served = core::ParsedReplica::serve(core::ParsedReplica::in(slot),
                                              body, frame.runs, &report);
        });
    if (!status.ok()) {
      // A NACK erased the replica; the sender's re-offer re-pins.
      ASSERT_EQ(store.stats().pinned_replicas, 0u);
      pin_fresh();
      continue;
    }
    ASSERT_TRUE(well_formed && !wrong_length);
    ASSERT_EQ(reconstructed, expected);
    model = expected;
    epoch = frame.header.epoch;
    ++applied;

    ASSERT_TRUE(served.has_value());
    Result<soap::RpcCall> full = soap::read_rpc_envelope(reconstructed);
    if (!served->ok()) {
      ASSERT_FALSE(full.ok()) << "round " << round << ": "
                              << served->error().to_string();
      pin_fresh();  // keep most rounds on a parseable replica
      continue;
    }
    ASSERT_TRUE(full.ok()) << "round " << round;
    ASSERT_EQ(serialize_call(served->value().call()),
              serialize_call(full.value()))
        << "round " << round;
    if (report.path == core::DiffDeserializer::ApplyPath::kFastParse) {
      ++served_fast;
    }
  }
  // The budget must reach both outcomes and the fast path.
  EXPECT_GT(applied, 200u);
  EXPECT_GT(served_fast, 50u);
  EXPECT_GT(store.stats().nacks, 100u);
}

TEST(RobustnessFuzz, MutatedSpliceFramesNackAndNeverCrash) {
  // Well-formed splice frames against a pinned replica, and the same
  // frames mutated: runs out of order, a run overlapping its predecessor,
  // body_len off by one, a huge old_len. The unmutated frame applies
  // exactly; every mutant is refused by decode_patch or NACKed by apply.
  Rng rng(1013);
  for (int round = 0; round < 400; ++round) {
    const std::string body = run_bytes(rng, 200 + rng.next_below(300));
    struct Spec {
      std::uint32_t offset;
      std::uint32_t old_len;
      std::string bytes;
    };
    std::vector<Spec> specs;
    const std::size_t want = 2 + rng.next_below(4);
    std::size_t at = rng.next_below(20);
    while (specs.size() < want && at + 24 < body.size()) {
      const auto old_len = static_cast<std::uint32_t>(rng.next_below(24));
      specs.push_back(Spec{static_cast<std::uint32_t>(at), old_len,
                           run_bytes(rng, rng.next_below(30))});
      at += old_len + 1 + rng.next_below(60);
    }
    std::string expected;
    std::size_t cursor = 0;
    for (const Spec& spec : specs) {
      expected.append(body, cursor, spec.offset - cursor);
      expected += spec.bytes;
      cursor = spec.offset + spec.old_len;
    }
    expected.append(body, cursor);
    ASSERT_GE(specs.size(), 2u);

    const std::uint64_t mutation = rng.next_below(5);  // 0 = none
    std::uint32_t body_len = static_cast<std::uint32_t>(expected.size());
    if (mutation == 1) {
      std::swap(specs[0], specs[1]);  // out of order
    } else if (mutation == 2) {
      specs[1].offset = specs[0].offset + specs[0].old_len / 2;  // overlap
      if (specs[0].old_len == 0) specs[1].offset = specs[0].offset - 1;
    } else if (mutation == 3) {
      body_len += rng.chance(1, 2) ? 1 : -1;
    } else if (mutation == 4) {
      specs.back().old_len = 0xFFFFFFFFu - static_cast<std::uint32_t>(
                                              rng.next_below(3) << 30);
    }
    diffwire::PatchHeader header;
    header.template_id = 1;
    header.epoch = 1;
    header.run_count = static_cast<std::uint32_t>(specs.size());
    header.body_len = body_len;
    header.checksum = poly::hash(expected);
    std::string wire;
    diffwire::append_patch_header(wire, header);
    for (const Spec& spec : specs) {
      const auto length = static_cast<std::uint32_t>(spec.bytes.size());
      if (length == spec.old_len && rng.chance(1, 2)) {
        diffwire::append_run_header(wire, spec.offset, length);
      } else {
        diffwire::append_splice_header(wire, spec.offset, length,
                                       spec.old_len);
      }
      wire += spec.bytes;
    }

    diffwire::ReplicaStore store;
    store.pin(1, body);
    Result<diffwire::PatchFrame> frame = diffwire::decode_patch(wire);
    if (!frame.ok()) {
      ASSERT_NE(mutation, 0u) << "round " << round;
      continue;
    }
    std::string reconstructed;
    const Status applied = apply_copy(store, frame.value(), &reconstructed);
    if (mutation == 0) {
      ASSERT_TRUE(applied.ok())
          << "round " << round << ": " << applied.error().to_string();
      ASSERT_EQ(reconstructed, expected);
    } else {
      ASSERT_FALSE(applied.ok()) << "round " << round << " mutation "
                                 << mutation;
      ASSERT_EQ(store.stats().pinned_replicas, 0u);
    }
  }
}

// --- typed-array scanner: mutated envelopes ---------------------------------

/// `doc` with `from` replaced by `to` everywhere.
std::string replace_all(std::string doc, std::string_view from,
                        std::string_view to) {
  for (std::size_t at = doc.find(from); at != std::string::npos;
       at = doc.find(from, at + to.size())) {
    doc.replace(at, from.size(), to);
  }
  return doc;
}

/// The typed-array leaf regions of `doc` by a plain event walk, in value
/// order (a MIO's members in x, y, v order), or nullopt where the one-pass
/// map must not be used: a leaf not read from exactly one text event, MIO
/// members out of order, or a multi-ref document.
std::optional<std::vector<soap::LeafSpan>> reference_regions(
    std::string_view doc) {
  if (doc.find("href=\"#") != std::string_view::npos) return std::nullopt;
  std::vector<soap::LeafSpan> out;
  xml::XmlPullParser parser(doc);
  std::size_t array_depth = 0;  // depth of the open array element, or 0
  std::size_t leaf_depth = 0;   // depth its leaves sit at
  bool mio = false;
  soap::LeafSpan leaf{0, 0};
  int leaf_texts = 0;
  std::vector<soap::LeafSpan> members;  // the current MIO's, by slot
  std::string order;                    // the current MIO's member names
  bool exact = true;
  for (;;) {
    Result<xml::XmlEvent> event = parser.next();
    if (!event.ok() || event.value() == xml::XmlEvent::kEof) break;
    const std::size_t depth = parser.depth();
    switch (event.value()) {
      case xml::XmlEvent::kStartElement:
        if (array_depth == 0) {
          const xml::XmlAttribute* type =
              parser.find_attribute("SOAP-ENC:arrayType");
          if (type != nullptr) {
            array_depth = depth;
            mio = type->value.find("MIO") != std::string::npos;
            leaf_depth = depth + (mio ? 2 : 1);
          }
        } else if (depth == leaf_depth) {
          leaf_texts = 0;
          if (mio) order += parser.name();
        } else if (mio && depth == leaf_depth - 1) {
          members.assign(3, soap::LeafSpan{0, 0});
          order.clear();
        }
        break;
      case xml::XmlEvent::kText:
        if (array_depth != 0 && depth == leaf_depth) {
          leaf = soap::LeafSpan{parser.event_begin(), parser.event_end()};
          ++leaf_texts;
        }
        break;
      case xml::XmlEvent::kEndElement:
        // depth() already counts the closed element out.
        if (array_depth != 0 && depth + 1 == leaf_depth) {
          if (leaf_texts != 1) exact = false;
          if (!mio) {
            out.push_back(leaf);
          } else if (const std::size_t slot =
                         std::string_view("xyv").find(parser.name());
                     slot != std::string_view::npos) {
            members[slot] = leaf;
          }
        } else if (mio && array_depth != 0 && depth + 2 == leaf_depth) {
          if (order != "xyv") exact = false;
          out.insert(out.end(), members.begin(), members.end());
        } else if (depth + 1 == array_depth) {
          array_depth = 0;
        }
        break;
      default:
        break;
    }
  }
  if (!exact) return std::nullopt;
  return out;
}

TEST(RobustnessFuzz, TypedArrayScannerAgreesWithGeneralReaderOnMutations) {
  // Mutates typed-array envelopes. Each mutated document reads the same
  // (both fail, or bit-equal calls) as two twins: a comment after the array
  // open tag (the first item goes to the general reader) and "<item >"
  // spacing (every item does). prime()'s one-pass region map must equal a
  // reference walk, and a digit rewritten inside a region must fast-parse
  // to the full parse of the rewritten document.
  Rng rng(1013);
  static const char kBytes[] = "<>/&;# \t\n.-+eE0123456789!?[]xyvitem\"=";
  std::size_t parsed_ok = 0;
  std::size_t usable = 0;
  std::size_t fast = 0;
  for (int round = 0; round < 2000; ++round) {
    const auto elem = static_cast<testing::ArrayElem>(rng.next_below(3));
    const std::size_t n = 1 + rng.next_below(12);
    const testing::TypedArrayDoc source =
        testing::random_typed_array_doc(elem, n, rng);
    const std::size_t k = rng.next_below(n);
    std::string doc = source.render(
        static_cast<testing::Irregularity>(
            rng.chance(1, 2) ? 0 : rng.next_below(testing::kIrregularityCount)),
        k, k + 1 + rng.next_below(n - k));
    const std::size_t array_open = doc.find('>', doc.find("<data ")) + 1;
    const std::size_t mutations = 1 + rng.next_below(4);
    for (std::size_t m = 0; m < mutations && !rng.chance(1, 8); ++m) {
      const std::size_t at =
          array_open + rng.next_below(doc.size() - array_open);
      switch (rng.next_below(6)) {
        case 0:
          doc[at] = kBytes[rng.next_below(sizeof(kBytes) - 1)];
          break;
        case 4:  // mostly harmless: a digit for a digit, else a blank
          if (doc[at] >= '0' && doc[at] <= '9') {
            doc[at] = static_cast<char>('0' + rng.next_below(10));
          } else {
            doc.insert(at, 1, ' ');
          }
          break;
        case 1:
          doc.insert(at, 1, kBytes[rng.next_below(sizeof(kBytes) - 1)]);
          break;
        case 2:
          doc.erase(at, 1 + rng.next_below(3));
          break;
        default:
          doc.insert(at, doc.substr(at, rng.next_below(12)));
          break;
      }
    }
    const std::size_t open_end = doc.find("<data ") == std::string::npos
                                     ? std::string::npos
                                     : doc.find('>', doc.find("<data "));
    const std::string commented =
        open_end == std::string::npos
            ? doc
            : doc.substr(0, open_end + 1) + "<!---->" + doc.substr(open_end + 1);
    std::string spaced = doc;  // "<item >": no item is scanned
    for (const char* tag : {"item", "x", "y", "v"}) {
      spaced = replace_all(std::move(spaced), std::string("<") + tag + ">",
                           std::string("<") + tag + " >");
    }

    Result<soap::RpcCall> read = soap::read_rpc_envelope(doc);
    for (const std::string& twin : {commented, spaced}) {
      Result<soap::RpcCall> other = soap::read_rpc_envelope(twin);
      ASSERT_EQ(read.ok(), other.ok()) << "round " << round << "\n" << doc;
      if (read.ok()) {
        ASSERT_TRUE(testing::bit_equal(read.value(), other.value()))
            << "round " << round << "\n" << doc;
      }
    }

    core::DiffDeserializer deser;
    ASSERT_EQ(deser.prime(doc).ok(), read.ok()) << "round " << round;
    if (!read.ok()) continue;
    ++parsed_ok;
    const std::optional<std::vector<soap::LeafSpan>> reference =
        reference_regions(doc);
    const std::span<const core::DiffDeserializer::LeafRegion> regions =
        deser.regions();
    if (reference.has_value()) {
      ASSERT_TRUE(deser.fast_path_usable()) << "round " << round << "\n" << doc;
    }
    if (!deser.fast_path_usable()) continue;
    ++usable;
    ASSERT_TRUE(reference.has_value()) << "round " << round << "\n" << doc;
    ASSERT_EQ(regions.size(), reference->size()) << "round " << round;
    for (std::size_t i = 0; i < regions.size(); ++i) {
      ASSERT_EQ(regions[i].begin, (*reference)[i].begin) << "round " << round;
      ASSERT_EQ(regions[i].end, (*reference)[i].end) << "round " << round;
    }

    if (regions.empty()) continue;
    const core::DiffDeserializer::LeafRegion r =
        regions[rng.next_below(regions.size())];
    std::size_t digit = r.begin;
    while (digit < r.end && (doc[digit] < '0' || doc[digit] > '9')) ++digit;
    if (digit == r.end) continue;
    std::string fresh = doc;
    fresh[digit] = static_cast<char>('0' + (doc[digit] - '0' + 1 +
                                            rng.next_below(9)) % 10);
    const diffwire::PatchRun run{static_cast<std::uint32_t>(digit), 1};
    Result<core::DiffDeserializer::ApplyReport> applied =
        deser.apply_runs(fresh, std::span(&run, 1));
    Result<soap::RpcCall> full = soap::read_rpc_envelope(fresh);
    ASSERT_EQ(applied.ok(), full.ok()) << "round " << round;
    if (applied.ok() &&
        applied.value().path == core::DiffDeserializer::ApplyPath::kFastParse) {
      ++fast;
    }
    if (full.ok()) {
      ASSERT_TRUE(testing::bit_equal(deser.call(), full.value()))
          << "round " << round << "\n" << fresh;
    }
  }
  // The budget must reach both outcomes and the one-pass map.
  EXPECT_GT(parsed_ok, 300u);
  EXPECT_GT(usable, 250u);
  EXPECT_GT(fast, 150u);
}

}  // namespace
}  // namespace bsoap
