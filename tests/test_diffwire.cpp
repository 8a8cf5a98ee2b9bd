// Diff-wire protocol tests: frame encode/decode round-trips, ReplicaStore
// validation and NACK semantics, byte-identical reconstruction of pipeline
// patch sends (parsed back through http::RequestParser at every byte
// boundary), end-to-end client/server negotiation on both connection
// engines, NACK -> full-send -> re-pin recovery, fault injection with zero
// failed requests, a malformed-frame NACK on both engines, and an 8-worker
// stress (TSan-covered).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "buffer/sinks.hpp"
#include "common/poly_hash.hpp"
#include "common/rng.hpp"
#include "compress/deflate.hpp"
#include "core/client.hpp"
#include "core/parsed_replica.hpp"
#include "core/send_pipeline.hpp"
#include "diffwire/replica_store.hpp"
#include "diffwire/wire_format.hpp"
#include "http/connection.hpp"
#include "http/request_parser.hpp"
#include "net/fault_injection.hpp"
#include "net/tcp.hpp"
#include "server/reactor.hpp"
#include "server/server_runtime.hpp"
#include "soap/envelope_reader.hpp"
#include "soap/envelope_writer.hpp"
#include "soap/workload.hpp"
#include "replica_apply.hpp"
#include "typed_array_docs.hpp"

namespace bsoap::diffwire {
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

/// Stuffed numeric fields: every double rewrite stays in place, so repeat
/// sends are perfect structural matches — the patch-eligible steady state.
core::TemplateConfig stuffed_config() {
  core::TemplateConfig cfg;
  cfg.stuffing.mode = core::StuffingPolicy::Mode::kTypeMax;
  cfg.stuffing.stuff_on_expand = true;
  return cfg;
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

/// Feeds the captured wire bytes through the incremental request parser one
/// byte at a time — a patch frame must survive any packetization.
http::HttpRequest parse_bytewise(const std::string& wire) {
  http::RequestParser parser;
  for (const char c : wire) {
    const Status fed = parser.feed(&c, 1);
    EXPECT_TRUE(fed.ok()) << fed.error().to_string();
  }
  EXPECT_TRUE(parser.done());
  return parser.take();
}

/// Sends `call` through `pipeline` into a capture buffer; returns the wire
/// bytes and the report.
std::pair<std::string, core::SendReport> capture_send(
    core::SendPipeline& pipeline, const RpcCall& call) {
  server::CaptureTransport capture;
  core::SendDestination dest;
  dest.transport = &capture;
  Result<core::SendReport> report = pipeline.send(call, dest);
  EXPECT_TRUE(report.ok()) << report.error().to_string();
  return {capture.take(), report.value()};
}

// --- wire format -----------------------------------------------------------

TEST(DiffWireFormat, TemplateIdHexRoundTrip) {
  EXPECT_EQ(format_template_id(0), "0000000000000000");
  EXPECT_EQ(format_template_id(0xdeadbeef01020304ull), "deadbeef01020304");
  std::uint64_t id = 0;
  EXPECT_TRUE(parse_template_id("deadbeef01020304", &id));
  EXPECT_EQ(id, 0xdeadbeef01020304ull);
  EXPECT_FALSE(parse_template_id("deadbeef0102030", &id));    // short
  EXPECT_FALSE(parse_template_id("deadbeef010203045", &id));  // long
  EXPECT_FALSE(parse_template_id("deadbeef0102030g", &id));   // non-hex
}

TEST(DiffWireFormat, PatchFrameRoundTrip) {
  PatchHeader header;
  header.template_id = 0x1122334455667788ull;
  header.epoch = 7;
  header.run_count = 2;
  header.body_len = 100;
  header.checksum = poly::hash("the reconstructed body");

  std::string frame;
  append_patch_header(frame, header);
  append_run_header(frame, 10, 3);
  frame += "abc";
  append_run_header(frame, 90, 5);
  frame += "defgh";

  Result<PatchFrame> decoded = decode_patch(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value().header.template_id, header.template_id);
  EXPECT_EQ(decoded.value().header.epoch, 7u);
  EXPECT_EQ(decoded.value().header.body_len, 100u);
  EXPECT_EQ(decoded.value().header.checksum, header.checksum);
  EXPECT_FALSE(decoded.value().header.replay());
  ASSERT_EQ(decoded.value().runs.size(), 2u);
  EXPECT_EQ(decoded.value().runs[0].offset, 10u);
  EXPECT_EQ(std::string(decoded.value().runs[0].data, 3), "abc");
  EXPECT_EQ(decoded.value().runs[1].offset, 90u);
  EXPECT_EQ(std::string(decoded.value().runs[1].data, 5), "defgh");

  // Truncation, trailing garbage and a bad magic all refuse to decode.
  EXPECT_FALSE(decode_patch(frame.substr(0, frame.size() - 1)).ok());
  EXPECT_FALSE(decode_patch(frame + "x").ok());
  std::string bad_magic = frame;
  bad_magic[0] = 'X';
  EXPECT_FALSE(decode_patch(bad_magic).ok());
  EXPECT_FALSE(decode_patch("").ok());
}

/// A bare 36-byte frame header ("BSDP", current version, zeros elsewhere)
/// claiming `run_count` runs; it carries no run headers.
std::string header_only_frame(std::uint32_t run_count) {
  PatchHeader header;
  header.run_count = run_count;
  std::string frame;
  append_patch_header(frame, header);
  return frame;
}

TEST(DiffWireFormat, RunCountBeyondFrameSizeIsRejected) {
  // The run count is wire-supplied; one the frame cannot hold must be a
  // protocol error, not an allocation sized by it.
  for (const std::uint32_t run_count : {0xFFFFFFFFu, 0x10000000u, 1u}) {
    Result<PatchFrame> decoded = decode_patch(header_only_frame(run_count));
    ASSERT_FALSE(decoded.ok()) << run_count;
    EXPECT_EQ(decoded.error().code, ErrorCode::kProtocolError);
  }

  // A frame holding exactly the claimed run headers still decodes; one
  // run header short of the claim does not.
  std::string exact = header_only_frame(2);
  append_run_header(exact, 0, 0);
  append_run_header(exact, 4, 0);
  Result<PatchFrame> decoded = decode_patch(exact);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value().runs.size(), 2u);

  std::string short_frame = header_only_frame(3);
  append_run_header(short_frame, 0, 0);
  append_run_header(short_frame, 4, 0);
  EXPECT_FALSE(decode_patch(short_frame).ok());
}

// --- replica store ---------------------------------------------------------

/// Builds a valid frame patching `replica` into `updated` with one run.
std::string make_patch(std::uint64_t id, std::uint32_t epoch,
                       const std::string& updated, std::uint32_t run_offset,
                       std::uint32_t run_length) {
  PatchHeader header;
  header.template_id = id;
  header.epoch = epoch;
  header.run_count = 1;
  header.body_len = static_cast<std::uint32_t>(updated.size());
  header.checksum = poly::hash(updated);
  std::string frame;
  append_patch_header(frame, header);
  append_run_header(frame, run_offset, run_length);
  frame.append(updated.data() + run_offset, run_length);
  return frame;
}

TEST(ReplicaStore, AppliesRunsAndAdvancesEpoch) {
  ReplicaStore store;
  EXPECT_FALSE(store.pin(42, "hello world"));  // first pin, not a re-pin
  EXPECT_TRUE(store.pin(42, "hello world"));   // re-pin reported

  const std::string v1 = "hello earth";
  const std::string frame_wire = make_patch(42, 1, v1, 6, 5);
  Result<PatchFrame> frame = decode_patch(frame_wire);
  ASSERT_TRUE(frame.ok());
  std::string reconstructed;
  ASSERT_TRUE(apply_copy(store, frame.value(), &reconstructed).ok());
  EXPECT_EQ(reconstructed, v1);

  // Epoch chains: the next frame must carry 2.
  const std::string v2 = "hellooearth";
  const std::string next_wire = make_patch(42, 2, v2, 0, 6);
  Result<PatchFrame> next = decode_patch(next_wire);
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(apply_copy(store, next.value(), &reconstructed).ok());
  EXPECT_EQ(reconstructed, v2);

  const ReplicaStore::Stats stats = store.stats();
  EXPECT_EQ(stats.pins, 1u);
  EXPECT_EQ(stats.repins, 1u);
  EXPECT_EQ(stats.applies, 2u);
  EXPECT_EQ(stats.pinned_replicas, 1u);
  // The body and its piece table: built by the first patch, its overwrite
  // bitmap grown by the second.
  poly::PieceTable pieces;
  pieces.build(v1.data(), v1.size());
  pieces.overwrite(0, 6);
  EXPECT_EQ(stats.pinned_bytes, v2.size() + pieces.heap_bytes());
}

TEST(ReplicaStore, EveryValidationFailureNacksAndErases) {
  // Unknown ID.
  {
    ReplicaStore store;
    const std::string frame_wire = make_patch(1, 1, "xx", 0, 1);
    Result<PatchFrame> frame = decode_patch(frame_wire);
    std::string out;
    const Status applied = apply_copy(store, frame.value(), &out);
    EXPECT_FALSE(applied.ok());
    EXPECT_EQ(applied.error().code, ErrorCode::kNotFound);
  }
  // Epoch gap (a lost patch): replica erased, so a later correct-looking
  // frame NACKs too — the sender must re-pin with a full send.
  {
    ReplicaStore store;
    store.pin(1, "hello");
    const std::string gap_wire = make_patch(1, 2, "hellp", 4, 1);
    Result<PatchFrame> gap = decode_patch(gap_wire);
    std::string out;
    EXPECT_FALSE(apply_copy(store, gap.value(), &out).ok());
    const std::string ok_frame_wire = make_patch(1, 1, "hellp", 4, 1);
    Result<PatchFrame> ok_frame = decode_patch(ok_frame_wire);
    const Status after = apply_copy(store, ok_frame.value(), &out);
    EXPECT_FALSE(after.ok());
    EXPECT_EQ(after.error().code, ErrorCode::kNotFound);
    EXPECT_EQ(store.stats().nacks, 2u);
    EXPECT_EQ(store.stats().pinned_replicas, 0u);
  }
  // Body length mismatch.
  {
    ReplicaStore store;
    store.pin(1, "hello");
    const std::string frame_wire = make_patch(1, 1, "hello!", 0, 1);
    Result<PatchFrame> frame = decode_patch(frame_wire);
    std::string out;
    EXPECT_FALSE(apply_copy(store, frame.value(), &out).ok());
  }
  // Run out of bounds.
  {
    ReplicaStore store;
    store.pin(1, "hello");
    PatchHeader header;
    header.template_id = 1;
    header.epoch = 1;
    header.run_count = 1;
    header.body_len = 5;
    header.checksum = poly::hash("hello");
    std::string frame;
    append_patch_header(frame, header);
    append_run_header(frame, 4, 2);  // [4, 6) exceeds the 5-byte replica
    frame += "xy";
    Result<PatchFrame> decoded = decode_patch(frame);
    ASSERT_TRUE(decoded.ok());
    std::string out;
    EXPECT_FALSE(apply_copy(store, decoded.value(), &out).ok());
  }
  // Checksum mismatch.
  {
    ReplicaStore store;
    store.pin(1, "hello");
    std::string frame = make_patch(1, 1, "hellp", 4, 1);
    frame[28] ^= 0x5a;  // corrupt the checksum field
    Result<PatchFrame> decoded = decode_patch(frame);
    ASSERT_TRUE(decoded.ok());
    std::string out;
    EXPECT_FALSE(apply_copy(store, decoded.value(), &out).ok());
    EXPECT_EQ(store.stats().pinned_replicas, 0u);
  }
}

TEST(ReplicaStore, LruEvictionUnderCountBudget) {
  ReplicaStore::Options options;
  options.max_replicas = 2;
  ReplicaStore store(options);
  store.pin(1, "one");
  store.pin(2, "two");
  store.pin(3, "three");  // evicts 1 (least recently used)
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_EQ(store.stats().pinned_replicas, 2u);
  std::string out;
  const std::string frame_wire = make_patch(1, 1, "onx", 2, 1);
  Result<PatchFrame> frame = decode_patch(frame_wire);
  EXPECT_EQ(apply_copy(store, frame.value(), &out).error().code,
            ErrorCode::kNotFound);
}

// --- per-replica locking -----------------------------------------------------

TEST(ReplicaStore, ServeOfOneReplicaBlocksNoOtherReplica) {
  ReplicaStore::Options options;
  options.retain_dictionaries = true;
  ReplicaStore store(options);
  store.pin(1, "hello world");
  store.pin(2, "other body");
  const std::string a_wire = make_patch(1, 1, "hello earth", 6, 5);
  Result<PatchFrame> a = decode_patch(a_wire);
  ASSERT_TRUE(a.ok());

  // Replica 1's serve blocks until released.
  std::atomic<bool> serving{false};
  std::atomic<bool> release{false};
  std::thread serve_a([&] {
    const Status applied = store.apply(
        a.value(),
        [&](std::string_view body, std::shared_ptr<ReplicaAttachment>&) {
          serving = true;
          while (!release) std::this_thread::sleep_for(1ms);
          EXPECT_EQ(body, "hello earth");
        });
    EXPECT_TRUE(applied.ok());
  });
  ASSERT_TRUE(wait_for([&] { return serving.load(); }));

  // Meanwhile every operation on replica 2 (and a new pin) completes.
  std::atomic<bool> other_done{false};
  std::thread other([&] {
    const std::string b_wire = make_patch(2, 1, "other bodY", 9, 1);
    Result<PatchFrame> b = decode_patch(b_wire);
    std::string served;
    EXPECT_TRUE(apply_copy(store, b.value(), &served).ok());
    EXPECT_EQ(served, "other bodY");
    EXPECT_FALSE(store.pin(3, "third"));
    const std::string text = "other body, other body";
    Result<std::string> decoded = store.decode_preset(
        2, compress::zlib_compress(text, "other body"), 1024);
    EXPECT_TRUE(decoded.ok());
    EXPECT_EQ(store.stats().pinned_replicas, 3u);
    other_done = true;
  });
  const bool unblocked = wait_for([&] { return other_done.load(); }, 2000ms);
  release = true;
  serve_a.join();
  other.join();
  EXPECT_TRUE(unblocked) << "a serve on replica 1 stalled replica 2";
}

TEST(ReplicaStore, ServedViewOutlivesEvictionRepinAndClear) {
  enum class Drop { kEvict, kRepin, kInvalidate, kClear };
  for (const Drop drop :
       {Drop::kEvict, Drop::kRepin, Drop::kInvalidate, Drop::kClear}) {
    SCOPED_TRACE(static_cast<int>(drop));
    ReplicaStore::Options options;
    options.max_replicas = 1;
    ReplicaStore store(options);
    const std::string v0(4096, 'a');
    store.pin(1, v0);
    std::string v1 = v0;
    v1.replace(100, 4, "bbbb");
    const std::string wire = make_patch(1, 1, v1, 100, 4);
    Result<PatchFrame> frame = decode_patch(wire);
    ASSERT_TRUE(frame.ok());

    std::atomic<bool> serving{false};
    std::atomic<bool> dropped{false};
    std::string seen;
    std::thread serve([&] {
      const Status applied = store.apply(
          frame.value(),
          [&](std::string_view body, std::shared_ptr<ReplicaAttachment>&) {
            serving = true;
            while (!dropped) std::this_thread::sleep_for(1ms);
            seen.assign(body);  // reads the whole view after the drop
          });
      EXPECT_TRUE(applied.ok());
    });
    ASSERT_TRUE(wait_for([&] { return serving.load(); }));
    switch (drop) {
      case Drop::kEvict:
        store.pin(2, "evicts replica 1");
        break;
      case Drop::kRepin:
        EXPECT_TRUE(store.pin(1, v0));
        break;
      case Drop::kInvalidate:
        EXPECT_TRUE(store.invalidate(1));
        break;
      case Drop::kClear:
        store.clear();
        break;
    }
    dropped = true;
    serve.join();
    EXPECT_EQ(seen, v1);

    // The store no longer holds the served replica: the next patch NACKs.
    std::string v2 = v1;
    v2[0] = 'c';
    const std::string next_wire = make_patch(1, 2, v2, 0, 1);
    Result<PatchFrame> next = decode_patch(next_wire);
    std::string out;
    EXPECT_FALSE(apply_copy(store, next.value(), &out).ok());
    EXPECT_EQ(store.stats().nacks, 1u);
  }
}

/// Fixed-size attachment for budget accounting tests.
class SizedAttachment final : public ReplicaAttachment {
 public:
  explicit SizedAttachment(std::size_t n) : n_(n) {}
  std::size_t bytes() const override { return n_; }

 private:
  std::size_t n_;
};

TEST(ReplicaStore, NacksRacePinsWithoutDeadlockOrLeakedBytes) {
  // 8 threads × 2,000 seeded operations over 6 IDs in a store that holds 4:
  // pins (some filling the new replica's slot), patches that apply or NACK
  // (epoch gap, length or checksum) and sometimes fill the slot, splices,
  // undecodable preset bodies and invalidations all race one another. TSan
  // checks the locking; the byte count must come back to zero once every
  // replica is dropped.
  ReplicaStore::Options options;
  options.max_replicas = 4;
  options.max_bytes = 2048;
  options.retain_dictionaries = true;
  ReplicaStore store(options);
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  constexpr std::uint64_t kIds = 6;
  const auto pinned_body = [](std::uint64_t id) {
    return std::string(64 + 8 * id, static_cast<char>('a' + id));
  };
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> spliced{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bsoap::Rng rng(static_cast<std::uint64_t>(t) * 7919 + 17);
      for (int op = 0; op < kOps; ++op) {
        const std::uint64_t id = rng.next_below(kIds);
        const std::string body = pinned_body(id);
        const auto epoch = static_cast<std::uint32_t>(1 + rng.next_below(3));
        switch (rng.next_below(6)) {
          case 0:
            store.pin(id, body);
            break;
          case 1: {  // rewrites a byte with itself: applies iff the epoch fits
            const std::string wire = make_patch(id, epoch, body, 3, 1);
            Result<PatchFrame> frame = decode_patch(wire);
            const bool fill = rng.next_below(2) == 0;
            (void)store.apply(
                frame.value(), [&](std::string_view view,
                                   std::shared_ptr<ReplicaAttachment>& slot) {
                  EXPECT_EQ(view, body);
                  if (fill) slot = std::make_shared<SizedAttachment>(32);
                  served.fetch_add(1, std::memory_order_relaxed);
                });
            break;
          }
          case 2: {  // grows the body by a byte: later patches NACK on length
            std::string grown = body;
            grown.back() = 'z';
            grown.push_back('z');
            PatchHeader header;
            header.template_id = id;
            header.epoch = epoch;
            header.run_count = 1;
            header.body_len = static_cast<std::uint32_t>(grown.size());
            header.checksum = poly::hash(grown);
            std::string wire;
            append_patch_header(wire, header);
            append_splice_header(wire,
                                 static_cast<std::uint32_t>(body.size() - 1),
                                 2, 1);
            wire += "zz";
            Result<PatchFrame> frame = decode_patch(wire);
            ASSERT_TRUE(frame.ok());
            std::string out;
            if (apply_copy(store, frame.value(), &out).ok()) {
              EXPECT_EQ(out, grown);
              spliced.fetch_add(1, std::memory_order_relaxed);
            }
            break;
          }
          case 3:
            EXPECT_FALSE(store.decode_preset(id, "not zlib", 1024).ok());
            break;
          case 4:
            store.pin(id, body,
                      [](std::string_view,
                         std::shared_ptr<ReplicaAttachment>& slot) {
                        slot = std::make_shared<SizedAttachment>(16);
                      });
            break;
          default:
            if (rng.next_below(4) == 0) {
              (void)store.invalidate(id);
            } else {
              const ReplicaStore::Stats stats = store.stats();
              EXPECT_LE(stats.pinned_replicas, options.max_replicas);
            }
            break;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const ReplicaStore::Stats stats = store.stats();
  EXPECT_GT(stats.nacks, 0u);
  EXPECT_GT(served.load(), 0u);
  EXPECT_EQ(stats.applies, served.load() + spliced.load());
  for (std::uint64_t id = 0; id < kIds; ++id) (void)store.invalidate(id);
  EXPECT_EQ(store.stats().pinned_replicas, 0u);
  EXPECT_EQ(store.stats().pinned_bytes, 0u);
}

TEST(ReplicaStore, PinnedBytesCountBodyDictionaryPiecesAndSlotExactly) {
  // The byte gauge is exactly what each replica holds: its body, its
  // dictionary, its piece table (built by the first patch, resized by a
  // splice) and whatever its slot holds.
  ReplicaStore::Options options;
  options.retain_dictionaries = true;
  ReplicaStore store(options);
  constexpr std::size_t kDict = 32 * 1024;
  const auto fill_slot = [](std::size_t n) {
    return [n](std::string_view, std::shared_ptr<ReplicaAttachment>& slot) {
      slot = std::make_shared<SizedAttachment>(n);
    };
  };
  std::string body(40000, 'a');
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<char>('a' + i * 7 % 26);
  }
  store.pin(1, body, fill_slot(100));
  EXPECT_EQ(store.stats().pinned_bytes, body.size() + kDict + 100);

  // First patch: an overwrite, served with the slot left as it is.
  body.replace(5000, 3, "xyz");
  const std::string first_wire = make_patch(1, 1, body, 5000, 3);
  Result<PatchFrame> first = decode_patch(first_wire);
  ASSERT_TRUE(first.ok());
  std::string served;
  ASSERT_TRUE(apply_copy(store, first.value(), &served).ok());
  poly::PieceTable pieces;  // mirrors the replica's table
  pieces.build(body.data(), body.size());
  EXPECT_EQ(store.stats().pinned_bytes,
            body.size() + kDict + pieces.heap_bytes() + 100);

  // A splice grows the body by 6 bytes; its serve swaps the slot.
  const std::string before = body;
  body.replace(20000, 4, "0123456789");
  PatchHeader header;
  header.template_id = 1;
  header.epoch = 2;
  header.run_count = 1;
  header.body_len = static_cast<std::uint32_t>(body.size());
  header.checksum = poly::hash(body);
  std::string splice_wire;
  append_patch_header(splice_wire, header);
  append_splice_header(splice_wire, 20000, 10, 4);
  splice_wire += "0123456789";
  Result<PatchFrame> splice = decode_patch(splice_wire);
  ASSERT_TRUE(splice.ok());
  ASSERT_TRUE(store.apply(splice.value(), fill_slot(250)).ok());
  pieces.splice(20000, 4, 10);
  pieces.refresh(body.data());
  EXPECT_EQ(store.stats().pinned_bytes,
            body.size() + kDict + pieces.heap_bytes() + 250);

  // A second replica; a NACK then drops the first with everything it held.
  store.pin(2, "second", fill_slot(7));
  EXPECT_EQ(store.stats().pinned_bytes, body.size() + kDict +
                                            pieces.heap_bytes() + 250 +
                                            2 * 6 + 7);
  const std::string gap_wire = make_patch(1, 9, body, 0, 1);  // epoch gap
  Result<PatchFrame> gap = decode_patch(gap_wire);
  ASSERT_TRUE(gap.ok());
  EXPECT_FALSE(apply_copy(store, gap.value(), &served).ok());
  EXPECT_EQ(store.stats().pinned_bytes, 2 * 6 + 7u);

  store.clear();
  EXPECT_EQ(store.stats().pinned_bytes, 0u);
}

std::string serialize_call(const RpcCall& call) {
  buffer::StringSink sink;
  soap::write_rpc_envelope(sink, call);
  return sink.take();
}

/// Lexical spans of a double array body's values.
std::vector<soap::LeafSpan> value_spans(std::string_view body) {
  soap::LeafSpans leaves;
  EXPECT_TRUE(soap::read_rpc_envelope(body, &leaves).ok());
  return leaves.spans;
}

TEST(ReplicaStore, ConcurrentOffersAndPatchesOfOneIdServeExactParses) {
  // Four threads offer and patch one wire ID, each against the latest body
  // it knows (or, now and then, the one before), so patches race re-offers
  // and each other: some NACK, the rest apply. Each is
  // served the way the server serves it — the cached parse in the
  // replica's slot, under the replica's lock — and every served call must
  // equal a full parse of the body it was served with.
  ReplicaStore store;
  constexpr std::uint64_t kId = 5;
  constexpr int kThreads = 4;
  constexpr int kOps = 300;
  struct Known {
    std::mutex mu;
    std::string body;
    std::uint32_t epoch = 0;
  } known;
  std::atomic<std::uint64_t> served{0}, fast{0}, wrong{0};
  // Serves into the slot; the lease outlives the replica lock, as the
  // server's does across its handler.
  const auto serve_checked = [&](std::string_view body,
                                 std::shared_ptr<ReplicaAttachment>& slot,
                                 std::span<const PatchRun> runs) {
    core::ParsedReplica::ServeReport report;
    Result<core::ParsedReplica::Lease> lease = core::ParsedReplica::serve(
        core::ParsedReplica::in(slot), body, runs, &report);
    Result<RpcCall> full = soap::read_rpc_envelope(body);
    if (!lease.ok() || !full.ok() ||
        !testing::bit_equal(lease.value().call(), full.value())) {
      wrong.fetch_add(1, std::memory_order_relaxed);
    }
    served.fetch_add(1, std::memory_order_relaxed);
    if (report.path == core::DiffDeserializer::ApplyPath::kFastParse) {
      fast.fetch_add(1, std::memory_order_relaxed);
    }
    return lease;
  };
  const auto offer = [&](bsoap::Rng& rng) {
    std::vector<double> values(24);
    for (double& v : values) {
      v = soap::double_with_serialized_length(
          rng, 1 + static_cast<int>(rng.next_below(20)));
    }
    std::string body = serialize_call(soap::make_double_array_call(values));
    std::lock_guard<std::mutex> lock(known.mu);
    known.body = body;
    known.epoch = 0;
    store.pin(kId, std::move(body),
              [&](std::string_view pinned,
                  std::shared_ptr<ReplicaAttachment>& slot) {
                (void)serve_checked(pinned, slot, {});
              });
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      bsoap::Rng rng(static_cast<std::uint64_t>(t) * 104729 + 3);
      std::string stale_body;  // the body this thread patched last
      std::uint32_t stale_epoch = 0;
      for (int op = 0; op < kOps; ++op) {
        if (rng.chance(1, 8)) {
          offer(rng);
          continue;
        }
        std::string old_body;
        std::uint32_t epoch = 0;
        if (!stale_body.empty() && rng.chance(1, 8)) {
          old_body = stale_body;
          epoch = stale_epoch;
        } else {
          std::lock_guard<std::mutex> lock(known.mu);
          old_body = known.body;
          epoch = known.epoch;
        }
        if (old_body.empty()) {
          offer(rng);
          continue;
        }
        // One value rewritten: a digit in place, or a new lexical of
        // another width (a splice).
        const std::vector<soap::LeafSpan> spans = value_spans(old_body);
        const soap::LeafSpan span = spans[rng.next_below(spans.size())];
        const std::size_t old_len = span.end - span.begin;
        std::string text;
        if (rng.chance(1, 2)) {
          text = std::to_string(rng.next_below(10));
          text.resize(old_len, '7');
        } else {
          text = std::to_string(rng.next_below(100000));
        }
        std::string body = old_body;
        body.replace(span.begin, old_len, text);
        PatchHeader header;
        header.template_id = kId;
        header.epoch = epoch + 1;
        header.run_count = 1;
        header.body_len = static_cast<std::uint32_t>(body.size());
        header.checksum = poly::hash(body);
        std::string wire;
        append_patch_header(wire, header);
        const auto offset = static_cast<std::uint32_t>(span.begin);
        const auto length = static_cast<std::uint32_t>(text.size());
        if (text.size() == old_len) {
          append_run_header(wire, offset, length);
        } else {
          append_splice_header(wire, offset, length,
                               static_cast<std::uint32_t>(old_len));
        }
        wire += text;
        Result<PatchFrame> frame = decode_patch(wire);
        ASSERT_TRUE(frame.ok());
        Result<core::ParsedReplica::Lease> lease =
            Error{ErrorCode::kInternal, "not served"};
        const Status applied = store.apply(
            frame.value(), [&](std::string_view view,
                               std::shared_ptr<ReplicaAttachment>& slot) {
              lease = serve_checked(view, slot, frame.value().runs);
            });
        stale_body = old_body;
        stale_epoch = epoch;
        if (applied.ok()) {
          std::lock_guard<std::mutex> lock(known.mu);
          if (known.body == old_body && known.epoch == epoch) {
            known.body = std::move(body);
            known.epoch = epoch + 1;
          }
        } else if (rng.chance(1, 2)) {
          offer(rng);  // the sender's fallback after a NACK
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(served.load(), std::uint64_t{kThreads * kOps / 4});
  EXPECT_GT(fast.load(), 0u);
  EXPECT_GT(store.stats().nacks, 0u);
}

// --- pipeline patch sends reconstruct byte-for-byte ------------------------

TEST(DiffWirePipeline, PatchSendsReconstructByteIdentical) {
  core::SendPipeline::Options options;
  options.tmpl = stuffed_config();
  core::SendPipeline pipeline(options);
  core::UpdateJournal journal;
  pipeline.set_journal(&journal);
  ClientSession session(/*token=*/7);
  pipeline.set_diffwire(&session);

  // A reference pipeline without diff-wire produces the logical body the
  // receiver must observe at every step.
  core::SendPipeline reference(options);

  std::vector<double> values = soap::doubles_with_serialized_length(64, 17, 1);
  const RpcCall call1 = soap::make_double_array_call(values);
  const std::uint64_t wire_id = session.wire_id(call1.structure_signature());

  // First send: full body + offer headers.
  auto [full_wire, full_report] = capture_send(pipeline, call1);
  EXPECT_FALSE(full_report.patch_send);
  http::HttpRequest full_request = parse_bytewise(full_wire);
  ASSERT_NE(full_request.find(kDiffHeader), nullptr);
  EXPECT_EQ(full_request.find(kDiffHeader)->value, kOfferValue);
  std::uint64_t offered_id = 0;
  ASSERT_NE(full_request.find(kTemplateHeader), nullptr);
  ASSERT_TRUE(
      parse_template_id(full_request.find(kTemplateHeader)->value, &offered_id));
  EXPECT_EQ(offered_id, wire_id);
  auto [ref_wire1, ref_report1] = capture_send(reference, call1);
  EXPECT_EQ(full_request.body, parse_bytewise(ref_wire1).body);
  EXPECT_EQ(full_report.body_bytes_logical, full_request.body.size());

  // Receiver pins; sender learns of the ack.
  ReplicaStore store;
  store.pin(wire_id, full_request.body);
  session.note_ack(wire_id);

  // Changed values: a perfect structural match goes out as a patch frame.
  bsoap::Rng rng(99);
  values[3] = soap::double_with_serialized_length(rng, 17);
  values[4] = soap::double_with_serialized_length(rng, 9);
  values[60] = soap::double_with_serialized_length(rng, 23);
  const RpcCall call2 = soap::make_double_array_call(values);
  auto [patch_wire, patch_report] = capture_send(pipeline, call2);
  EXPECT_TRUE(patch_report.patch_send);
  EXPECT_FALSE(patch_report.patch_replay);
  EXPECT_EQ(patch_report.match, core::MatchKind::kPerfectStructural);
  EXPECT_GE(patch_report.patch_runs, 1u);

  http::HttpRequest patch_request = parse_bytewise(patch_wire);
  ASSERT_NE(patch_request.find("Content-Type"), nullptr);
  EXPECT_EQ(patch_request.find("Content-Type")->value, kPatchContentType);
  Result<PatchFrame> frame = decode_patch(patch_request.body);
  ASSERT_TRUE(frame.ok()) << frame.error().to_string();
  EXPECT_EQ(frame.value().header.epoch, 1u);

  std::string reconstructed;
  ASSERT_TRUE(apply_copy(store, frame.value(), &reconstructed).ok());
  auto [ref_wire2, ref_report2] = capture_send(reference, call2);
  const std::string expected = parse_bytewise(ref_wire2).body;
  EXPECT_EQ(reconstructed, expected);  // byte-for-byte
  EXPECT_EQ(patch_report.body_bytes_logical, expected.size());
  // The patch frame is far smaller than the envelope it replaces.
  EXPECT_LT(patch_report.envelope_bytes, expected.size() / 2);
  EXPECT_LT(patch_report.wire_bytes, full_report.wire_bytes / 2);

  // Unchanged resend: a content match degenerates to a header-only replay.
  auto [replay_wire, replay_report] = capture_send(pipeline, call2);
  EXPECT_TRUE(replay_report.patch_send);
  EXPECT_TRUE(replay_report.patch_replay);
  EXPECT_EQ(replay_report.patch_runs, 0u);
  Result<PatchFrame> replay = decode_patch(parse_bytewise(replay_wire).body);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.value().header.replay());
  EXPECT_EQ(replay.value().header.epoch, 2u);
  ASSERT_TRUE(apply_copy(store, replay.value(), &reconstructed).ok());
  EXPECT_EQ(reconstructed, expected);

  const ClientDiffStats& stats = session.stats();
  EXPECT_EQ(stats.offers_sent, 1u);
  EXPECT_EQ(stats.acks, 1u);
  EXPECT_EQ(stats.patch_sends, 2u);
  EXPECT_EQ(stats.patch_replays, 1u);
  EXPECT_GT(stats.bytes_saved, 0u);
}

/// Records each write call: how many slices it gathered and their bytes.
class WriteRecorder final : public net::Transport {
 public:
  using net::Transport::send;
  Status send(const char* data, std::size_t n) override {
    writes.push_back({1, std::string(data, n)});
    return Status{};
  }
  Status send_slices(std::span<const net::ConstSlice> slices) override {
    Write write{slices.size(), {}};
    for (const net::ConstSlice& slice : slices) {
      write.bytes.append(slice.data, slice.len);
    }
    writes.push_back(std::move(write));
    return Status{};
  }
  Result<std::size_t> recv(char*, std::size_t) override {
    return Error{ErrorCode::kUnsupported, "write-only"};
  }
  void shutdown_send() override {}

  struct Write {
    std::size_t slices = 0;
    std::string bytes;
  };
  std::vector<Write> writes;
};

TEST(DiffWirePipeline, PatchFrameLeavesInOneWriteUnderEitherFraming) {
  // 100 separated dirty values make a 100-run frame. Under Content-Length
  // framing it goes out as one write of two slices, head and frame; under
  // chunked framing the same frame travels as one chunk.
  std::string frames[2];
  for (const http::Framing framing :
       {http::Framing::kContentLength, http::Framing::kChunked}) {
    core::SendPipeline::Options options;
    options.tmpl = stuffed_config();
    options.framing = framing;
    core::SendPipeline pipeline(options);
    core::UpdateJournal journal;
    pipeline.set_journal(&journal);
    ClientSession session(/*token=*/5);
    pipeline.set_diffwire(&session);

    std::vector<double> values =
        soap::doubles_with_serialized_length(1000, 17, 4);
    const RpcCall call1 = soap::make_double_array_call(values);
    capture_send(pipeline, call1);
    session.note_ack(session.wire_id(call1.structure_signature()));

    bsoap::Rng rng(12);
    for (std::size_t i = 0; i < values.size(); i += 10) {
      values[i] = soap::double_with_serialized_length(rng, 17);
    }
    WriteRecorder recorder;
    core::SendDestination dest;
    dest.transport = &recorder;
    Result<core::SendReport> report =
        pipeline.send(soap::make_double_array_call(values), dest);
    ASSERT_TRUE(report.ok()) << report.error().to_string();
    EXPECT_TRUE(report.value().patch_send);
    EXPECT_EQ(report.value().patch_runs, 100u);
    ASSERT_EQ(recorder.writes.size(), 1u);
    const http::HttpRequest request =
        parse_bytewise(recorder.writes[0].bytes);
    if (framing == http::Framing::kContentLength) {
      EXPECT_EQ(recorder.writes[0].slices, 2u);
    }
    Result<PatchFrame> frame = decode_patch(request.body);
    ASSERT_TRUE(frame.ok()) << frame.error().to_string();
    EXPECT_EQ(frame.value().runs.size(), 100u);
    frames[framing == http::Framing::kChunked] = request.body;
  }
  EXPECT_EQ(frames[0], frames[1]);
}

/// The template's current body.
std::string template_body(core::SendPipeline& pipeline, const RpcCall& call) {
  core::MessageTemplate* tmpl =
      pipeline.store().find(call.structure_signature());
  return tmpl == nullptr ? std::string{} : tmpl->buffer().linearize();
}

TEST(DiffWirePipeline, PartialStructuralUpdateTravelsAsSplicePatch) {
  core::SendPipeline::Options options;  // exact stuffing: growth must shift
  core::SendPipeline pipeline(options);
  core::UpdateJournal journal;
  pipeline.set_journal(&journal);
  ClientSession session(/*token=*/11);
  pipeline.set_diffwire(&session);

  std::vector<double> values{1.0, 2.0, 3.0};
  auto [wire1, report1] = capture_send(
      pipeline, soap::make_double_array_call(values));
  const std::uint64_t wire_id = session.wire_id(
      soap::make_double_array_call(values).structure_signature());
  ReplicaStore store;
  store.pin(wire_id, parse_bytewise(wire1).body);
  session.note_ack(wire_id);

  // A longer value outgrows its exact-width field: a partial structural
  // match, which travels as a splice run instead of a re-offer.
  values[1] = 2.000000000000004;
  const RpcCall call2 = soap::make_double_array_call(values);
  auto [wire2, report2] = capture_send(pipeline, call2);
  EXPECT_EQ(report2.match, core::MatchKind::kPartialStructural);
  EXPECT_TRUE(report2.patch_send);
  http::HttpRequest request = parse_bytewise(wire2);
  ASSERT_NE(request.find(kDiffHeader), nullptr);
  EXPECT_EQ(request.find(kDiffHeader)->value, kPatchValue);
  EXPECT_EQ(request.find("Content-Encoding"), nullptr);
  Result<PatchFrame> frame = decode_patch(request.body);
  ASSERT_TRUE(frame.ok()) << frame.error().to_string();
  ASSERT_EQ(frame.value().runs.size(), 1u);
  EXPECT_TRUE(frame.value().runs[0].splice);
  EXPECT_GT(frame.value().runs[0].length, frame.value().runs[0].old_length());

  std::string reconstructed;
  const Status applied = apply_copy(store, frame.value(), &reconstructed);
  ASSERT_TRUE(applied.ok()) << applied.error().to_string();
  EXPECT_EQ(reconstructed, template_body(pipeline, call2));
  Result<RpcCall> parsed = soap::read_rpc_envelope(reconstructed);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().params[0].value.doubles(), values);
  EXPECT_EQ(session.stats().offers_sent, 1u);
  EXPECT_EQ(session.stats().patch_sends, 1u);
}

TEST(DiffWirePipeline, PartialStructuralUpdateWithoutJournalReoffers) {
  // Without an armed journal nothing records the shifts, so a partial
  // structural match cannot be described as runs: it re-offers.
  core::SendPipeline::Options options;
  core::SendPipeline pipeline(options);
  ClientSession session(/*token=*/12);
  pipeline.set_diffwire(&session);

  std::vector<double> values{1.0, 2.0, 3.0};
  capture_send(pipeline, soap::make_double_array_call(values));
  session.note_ack(session.wire_id(
      soap::make_double_array_call(values).structure_signature()));
  values[1] = 2.000000000000004;
  auto [wire2, report2] = capture_send(
      pipeline, soap::make_double_array_call(values));
  EXPECT_EQ(report2.match, core::MatchKind::kPartialStructural);
  EXPECT_FALSE(report2.patch_send);
  http::HttpRequest request = parse_bytewise(wire2);
  ASSERT_NE(request.find(kDiffHeader), nullptr);
  EXPECT_EQ(request.find(kDiffHeader)->value, kOfferValue);
  EXPECT_EQ(session.stats().offers_sent, 2u);
}

// --- end-to-end ------------------------------------------------------------

BsoapClientConfig diff_client_config() {
  BsoapClientConfig cfg;
  cfg.tmpl = stuffed_config();
  cfg.diffwire = true;
  return cfg;
}

net::Dialer tcp_dialer(std::uint16_t port) {
  return [port] { return net::tcp_connect(port); };
}

/// Drives `iters` invokes with a few values mutated per step; every result
/// must match the locally computed sum (proving the server reconstructed
/// the envelope the client meant to send).
void drive_mutating_invokes(BsoapClient& client, int iters,
                            std::uint64_t seed) {
  std::vector<double> values = soap::doubles_with_serialized_length(64, 17, seed);
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

TEST(DiffWireEndToEnd, BlockingEnginePinsPatchesAndReplays) {
  server::ServerRuntimeOptions options;
  options.workers = 1;
  Result<std::unique_ptr<server::ServerRuntime>> server =
      server::ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  BsoapClient client(tcp_dialer(server.value()->port()),
                     diff_client_config());
  drive_mutating_invokes(client, 10, 5);

  // Invoke 1 pinned (full + offer + ack), 2..10 were patch frames.
  const ClientDiffStats* cs = client.diffwire_stats();
  ASSERT_NE(cs, nullptr);
  EXPECT_EQ(cs->offers_sent, 1u);
  EXPECT_EQ(cs->acks, 1u);
  EXPECT_EQ(cs->patch_sends, 9u);
  EXPECT_EQ(cs->patch_nacks, 0u);
  EXPECT_GT(cs->bytes_saved, 0u);

  // A different array length is a new shape: its first invoke pins a
  // second replica, and the unchanged resend crosses as a header-only
  // replay frame.
  std::vector<double> fixed{1.0, 2.0, 4.0};
  const RpcCall repeat = soap::make_double_array_call(fixed);
  ASSERT_TRUE(client.invoke(repeat).ok());  // full + offer (new shape)
  ASSERT_TRUE(client.invoke(repeat).ok());  // content match -> replay
  EXPECT_GT(client.diffwire_stats()->patch_replays, 0u);

  ASSERT_TRUE(wait_for([&] {
    return server.value()->stats().patch_sends >= 10u;
  }));
  const server::ServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.patch_nacks, 0u);
  EXPECT_EQ(stats.fallback_full_sends, 0u);
  EXPECT_GT(stats.patch_replays, 0u);
  EXPECT_GT(stats.bytes_saved, 0u);
  EXPECT_EQ(stats.diff_pinned_replicas, 2u);
  EXPECT_GT(stats.diff_pinned_bytes, 0u);
  EXPECT_EQ(stats.requests, 12u);
  EXPECT_EQ(stats.faults, 0u);
  server.value()->stop();
}

TEST(DiffWireEndToEnd, NackRecoveryFallsBackToFullSendAndRepins) {
  server::ServerRuntimeOptions options;
  options.workers = 1;
  Result<std::unique_ptr<server::ServerRuntime>> server =
      server::ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  BsoapClient client(tcp_dialer(server.value()->port()),
                     diff_client_config());
  drive_mutating_invokes(client, 5, 21);
  EXPECT_EQ(client.diffwire_stats()->patch_sends, 4u);

  // Simulate replica loss (restart/eviction): the next patch NACKs, the
  // client falls back to a full send within the same invoke, and re-pins.
  server.value()->replicas()->clear();
  drive_mutating_invokes(client, 3, 22);

  const ClientDiffStats* cs = client.diffwire_stats();
  EXPECT_EQ(cs->patch_nacks, 1u);
  EXPECT_EQ(cs->fallback_full_sends, 1u);
  EXPECT_EQ(cs->offers_sent, 2u);
  EXPECT_EQ(cs->acks, 2u);
  // 4 before the nack, the nacked frame itself (counted at send time),
  // and 2 after the re-pin.
  EXPECT_EQ(cs->patch_sends, 7u);

  ASSERT_TRUE(wait_for(
      [&] { return server.value()->stats().patch_nacks == 1u; }));
  const server::ServerStats stats = server.value()->stats();
  // clear() erased the replica, so the post-NACK full send is a fresh pin,
  // not a re-pin — fallback_full_sends counts offers that *replace* a
  // live replica (structural fallbacks), which never happened here.
  EXPECT_EQ(stats.fallback_full_sends, 0u);
  EXPECT_EQ(stats.faults, 0u);
  server.value()->stop();
}

TEST(DiffWireEndToEnd, ReactorEngineSpeaksTheSameProtocol) {
  server::ServerRuntimeOptions options;
  options.workers = 2;
  options.io_model = server::IoModel::kReactor;
  Result<std::unique_ptr<server::ServerRuntime>> server =
      server::ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  BsoapClient client(tcp_dialer(server.value()->port()),
                     diff_client_config());
  drive_mutating_invokes(client, 10, 31);
  EXPECT_EQ(client.diffwire_stats()->patch_sends, 9u);
  EXPECT_EQ(client.diffwire_stats()->patch_nacks, 0u);

  // NACK recovery works identically on the reactor engine.
  server.value()->replicas()->clear();
  drive_mutating_invokes(client, 3, 32);
  EXPECT_EQ(client.diffwire_stats()->patch_nacks, 1u);
  EXPECT_EQ(client.diffwire_stats()->acks, 2u);

  ASSERT_TRUE(wait_for(
      [&] { return server.value()->stats().patch_sends >= 11u; }));
  EXPECT_EQ(server.value()->stats().faults, 0u);
  server.value()->stop();
}

class MalformedPatchFrame : public ::testing::TestWithParam<server::IoModel> {
};

TEST_P(MalformedPatchFrame, NacksAndServerKeepsServing) {
  server::ServerRuntimeOptions options;
  options.workers = 2;
  options.io_model = GetParam();
  Result<std::unique_ptr<server::ServerRuntime>> server =
      server::ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  {
    // A 36-byte patch frame whose run count claims 2^32 - 1 runs.
    Result<std::unique_ptr<net::Transport>> transport =
        net::tcp_connect(server.value()->port());
    ASSERT_TRUE(transport.ok());
    http::HttpRequest request;
    request.headers.push_back(http::Header{"Content-Type", kPatchContentType});
    const std::string body = header_only_frame(0xFFFFFFFFu);
    const net::ConstSlice slice{body.data(), body.size()};
    http::HttpConnection conn(*transport.value());
    ASSERT_TRUE(conn.send_request(std::move(request), {&slice, 1}).ok());
    Result<http::HttpResponse> response = conn.read_response();
    ASSERT_TRUE(response.ok()) << response.error().to_string();
    EXPECT_EQ(response.value().status, kNackStatus);
  }

  // The next plain request, on a new connection, is answered.
  Result<std::unique_ptr<net::Transport>> transport =
      net::tcp_connect(server.value()->port());
  ASSERT_TRUE(transport.ok());
  BsoapClient client(*transport.value());
  const std::vector<double> values{1.0, 2.0, 4.0};
  Result<Value> result = client.invoke(soap::make_double_array_call(values));
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.value().as_double(), 7.0);

  ASSERT_TRUE(
      wait_for([&] { return server.value()->stats().requests == 1u; }));
  EXPECT_EQ(server.value()->stats().patch_nacks, 1u);
  server.value()->stop();
}

INSTANTIATE_TEST_SUITE_P(BothEngines, MalformedPatchFrame,
                         ::testing::Values(server::IoModel::kBlocking,
                                           server::IoModel::kReactor));

class UnjournaledWrite : public ::testing::TestWithParam<server::IoModel> {};

TEST_P(UnjournaledWrite, NacksThenSelfHealsWithinTheInvoke) {
  // The checksum is the template buffer's own integrity root, not something
  // derived from the update journal. A byte written behind the journal's
  // back is then missing from the patch runs but present in the root: the
  // receiver's reconstruction disagrees, the patch NACKs, and the client's
  // full re-offer carries the written byte — a stale value is never served.
  std::mutex mu;
  std::vector<double> seen;
  const soap::RpcHandler recording = [&](const RpcCall& call) {
    {
      std::lock_guard<std::mutex> lock(mu);
      seen = call.params[0].value.doubles();
    }
    return sum_handler(call);
  };
  server::ServerRuntimeOptions options;
  options.workers = 2;
  options.io_model = GetParam();
  Result<std::unique_ptr<server::ServerRuntime>> server =
      server::ServerRuntime::start(recording, options);
  ASSERT_TRUE(server.ok());

  BsoapClient client(tcp_dialer(server.value()->port()),
                     diff_client_config());
  std::vector<double> values = soap::doubles_with_serialized_length(64, 17, 41);
  bsoap::Rng rng(42);
  for (int i = 0; i < 4; ++i) {  // pin, then three patches
    values[static_cast<std::size_t>(i)] =
        soap::double_with_serialized_length(rng, 17);
    ASSERT_TRUE(client.invoke(soap::make_double_array_call(values)).ok());
  }
  ASSERT_EQ(client.diffwire_stats()->patch_sends, 3u);

  // Bump one digit of element 40's value text in the template, without a
  // journal record (the shadow copy still holds the old value, so the next
  // update leaves the byte alone).
  const RpcCall shape = soap::make_double_array_call(values);
  core::MessageTemplate* tmpl =
      client.store().find(shape.structure_signature());
  ASSERT_NE(tmpl, nullptr);
  const core::DutEntry& entry = tmpl->dut()[40];
  std::string text(entry.serialized_len, '\0');
  tmpl->buffer().read_at(entry.pos, text.data(), text.size());
  const std::size_t digit = text.find_first_of("0123456789");
  ASSERT_NE(digit, std::string::npos);
  text[digit] = text[digit] == '9' ? '1' : static_cast<char>(text[digit] + 1);
  tmpl->buffer().write_at(
      buffer::BufPos{entry.pos.chunk,
                     static_cast<std::uint32_t>(entry.pos.offset + digit)},
      &text[digit], 1);
  const double written = std::strtod(text.c_str(), nullptr);
  ASSERT_NE(written, values[40]);

  // The next invoke: 409 NACK, full re-offer inside the same invoke, and
  // the handler sees the written byte.
  values[5] = soap::double_with_serialized_length(rng, 17);
  ASSERT_TRUE(client.invoke(soap::make_double_array_call(values)).ok());
  const ClientDiffStats* cs = client.diffwire_stats();
  EXPECT_EQ(cs->patch_nacks, 1u);
  EXPECT_EQ(cs->fallback_full_sends, 1u);
  EXPECT_EQ(cs->offers_sent, 2u);
  {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_EQ(seen.size(), values.size());
    EXPECT_EQ(seen[40], written);
    EXPECT_EQ(seen[5], values[5]);
  }

  // The following patch applies against the re-pinned replica.
  values[6] = soap::double_with_serialized_length(rng, 17);
  ASSERT_TRUE(client.invoke(soap::make_double_array_call(values)).ok());
  EXPECT_EQ(cs->patch_nacks, 1u);
  EXPECT_EQ(cs->patch_sends, 5u);  // 3 + the NACKed frame + this one
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(seen[40], written);
    EXPECT_EQ(seen[6], values[6]);
  }
  ASSERT_TRUE(wait_for(
      [&] { return server.value()->stats().patch_sends >= 4u; }));
  EXPECT_EQ(server.value()->stats().patch_nacks, 1u);
  EXPECT_EQ(server.value()->stats().faults, 0u);
  server.value()->stop();
}

INSTANTIATE_TEST_SUITE_P(BothEngines, UnjournaledWrite,
                         ::testing::Values(server::IoModel::kBlocking,
                                           server::IoModel::kReactor));

TEST(DiffWireEndToEnd, InjectedWriteFaultsNeverFailARequest) {
  server::ServerRuntimeOptions options;
  options.workers = 2;
  Result<std::unique_ptr<server::ServerRuntime>> server =
      server::ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  // Every dialed connection injects probabilistic short writes (each dial
  // gets a distinct seed so retries do not replay the same fault). A patch
  // that dies mid-write is rolled back and retried; if the server applied
  // it anyway, the epoch gap NACKs the retry and the invoke falls back to a
  // full send — either way the request must succeed.
  const std::uint16_t port = server.value()->port();
  auto dial_count = std::make_shared<std::atomic<std::uint64_t>>(0);
  net::Dialer dial = [port, dial_count]()
      -> Result<std::unique_ptr<net::Transport>> {
    Result<std::unique_ptr<net::Transport>> conn = net::tcp_connect(port);
    if (!conn.ok()) return conn.error();
    net::FaultPlan plan;
    plan.write_failure_rate = 0.15;
    plan.seed = 1000 + dial_count->fetch_add(1);
    return std::unique_ptr<net::Transport>(
        std::make_unique<net::FaultInjectingTransport>(
            std::move(conn.value()), plan));
  };
  BsoapClient client(dial, diff_client_config());
  drive_mutating_invokes(client, 60, 41);  // asserts every invoke succeeds

  const ClientDiffStats* cs = client.diffwire_stats();
  EXPECT_GT(cs->patch_sends, 0u);
  EXPECT_EQ(server.value()->stats().faults, 0u);
  server.value()->stop();
}

TEST(DiffWireEndToEnd, EightWorkerStress) {
  server::ServerRuntimeOptions options;
  options.workers = 8;
  Result<std::unique_ptr<server::ServerRuntime>> server =
      server::ServerRuntime::start(sum_handler, options);
  ASSERT_TRUE(server.ok());

  // Eight clients patching concurrently: distinct session tokens mean
  // distinct wire IDs, so the same call shape pins eight separate replicas
  // instead of clobbering one.
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 40;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      BsoapClient client(tcp_dialer(server.value()->port()),
                         diff_client_config());
      std::vector<double> values = soap::doubles_with_serialized_length(
          32, 17, 100 + static_cast<std::uint64_t>(t));
      bsoap::Rng rng(200 + static_cast<std::uint64_t>(t));
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
      if (client.diffwire_stats()->patch_sends == 0) failures.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  const server::ServerStats stats = server.value()->stats();
  EXPECT_EQ(stats.diff_pinned_replicas, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.patch_nacks, 0u);
  EXPECT_EQ(stats.faults, 0u);
  server.value()->stop();
}

// --- seeded splice model ---------------------------------------------------

/// A value of `width` characters (1..24), or one of the special values.
double model_value(bsoap::Rng& rng) {
  switch (rng.next_below(12)) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return -0.0;
    case 2: return std::numeric_limits<double>::infinity();
    case 3: return -std::numeric_limits<double>::infinity();
    default:
      return soap::double_with_serialized_length(
          rng, 1 + static_cast<int>(rng.next_below(24)));
  }
}

/// Parses a request written in one piece.
http::HttpRequest parse_request(const std::string& wire) {
  http::RequestParser parser;
  const Status fed = parser.feed(wire.data(), wire.size());
  EXPECT_TRUE(fed.ok()) << fed.error().to_string();
  EXPECT_TRUE(parser.done());
  return parser.take();
}

TEST(DiffWireSpliceModel, SeededUpdateSequencesKeepReplicaParseAndRootsExact) {
  // A client template driven through seeded update sequences (widen,
  // narrow, steal, chunk slack, realloc and split; widths 1–24, NaN, -0.0,
  // ±inf), every send applied to a ReplicaStore and a ParsedReplica the
  // way the server does. After every step:
  //   1. the replica bytes equal the client template bytes;
  //   2. the client's root and the replica's (which the frame's checksum
  //      had to match) equal poly::hash of the body from scratch;
  //   3. the served call equals read_rpc_envelope of the replica, and its
  //      values are the sent ones, bit for bit;
  //   4. every applied patch is exactly one of content hit, fast parse or
  //      full parse, with no demotions and no NACKs.
  std::size_t splice_frames = 0;
  core::TemplateStats shapes;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    bsoap::Rng rng(seed * 7919);
    core::SendPipeline::Options options;  // exact stuffing: growth shifts
    if (seed % 2 == 0) {
      // Small chunks: expansions use slack and either reallocate (a high
      // split threshold) or split (one below the chunk size).
      options.tmpl.chunk.chunk_size = 256;
      options.tmpl.chunk.split_threshold = seed % 4 == 0 ? 200 : 4096;
      options.tmpl.chunk.tail_reserve = 16;
    }
    options.tmpl.enable_stealing = seed % 3 != 0;
    options.tmpl.bulk.parallel_min_leaves = SIZE_MAX;
    core::SendPipeline pipeline(options);
    core::UpdateJournal journal;
    pipeline.set_journal(&journal);
    ClientSession session(/*token=*/seed);
    pipeline.set_diffwire(&session);
    ReplicaStore store;

    const bool mio = seed % 4 == 1;
    std::vector<double> values(20 + rng.next_below(120));
    for (double& v : values) v = model_value(rng);
    std::vector<soap::Mio> mios =
        soap::random_mios(values.size() / 3 + 1, seed);
    std::size_t counted[3] = {0, 0, 0};
    std::size_t patches = 0;
    std::size_t offers = 0;

    for (int step = 0; step < 40; ++step) {
      const std::size_t changes = rng.next_below(6);
      for (std::size_t k = 0; k < changes; ++k) {
        if (mio) {
          soap::Mio& m = mios[rng.next_below(mios.size())];
          switch (rng.next_below(3)) {
            case 0: m.x = static_cast<std::int32_t>(rng.next_u64()) >>
                          rng.next_below(31); break;
            case 1: m.y = static_cast<std::int32_t>(rng.next_below(10)); break;
            default: m.value = model_value(rng); break;
          }
        } else {
          values[rng.next_below(values.size())] = model_value(rng);
        }
      }
      const RpcCall call = mio ? soap::make_mio_array_call(mios)
                               : soap::make_double_array_call(values);
      if (rng.chance(1, 25)) {
        if (const core::MessageTemplate* dropped =
                pipeline.store().find(call.structure_signature())) {
          shapes.add(dropped->stats());
        }
        pipeline.store().erase(call.structure_signature());
      }
      auto [wire, report] = capture_send(pipeline, call);
      core::MessageTemplate* tmpl =
          pipeline.store().find(call.structure_signature());
      ASSERT_NE(tmpl, nullptr);
      const std::string body = tmpl->buffer().linearize();
      ASSERT_EQ(tmpl->buffer().root(), poly::hash(body));  // oracle 2

      const http::HttpRequest request = parse_request(wire);
      const std::uint64_t wire_id = session.wire_id(call.structure_signature());
      // Served the way the server does: in the replica's slot.
      std::string replica;
      std::optional<Result<core::ParsedReplica::Lease>> served;
      core::ParsedReplica::ServeReport serve_report;
      const auto serve = [&](std::span<const PatchRun> runs) {
        return [&, runs](std::string_view body,
                         std::shared_ptr<ReplicaAttachment>& slot) {
          replica.assign(body);
          served = core::ParsedReplica::serve(core::ParsedReplica::in(slot),
                                              body, runs, &serve_report);
        };
      };
      if (report.patch_send) {
        Result<PatchFrame> frame = decode_patch(request.body);
        ASSERT_TRUE(frame.ok()) << frame.error().to_string();
        for (const PatchRun& run : frame.value().runs) {
          splice_frames += run.splice;
        }
        const Status applied =
            store.apply(frame.value(), serve(frame.value().runs));
        ASSERT_TRUE(applied.ok())
            << "seed " << seed << " step " << step << ": "
            << applied.error().to_string();
        ++patches;
        ++counted[static_cast<int>(serve_report.path)];
        EXPECT_FALSE(serve_report.demoted)
            << "seed " << seed << " step " << step;
        if (frame.value().runs.empty()) {
          EXPECT_EQ(serve_report.path,
                    core::DiffDeserializer::ApplyPath::kContentHit);
        } else {
          EXPECT_EQ(serve_report.path,
                    core::DiffDeserializer::ApplyPath::kFastParse);
        }
      } else {
        ASSERT_NE(request.find(kDiffHeader), nullptr);
        ASSERT_EQ(request.find(kDiffHeader)->value, kOfferValue);
        store.pin(wire_id, request.body, serve({}));
        session.note_ack(wire_id);
        ++offers;
      }
      ASSERT_EQ(replica, body) << "seed " << seed << " step " << step;  // 1
      ASSERT_TRUE(served.has_value());
      ASSERT_TRUE(served->ok()) << served->error().to_string();
      Result<RpcCall> full = soap::read_rpc_envelope(replica);  // oracle 3
      ASSERT_TRUE(full.ok());
      ASSERT_TRUE(testing::bit_equal(served->value().call(), full.value()))
          << "seed " << seed << " step " << step;
      ASSERT_TRUE(testing::bit_equal(served->value().call(), call))
          << "seed " << seed << " step " << step;
    }
    // Oracle 4: one path per applied patch, nothing NACKed.
    EXPECT_EQ(counted[0] + counted[1] + counted[2], patches);
    EXPECT_EQ(store.stats().applies, patches);
    EXPECT_EQ(store.stats().nacks, 0u);
    EXPECT_EQ(store.stats().pins + store.stats().repins, offers);
    EXPECT_GT(patches, offers) << "seed " << seed;
    const core::MessageTemplate* tmpl = pipeline.store().find(
        (mio ? soap::make_mio_array_call(mios)
             : soap::make_double_array_call(values))
            .structure_signature());
    if (tmpl != nullptr) shapes.add(tmpl->stats());
  }
  // The seeds reach every update shape the splice path must carry.
  EXPECT_GT(splice_frames, 100u);
  EXPECT_GT(shapes.steals, 0u);
  EXPECT_GT(shapes.chunk_shifts, 0u);
  EXPECT_GT(shapes.chunk_reallocs, 0u);
  EXPECT_GT(shapes.chunk_splits, 0u);
}

}  // namespace
}  // namespace bsoap::diffwire
