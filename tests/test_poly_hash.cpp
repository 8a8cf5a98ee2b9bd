// Tests for the diff-wire integrity root: the polynomial hash itself, its
// incremental maintenance by ChunkedBuffer's writes (sender) and by
// ReplicaStore::apply (receiver), and the agreement between the two. The
// oracle everywhere is poly::hash over the flat bytes, computed from
// scratch.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "buffer/chunked_buffer.hpp"
#include "common/poly_hash.hpp"
#include "common/rng.hpp"
#include "core/diff_serializer.hpp"
#include "core/message_template.hpp"
#include "core/template_builder.hpp"
#include "diffwire/replica_store.hpp"
#include "diffwire/wire_format.hpp"
#include "soap/workload.hpp"
#include "textconv/dtoa.hpp"
#include "replica_apply.hpp"

namespace bsoap {
namespace {

using bsoap::testing::apply_copy;

using buffer::BufPos;
using buffer::ChunkConfig;
using buffer::ChunkedBuffer;

/// Σ bᵢ · rⁱ by the definition (Horner from the last byte).
std::uint64_t naive_hash(std::string_view bytes) {
  std::uint64_t h = 0;
  for (auto it = bytes.rbegin(); it != bytes.rend(); ++it) {
    h = poly::add(poly::mul(h, poly::kRadix), static_cast<unsigned char>(*it));
  }
  return h;
}

std::string random_bytes(Rng& rng, std::size_t n) {
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.next_below(256));
  return out;
}

/// Absolute offset of `pos` in the linearized buffer.
std::size_t absolute(const ChunkedBuffer& buf, BufPos pos) {
  std::size_t base = 0;
  for (std::uint32_t i = 0; i < pos.chunk; ++i) {
    base += buf.chunk_view(i).size();
  }
  return base + pos.offset;
}

/// A random position inside a nonempty chunk plus a length (possibly 0)
/// that keeps the region inside that chunk.
struct Region {
  BufPos pos;
  std::size_t len = 0;
};
Region random_region(Rng& rng, const ChunkedBuffer& buf, std::size_t max_len) {
  for (;;) {
    const auto chunk =
        static_cast<std::uint32_t>(rng.next_below(buf.chunk_count()));
    const std::size_t size = buf.chunk_view(chunk).size();
    if (size == 0) continue;
    const auto offset = static_cast<std::uint32_t>(rng.next_below(size));
    const std::size_t room = std::min(size - offset, max_len);
    return Region{BufPos{chunk, offset}, rng.next_below(room + 1)};
  }
}

// --- the hash --------------------------------------------------------------

TEST(PolyHash, MatchesDefinitionAcrossBlockBoundaries) {
  Rng rng(1);
  for (const std::size_t n : {0u, 1u, 7u, 4095u, 4096u, 4097u, 8192u, 10007u}) {
    const std::string bytes = random_bytes(rng, n);
    EXPECT_EQ(poly::hash(bytes), naive_hash(bytes)) << n;
  }
  EXPECT_EQ(poly::hash(std::string(1, '\x01')), 1u);
  EXPECT_EQ(poly::hash(std::string("\0\x01", 2)), poly::kRadix);
}

TEST(PolyHash, PowMatchesRepeatedMultiplication) {
  std::uint64_t power = 1;
  for (std::uint64_t e = 0; e < 70000; ++e) {
    if (e < 300 || e % 257 == 0) {
      ASSERT_EQ(poly::pow(e), power) << e;
    }
    power = poly::mul(power, poly::kRadix);
  }
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t a = rng.next_below(std::uint64_t{1} << 31);
    const std::uint64_t b = rng.next_below(std::uint64_t{1} << 31);
    ASSERT_EQ(poly::pow(a + b), poly::mul(poly::pow(a), poly::pow(b)));
  }
}

TEST(PolyHash, PiecesFoldByBaseOffset) {
  Rng rng(3);
  const std::string bytes = random_bytes(rng, 20000);
  for (int round = 0; round < 50; ++round) {
    std::uint64_t folded = 0;
    std::size_t base = 0;
    while (base < bytes.size()) {
      const std::size_t len =
          std::min<std::size_t>(bytes.size() - base, rng.next_below(6000));
      const std::uint64_t piece = poly::hash(bytes.data() + base, len);
      folded = poly::add(folded, poly::mul(poly::pow(base), piece));
      base += len;
    }
    ASSERT_EQ(folded, poly::hash(bytes));
  }
}

TEST(PolyHash, MoveByMovesTheWholeExactly) {
  Rng rng(4);
  std::string bytes = random_bytes(rng, 9000);
  std::uint64_t h = poly::hash(bytes);
  for (int i = 0; i < 500; ++i) {
    const std::size_t offset = rng.next_below(bytes.size());
    const std::size_t n = rng.next_below(std::min<std::size_t>(
                              bytes.size() - offset, 5000) + 1);
    const std::string repl = random_bytes(rng, n);
    const std::uint64_t change =
        poly::hash_change(bytes.data() + offset, repl.data(), n);
    ASSERT_EQ(change,
              poly::sub(poly::hash(repl), poly::hash(bytes.data() + offset, n)))
        << i;
    h = poly::add(h, poly::move_by(offset, change));
    bytes.replace(offset, n, repl);
    ASSERT_EQ(h, poly::hash(bytes)) << i;
  }
}

TEST(PolyHash, ThueMorseStringsCollideModTwoToTheSixtyFourButNotHere) {
  // The Thue–Morse string of length 2^11 and its complement have the same
  // polynomial hash mod 2^64 for every odd radix: their difference is
  // ±Π(1 − r^(2^k)), divisible by 2^66. The prime modulus tells them apart.
  std::string t(2048, 'a');
  std::string u(2048, 'b');
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (std::popcount(i) % 2 == 1) std::swap(t[i], u[i]);
  }
  std::uint64_t wrap_t = 0;
  std::uint64_t wrap_u = 0;
  for (std::size_t i = t.size(); i-- > 0;) {
    wrap_t = wrap_t * poly::kRadix + static_cast<unsigned char>(t[i]);
    wrap_u = wrap_u * poly::kRadix + static_cast<unsigned char>(u[i]);
  }
  ASSERT_EQ(poly::kRadix % 2, 1u);
  EXPECT_EQ(wrap_t, wrap_u);  // the failure a 2^64 modulus would have
  EXPECT_NE(poly::hash(t), poly::hash(u));
}

// --- the sender: ChunkedBuffer ---------------------------------------------

TEST(ChunkedRoot, SameBytesUnderDifferentChunkingsGiveTheFlatRoot) {
  Rng rng(5);
  const std::string flat = random_bytes(rng, 5000);
  const std::uint64_t expected = poly::hash(flat);
  for (const std::size_t chunk_size : {16u, 64u, 100u, 4096u, 32768u}) {
    ChunkConfig config;
    config.chunk_size = chunk_size;
    config.split_threshold = 2 * chunk_size;
    config.tail_reserve = chunk_size / 4;
    ChunkedBuffer buf(config);
    std::size_t at = 0;
    while (at < flat.size()) {  // appended in uneven pieces
      const std::size_t n =
          std::min<std::size_t>(flat.size() - at, 1 + rng.next_below(300));
      buf.append(flat.data() + at, n);
      at += n;
    }
    EXPECT_EQ(buf.root(), expected) << chunk_size;

    // Reshape the layout with expansions (slack, realloc and split) and
    // contractions that end on the same bytes: the root must not move.
    for (int i = 0; i < 40; ++i) {
      const Region r = random_region(rng, buf, 24);
      const std::size_t abs = absolute(buf, r.pos);
      const std::size_t grown = r.len + 1 + rng.next_below(2 * chunk_size);
      buf.expand_at(r.pos, r.len, grown);
      buf.contract_at(r.pos, grown, r.len);
      buf.write_at(r.pos, flat.data() + abs, r.len);
    }
    ASSERT_EQ(buf.linearize(), flat);
    EXPECT_EQ(buf.root(), expected) << chunk_size;
    EXPECT_TRUE(buf.check_invariants());
  }
}

TEST(ChunkedRoot, MaintainedRootEqualsScratchUnderRandomEdits) {
  Rng rng(6);
  for (int round = 0; round < 20; ++round) {
    ChunkConfig config;
    config.chunk_size = 32 + rng.next_below(200);
    config.split_threshold = 2 * config.chunk_size;
    config.tail_reserve = rng.next_below(16);
    ChunkedBuffer buf(config);
    std::string oracle = random_bytes(rng, 500 + rng.next_below(2000));
    buf.append(oracle);
    ASSERT_EQ(buf.root(), poly::hash(oracle));

    for (int step = 0; step < 300; ++step) {
      const Region r = random_region(rng, buf, 40);
      const std::size_t abs = absolute(buf, r.pos);
      switch (rng.next_below(5)) {
        case 0: {  // plain overwrite, zero-length included
          const std::string repl = random_bytes(rng, r.len);
          buf.write_at(r.pos, repl.data(), repl.size());
          oracle.replace(abs, r.len, repl);
          break;
        }
        case 1: {  // repeated writes of one region inside one edit
          const ChunkedBuffer::Edit edit(buf, r.pos, r.len);
          for (int k = 0; k < 3; ++k) {
            const std::string repl = random_bytes(rng, r.len);
            std::copy(repl.begin(), repl.end(), edit.data());
            oracle.replace(abs, r.len, repl);
          }
          break;
        }
        case 2: {  // overlapping back-to-back writes
          const std::string a = random_bytes(rng, r.len);
          buf.write_at(r.pos, a.data(), a.size());
          oracle.replace(abs, r.len, a);
          const std::size_t skip = r.len / 2;
          const std::string b = random_bytes(rng, r.len - skip);
          buf.write_at(BufPos{r.pos.chunk, static_cast<std::uint32_t>(
                                               r.pos.offset + skip)},
                       b.data(), b.size());
          oracle.replace(abs + skip, b.size(), b);
          break;
        }
        case 3: {  // expansion (slack, realloc or split), then the rewrite
          const std::size_t grown =
              r.len + rng.next_below(2 * config.chunk_size);
          const std::string repl = random_bytes(rng, grown);
          buf.expand_at(r.pos, r.len, grown);
          buf.write_at(r.pos, repl.data(), repl.size());
          oracle.replace(abs, r.len, repl);
          break;
        }
        default: {  // contraction, then the rewrite
          const std::size_t shrunk = rng.next_below(r.len + 1);
          const std::string repl = random_bytes(rng, shrunk);
          buf.contract_at(r.pos, r.len, shrunk);
          buf.write_at(r.pos, repl.data(), repl.size());
          oracle.replace(abs, r.len, repl);
          break;
        }
      }
      ASSERT_TRUE(buf.check_invariants()) << "round " << round;
      if (rng.chance(1, 3)) {
        ASSERT_EQ(buf.root(), poly::hash(oracle))
            << "round " << round << " step " << step;
      }
    }
    ASSERT_EQ(buf.linearize(), oracle);
    ASSERT_EQ(buf.root(), poly::hash(oracle));
  }
}

TEST(ChunkedRoot, ShiftsRehashOnlyThePiecesTheyLandIn) {
  // Chunks of many pieces: a shift must cost the bytes of the piece or two
  // it lands in, never its chunk.
  ChunkConfig config;
  config.chunk_size = 16 * poly::kPiece;
  config.split_threshold = 24 * poly::kPiece;
  config.tail_reserve = 64;
  ChunkedBuffer buf(config);
  Rng rng(7);
  buf.append(random_bytes(rng, 40 * poly::kPiece));
  ASSERT_GT(buf.chunk_count(), 2u);

  // Never asked for a root: nothing is ever hashed.
  buf.write_at(BufPos{1, 3}, "abc", 3);
  EXPECT_EQ(buf.hashed_bytes(), 0u);

  // The first root hashes every byte once; in-place writes (here all in
  // chunk 1) add nothing.
  buf.root();
  const std::size_t built = buf.total_size();
  EXPECT_EQ(buf.hashed_bytes(), built);
  const std::size_t chunk1 = buf.chunk_view(1).size();
  for (int i = 0; i < 200; ++i) {
    const auto at = static_cast<std::uint32_t>(rng.next_below(chunk1));
    const std::string repl =
        random_bytes(rng, rng.next_below(std::min<std::size_t>(
                              chunk1 - at, 3 * poly::kPiece) + 1));
    buf.write_at(BufPos{1, at}, repl.data(), repl.size());
  }
  EXPECT_EQ(buf.root(), poly::hash(buf.linearize()));
  EXPECT_EQ(buf.hashed_bytes(), built);

  // The first shift in chunk 1 also rehashes the pieces those writes
  // landed in, once: at most the chunk.
  std::uint64_t before = buf.hashed_bytes();
  buf.expand_at(BufPos{1, 1000}, 4, 8);
  buf.write_at(BufPos{1, 1000}, "12345678", 8);
  EXPECT_EQ(buf.root(), poly::hash(buf.linearize()));
  EXPECT_LE(buf.hashed_bytes() - before, chunk1 + 4);

  // From then on a shift rehashes at most the pieces it lands in, each
  // < 2·kPiece, plus the bytes it adds; a contraction likewise.
  const std::size_t bound = 2 * (2 * poly::kPiece);
  before = buf.hashed_bytes();
  buf.expand_at(BufPos{1, 3000}, 4, 8);
  buf.write_at(BufPos{1, 3000}, "12345678", 8);
  EXPECT_EQ(buf.root(), poly::hash(buf.linearize()));
  EXPECT_GT(buf.hashed_bytes(), before);
  EXPECT_LE(buf.hashed_bytes() - before, bound + 8);
  before = buf.hashed_bytes();
  buf.contract_at(BufPos{1, 3000}, 8, 4);
  EXPECT_EQ(buf.root(), poly::hash(buf.linearize()));
  EXPECT_LE(buf.hashed_bytes() - before, bound);

  // A split rehashes the piece that straddles the split point (its tail
  // side at once, its head side with the dirty piece of the shift that
  // follows), and the shift's new bytes.
  before = buf.hashed_bytes();
  const std::size_t chunks = buf.chunk_count();
  const std::size_t grow = config.split_threshold;
  const buffer::ExpandResult split = buf.expand_at(BufPos{0, 100}, 0, grow);
  ASSERT_EQ(split.outcome, buffer::ExpandOutcome::kSplit);
  EXPECT_EQ(buf.chunk_count(), chunks + 1);
  EXPECT_EQ(buf.root(), poly::hash(buf.linearize()));
  EXPECT_LE(buf.hashed_bytes() - before, 2 * bound + grow);
  EXPECT_TRUE(buf.check_invariants());
}

/// One random step of the buffer model: an Edit (possibly across piece
/// boundaries, possibly a steal-style memmove inside its span), an
/// expansion (slack, realloc or split), or a contraction, applied to the
/// buffer and to the flat oracle alike.
void random_buffer_step(Rng& rng, ChunkedBuffer& buf, std::string& oracle,
                        std::size_t max_grow) {
  const Region r = random_region(rng, buf, 3 * poly::kPiece);
  const std::size_t abs = absolute(buf, r.pos);
  switch (rng.next_below(4)) {
    case 0: {  // overwrite
      const std::string repl = random_bytes(rng, r.len);
      buf.write_at(r.pos, repl.data(), repl.size());
      oracle.replace(abs, r.len, repl);
      break;
    }
    case 1: {  // steal-style span: slide its bytes right inside one edit
      if (r.len < 2) break;
      const std::size_t by = 1 + rng.next_below(r.len - 1);
      const ChunkedBuffer::Edit edit(buf, r.pos, r.len);
      std::memmove(edit.data() + by, edit.data(), r.len - by);
      oracle.replace(abs + by, r.len - by, oracle.substr(abs, r.len - by));
      break;
    }
    case 2: {  // expansion, then the rewrite
      const std::size_t grown = r.len + 1 + rng.next_below(max_grow);
      const std::string repl = random_bytes(rng, grown);
      buf.expand_at(r.pos, r.len, grown);
      buf.write_at(r.pos, repl.data(), repl.size());
      oracle.replace(abs, r.len, repl);
      break;
    }
    default: {  // contraction, then the rewrite
      const std::size_t shrunk = rng.next_below(r.len + 1);
      const std::string repl = random_bytes(rng, shrunk);
      buf.contract_at(r.pos, r.len, shrunk);
      buf.write_at(r.pos, repl.data(), repl.size());
      oracle.replace(abs, r.len, repl);
      break;
    }
  }
}

TEST(PieceModel, ChunkedBufferPiecesFollowEveryOperation) {
  // 16 seeds × 200 operations on chunks of a few pieces each, so Edits
  // cross piece boundaries and expansions hit slack, realloc and split.
  // After every step the root and every piece hash match the bytes.
  std::size_t reallocs = 0;
  std::size_t splits = 0;
  std::vector<std::size_t> capacities;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed * 101);
    ChunkConfig config;
    config.chunk_size = (2 + rng.next_below(6)) * poly::kPiece;
    config.split_threshold =
        config.chunk_size + rng.next_below(4) * poly::kPiece;
    config.tail_reserve = rng.next_below(poly::kPiece / 2);
    ChunkedBuffer buf(config);
    std::string oracle =
        random_bytes(rng, (4 + rng.next_below(30)) * poly::kPiece);
    buf.append(oracle);
    ASSERT_EQ(buf.root(), poly::hash(oracle));
    for (int step = 0; step < 200; ++step) {
      capacities.clear();
      for (std::size_t i = 0; i < buf.chunk_count(); ++i) {
        capacities.push_back(buf.chunk_capacity(i));
      }
      random_buffer_step(rng, buf, oracle, 2 * poly::kPiece);
      if (buf.chunk_count() > capacities.size()) {
        ++splits;
      } else {
        for (std::size_t i = 0; i < capacities.size(); ++i) {
          if (buf.chunk_capacity(i) != capacities[i]) ++reallocs;
        }
      }
      ASSERT_TRUE(buf.check_invariants())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(buf.root(), poly::hash(oracle))
          << "seed " << seed << " step " << step;
      ASSERT_TRUE(buf.check_invariants())
          << "seed " << seed << " step " << step;
    }
    ASSERT_EQ(buf.linearize(), oracle);
  }
  EXPECT_GT(reallocs, 0u);
  EXPECT_GT(splits, 0u);
}

TEST(PieceModel, FlatTablePiecesFollowOverwritesAndSplices) {
  // The replica's use: one flat range, overwrite runs in place and frames
  // of sorted splices (grow, shrink, insert, delete, several per piece),
  // refreshed after each frame and now and then after overwrites; after
  // every step, also a split of a copy at a random offset.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed * 37 + 5);
    std::string body = random_bytes(rng, rng.next_below(20 * poly::kPiece));
    poly::PieceTable table;
    table.build(body.data(), body.size());
    for (int step = 0; step < 200; ++step) {
      bool refreshed = true;
      if (rng.chance(1, 2) && !body.empty()) {
        const std::size_t at = rng.next_below(body.size());
        const std::size_t n = rng.next_below(
            std::min(body.size() - at, 3 * poly::kPiece) + 1);
        body.replace(at, n, random_bytes(rng, n));
        table.overwrite(at, n);
        refreshed = rng.chance(1, 3);
        if (refreshed) table.refresh(body.data());
      } else {
        // Sorted splices in old offsets, applied in order the way the
        // replica applies a frame's runs.
        std::string next;
        std::size_t cursor = 0;
        std::ptrdiff_t shift = 0;
        std::size_t at = rng.next_below(poly::kPiece);
        for (int runs = 0; at <= body.size() && runs < 12; ++runs) {
          const std::size_t old_len = rng.next_below(
              std::min<std::size_t>(body.size() - at, poly::kPiece) + 1);
          const std::size_t new_len =
              rng.chance(1, 8) ? 0 : rng.next_below(poly::kPiece);
          table.splice(at + shift, old_len, new_len);
          shift += static_cast<std::ptrdiff_t>(new_len) -
                   static_cast<std::ptrdiff_t>(old_len);
          next.append(body, cursor, at - cursor);
          next += random_bytes(rng, new_len);
          cursor = at + old_len;
          at = cursor + rng.next_below(3 * poly::kPiece);
        }
        next.append(body, cursor);
        body = std::move(next);
        table.refresh(body.data());
      }
      ASSERT_TRUE(table.check(body.data(), body.size()))
          << "seed " << seed << " step " << step;
      if (refreshed) {
        ASSERT_EQ(table.fold(), poly::hash(body))
            << "seed " << seed << " step " << step;
      }

      // A split of a copy: both halves hash their bytes.
      const std::size_t at = rng.next_below(body.size() + 1);
      poly::PieceTable head = table;
      poly::PieceTable tail;
      head.split(body.data(), at, &tail);
      head.refresh(body.data());
      tail.refresh(body.data() + at);
      ASSERT_TRUE(head.check(body.data(), at)) << "seed " << seed;
      ASSERT_TRUE(tail.check(body.data() + at, body.size() - at))
          << "seed " << seed;
      ASSERT_EQ(head.fold(), poly::hash(body.data(), at)) << "seed " << seed;
      ASSERT_EQ(tail.fold(), poly::hash(body.data() + at, body.size() - at))
          << "seed " << seed;
    }
    table.refresh(body.data());
    ASSERT_TRUE(table.check(body.data(), body.size())) << "seed " << seed;
    ASSERT_EQ(table.fold(), poly::hash(body)) << "seed " << seed;
  }
}

// --- the sender: templates -------------------------------------------------

core::TemplateConfig small_exact_config() {
  core::TemplateConfig config;
  config.stuffing.mode = core::StuffingPolicy::Mode::kExact;
  config.chunk.chunk_size = 256;
  config.chunk.split_threshold = 320;
  config.chunk.tail_reserve = 8;
  return config;
}

TEST(TemplateRoot, StaysExactThroughStealsShiftsAndSplits) {
  Rng rng(8);
  // One-digit values to start: fields have no room, so growth must shift.
  std::vector<double> values(200);
  for (double& v : values) v = static_cast<double>(rng.next_in(1, 9));
  auto tmpl = core::build_template(soap::make_double_array_call(values),
                                   small_exact_config());
  tmpl->buffer().root();  // materialize: from here on writes move the root
  for (int step = 0; step < 600; ++step) {
    const std::size_t i = rng.next_below(values.size());
    // Short and long values alternate, so fields both leave padding behind
    // (steal donors) and outgrow it (steals, shifts, reallocs, splits).
    const double v = rng.chance(1, 4)
                         ? static_cast<double>(rng.next_in(1, 9))
                         : Rng(rng.next_u64()).next_finite_double();
    char text[32];
    const int len = textconv::write_double(text, v);
    tmpl->rewrite_value(i, text, static_cast<std::uint32_t>(len));
    ASSERT_EQ(tmpl->buffer().root(), poly::hash(tmpl->buffer().linearize()))
        << "step " << step;
  }
  ASSERT_TRUE(tmpl->check_invariants());
  const core::TemplateStats& stats = tmpl->stats();
  EXPECT_GT(stats.steals, 0u);
  EXPECT_GT(stats.chunk_shifts + stats.chunk_reallocs, 0u);
  EXPECT_GT(stats.chunk_splits, 0u);
}

TEST(TemplateRoot, JournalRollbackRestoresTheRoot) {
  core::TemplateConfig config = small_exact_config();
  config.stuffing.mode = core::StuffingPolicy::Mode::kTypeMax;
  std::vector<double> values = soap::random_unit_doubles(300, 10);
  auto tmpl =
      core::build_template(soap::make_double_array_call(values), config);
  const std::uint64_t before = tmpl->buffer().root();
  const std::string bytes_before = tmpl->buffer().linearize();

  Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    values[rng.next_below(values.size())] =
        Rng(rng.next_u64()).next_unit_double();
  }
  core::UpdateJournal journal;
  journal.begin(*tmpl);
  const core::UpdateResult result =
      core::update_template(*tmpl, soap::make_double_array_call(values));
  ASSERT_GT(result.values_rewritten, 0u);
  ASSERT_FALSE(journal.structural());
  EXPECT_NE(tmpl->buffer().root(), before);
  EXPECT_EQ(tmpl->buffer().root(), poly::hash(tmpl->buffer().linearize()));

  ASSERT_TRUE(journal.rollback(*tmpl));
  EXPECT_EQ(tmpl->buffer().linearize(), bytes_before);
  EXPECT_EQ(tmpl->buffer().root(), before);
  EXPECT_EQ(tmpl->buffer().hashed_bytes(), tmpl->buffer().total_size());
}

// --- the receiver: ReplicaStore --------------------------------------------

/// Applies `runs` (offset, bytes) to `body` in order, the way a receiver
/// reconstructs, and returns the frame carrying them (its run data points
/// into `runs`).
diffwire::PatchFrame make_frame(
    std::uint32_t epoch, std::string& body,
    const std::vector<std::pair<std::uint32_t, std::string>>& runs) {
  diffwire::PatchFrame frame;
  frame.header.template_id = 1;
  frame.header.epoch = epoch;
  frame.header.body_len = static_cast<std::uint32_t>(body.size());
  for (const auto& [offset, bytes] : runs) {
    frame.runs.push_back(diffwire::PatchRun{
        offset, static_cast<std::uint32_t>(bytes.size()), bytes.data()});
    body.replace(offset, bytes.size(), bytes);
  }
  frame.header.run_count = static_cast<std::uint32_t>(frame.runs.size());
  frame.header.checksum = poly::hash(body);
  return frame;
}

/// One run of a frame under test: `old_len` bytes at `offset` in the old
/// body become `bytes` (a splice when the lengths differ).
struct SpliceSpec {
  std::uint32_t offset;
  std::uint32_t old_len;
  std::string bytes;
};

/// Applies sorted, disjoint `runs` to `body` the way a receiver
/// reconstructs, and returns the frame carrying them (its run data points
/// into `runs`).
diffwire::PatchFrame make_splice_frame(std::uint32_t epoch, std::string& body,
                                       const std::vector<SpliceSpec>& runs) {
  diffwire::PatchFrame frame;
  frame.header.template_id = 1;
  frame.header.epoch = epoch;
  std::string next;
  std::size_t cursor = 0;
  for (const SpliceSpec& run : runs) {
    const auto length = static_cast<std::uint32_t>(run.bytes.size());
    frame.runs.push_back(diffwire::PatchRun{run.offset, length,
                                            run.bytes.data(),
                                            length != run.old_len,
                                            run.old_len});
    next.append(body, cursor, run.offset - cursor);
    next += run.bytes;
    cursor = run.offset + run.old_len;
  }
  next.append(body, cursor);
  body = std::move(next);
  frame.header.body_len = static_cast<std::uint32_t>(body.size());
  frame.header.run_count = static_cast<std::uint32_t>(frame.runs.size());
  frame.header.checksum = poly::hash(body);
  return frame;
}

TEST(ReplicaRoot, SortedOverwriteAndSpliceRunsStayExact) {
  // Overwrites, splices that grow, shrink, insert and delete, and
  // zero-length runs, in one sorted frame: the maintained root must equal
  // the hash from scratch (the frame's checksum) after every apply.
  Rng rng(12);
  std::string body = random_bytes(rng, 10000);
  diffwire::ReplicaStore store;
  store.pin(1, body);
  for (std::uint32_t epoch = 1; epoch <= 30; ++epoch) {
    std::vector<SpliceSpec> runs;
    std::size_t at = rng.next_below(200);
    while (at < body.size()) {
      const auto old_len = static_cast<std::uint32_t>(
          rng.next_below(std::min<std::size_t>(body.size() - at, 60) + 1));
      std::size_t new_len = old_len;
      switch (rng.next_below(4)) {
        case 0: new_len = old_len + rng.next_below(30); break;  // grow
        case 1: new_len = rng.next_below(old_len + 1); break;   // shrink
        default: break;                                         // overwrite
      }
      runs.push_back(SpliceSpec{static_cast<std::uint32_t>(at), old_len,
                                random_bytes(rng, new_len)});
      at += old_len + rng.next_below(1500);
    }
    runs.push_back(SpliceSpec{static_cast<std::uint32_t>(body.size()), 0,
                              rng.chance(1, 2) ? random_bytes(rng, 7)
                                               : std::string{}});
    const diffwire::PatchFrame frame = make_splice_frame(epoch, body, runs);
    std::string reconstructed;
    const Status applied = apply_copy(store, frame, &reconstructed);
    ASSERT_TRUE(applied.ok()) << applied.error().to_string();
    ASSERT_EQ(reconstructed, body);
  }
  // A replay (no runs) checks the maintained root alone.
  const diffwire::PatchFrame replay = make_frame(31, body, {});
  std::string reconstructed;
  ASSERT_TRUE(apply_copy(store, replay, &reconstructed).ok());

  const diffwire::ReplicaStore::Stats stats = store.stats();
  EXPECT_EQ(stats.applies, 31u);
  EXPECT_EQ(stats.full_hashes, 1u);  // the first patch after the pin only

  // A wrong root NACKs and drops the replica.
  const std::vector<std::pair<std::uint32_t, std::string>> bad_runs = {
      {5, "xyz"}};
  diffwire::PatchFrame bad = make_frame(32, body, bad_runs);
  bad.header.checksum = poly::add(bad.header.checksum, 1);
  const Status nacked = apply_copy(store, bad, &reconstructed);
  ASSERT_FALSE(nacked.ok());
  EXPECT_EQ(nacked.error().message, "checksum mismatch");
  EXPECT_EQ(store.stats().pinned_replicas, 0u);
}

TEST(PieceModel, ReplicaFollowsRandomOverwriteAndSpliceFrames) {
  // 16 seeds × 200 frames, overwrite-only (patched in place) and with
  // splices (rebuilt): every apply must pass the checksum (the maintained
  // root equals the hash from scratch). An overwrite-only frame hashes
  // nothing from scratch, and a splice frame only the pieces its runs and
  // the overwrite runs since the last splice frame landed in, never the
  // body.
  constexpr std::size_t kMax = 2 * poly::kPiece;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng rng(seed * 7 + 3);
    std::string body = random_bytes(rng, 64 * poly::kPiece);
    diffwire::ReplicaStore store;
    store.pin(1, body);
    std::string reconstructed;
    std::size_t pending = 0;  // overwrite runs since the last splice frame
    for (std::uint32_t epoch = 1; epoch <= 200; ++epoch) {
      const bool splices = epoch > 1 && rng.chance(1, 2);
      std::vector<SpliceSpec> runs;
      std::size_t at = rng.next_below(2 * poly::kPiece);
      std::size_t moved_bytes = 0;
      while (at < body.size() && runs.size() < 4) {
        const auto old_len = static_cast<std::uint32_t>(rng.next_below(
            std::min<std::size_t>(body.size() - at, poly::kPiece) + 1));
        const std::size_t new_len =
            splices ? rng.next_below(poly::kPiece) : old_len;
        runs.push_back(SpliceSpec{static_cast<std::uint32_t>(at), old_len,
                                  random_bytes(rng, new_len)});
        moved_bytes += old_len + new_len;
        at += old_len + rng.next_below(body.size() / 3);
      }
      const std::uint64_t hashed_before = store.stats().hashed_bytes;
      const diffwire::PatchFrame frame = make_splice_frame(epoch, body, runs);
      const Status applied = apply_copy(store, frame, &reconstructed);
      ASSERT_TRUE(applied.ok())
          << "seed " << seed << " epoch " << epoch << ": "
          << applied.error().to_string();
      ASSERT_EQ(reconstructed, body);
      const std::uint64_t hashed = store.stats().hashed_bytes - hashed_before;
      if (epoch == 1) {
        EXPECT_EQ(hashed, body.size());  // the build after the pin
      } else if (!splices) {
        EXPECT_EQ(hashed, 0u) << "seed " << seed << " epoch " << epoch;
        pending += runs.size();
      } else {
        EXPECT_LE(hashed, moved_bytes + (runs.size() + pending) * 3 * kMax)
            << "seed " << seed << " epoch " << epoch;
        pending = 0;
      }
    }
    EXPECT_EQ(store.stats().full_hashes, 1u);
  }
}

TEST(ReplicaRoot, OverlappingOrRepeatedRunsNack) {
  // Version 3 runs are sorted and disjoint in old-body offsets: a repeated
  // or overlapping run is a malformed frame, whatever its checksum says.
  Rng rng(14);
  for (const std::uint32_t second : {10u, 12u, 5u}) {
    std::string body = random_bytes(rng, 100);
    diffwire::ReplicaStore store;
    store.pin(1, body);
    const std::string a = random_bytes(rng, 5);
    const std::string b = random_bytes(rng, 5);
    diffwire::PatchFrame frame;
    frame.header.template_id = 1;
    frame.header.epoch = 1;
    frame.header.body_len = 100;
    frame.runs = {diffwire::PatchRun{10, 5, a.data()},
                  diffwire::PatchRun{second, 5, b.data()}};
    frame.header.run_count = 2;
    std::string expected = body;
    expected.replace(10, 5, a);
    expected.replace(second, 5, b);
    frame.header.checksum = poly::hash(expected);
    std::string reconstructed;
    const Status applied = apply_copy(store, frame, &reconstructed);
    ASSERT_FALSE(applied.ok()) << second;
    EXPECT_EQ(store.stats().pinned_replicas, 0u);
  }
}

TEST(ReplicaRoot, RepinStartsFromScratchOnce) {
  Rng rng(13);
  std::string body = random_bytes(rng, 3000);
  diffwire::ReplicaStore store;
  std::string reconstructed;
  for (int generation = 0; generation < 3; ++generation) {
    body = random_bytes(rng, 3000);
    store.pin(1, body);
    for (std::uint32_t epoch = 1; epoch <= 5; ++epoch) {
      const std::vector<std::pair<std::uint32_t, std::string>> runs = {
          {epoch * 10, random_bytes(rng, 9)}};
      const diffwire::PatchFrame frame = make_frame(epoch, body, runs);
      ASSERT_TRUE(apply_copy(store, frame, &reconstructed).ok());
      ASSERT_EQ(reconstructed, body);
    }
  }
  const diffwire::ReplicaStore::Stats stats = store.stats();
  EXPECT_EQ(stats.pins + stats.repins, 3u);
  EXPECT_EQ(stats.full_hashes, 3u);
}

// --- sender and receiver agree ---------------------------------------------

TEST(RootAgreement, ChunkedSenderRootMatchesFlatReplicaRoot) {
  // Small chunks, stuffed fields: every update is in place. The runs are
  // the differing byte spans merged across short gaps, so many of them
  // straddle the sender's chunk boundaries — which the receiver, holding
  // one flat string, never sees.
  core::TemplateConfig config = small_exact_config();
  config.stuffing.mode = core::StuffingPolicy::Mode::kTypeMax;
  std::vector<double> values = soap::random_unit_doubles(400, 14);
  auto tmpl =
      core::build_template(soap::make_double_array_call(values), config);
  ASSERT_GT(tmpl->buffer().chunk_count(), 10u);
  std::string replica = tmpl->buffer().linearize();
  diffwire::ReplicaStore store;
  store.pin(1, replica);

  Rng rng(15);
  std::size_t straddling = 0;
  for (std::uint32_t epoch = 1; epoch <= 40; ++epoch) {
    // A block of neighbouring values: its run spans more than a chunk.
    const std::size_t start = rng.next_below(values.size() - 12);
    for (std::size_t k = start; k < start + 12; ++k) {
      values[k] = Rng(rng.next_u64()).next_unit_double();
    }
    core::update_template(*tmpl, soap::make_double_array_call(values));
    const std::string now = tmpl->buffer().linearize();
    ASSERT_EQ(now.size(), replica.size());

    std::vector<std::pair<std::uint32_t, std::string>> runs;
    std::size_t i = 0;
    while (i < now.size()) {
      if (now[i] == replica[i]) {
        ++i;
        continue;
      }
      std::size_t end = i + 1;
      for (std::size_t j = end; j < now.size() && j < end + 48; ++j) {
        if (now[j] != replica[j]) end = j + 1;
      }
      runs.emplace_back(static_cast<std::uint32_t>(i), now.substr(i, end - i));
      i = end;
    }
    std::size_t boundary = 0;
    for (std::size_t c = 0; c + 1 < tmpl->buffer().chunk_count(); ++c) {
      boundary += tmpl->buffer().chunk_view(c).size();
      for (const auto& [offset, bytes] : runs) {
        if (offset < boundary && boundary < offset + bytes.size()) ++straddling;
      }
    }

    diffwire::PatchFrame frame = make_frame(epoch, replica, runs);
    ASSERT_EQ(replica, now);
    frame.header.checksum = tmpl->buffer().root();
    std::string reconstructed;
    const Status applied = apply_copy(store, frame, &reconstructed);
    ASSERT_TRUE(applied.ok()) << applied.error().to_string();
  }
  EXPECT_GT(straddling, 0u);
  EXPECT_EQ(tmpl->buffer().hashed_bytes(), tmpl->buffer().total_size());
  EXPECT_EQ(store.stats().full_hashes, 1u);
}

}  // namespace
}  // namespace bsoap
