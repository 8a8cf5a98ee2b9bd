// Tests for the DEFLATE/gzip substrate: round trips over many data shapes,
// interop with a reference gzip stream, bounds and error handling.
#include <gtest/gtest.h>

#include <string>

#include "buffer/sinks.hpp"
#include "common/rng.hpp"
#include "compress/deflate.hpp"
#include "soap/envelope_writer.hpp"
#include "soap/workload.hpp"

namespace bsoap::compress {
namespace {

std::string round_trip(std::string_view input) {
  const std::string compressed = deflate(input);
  Result<std::string> back = inflate(compressed);
  EXPECT_TRUE(back.ok()) << (back.ok() ? "" : back.error().to_string());
  return back.ok() ? back.value() : std::string();
}

TEST(Deflate, EmptyInput) { EXPECT_EQ(round_trip(""), ""); }

TEST(Deflate, ShortLiterals) {
  EXPECT_EQ(round_trip("a"), "a");
  EXPECT_EQ(round_trip("hello, world"), "hello, world");
  EXPECT_EQ(round_trip(std::string("\0\x01\x02", 3)), std::string("\0\x01\x02", 3));
}

TEST(Deflate, HighlyCompressible) {
  const std::string runs(100000, 'x');
  const std::string compressed = deflate(runs);
  EXPECT_LT(compressed.size(), runs.size() / 50);  // runs compress hard
  EXPECT_EQ(round_trip(runs), runs);
}

TEST(Deflate, RepeatedPhrase) {
  std::string text;
  for (int i = 0; i < 2000; ++i) {
    text += "<item>3.14159</item>";
  }
  const std::string compressed = deflate(text);
  EXPECT_LT(compressed.size(), text.size() / 10);
  EXPECT_EQ(round_trip(text), text);
}

TEST(Deflate, IncompressibleRandomBytes) {
  Rng rng(1);
  std::string noise;
  for (int i = 0; i < 50000; ++i) {
    noise += static_cast<char>(rng.next_below(256));
  }
  // Fixed-Huffman literals cost slightly over 8 bits each; random data
  // expands a little but must round-trip exactly.
  EXPECT_EQ(round_trip(noise), noise);
}

TEST(Deflate, OverlappingCopies) {
  // RLE-style: distance 1, long length (the classic overlap case).
  std::string text = "ab";
  text.append(1000, 'b');
  text += "tail";
  EXPECT_EQ(round_trip(text), text);
}

TEST(Deflate, LongDistanceMatches) {
  // A phrase recurring past various distance-code boundaries.
  std::string text = "THE-UNIQUE-PHRASE-0123456789";
  text.append(20000, '.');
  text += "THE-UNIQUE-PHRASE-0123456789";
  text.append(12000, ',');
  text += "THE-UNIQUE-PHRASE-0123456789";
  EXPECT_EQ(round_trip(text), text);
}

TEST(Deflate, RandomizedRoundTrip) {
  Rng rng(77);
  for (int round = 0; round < 40; ++round) {
    std::string text;
    const std::size_t n = rng.next_below(20000);
    // Mix of random bytes and repeated slices for realistic LZ action.
    while (text.size() < n) {
      if (rng.chance(1, 3) && !text.empty()) {
        const std::size_t start = rng.next_below(text.size());
        const std::size_t len =
            std::min<std::size_t>(rng.next_below(300), text.size() - start);
        text += text.substr(start, len);
      } else {
        text += static_cast<char>(rng.next_below(256));
      }
    }
    ASSERT_EQ(round_trip(text), text) << "round " << round;
  }
}

TEST(Deflate, SoapEnvelopeCompresses) {
  buffer::StringSink sink;
  soap::write_rpc_envelope(
      sink, soap::make_double_array_call(soap::random_unit_doubles(5000, 3)));
  const std::string envelope = sink.take();
  const std::string compressed = deflate(envelope);
  EXPECT_LT(compressed.size(), envelope.size() / 2);  // tags compress well
  EXPECT_EQ(round_trip(envelope), envelope);
}

TEST(Inflate, StoredBlock) {
  // Hand-built stored block: BFINAL=1, BTYPE=00, LEN=5, NLEN=~5, "hello".
  std::string raw;
  raw += static_cast<char>(0x01);
  raw += static_cast<char>(0x05);
  raw += static_cast<char>(0x00);
  raw += static_cast<char>(0xFA);
  raw += static_cast<char>(0xFF);
  raw += "hello";
  Result<std::string> out = inflate(raw);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_EQ(out.value(), "hello");
}

TEST(Inflate, DynamicHuffmanBlockInterop) {
  // A zlib-produced DEFLATE stream (dynamic Huffman) for the text below,
  // captured as a fixture: python3 -c "import zlib;
  //   print(zlib.compress(b'the quick brown fox jumps over the lazy dog. '
  //         b'the quick brown fox jumps over the lazy dog.',9)[2:-4].hex())"
  const char kHex[] =
      "2bc94855282ccd4cce56482aca2fcf5348cbaf50c82acd2d2856c82f4b2d5228"
      "014ae72456552aa4e4a7eb8179c42a0600";
  std::string raw;
  for (std::size_t i = 0; kHex[i] != '\0'; i += 2) {
    auto nibble = [](char c) {
      return c <= '9' ? c - '0' : c - 'a' + 10;
    };
    raw += static_cast<char>((nibble(kHex[i]) << 4) | nibble(kHex[i + 1]));
  }
  Result<std::string> out = inflate(raw);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_EQ(out.value(),
            "the quick brown fox jumps over the lazy dog. "
            "the quick brown fox jumps over the lazy dog.");
}

TEST(Inflate, RejectsGarbage) {
  EXPECT_FALSE(inflate("").ok());
  EXPECT_FALSE(inflate("\x07garbage").ok());  // BTYPE=11 reserved
}

TEST(Inflate, OutputLimitEnforced) {
  const std::string bomb = deflate(std::string(1 << 20, 'z'));
  EXPECT_FALSE(inflate(bomb, 1024).ok());
  EXPECT_TRUE(inflate(bomb, 1 << 21).ok());
}

TEST(Crc32, KnownVectors) {
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);  // the classic check value
  EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Gzip, RoundTrip) {
  Rng rng(5);
  for (int round = 0; round < 10; ++round) {
    std::string text;
    const std::size_t n = rng.next_below(30000);
    for (std::size_t i = 0; i < n; ++i) {
      text += static_cast<char>('a' + rng.next_below(8));
    }
    const std::string gz = gzip_compress(text);
    EXPECT_EQ(gz.substr(0, 2), std::string("\x1f\x8b"));
    Result<std::string> back = gzip_decompress(gz);
    ASSERT_TRUE(back.ok()) << back.error().to_string();
    EXPECT_EQ(back.value(), text);
  }
}

TEST(Gzip, DetectsCorruption) {
  std::string gz = gzip_compress("payload payload payload");
  gz[gz.size() - 1] ^= 0x01;  // flip a bit in ISIZE
  EXPECT_FALSE(gzip_decompress(gz).ok());

  std::string gz2 = gzip_compress("payload payload payload");
  gz2[gz2.size() - 5] ^= 0x01;  // flip a bit in CRC
  EXPECT_FALSE(gzip_decompress(gz2).ok());

  EXPECT_FALSE(gzip_decompress("not gzip at all").ok());
}

TEST(Gzip, ReferenceStreamInterop) {
  // python3 -c "import gzip; print(gzip.compress(b'interop test', 9,
  //   mtime=0).hex())"
  const char kHex[] =
      "1f8b0800000000000203cbcc2b492dca2f5028492d2e0100f5e589850c000000";
  std::string raw;
  for (std::size_t i = 0; kHex[i] != '\0' && kHex[i + 1] != '\0'; i += 2) {
    auto nibble = [](char c) {
      return c <= '9' ? c - '0' : c - 'a' + 10;
    };
    raw += static_cast<char>((nibble(kHex[i]) << 4) | nibble(kHex[i + 1]));
  }
  Result<std::string> out = gzip_decompress(raw);
  ASSERT_TRUE(out.ok()) << out.error().to_string();
  EXPECT_EQ(out.value(), "interop test");
}

/// Hand-coded fixed-Huffman DEFLATE: literals and back-references of an
/// exact (length, distance), which an encoder would not pick on its own.
class FixedBlockWriter {
 public:
  FixedBlockWriter() { bits(0b011, 3); }  // BFINAL=1, BTYPE=01 (fixed)

  void literal(unsigned char c) {
    if (c < 144) {
      code(0x30 + c, 8);
    } else {
      code(0x190 + c - 144, 9);
    }
    expected_ += static_cast<char>(c);
  }

  void copy(int length, int distance) {
    static constexpr int kLenBase[] = {3,  4,  5,  6,   7,   8,   9,   10,
                                       11, 13, 15, 17,  19,  23,  27,  31,
                                       35, 43, 51, 59,  67,  83,  99,  115,
                                       131, 163, 195, 227, 258};
    static constexpr int kLenExtra[] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                        1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                        4, 4, 4, 4, 5, 5, 5, 5, 0};
    static constexpr int kDistBase[] = {
        1,    2,    3,    4,    5,    7,    9,    13,    17,    25,
        33,   49,   65,   97,   129,  193,  257,  385,   513,   769,
        1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577};
    static constexpr int kDistExtra[] = {0, 0, 0, 0, 1, 1, 2,  2,  3,  3,
                                         4, 4, 5, 5, 6, 6, 7,  7,  8,  8,
                                         9, 9, 10, 10, 11, 11, 12, 12, 13, 13};
    int lc = 28;
    while (kLenBase[lc] > length) --lc;
    const int symbol = 257 + lc;
    if (symbol < 280) {
      code(symbol - 256, 7);
    } else {
      code(0xC0 + symbol - 280, 8);
    }
    bits(static_cast<std::uint32_t>(length - kLenBase[lc]), kLenExtra[lc]);
    int dc = 29;
    while (kDistBase[dc] > distance) --dc;
    code(static_cast<std::uint32_t>(dc), 5);
    bits(static_cast<std::uint32_t>(distance - kDistBase[dc]), kDistExtra[dc]);
    // The reference semantics: byte by byte, through the dictionary.
    std::string window = dict_ + expected_;
    for (int k = 0; k < length; ++k) {
      window += window[window.size() - static_cast<std::size_t>(distance)];
    }
    expected_ = window.substr(dict_.size());
  }

  /// The block as a zlib stream (FDICT set when `dict` is not empty).
  std::string zlib(std::string_view dict = {}) {
    code(0, 7);  // end of block
    if (nbits_ > 0) out_ += static_cast<char>(acc_);
    std::string stream = dict.empty() ? std::string("\x78\x01", 2)
                                      : std::string("\x78\x20", 2);
    const auto put32 = [&stream](std::uint32_t v) {
      for (int shift = 24; shift >= 0; shift -= 8) {
        stream += static_cast<char>((v >> shift) & 0xff);
      }
    };
    if (!dict.empty()) put32(adler32(dict));
    stream += out_;
    put32(adler32(expected_));
    return stream;
  }

  void set_dictionary(std::string dict) { dict_ = std::move(dict); }
  const std::string& expected() const { return expected_; }

 private:
  void bits(std::uint32_t value, int n) {
    for (int i = 0; i < n; ++i) {
      acc_ |= ((value >> i) & 1u) << nbits_;
      if (++nbits_ == 8) {
        out_ += static_cast<char>(acc_);
        acc_ = 0;
        nbits_ = 0;
      }
    }
  }
  void code(std::uint32_t value, int n) {  // Huffman codes go MSB first
    for (int i = n - 1; i >= 0; --i) bits((value >> i) & 1u, 1);
  }

  std::string out_;
  std::uint32_t acc_ = 0;
  int nbits_ = 0;
  std::string dict_;
  std::string expected_;
};

TEST(ZlibDecompress, BackReferencesAtEveryOverlap) {
  // distance 1 (a run), distance == length − 1 (overlap by one byte),
  // distance == length (adjacent, no overlap) and distance > length.
  struct Case {
    int length;
    int distance;
  };
  for (const Case c : {Case{258, 1}, Case{40, 39}, Case{3, 2}, Case{30, 30},
                       Case{258, 258}, Case{10, 200}}) {
    FixedBlockWriter block;
    for (int i = 0; i < 300; ++i) {
      block.literal(static_cast<unsigned char>('a' + (i * 7) % 26));
    }
    block.copy(c.length, c.distance);
    block.literal('!');
    block.copy(c.length, c.distance);
    const Result<std::string> out = zlib_decompress(block.zlib());
    ASSERT_TRUE(out.ok()) << out.error().to_string();
    EXPECT_EQ(out.value(), block.expected())
        << c.length << "/" << c.distance;
    EXPECT_EQ(out.value().size(), 300u + 2u * c.length + 1u);
  }
}

TEST(ZlibDecompress, BackReferencesReachIntoThePresetDictionary) {
  const std::string dict = "<item>0.125</item><item>0.5</item>";
  for (const int distance : {1, 5, 20, 34}) {
    FixedBlockWriter block;
    block.set_dictionary(dict);
    block.copy(20, distance);  // the output starts with a copy
    block.literal('x');
    block.copy(25, distance + 1);
    const Result<std::string> out =
        zlib_decompress(block.zlib(dict), 1u << 20, dict);
    ASSERT_TRUE(out.ok()) << out.error().to_string();
    EXPECT_EQ(out.value(), block.expected()) << distance;
  }
}

}  // namespace
}  // namespace bsoap::compress
