#include "compress/deflate.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace bsoap::compress {
namespace {

// ---------------------------------------------------------------------------
// Shared RFC 1951 tables.
// ---------------------------------------------------------------------------

constexpr int kLengthBase[29] = {3,  4,  5,  6,  7,  8,  9,  10, 11, 13,
                                 15, 17, 19, 23, 27, 31, 35, 43, 51, 59,
                                 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr int kLengthExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2,
                                  2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};
constexpr int kDistBase[30] = {1,    2,    3,    4,    5,    7,    9,    13,
                               17,   25,   33,   49,   65,   97,   129,  193,
                               257,  385,  513,  769,  1025, 1537, 2049, 3073,
                               4097, 6145, 8193, 12289, 16385, 24577};
constexpr int kDistExtra[30] = {0, 0, 0,  0,  1,  1,  2,  2,  3,  3,
                                4, 4, 5,  5,  6,  6,  7,  7,  8,  8,
                                9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

constexpr std::size_t kWindowSize = 32 * 1024;
constexpr int kMinMatch = 3;
constexpr int kMaxMatch = 258;

// ---------------------------------------------------------------------------
// Bit IO (DEFLATE packs bits LSB-first).
// ---------------------------------------------------------------------------

class BitWriter {
 public:
  /// Appends `count` bits of `value`, least significant first.
  void put(std::uint32_t value, int count) {
    bits_ |= static_cast<std::uint64_t>(value) << nbits_;
    nbits_ += count;
    while (nbits_ >= 8) {
      out_ += static_cast<char>(bits_ & 0xFF);
      bits_ >>= 8;
      nbits_ -= 8;
    }
  }

  /// Huffman codes are packed starting from their most significant bit.
  void put_huffman(std::uint32_t code, int length) {
    std::uint32_t reversed = 0;
    for (int i = 0; i < length; ++i) {
      reversed = (reversed << 1) | ((code >> i) & 1);
    }
    put(reversed, length);
  }

  void align_to_byte() {
    if (nbits_ > 0) {
      out_ += static_cast<char>(bits_ & 0xFF);
      bits_ = 0;
      nbits_ = 0;
    }
  }

  std::string take() {
    align_to_byte();
    return std::move(out_);
  }

 private:
  std::string out_;
  std::uint64_t bits_ = 0;
  int nbits_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::string_view data) : data_(data) {}

  /// Reads `count` bits, least significant first; fails at end of input.
  Result<std::uint32_t> take(int count) {
    while (nbits_ < count) {
      if (pos_ >= data_.size()) {
        return Error{ErrorCode::kParseError, "deflate: out of input bits"};
      }
      bits_ |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(data_[pos_++]))
               << nbits_;
      nbits_ += 8;
    }
    const std::uint32_t value =
        static_cast<std::uint32_t>(bits_ & ((1ull << count) - 1));
    bits_ >>= count;
    nbits_ -= count;
    return value;
  }

  void align_to_byte() {
    const int drop = nbits_ % 8;
    bits_ >>= drop;
    nbits_ -= drop;
  }

  /// Copies `n` bytes (must be byte-aligned buffer-wise: any whole bytes
  /// still in the bit buffer are consumed first).
  Status read_bytes(char* out, std::size_t n) {
    while (n > 0 && nbits_ >= 8) {
      *out++ = static_cast<char>(bits_ & 0xFF);
      bits_ >>= 8;
      nbits_ -= 8;
      --n;
    }
    if (n > data_.size() - pos_) {
      return Error{ErrorCode::kParseError, "deflate: truncated stored block"};
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return Status{};
  }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
  std::uint64_t bits_ = 0;
  int nbits_ = 0;
};

// ---------------------------------------------------------------------------
// Fixed Huffman code for literals/lengths (RFC 1951 3.2.6).
// ---------------------------------------------------------------------------

struct FixedCode {
  std::uint32_t code;
  int length;
};

FixedCode fixed_literal_code(int symbol) {
  if (symbol < 144) return {static_cast<std::uint32_t>(0x30 + symbol), 8};
  if (symbol < 256) {
    return {static_cast<std::uint32_t>(0x190 + symbol - 144), 9};
  }
  if (symbol < 280) return {static_cast<std::uint32_t>(symbol - 256), 7};
  return {static_cast<std::uint32_t>(0xC0 + symbol - 280), 8};
}

/// Length value (3..258) -> (symbol, extra bits, extra value).
void encode_length(BitWriter* out, int length) {
  int code = 28;
  for (int i = 0; i < 28; ++i) {
    if (length < kLengthBase[i + 1]) {
      code = i;
      break;
    }
  }
  if (length == 258) code = 28;
  const FixedCode fc = fixed_literal_code(257 + code);
  out->put_huffman(fc.code, fc.length);
  if (kLengthExtra[code] > 0) {
    out->put(static_cast<std::uint32_t>(length - kLengthBase[code]),
             kLengthExtra[code]);
  }
}

/// Distance value (1..32768) -> 5-bit fixed code + extra bits.
void encode_distance(BitWriter* out, int distance) {
  int code = 29;
  for (int i = 0; i < 29; ++i) {
    if (distance < kDistBase[i + 1]) {
      code = i;
      break;
    }
  }
  if (distance >= kDistBase[29]) code = 29;
  out->put_huffman(static_cast<std::uint32_t>(code), 5);
  if (kDistExtra[code] > 0) {
    out->put(static_cast<std::uint32_t>(distance - kDistBase[code]),
             kDistExtra[code]);
  }
}

// ---------------------------------------------------------------------------
// Compressor: greedy LZ77 with hash chains, one fixed-Huffman block.
// ---------------------------------------------------------------------------

constexpr int kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;
constexpr int kMaxChainLength = 128;
/// Positions inside a match longer than this are not indexed (zlib's
/// max_insert_length idea): a long match is rarely followed by a better
/// one starting inside it, and indexing every byte of it is most of the
/// cost of coding a body that mostly repeats its dictionary.
constexpr int kMaxInsertLength = 32;

/// Length of the common prefix of `a` and `b`, at most `max_length`, eight
/// bytes per step.
std::size_t match_length(const unsigned char* a, const unsigned char* b,
                         std::size_t max_length) {
  std::size_t length = 0;
  if constexpr (std::endian::native == std::endian::little) {
    while (length + 8 <= max_length) {
      std::uint64_t x;
      std::uint64_t y;
      std::memcpy(&x, a + length, 8);
      std::memcpy(&y, b + length, 8);
      if (x != y) {
        return length + static_cast<std::size_t>(std::countr_zero(x ^ y) / 8);
      }
      length += 8;
    }
  }
  while (length < max_length && a[length] == b[length]) ++length;
  return length;
}

std::uint32_t hash3(const unsigned char* p) {
  // Multiplicative hash over the next three bytes.
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 0x9E3779B1u) >> (32 - kHashBits);
}

/// Emits one fixed-Huffman DEFLATE block over data[start..n). Positions
/// before `start` are history only (a preset dictionary): they are inserted
/// into the hash chains so matches can reach back into them, but produce no
/// output themselves. `head`/`prev` must arrive reset (-1-filled, `prev`
/// sized n).
void deflate_fixed_block(BitWriter* out, const unsigned char* data,
                         std::size_t n, std::size_t start,
                         std::vector<std::int32_t>& head,
                         std::vector<std::int32_t>& prev) {
  out->put(1, 1);  // BFINAL
  out->put(1, 2);  // BTYPE = 01 (fixed Huffman)

  for (std::size_t k = 0; k + kMinMatch <= n && k < start; ++k) {
    const std::uint32_t h = hash3(data + k);
    prev[k] = head[h];
    head[h] = static_cast<std::int32_t>(k);
  }

  std::size_t i = start;
  while (i < n) {
    int best_length = 0;
    int best_distance = 0;
    if (i + kMinMatch <= n) {
      const std::uint32_t h = hash3(data + i);
      std::int32_t candidate = head[h];
      int chain = kMaxChainLength;
      const std::size_t max_length =
          std::min<std::size_t>(kMaxMatch, n - i);
      while (candidate >= 0 && chain-- > 0 &&
             i - static_cast<std::size_t>(candidate) <= kWindowSize) {
        const unsigned char* a = data + candidate;
        const unsigned char* b = data + i;
        // Only a longer match counts: a candidate that differs at the
        // current best length cannot be one.
        if (a[best_length] != b[best_length]) {
          candidate = prev[static_cast<std::size_t>(candidate)];
          continue;
        }
        const std::size_t length = match_length(a, b, max_length);
        if (static_cast<int>(length) > best_length) {
          best_length = static_cast<int>(length);
          best_distance = static_cast<int>(i - static_cast<std::size_t>(candidate));
          if (best_length == static_cast<int>(max_length)) break;
        }
        candidate = prev[static_cast<std::size_t>(candidate)];
      }
      // Insert the current position into the chain.
      prev[i] = head[h];
      head[h] = static_cast<std::int32_t>(i);
    }

    if (best_length >= kMinMatch) {
      encode_length(out, best_length);
      encode_distance(out, best_distance);
      // Insert the skipped positions so later matches can reference them.
      const std::size_t end = i + static_cast<std::size_t>(best_length);
      for (std::size_t k = i + 1;
           best_length <= kMaxInsertLength && k < end && k + kMinMatch <= n;
           ++k) {
        const std::uint32_t h = hash3(data + k);
        prev[k] = head[h];
        head[h] = static_cast<std::int32_t>(k);
      }
      i = end;
    } else {
      const FixedCode fc = fixed_literal_code(data[i]);
      out->put_huffman(fc.code, fc.length);
      ++i;
    }
  }

  const FixedCode eob = fixed_literal_code(256);
  out->put_huffman(eob.code, eob.length);
}

}  // namespace

// ---------------------------------------------------------------------------
// Adler-32 (RFC 1950).
// ---------------------------------------------------------------------------

std::uint32_t adler32(std::string_view data, std::uint32_t seed) noexcept {
  constexpr std::uint32_t kMod = 65521;
  std::uint32_t a = seed & 0xFFFF;
  std::uint32_t b = (seed >> 16) & 0xFFFF;
  std::size_t i = 0;
  while (i < data.size()) {
    // 5552 is the largest n with 255*n*(n+1)/2 + (n+1)*(kMod-1) < 2^32.
    const std::size_t chunk = std::min<std::size_t>(5552, data.size() - i);
    for (std::size_t k = 0; k < chunk; ++k) {
      a += static_cast<unsigned char>(data[i + k]);
      b += a;
    }
    a %= kMod;
    b %= kMod;
    i += chunk;
  }
  return (b << 16) | a;
}

// ---------------------------------------------------------------------------
// DeflateStream: reusable compressor with preset history.
// ---------------------------------------------------------------------------

void DeflateStream::preset(std::string_view dict) {
  if (dict.size() > kWindowSize) {
    dict = dict.substr(dict.size() - kWindowSize);
  }
  dict_.assign(dict);
  dict_id_ = dict_.empty() ? 0 : adler32(dict_);
}

std::string DeflateStream::compress(std::string_view input) {
  const unsigned char* data;
  std::size_t n;
  std::size_t start;
  if (dict_.empty()) {
    data = reinterpret_cast<const unsigned char*>(input.data());
    n = input.size();
    start = 0;
  } else {
    // Dictionary and input must be contiguous so matches can span the seam.
    work_.assign(dict_);
    work_.append(input);
    data = reinterpret_cast<const unsigned char*>(work_.data());
    n = work_.size();
    start = dict_.size();
  }

  head_.assign(kHashSize, -1);
  prev_.assign(n, -1);

  BitWriter out;
  deflate_fixed_block(&out, data, n, start, head_, prev_);
  return out.take();
}

std::string deflate(std::string_view input) {
  DeflateStream stream;
  return stream.compress(input);
}

// ---------------------------------------------------------------------------
// Inflater: stored, fixed and dynamic Huffman blocks ("puff"-style canonical
// decoding).
// ---------------------------------------------------------------------------

namespace {

struct HuffDecoder {
  std::array<int, 16> counts{};     // number of codes of each length
  std::vector<int> symbols;         // symbols ordered by (length, symbol)

  /// Builds from per-symbol code lengths; returns false on an over-
  /// subscribed code.
  bool build(const std::vector<int>& lengths) {
    counts.fill(0);
    for (const int len : lengths) {
      if (len < 0 || len > 15) return false;
      ++counts[static_cast<std::size_t>(len)];
    }
    counts[0] = 0;
    int left = 1;
    for (int len = 1; len <= 15; ++len) {
      left <<= 1;
      left -= counts[static_cast<std::size_t>(len)];
      if (left < 0) return false;  // over-subscribed
    }
    std::array<int, 16> offsets{};
    for (int len = 1; len < 15; ++len) {
      offsets[static_cast<std::size_t>(len + 1)] =
          offsets[static_cast<std::size_t>(len)] +
          counts[static_cast<std::size_t>(len)];
    }
    symbols.assign(lengths.size(), 0);
    for (std::size_t symbol = 0; symbol < lengths.size(); ++symbol) {
      if (lengths[symbol] != 0) {
        symbols[static_cast<std::size_t>(
            offsets[static_cast<std::size_t>(lengths[symbol])]++)] =
            static_cast<int>(symbol);
      }
    }
    return true;
  }

  Result<int> decode(BitReader* in) const {
    int code = 0;
    int first = 0;
    int index = 0;
    for (int len = 1; len <= 15; ++len) {
      Result<std::uint32_t> bit = in->take(1);
      if (!bit.ok()) return bit.error();
      code |= static_cast<int>(bit.value());
      const int count = counts[static_cast<std::size_t>(len)];
      if (code - first < count) {
        return symbols[static_cast<std::size_t>(index + (code - first))];
      }
      index += count;
      first += count;
      first <<= 1;
      code <<= 1;
    }
    return Error{ErrorCode::kParseError, "deflate: invalid Huffman code"};
  }
};

const HuffDecoder& fixed_literal_decoder() {
  static const HuffDecoder decoder = [] {
    std::vector<int> lengths(288);
    for (int s = 0; s < 144; ++s) lengths[static_cast<std::size_t>(s)] = 8;
    for (int s = 144; s < 256; ++s) lengths[static_cast<std::size_t>(s)] = 9;
    for (int s = 256; s < 280; ++s) lengths[static_cast<std::size_t>(s)] = 7;
    for (int s = 280; s < 288; ++s) lengths[static_cast<std::size_t>(s)] = 8;
    HuffDecoder d;
    d.build(lengths);
    return d;
  }();
  return decoder;
}

const HuffDecoder& fixed_distance_decoder() {
  static const HuffDecoder decoder = [] {
    std::vector<int> lengths(30, 5);
    HuffDecoder d;
    d.build(lengths);
    return d;
  }();
  return decoder;
}

Status inflate_block(BitReader* in, const HuffDecoder& literals,
                     const HuffDecoder& distances, std::string* out,
                     std::size_t max_output) {
  for (;;) {
    Result<int> symbol = literals.decode(in);
    if (!symbol.ok()) return symbol.error();
    const int s = symbol.value();
    if (s < 256) {
      if (out->size() >= max_output) {
        return Error{ErrorCode::kOutOfRange, "deflate: output limit"};
      }
      *out += static_cast<char>(s);
      continue;
    }
    if (s == 256) return Status{};  // end of block
    if (s > 285) return Error{ErrorCode::kParseError, "deflate: bad length"};

    const int length_code = s - 257;
    Result<std::uint32_t> extra = in->take(kLengthExtra[length_code]);
    if (!extra.ok()) return extra.error();
    const int length = kLengthBase[length_code] + static_cast<int>(extra.value());

    Result<int> dist_symbol = distances.decode(in);
    if (!dist_symbol.ok()) return dist_symbol.error();
    if (dist_symbol.value() > 29) {
      return Error{ErrorCode::kParseError, "deflate: bad distance code"};
    }
    Result<std::uint32_t> dist_extra =
        in->take(kDistExtra[dist_symbol.value()]);
    if (!dist_extra.ok()) return dist_extra.error();
    const std::size_t distance =
        static_cast<std::size_t>(kDistBase[dist_symbol.value()]) +
        dist_extra.value();
    if (distance > out->size()) {
      return Error{ErrorCode::kParseError, "deflate: distance too far back"};
    }
    if (out->size() + static_cast<std::size_t>(length) > max_output) {
      return Error{ErrorCode::kOutOfRange, "deflate: output limit"};
    }
    // One resize, then the copy: a memcpy when the source ends before the
    // destination starts, else byte by byte, since an overlapping copy
    // (distance < length) repeats the bytes it has just written.
    const std::size_t at = out->size();
    out->resize(at + static_cast<std::size_t>(length));
    char* dst = out->data() + at;
    const char* src = dst - distance;
    if (distance >= static_cast<std::size_t>(length)) {
      std::memcpy(dst, src, static_cast<std::size_t>(length));
    } else {
      for (int k = 0; k < length; ++k) dst[k] = src[k];
    }
  }
}

Status inflate_dynamic_header(BitReader* in, HuffDecoder* literals,
                              HuffDecoder* distances) {
  Result<std::uint32_t> hlit = in->take(5);
  if (!hlit.ok()) return hlit.error();
  Result<std::uint32_t> hdist = in->take(5);
  if (!hdist.ok()) return hdist.error();
  Result<std::uint32_t> hclen = in->take(4);
  if (!hclen.ok()) return hclen.error();
  const std::size_t nlit = 257 + hlit.value();
  const std::size_t ndist = 1 + hdist.value();
  const std::size_t ncode = 4 + hclen.value();
  if (nlit > 286 || ndist > 30) {
    return Error{ErrorCode::kParseError, "deflate: bad dynamic header"};
  }

  static constexpr int kOrder[19] = {16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                     11, 4, 12, 3, 13, 2, 14, 1, 15};
  std::vector<int> code_lengths(19, 0);
  for (std::size_t i = 0; i < ncode; ++i) {
    Result<std::uint32_t> len = in->take(3);
    if (!len.ok()) return len.error();
    code_lengths[static_cast<std::size_t>(kOrder[i])] =
        static_cast<int>(len.value());
  }
  HuffDecoder code_decoder;
  if (!code_decoder.build(code_lengths)) {
    return Error{ErrorCode::kParseError, "deflate: bad code-length code"};
  }

  std::vector<int> lengths;
  lengths.reserve(nlit + ndist);
  while (lengths.size() < nlit + ndist) {
    Result<int> symbol = code_decoder.decode(in);
    if (!symbol.ok()) return symbol.error();
    const int s = symbol.value();
    if (s < 16) {
      lengths.push_back(s);
    } else if (s == 16) {
      if (lengths.empty()) {
        return Error{ErrorCode::kParseError, "deflate: repeat with no prior"};
      }
      Result<std::uint32_t> rep = in->take(2);
      if (!rep.ok()) return rep.error();
      lengths.insert(lengths.end(), 3 + rep.value(), lengths.back());
    } else if (s == 17) {
      Result<std::uint32_t> rep = in->take(3);
      if (!rep.ok()) return rep.error();
      lengths.insert(lengths.end(), 3 + rep.value(), 0);
    } else {
      Result<std::uint32_t> rep = in->take(7);
      if (!rep.ok()) return rep.error();
      lengths.insert(lengths.end(), 11 + rep.value(), 0);
    }
  }
  if (lengths.size() != nlit + ndist) {
    return Error{ErrorCode::kParseError, "deflate: code lengths overflow"};
  }

  std::vector<int> lit_lengths(lengths.begin(),
                               lengths.begin() + static_cast<long>(nlit));
  std::vector<int> dist_lengths(lengths.begin() + static_cast<long>(nlit),
                                lengths.end());
  if (!literals->build(lit_lengths) || !distances->build(dist_lengths)) {
    return Error{ErrorCode::kParseError, "deflate: bad dynamic code"};
  }
  return Status{};
}

}  // namespace

Result<std::string> inflate(std::string_view input, std::size_t max_output,
                            std::string_view dict) {
  if (dict.size() > kWindowSize) {
    dict = dict.substr(dict.size() - kWindowSize);
  }
  BitReader in(input);
  // The dictionary seeds the back-reference window exactly as if it had
  // been decoded first; it is stripped before returning, and the output
  // bound applies to the stream's own bytes only.
  std::string out(dict);
  const std::size_t limit =
      max_output > static_cast<std::size_t>(-1) - dict.size()
          ? static_cast<std::size_t>(-1)
          : max_output + dict.size();
  for (;;) {
    Result<std::uint32_t> bfinal = in.take(1);
    if (!bfinal.ok()) return bfinal.error();
    Result<std::uint32_t> btype = in.take(2);
    if (!btype.ok()) return btype.error();

    switch (btype.value()) {
      case 0: {  // stored
        in.align_to_byte();
        char header[4];
        BSOAP_RETURN_IF_ERROR(in.read_bytes(header, 4));
        const std::uint16_t len =
            static_cast<std::uint16_t>(static_cast<unsigned char>(header[0]) |
                                       (static_cast<unsigned char>(header[1])
                                        << 8));
        const std::uint16_t nlen =
            static_cast<std::uint16_t>(static_cast<unsigned char>(header[2]) |
                                       (static_cast<unsigned char>(header[3])
                                        << 8));
        if (static_cast<std::uint16_t>(~len) != nlen) {
          return Error{ErrorCode::kParseError, "deflate: stored LEN/NLEN"};
        }
        if (out.size() + len > limit) {
          return Error{ErrorCode::kOutOfRange, "deflate: output limit"};
        }
        const std::size_t old = out.size();
        out.resize(old + len);
        BSOAP_RETURN_IF_ERROR(in.read_bytes(out.data() + old, len));
        break;
      }
      case 1:  // fixed Huffman
        BSOAP_RETURN_IF_ERROR(inflate_block(&in, fixed_literal_decoder(),
                                            fixed_distance_decoder(), &out,
                                            limit));
        break;
      case 2: {  // dynamic Huffman
        HuffDecoder literals;
        HuffDecoder distances;
        BSOAP_RETURN_IF_ERROR(
            inflate_dynamic_header(&in, &literals, &distances));
        BSOAP_RETURN_IF_ERROR(
            inflate_block(&in, literals, distances, &out, limit));
        break;
      }
      default:
        return Error{ErrorCode::kParseError, "deflate: reserved block type"};
    }
    if (bfinal.value() != 0) {
      out.erase(0, dict.size());
      return out;
    }
  }
}

// ---------------------------------------------------------------------------
// CRC-32, the zlib wrapper, the gzip wrapper.
// ---------------------------------------------------------------------------

std::uint32_t crc32(std::string_view data, std::uint32_t seed) noexcept {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<unsigned char>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

namespace {

void append_be32(std::string& out, std::uint32_t value) {
  for (int i = 3; i >= 0; --i) {
    out += static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

std::uint32_t read_be32(std::string_view data, std::size_t offset) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value = (value << 8) |
            static_cast<unsigned char>(data[offset + static_cast<std::size_t>(i)]);
  }
  return value;
}

constexpr unsigned char kZlibFlagDict = 0x20;  // FDICT

}  // namespace

std::string zlib_compress(DeflateStream& stream, std::string_view input) {
  std::string out;
  // CMF: CM=8 (deflate), CINFO=7 (32 KiB window).
  const unsigned char cmf = 0x78;
  unsigned char flg = stream.has_dictionary() ? kZlibFlagDict : 0;
  const unsigned rem = (static_cast<unsigned>(cmf) * 256u + flg) % 31u;
  if (rem != 0) flg = static_cast<unsigned char>(flg + (31u - rem));
  out += static_cast<char>(cmf);
  out += static_cast<char>(flg);
  if (stream.has_dictionary()) append_be32(out, stream.dictionary_id());
  out += stream.compress(input);
  append_be32(out, adler32(input));
  return out;
}

std::string zlib_compress(std::string_view input, std::string_view dict) {
  DeflateStream stream;
  stream.preset(dict);
  return zlib_compress(stream, input);
}

std::optional<std::uint32_t> zlib_dictionary_id(std::string_view input) {
  if (input.size() < 6 ||
      (static_cast<unsigned char>(input[1]) & kZlibFlagDict) == 0) {
    return std::nullopt;
  }
  return read_be32(input, 2);
}

Result<std::string> zlib_decompress(std::string_view input,
                                    std::size_t max_output,
                                    std::string_view dict) {
  if (input.size() < 6) {
    return Error{ErrorCode::kParseError, "zlib: truncated"};
  }
  const unsigned char cmf = static_cast<unsigned char>(input[0]);
  const unsigned char flg = static_cast<unsigned char>(input[1]);
  if ((cmf & 0x0F) != 8) {
    return Error{ErrorCode::kParseError, "zlib: bad method"};
  }
  if ((static_cast<unsigned>(cmf) * 256u + flg) % 31u != 0) {
    return Error{ErrorCode::kParseError, "zlib: bad header check"};
  }
  std::size_t offset = 2;
  std::string_view effective_dict;
  if (flg & kZlibFlagDict) {
    if (input.size() < 10) {
      return Error{ErrorCode::kParseError, "zlib: truncated"};
    }
    const std::uint32_t dictid = read_be32(input, 2);
    offset = 6;
    std::string_view d = dict;
    if (d.size() > kWindowSize) d = d.substr(d.size() - kWindowSize);
    if (d.empty() || adler32(d) != dictid) {
      return Error{ErrorCode::kInvalidArgument, "zlib: dictionary mismatch"};
    }
    effective_dict = d;
  }
  if (input.size() < offset + 4) {
    return Error{ErrorCode::kParseError, "zlib: truncated"};
  }

  Result<std::string> body = inflate(
      input.substr(offset, input.size() - offset - 4), max_output,
      effective_dict);
  if (!body.ok()) return body.error();

  if (adler32(body.value()) != read_be32(input, input.size() - 4)) {
    return Error{ErrorCode::kParseError, "zlib: Adler-32 mismatch"};
  }
  return body;
}

std::string gzip_compress(std::string_view input) {
  std::string out;
  // Header: magic, deflate, no flags, no mtime, no extra flags, unknown OS.
  const char header[10] = {'\x1f', '\x8b', 8, 0, 0, 0, 0, 0, 0, '\xff'};
  out.append(header, sizeof(header));
  out += deflate(input);
  const std::uint32_t crc = crc32(input);
  const std::uint32_t size = static_cast<std::uint32_t>(input.size());
  for (int i = 0; i < 4; ++i) out += static_cast<char>((crc >> (8 * i)) & 0xFF);
  for (int i = 0; i < 4; ++i) out += static_cast<char>((size >> (8 * i)) & 0xFF);
  return out;
}

Result<std::string> gzip_decompress(std::string_view input,
                                    std::size_t max_output) {
  if (input.size() < 18 || input[0] != '\x1f' ||
      static_cast<unsigned char>(input[1]) != 0x8b || input[2] != 8) {
    return Error{ErrorCode::kParseError, "gzip: bad header"};
  }
  const unsigned char flags = static_cast<unsigned char>(input[3]);
  std::size_t offset = 10;
  if (flags & 0x04) {  // FEXTRA
    if (input.size() < offset + 2) {
      return Error{ErrorCode::kParseError, "gzip: truncated extra"};
    }
    const std::size_t xlen =
        static_cast<unsigned char>(input[offset]) |
        (static_cast<std::size_t>(static_cast<unsigned char>(input[offset + 1]))
         << 8);
    offset += 2 + xlen;
  }
  for (const unsigned char string_flag : {0x08, 0x10}) {  // FNAME, FCOMMENT
    if (flags & string_flag) {
      const std::size_t end = input.find('\0', offset);
      if (end == std::string_view::npos) {
        return Error{ErrorCode::kParseError, "gzip: unterminated string"};
      }
      offset = end + 1;
    }
  }
  if (flags & 0x02) offset += 2;  // FHCRC
  if (offset + 8 > input.size()) {
    return Error{ErrorCode::kParseError, "gzip: truncated"};
  }

  Result<std::string> body =
      inflate(input.substr(offset, input.size() - offset - 8), max_output);
  if (!body.ok()) return body.error();

  const std::string_view trailer = input.substr(input.size() - 8);
  std::uint32_t expected_crc = 0;
  std::uint32_t expected_size = 0;
  for (int i = 3; i >= 0; --i) {
    expected_crc = (expected_crc << 8) |
                   static_cast<unsigned char>(trailer[static_cast<std::size_t>(i)]);
    expected_size =
        (expected_size << 8) |
        static_cast<unsigned char>(trailer[static_cast<std::size_t>(i + 4)]);
  }
  if (crc32(body.value()) != expected_crc) {
    return Error{ErrorCode::kParseError, "gzip: CRC mismatch"};
  }
  if ((body.value().size() & 0xFFFFFFFFu) != expected_size) {
    return Error{ErrorCode::kParseError, "gzip: ISIZE mismatch"};
  }
  return body;
}

}  // namespace bsoap::compress
