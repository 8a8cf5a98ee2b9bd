// SWAR kernels for number -> ASCII conversion.
//
// The serialization hot path (RunWriter::rewrite_value and the bulk-update
// fused scan+rewrite) spends its time converting int/double values to text.
// A digit-pair table loop pays one hardware divide per digit pair and a
// compare chain per width query; the kernels here replace both:
//
//   * digits_u32 / digits_u64 — branchless decimal width: integer log2 via
//     countl_zero, a *1233>>12 log10 estimate, and one table compare
//     (Bit Twiddling Hacks "integer log base 10"). Feeds widths.hpp's
//     value_width_* helpers, the stuffing logic and dtoa's kappa seed.
//   * ascii8 — eight decimal digits at once inside one uint64: two
//     constant-divisor splits put four 2-digit values into 16-bit lanes,
//     then one multiply-mask round splits every lane into tens/ones
//     simultaneously (SIMD within a register).
//   * store-exact helpers — emission writes wide words that END at
//     out + length, so no byte past the returned length is ever touched
//     and the existing "buffer holds kMax*Chars" contract is unchanged.
//
// The tests hold these kernels to the standard library: integers
// byte-equal to std::to_chars, doubles round-tripping bit-exactly through
// parse_double.
// Wider SIMD stores were evaluated and intentionally NOT kept: every bounded
// SOAP field is at most kMaxDoubleChars (24) wide, so 32-byte AVX2 lanes
// never fill, and a 16-byte SSE2 store only ever replaced two 8-byte stores
// for u64 values >= 10^16, which double formatting never produces.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

namespace bsoap::textconv {

namespace swar {

inline constexpr std::uint32_t kPow10U32[10] = {
    1u,      10u,      100u,      1000u,      10000u,
    100000u, 1000000u, 10000000u, 100000000u, 1000000000u};

inline constexpr std::uint64_t kPow10U64[20] = {1ull,
                                                10ull,
                                                100ull,
                                                1000ull,
                                                10000ull,
                                                100000ull,
                                                1000000ull,
                                                10000000ull,
                                                100000000ull,
                                                1000000000ull,
                                                10000000000ull,
                                                100000000000ull,
                                                1000000000000ull,
                                                10000000000000ull,
                                                100000000000000ull,
                                                1000000000000000ull,
                                                10000000000000000ull,
                                                100000000000000000ull,
                                                1000000000000000000ull,
                                                10000000000000000000ull};

/// Decimal digit count of v (1 for 0). Branchless: lg2 via countl_zero,
/// floor(lg2 * log10(2)) via *1233>>12, one table compare to fix up.
/// v|1 leaves the digit count unchanged (v+1 == 10^k would require an even
/// 10^k - 1, which never happens) and makes v == 0 well-defined.
inline int digits_u32(std::uint32_t v) noexcept {
  const std::uint32_t u = v | 1u;
  const unsigned lg2 = 31u ^ static_cast<unsigned>(std::countl_zero(u));
  const unsigned t = ((lg2 + 1u) * 1233u) >> 12;  // <= 9
  return static_cast<int>(t + 1u - (u < kPow10U32[t] ? 1u : 0u));
}

inline int digits_u64(std::uint64_t v) noexcept {
  const std::uint64_t u = v | 1u;
  const unsigned lg2 = 63u ^ static_cast<unsigned>(std::countl_zero(u));
  const unsigned t = ((lg2 + 1u) * 1233u) >> 12;  // <= 19
  return static_cast<int>(t + 1u - (u < kPow10U64[t] ? 1u : 0u));
}

/// Converts value < 10^8 into eight ASCII digits packed in a uint64, most
/// significant digit in the lowest byte (little-endian store order), zero
/// padded on the left.
///
/// Lane algebra: hi|lo are placed in 32-bit lanes; (x*10486)>>20 is a
/// per-lane divide by 100 (valid for lane values < 4.3e6 — the high lane's
/// quotient bits land exactly back at its lane base because the product
/// stays under 2^27 per lane); (x*103)>>10 is the same trick per 16-bit
/// lane for the final divide by 10 (valid below 1706).
inline std::uint64_t ascii8(std::uint32_t value) noexcept {
  const std::uint64_t hi = value / 10000u;  // constant divisors: no div issued
  const std::uint64_t lo = value % 10000u;
  const std::uint64_t merged = hi | (lo << 32);
  const std::uint64_t top =
      ((merged * 10486u) >> 20) & 0x0000007F0000007Full;  // [hi/100, lo/100]
  const std::uint64_t bot = merged - top * 100u;          // [hi%100, lo%100]
  const std::uint64_t pairs = (bot << 16) | top;  // 4 x 16-bit 2-digit lanes
  const std::uint64_t tens =
      ((pairs * 103u) >> 10) & 0x000F000F000F000Full;
  const std::uint64_t ones = pairs - tens * 10u;
  return tens | (ones << 8) | 0x3030303030303030ull;
}

/// Stores the low 8 bytes of a packed digit word (first digit = low byte).
inline void store8(char* out, std::uint64_t packed) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &packed, 8);
  } else {
    for (int i = 0; i < 8; ++i) {
      out[i] = static_cast<char>(packed >> (8 * i));
    }
  }
}

/// Stores exactly n (1..8) low bytes of a packed digit word — never writes
/// past out + n, so callers with exactly-sized regions stay safe.
inline void store_exact(char* out, std::uint64_t packed, unsigned n) noexcept {
  if (n == 8u) {
    store8(out, packed);
    return;
  }
  if constexpr (std::endian::native == std::endian::little) {
    if (n & 4u) {
      const std::uint32_t w = static_cast<std::uint32_t>(packed);
      std::memcpy(out, &w, 4);
      out += 4;
      packed >>= 32;
    }
    if (n & 2u) {
      const std::uint16_t w = static_cast<std::uint16_t>(packed);
      std::memcpy(out, &w, 2);
      out += 2;
      packed >>= 16;
    }
    if (n & 1u) *out = static_cast<char>(packed);
  } else {
    for (unsigned i = 0; i < n; ++i) {
      out[i] = static_cast<char>(packed >> (8 * i));
    }
  }
}

/// Copies exactly n (0..20) bytes with wide loads/stores. dst is written
/// for exactly n bytes; src however must be READABLE for 8 bytes past any
/// offset below n (DecimalDigits pads its digit buffer for this — do not
/// use with arbitrary caller buffers).
inline void copy_digits(char* dst, const char* src, unsigned n) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    unsigned i = 0;
    while (i + 8u <= n) {
      std::uint64_t w;
      std::memcpy(&w, src + i, 8);
      std::memcpy(dst + i, &w, 8);
      i += 8u;
    }
    if (i < n) {
      std::uint64_t w;
      std::memcpy(&w, src + i, 8);
      store_exact(dst + i, w, n - i);
    }
  } else {
    for (unsigned i = 0; i < n; ++i) dst[i] = src[i];
  }
}

/// Writes exactly n repeated-byte characters with wide stores; never
/// touches out + n or beyond.
inline void fill_bytes(char* out, unsigned n, std::uint64_t pattern) noexcept {
  while (n >= 8u) {
    store8(out, pattern);
    out += 8;
    n -= 8u;
  }
  store_exact(out, pattern, n);  // n == 0 stores nothing
}

/// Writes exactly n '0' characters (dtoa's zero-padding fills).
inline void fill_zeros(char* out, unsigned n) noexcept {
  fill_bytes(out, n, 0x3030303030303030ull);
}

/// Writes exactly n ' ' characters (the rewrite engine's stuffing pads).
inline void fill_spaces(char* out, unsigned n) noexcept {
  fill_bytes(out, n, 0x2020202020202020ull);
}

/// Writes value's decimal digits (no sign) and returns the width. Wide
/// stores end exactly at out + width.
inline int write_u32(char* out, std::uint32_t value) noexcept {
  const int len = digits_u32(value);
  if (value < 100000000u) {
    store_exact(out, ascii8(value) >> ((8 - len) * 8),
                static_cast<unsigned>(len));
    return len;
  }
  const std::uint32_t head = value / 100000000u;  // 1..42
  const int head_len = len - 8;
  store_exact(out, ascii8(head) >> ((8 - head_len) * 8),
              static_cast<unsigned>(head_len));
  store8(out + head_len, ascii8(value % 100000000u));
  return len;
}

inline int write_u64(char* out, std::uint64_t value) noexcept {
  if (value < 100000000ull) {
    return write_u32(out, static_cast<std::uint32_t>(value));
  }
  const int len = digits_u64(value);
  if (value < 10000000000000000ull) {  // 9..16 digits: head + one 8-group
    const std::uint32_t head =
        static_cast<std::uint32_t>(value / 100000000ull);  // < 10^8
    const int head_len = len - 8;
    store_exact(out, ascii8(head) >> ((8 - head_len) * 8),
                static_cast<unsigned>(head_len));
    store8(out + head_len, ascii8(static_cast<std::uint32_t>(
                               value % 100000000ull)));
    return len;
  }
  // 17..20 digits: head + two 8-groups.
  const std::uint32_t head =
      static_cast<std::uint32_t>(value / 10000000000000000ull);  // 1..1844
  const std::uint64_t rest = value % 10000000000000000ull;
  const int head_len = len - 16;
  store_exact(out, ascii8(head) >> ((8 - head_len) * 8),
              static_cast<unsigned>(head_len));
  const std::uint64_t mid =
      ascii8(static_cast<std::uint32_t>(rest / 100000000ull));
  const std::uint64_t low =
      ascii8(static_cast<std::uint32_t>(rest % 100000000ull));
  store8(out + head_len, mid);
  store8(out + head_len + 8, low);
  return len;
}

}  // namespace swar
}  // namespace bsoap::textconv
