#include "textconv/dtoa.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "common/error.hpp"
#include "textconv/itoa.hpp"
#include "textconv/pow10cache.hpp"
#include "textconv/swar.hpp"

namespace bsoap::textconv {
namespace {

constexpr std::uint64_t kHiddenBit = 1ull << 52;
constexpr std::uint64_t kSignificandMask = kHiddenBit - 1;
constexpr int kExponentBias = 1075;  // so that value = f * 2^e exactly

// Grisu works with the scaled product in a fixed exponent window; this range
// keeps p1 within 32 bits and guarantees delta*10 cannot overflow 64 bits.
constexpr int kAlpha = -60;
constexpr int kGamma = -34;

DiyFp diyfp_from_double(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const std::uint64_t raw_exponent = (bits >> 52) & 0x7ff;
  const std::uint64_t significand = bits & kSignificandMask;
  if (raw_exponent == 0) {  // subnormal
    return DiyFp{significand, 1 - kExponentBias};
  }
  return DiyFp{significand + kHiddenBit,
               static_cast<int>(raw_exponent) - kExponentBias};
}

// Branchless normalize: one countl_zero instead of up to 11 shift-test
// iterations (subnormals shift furthest). f must be nonzero.
DiyFp normalize(DiyFp v) {
  const int shift = std::countl_zero(v.f);
  return DiyFp{v.f << shift, v.e - shift};
}

/// Computes the normalized boundaries m- and m+ of the rounding interval
/// around `v`: every real in (m-, m+) rounds to this double.
void normalized_boundaries(DiyFp v, DiyFp* minus, DiyFp* plus) {
  DiyFp pl{(v.f << 1) + 1, v.e - 1};
  pl = normalize(pl);
  DiyFp mi;
  if (v.f == kHiddenBit && v.e != 1 - kExponentBias) {
    // Lower neighbour is in the next binade: the interval is asymmetric.
    mi = DiyFp{(v.f << 2) - 1, v.e - 2};
  } else {
    mi = DiyFp{(v.f << 1) - 1, v.e - 1};
  }
  mi.f <<= mi.e - pl.e;
  mi.e = pl.e;
  *minus = mi;
  *plus = pl;
}

/// Nudges the last generated digit towards w (the exact scaled value) while
/// remaining inside the rounding interval — this is what makes the output
/// usually-shortest and always round-trippable.
void grisu_round(char* buffer, int len, std::uint64_t delta,
                 std::uint64_t rest, std::uint64_t ten_kappa,
                 std::uint64_t wp_w) {
  while (rest < wp_w && delta - rest >= ten_kappa &&
         (rest + ten_kappa < wp_w || wp_w - rest > rest + ten_kappa - wp_w)) {
    --buffer[len - 1];
    rest += ten_kappa;
  }
}

/// Loitsch's digit loop: one divide per integral digit, with the exit test
/// after each. digit_gen_fast's fallback for the intervals its shortcut
/// cannot prove.
void digit_gen_general(DiyFp w, DiyFp mp, std::uint64_t delta,
                       DecimalDigits* out) {
  const DiyFp one{1ull << -mp.e, mp.e};
  const std::uint64_t wp_w = mp.sub(w).f;
  std::uint32_t p1 = static_cast<std::uint32_t>(mp.f >> -one.e);
  std::uint64_t p2 = mp.f & (one.f - 1);
  int kappa = swar::digits_u32(p1);
  int len = 0;

  while (kappa > 0) {
    const std::uint32_t div = swar::kPow10U32[kappa - 1];
    const std::uint32_t d = p1 / div;
    p1 %= div;
    if (d != 0 || len != 0) out->digits[len++] = static_cast<char>('0' + d);
    --kappa;
    const std::uint64_t rest = (static_cast<std::uint64_t>(p1) << -one.e) + p2;
    if (rest <= delta) {
      out->k += kappa;
      out->length = len;
      grisu_round(out->digits, len, delta, rest,
                  static_cast<std::uint64_t>(div) << -one.e, wp_w);
      return;
    }
  }

  for (;;) {
    p2 *= 10;
    delta *= 10;
    const int d = static_cast<int>(p2 >> -one.e);
    if (d != 0 || len != 0) out->digits[len++] = static_cast<char>('0' + d);
    p2 &= one.f - 1;
    --kappa;
    if (p2 < delta) {
      out->k += kappa;
      out->length = len;
      grisu_round(out->digits, len, delta, p2, one.f,
                  wp_w * swar::kPow10U64[-kappa]);
      return;
    }
  }
}

// The general integral loop above runs a serial chain of ~5 hardware divides
// by RUNTIME powers of ten (the compiler cannot strength-reduce a variable
// divisor), plus an early-exit test per digit — the single hottest sequence
// in PSM double updates. The exit test is rest <= delta with
// rest = (p1 mod 10^kappa) << -e + p2. Two loop invariants collapse it:
//   * delta < one.f (= 2^-e) holds for every normal double — delta is ~2
//     units of the scaled significand's last place, around 2^11, while
//     2^-e >= 2^34 — so any nonzero remainder alone exceeds delta;
//   * p2 and delta do not change inside the integral loop, so when
//     p2 > delta the zero-remainder case cannot exit either.
// Under those two conditions NO integral-loop exit can ever fire and the
// whole divide/check chain is exactly "emit the digits of p1": one SWAR
// ascii conversion. The remaining cases (subnormal-wide intervals,
// trailing-zero significands with tiny p2) fall back to the general loop,
// so the output is byte-identical by construction.
void digit_gen_fast(DiyFp w, DiyFp mp, std::uint64_t delta,
                    DecimalDigits* out) {
  const DiyFp one{1ull << -mp.e, mp.e};
  const std::uint64_t wp_w = mp.sub(w).f;
  const std::uint32_t p1 = static_cast<std::uint32_t>(mp.f >> -one.e);
  std::uint64_t p2 = mp.f & (one.f - 1);

  if (delta >= one.f || p2 <= delta) {
    digit_gen_general(w, mp, delta, out);
    return;
  }

  int len = 0;
  if (p1 != 0) {
    const int nd = swar::digits_u32(p1);
    if (nd <= 8) {
      swar::store_exact(out->digits, swar::ascii8(p1) >> ((8 - nd) * 8),
                        static_cast<unsigned>(nd));
    } else {
      const std::uint32_t head = p1 / 100000000u;  // constant divisor
      swar::store_exact(out->digits,
                        swar::ascii8(head) >> ((8 - (nd - 8)) * 8),
                        static_cast<unsigned>(nd - 8));
      swar::store8(out->digits + nd - 8, swar::ascii8(p1 % 100000000u));
    }
    len = nd;
  }

  // Fractional digits: the recurrence is already multiply-only (x10 per
  // digit; x100 pairing would overflow — p2 < 2^60 gives no headroom proof
  // for delta*100), and its exit test must run per digit, so it is the
  // same loop as digit_gen_general's. (A batch-parallel form computing digit m straight
  // from p2 * 10^m mod 2^s was measured no faster: out-of-order execution
  // already hides the 4-cycle serial chain under the stores and checks.)
  int kappa = 0;
  for (;;) {
    p2 *= 10;
    delta *= 10;
    const int d = static_cast<int>(p2 >> -one.e);
    if (d != 0 || len != 0) out->digits[len++] = static_cast<char>('0' + d);
    p2 &= one.f - 1;
    --kappa;
    if (p2 < delta) {
      out->k += kappa;
      out->length = len;
      grisu_round(out->digits, len, delta, p2, one.f,
                  wp_w * swar::kPow10U64[-kappa]);
      return;
    }
  }
}

// The q estimate below costs a serial int->double convert, double divide
// and double->int convert, followed by up to three guarded cached_pow10
// lookups — and its inputs depend ONLY on w_plus.e, which for normalized
// boundaries spans a small fixed range. So the estimate + correction loops
// run once per exponent to fill a table, and each conversion does one
// lookup.
constexpr int kScaleMinE = -1140;  // subnormal boundaries bottom out at -1137
constexpr int kScaleMaxE = 965;    // DBL_MAX boundaries top out at 960
struct ScaledPow10 {
  std::uint64_t f;
  std::int32_t e;
  std::int32_t q;
};

int estimate_q(int plus_e) {
  // Pick q so that the scaled product exponent lands in [kAlpha, kGamma]:
  // we need w_plus.e + c.e + 64 in that window and c.e ~ q*log2(10) - 63.
  return static_cast<int>(((kAlpha + kGamma) / 2 - 64 + 63 - plus_e) /
                          3.3219280948873623);
}

const ScaledPow10* scale_table() {
  static const auto* table = [] {
    auto* t = new std::array<ScaledPow10, kScaleMaxE - kScaleMinE + 1>;
    for (int e = kScaleMinE; e <= kScaleMaxE; ++e) {
      int q = estimate_q(e);
      DiyFp c = cached_pow10(q);
      while (e + c.e + 64 < kAlpha) c = cached_pow10(++q);
      while (e + c.e + 64 > kGamma) c = cached_pow10(--q);
      (*t)[static_cast<std::size_t>(e - kScaleMinE)] = {
          c.f, c.e, static_cast<std::int32_t>(q)};
    }
    return t;
  }();
  return table->data();
}

// `padded` says digits points into a DecimalDigits buffer (8-byte reads
// past the digit count are in-bounds), letting the digit copies run as
// inline wide copies instead of variable-length memcpy calls. The public
// format_decimal takes arbitrary caller buffers and must pass false.
int format_decimal_impl(char* out, const char* digits, int length, int k,
                        bool padded) {
  const auto copy = [&](char* dst, const char* src, int n) {
    if (padded) {
      swar::copy_digits(dst, src, static_cast<unsigned>(n));
    } else {
      std::memcpy(dst, src, static_cast<std::size_t>(n));
    }
  };
  char* p = out;
  const int point = length + k;  // value = 0.digits * 10^point

  if (length <= point && point <= 17) {
    // 1234000 — digits followed by trailing zeros.
    copy(p, digits, length);
    p += length;
    // Wide zero fill; exact-length stores (a variable-length memset here
    // costs a libc call at every site).
    swar::fill_zeros(p, static_cast<unsigned>(point - length));  // <= 16
    p += point - length;
  } else if (0 < point && point < length) {
    // 12.34 — decimal point inside the digit string.
    copy(p, digits, point);
    p += point;
    *p++ = '.';
    copy(p, digits + point, length - point);
    p += length - point;
  } else if (-4 < point && point <= 0) {
    // 0.0001234 — leading zeros after the decimal point.
    *p++ = '0';
    *p++ = '.';
    swar::fill_zeros(p, static_cast<unsigned>(-point));  // <= 3 bytes
    p += -point;
    copy(p, digits, length);
    p += length;
  } else {
    // 1.234e-308 — scientific notation.
    *p++ = digits[0];
    if (length > 1) {
      *p++ = '.';
      copy(p, digits + 1, length - 1);
      p += length - 1;
    }
    *p++ = 'e';
    // The exponent write lands at out + 20 in the worst case
    // ("-2.2250738585072014e" + up to 4 chars = exactly kMaxDoubleChars):
    // write_i32 stores exactly its returned length, so this never touches
    // byte 24.
    p += write_i32(p, point - 1);
  }
  return static_cast<int>(p - out);
}

}  // namespace

void grisu2(double value, DecimalDigits* out) noexcept {
  BSOAP_ASSERT(value > 0.0);
  const DiyFp v = diyfp_from_double(value);
  DiyFp w_minus, w_plus;
  normalized_boundaries(v, &w_minus, &w_plus);
  const DiyFp w = normalize(v);

  BSOAP_ASSERT(w_plus.e >= kScaleMinE && w_plus.e <= kScaleMaxE);
  const ScaledPow10& s = scale_table()[w_plus.e - kScaleMinE];
  const DiyFp c{s.f, s.e};

  const DiyFp W = w.mul(c);
  DiyFp Wp = w_plus.mul(c);
  DiyFp Wm = w_minus.mul(c);
  // Shrink the interval by one unit on each side to absorb the (<1 ulp)
  // error introduced by the cached power multiplication.
  ++Wm.f;
  --Wp.f;

  out->k = -s.q;
  out->length = 0;
  digit_gen_fast(W, Wp, Wp.f - Wm.f, out);
}

int format_decimal(char* out, const char* digits, int length, int k) noexcept {
  return format_decimal_impl(out, digits, length, k, /*padded=*/false);
}

int write_double(char* out, double value) noexcept {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const bool negative = (bits >> 63) != 0;
  const std::uint64_t magnitude_bits = bits & ~(1ull << 63);

  char* p = out;
  if (negative) *p++ = '-';

  if (magnitude_bits == 0) {  // +0.0 / -0.0
    *p++ = '0';
    return static_cast<int>(p - out);
  }
  const std::uint64_t raw_exponent = (magnitude_bits >> 52);
  if (raw_exponent == 0x7ff) {
    if ((magnitude_bits & kSignificandMask) != 0) {
      // NaN: sign is not significant in the lexical form.
      std::memcpy(out, "NaN", 3);
      return 3;
    }
    std::memcpy(p, "INF", 3);
    return static_cast<int>(p - out) + 3;
  }

  double magnitude = value;
  if (negative) magnitude = -magnitude;
  DecimalDigits dec;
  grisu2(magnitude, &dec);
  p += format_decimal_impl(p, dec.digits, dec.length, dec.k,
                           /*padded=*/true);
  const int total = static_cast<int>(p - out);
  BSOAP_ASSERT(total <= kMaxDoubleChars);
  return total;
}

int serialized_length_double(double value) noexcept {
  char scratch[kMaxDoubleChars];
  return write_double(scratch, value);
}

}  // namespace bsoap::textconv
