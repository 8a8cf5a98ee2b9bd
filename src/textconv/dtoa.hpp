// double -> ASCII conversion: shortest-round-trip decimal via Grisu2.
//
// This is the conversion the paper identifies as consuming ~90% of SOAP
// end-to-end time when done naively (sprintf "%.17g" through the locale
// machinery). We implement Loitsch's Grisu2: scale the value and its
// neighbour boundaries by a cached power of ten so the significand becomes a
// fixed-point number, then peel decimal digits while staying inside the
// rounding interval. The result always parses back to the same double and is
// at most kMaxDoubleChars (24) characters.
//
// Special values use the XML Schema lexical forms: "INF", "-INF", "NaN".
//
// The digit loop and formatter run on the SWAR kernels of swar.hpp. The
// tests hold the output to the standard library: every value round-trips
// bit-exactly through parse_double (std::from_chars), and a digest of a
// seeded sweep pins the bytes themselves.
#pragma once

#include <cstdint>

#include "textconv/widths.hpp"

namespace bsoap::textconv {

/// Decimal significand/exponent pair: value ~= digits * 10^k where `digits`
/// is the integer formed by digits[0..length). Grisu emits at most 20
/// digits; the buffer is padded to 28 so the formatter may read (never
/// write) full 8-byte words from any digit offset.
struct DecimalDigits {
  char digits[28];
  int length = 0;
  int k = 0;
};

/// Core Grisu2 digit generation. `value` must be finite and strictly
/// positive. The produced digits round-trip (parsing digits*10^k yields
/// exactly `value`) and are usually the shortest such representation.
void grisu2(double value, DecimalDigits* out) noexcept;

/// Renders digits*10^k in the %g style used for xsd:double lexicals: plain
/// notation when the decimal point falls within [-3, 17], exponent notation
/// otherwise. Returns the number of characters written.
int format_decimal(char* out, const char* digits, int length, int k) noexcept;

/// Writes the shortest round-trip decimal for `value` (any double, including
/// zero, negatives, infinities and NaN). Returns the length, <= 24. No NUL
/// terminator is written; `out` must hold kMaxDoubleChars characters.
int write_double(char* out, double value) noexcept;

/// Length write_double would produce (writes into scratch storage).
int serialized_length_double(double value) noexcept;

}  // namespace bsoap::textconv
