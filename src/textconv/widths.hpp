// Maximum serialized widths for SOAP base types.
//
// The paper (Section 4.4) relies on every non-string type having a bounded
// serialized width: 11 characters for 32-bit integers ("-2147483648"), 24 for
// IEEE-754 doubles ("-2.2250738585072014e-308"), and 46 for a Mesh Interface
// Object (int,int,double = 11 + 11 + 24). Stuffing pads fields to these
// widths so that later updates never need to shift the message.
#pragma once

#include <cstdint>

#include "textconv/swar.hpp"

namespace bsoap::textconv {

inline constexpr int kMaxInt32Chars = 11;   // "-2147483648"
inline constexpr int kMaxUInt32Chars = 10;  // "4294967295"
inline constexpr int kMaxInt64Chars = 20;   // "-9223372036854775808"
inline constexpr int kMaxUInt64Chars = 20;  // "18446744073709551615"
inline constexpr int kMaxDoubleChars = 24;  // sign + 17 digits + '.' + "e-308"
inline constexpr int kMaxFloatChars = 15;   // sign + 9 digits + '.' + "e-45"

/// Paper Section 4.3/4.4: MIO = struct { int, int, double }.
inline constexpr int kMaxMioChars = kMaxInt32Chars + kMaxInt32Chars + kMaxDoubleChars;  // 46
inline constexpr int kMinMioChars = 3;    // "0", "0", "0"
inline constexpr int kMinDoubleChars = 1; // "0"
inline constexpr int kMinInt32Chars = 1;  // "0"

/// Serialized width (sign + digits) of an integer value — the quantity the
/// stuffing policy and segment-fit checks compare against the kMax*Chars
/// bounds above. Branchless (see swar.hpp), and equal to the length
/// write_* produces.
inline int value_width_u32(std::uint32_t v) noexcept {
  return swar::digits_u32(v);
}

inline int value_width_u64(std::uint64_t v) noexcept {
  return swar::digits_u64(v);
}

inline int value_width_i32(std::int32_t v) noexcept {
  const std::uint32_t sign = v < 0 ? 1u : 0u;
  const std::uint32_t magnitude =
      v < 0 ? 0u - static_cast<std::uint32_t>(v) : static_cast<std::uint32_t>(v);
  return static_cast<int>(sign) + swar::digits_u32(magnitude);
}

inline int value_width_i64(std::int64_t v) noexcept {
  const std::uint64_t sign = v < 0 ? 1u : 0u;
  const std::uint64_t magnitude =
      v < 0 ? 0ull - static_cast<std::uint64_t>(v)
            : static_cast<std::uint64_t>(v);
  return static_cast<int>(sign) + swar::digits_u64(magnitude);
}

}  // namespace bsoap::textconv
