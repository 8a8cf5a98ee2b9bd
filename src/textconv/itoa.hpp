// Integer -> ASCII conversion.
//
// These routines are on the serialization hot path: they write directly into
// caller-provided storage and return the number of characters produced. No
// NUL terminator is written. Buffers must be at least kMax*Chars long.
//
// The top-level functions dispatch on textconv_tier() (see swar.hpp):
// SWAR emission by default, the scalar reference under the
// BSOAP_FORCE_SCALAR_TEXTCONV kill-switch. Every tier produces identical
// bytes and never writes past out + <returned length>.
#pragma once

#include <cstdint>

#include "textconv/widths.hpp"

namespace bsoap::textconv {

/// Writes the decimal representation of `value`. Returns the length.
int write_u32(char* out, std::uint32_t value) noexcept;
int write_i32(char* out, std::int32_t value) noexcept;
int write_u64(char* out, std::uint64_t value) noexcept;
int write_i64(char* out, std::int64_t value) noexcept;

/// Number of characters write_* would produce, without writing. Branchless
/// (forwards to widths.hpp's value_width_* kernels) on every tier.
int decimal_digits_u32(std::uint32_t value) noexcept;
int decimal_digits_u64(std::uint64_t value) noexcept;
int serialized_length_i32(std::int32_t value) noexcept;
int serialized_length_i64(std::int64_t value) noexcept;

/// The pre-vectorization scalar implementations, kept callable so the
/// differential tests and the scalar bench tier exercise genuinely
/// independent code (digit-pair LUT emission, compare-chain widths).
namespace scalar {
int write_u32(char* out, std::uint32_t value) noexcept;
int write_i32(char* out, std::int32_t value) noexcept;
int write_u64(char* out, std::uint64_t value) noexcept;
int write_i64(char* out, std::int64_t value) noexcept;
int decimal_digits_u32(std::uint32_t value) noexcept;
int decimal_digits_u64(std::uint64_t value) noexcept;
}  // namespace scalar

}  // namespace bsoap::textconv
