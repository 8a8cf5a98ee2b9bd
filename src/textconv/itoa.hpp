// Integer -> ASCII conversion.
//
// These routines are on the serialization hot path: they write directly into
// caller-provided storage and return the number of characters produced. No
// NUL terminator is written. Buffers must be at least kMax*Chars long.
//
// Emission is the SWAR kernels of swar.hpp: the bytes equal std::to_chars,
// and no byte past out + <returned length> is ever written.
#pragma once

#include <cstdint>

#include "textconv/widths.hpp"

namespace bsoap::textconv {

/// Writes the decimal representation of `value`. Returns the length.
int write_u32(char* out, std::uint32_t value) noexcept;
int write_i32(char* out, std::int32_t value) noexcept;
int write_u64(char* out, std::uint64_t value) noexcept;
int write_i64(char* out, std::int64_t value) noexcept;

/// Number of characters write_i* would produce, without writing. Branchless
/// (forwards to widths.hpp's value_width_* kernels).
int serialized_length_i32(std::int32_t value) noexcept;
int serialized_length_i64(std::int64_t value) noexcept;

}  // namespace bsoap::textconv
