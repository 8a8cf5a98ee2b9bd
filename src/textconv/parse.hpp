// ASCII -> number parsing for SOAP deserialization and the XML parser.
//
// Integer parsing is exact with overflow detection. Double parsing checks
// the xsd:double special lexicals and sign, then hands the number to
// std::from_chars: correctly rounded (bit-equal to strtod, over- and
// underflow included), with no NUL-terminated copy and no dependence on the
// C locale.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/error.hpp"

namespace bsoap::textconv {

/// Parses a full string as a decimal integer (optional leading '-'/'+').
/// Fails on empty input, trailing junk, or overflow.
Result<std::int32_t> parse_i32(std::string_view text);
Result<std::int64_t> parse_i64(std::string_view text);
Result<std::uint64_t> parse_u64(std::string_view text);

/// Parses a full string as an xsd:double lexical (decimal or scientific
/// notation, plus "INF", "-INF", "NaN"). Fails on empty input or junk.
Result<double> parse_double(std::string_view text);

}  // namespace bsoap::textconv
