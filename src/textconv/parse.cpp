#include "textconv/parse.hpp"

#include <charconv>
#include <limits>
#include <string>

namespace bsoap::textconv {
namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// The decimal exponent just above the leading nonzero digit of a lexical
/// from_chars accepted (digits, '.', optional exponent): positive iff the
/// magnitude is at least 1. Only out-of-range values reach it, and those
/// are far from 1 either way.
int leading_digit_power(std::string_view lexical) {
  int power = 0;
  bool seen_point = false;
  bool seen_nonzero = false;
  std::size_t i = 0;
  for (; i < lexical.size() && (is_digit(lexical[i]) || lexical[i] == '.');
       ++i) {
    if (lexical[i] == '.') {
      seen_point = true;
    } else if (seen_nonzero || lexical[i] != '0') {
      seen_nonzero = true;
      if (!seen_point) ++power;
    } else if (seen_point) {
      --power;  // a zero between the point and the first nonzero digit
    }
  }
  if (i == lexical.size()) return power;
  ++i;  // 'e' or 'E'
  const bool exp_negative = lexical[i] == '-';
  if (lexical[i] == '-' || lexical[i] == '+') ++i;
  int exp10 = 0;
  for (; i < lexical.size(); ++i) {
    if (exp10 < 100000) exp10 = exp10 * 10 + (lexical[i] - '0');
  }
  return power + (exp_negative ? -exp10 : exp10);
}

template <typename U>
Result<U> parse_unsigned_body(std::string_view text, U max_value) {
  if (text.empty()) return Error{ErrorCode::kParseError, "empty integer"};
  U value = 0;
  for (const char c : text) {
    if (!is_digit(c)) {
      return Error{ErrorCode::kParseError,
                   std::string("invalid digit '") + c + "'"};
    }
    const U digit = static_cast<U>(c - '0');
    if (value > (max_value - digit) / 10) {
      return Error{ErrorCode::kOutOfRange, "integer overflow"};
    }
    value = value * 10 + digit;
  }
  return value;
}

template <typename S, typename U>
Result<S> parse_signed(std::string_view text) {
  bool negative = false;
  if (!text.empty() && (text.front() == '-' || text.front() == '+')) {
    negative = text.front() == '-';
    text.remove_prefix(1);
  }
  const U max_magnitude =
      negative ? static_cast<U>(std::numeric_limits<S>::max()) + 1
               : static_cast<U>(std::numeric_limits<S>::max());
  Result<U> magnitude = parse_unsigned_body<U>(text, max_magnitude);
  if (!magnitude.ok()) return magnitude.error();
  const U m = magnitude.value();
  return negative ? static_cast<S>(0 - m) : static_cast<S>(m);
}

}  // namespace

Result<std::int32_t> parse_i32(std::string_view text) {
  return parse_signed<std::int32_t, std::uint32_t>(text);
}

Result<std::int64_t> parse_i64(std::string_view text) {
  return parse_signed<std::int64_t, std::uint64_t>(text);
}

Result<std::uint64_t> parse_u64(std::string_view text) {
  if (!text.empty() && text.front() == '+') text.remove_prefix(1);
  return parse_unsigned_body<std::uint64_t>(
      text, std::numeric_limits<std::uint64_t>::max());
}

Result<double> parse_double(std::string_view text) {
  const char* p = text.data();
  const char* const end = p + text.size();
  if (p == end) return Error{ErrorCode::kParseError, "empty double"};
  const bool negative = *p == '-';
  if (*p == '-' || *p == '+') ++p;
  // from_chars also reads "inf", "nan" and a second sign; xsd:double has
  // only these special lexicals and wants a digit or '.' after the sign.
  if (p == end || (!is_digit(*p) && *p != '.')) {
    const std::string_view word(p, static_cast<std::size_t>(end - p));
    if (word == "INF") {
      return negative ? -std::numeric_limits<double>::infinity()
                      : std::numeric_limits<double>::infinity();
    }
    if (word == "NaN" && p == text.data()) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return Error{ErrorCode::kParseError, "bad double"};
  }
  // Correctly rounded, so bit-equal to strtod, without strtod's
  // NUL-terminated copy or its dependence on the C locale. from_chars takes
  // a '-' but no '+'.
  double v = 0;
  const std::from_chars_result r =
      std::from_chars(negative ? p - 1 : p, end, v);
  if (r.ptr != end) return Error{ErrorCode::kParseError, "bad double"};
  if (r.ec == std::errc::result_out_of_range) {
    // from_chars leaves v alone; strtod gives ±inf or ±0, and so do we.
    v = leading_digit_power(std::string_view(p, end - p)) > 0
            ? std::numeric_limits<double>::infinity()
            : 0.0;
    if (negative) v = -v;
  }
  return v;
}

}  // namespace bsoap::textconv
