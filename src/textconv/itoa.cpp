#include "textconv/itoa.hpp"

#include "textconv/swar.hpp"

namespace bsoap::textconv {
namespace {

// Two-digit lookup table: writes pairs of digits per iteration, halving the
// number of divisions compared to the naive loop.
constexpr char kDigitPairs[] =
    "00010203040506070809"
    "10111213141516171819"
    "20212223242526272829"
    "30313233343536373839"
    "40414243444546474849"
    "50515253545556575859"
    "60616263646566676869"
    "70717273747576777879"
    "80818283848586878889"
    "90919293949596979899";

template <typename U>
int write_unsigned(char* out, U value, int len) {
  char* p = out + len;
  while (value >= 100) {
    const unsigned idx = static_cast<unsigned>(value % 100) * 2;
    value /= 100;
    *--p = kDigitPairs[idx + 1];
    *--p = kDigitPairs[idx];
  }
  if (value >= 10) {
    const unsigned idx = static_cast<unsigned>(value) * 2;
    *--p = kDigitPairs[idx + 1];
    *--p = kDigitPairs[idx];
  } else {
    *--p = static_cast<char>('0' + value);
  }
  return len;
}

}  // namespace

namespace scalar {

int decimal_digits_u32(std::uint32_t v) noexcept {
  // Branchy but branch-predictor friendly: small values dominate in practice.
  if (v < 10) return 1;
  if (v < 100) return 2;
  if (v < 1000) return 3;
  if (v < 10000) return 4;
  if (v < 100000) return 5;
  if (v < 1000000) return 6;
  if (v < 10000000) return 7;
  if (v < 100000000) return 8;
  if (v < 1000000000) return 9;
  return 10;
}

int decimal_digits_u64(std::uint64_t v) noexcept {
  int digits = 1;
  for (;;) {
    if (v < 10) return digits;
    if (v < 100) return digits + 1;
    if (v < 1000) return digits + 2;
    if (v < 10000) return digits + 3;
    v /= 10000;
    digits += 4;
  }
}

int write_u32(char* out, std::uint32_t value) noexcept {
  return write_unsigned(out, value, scalar::decimal_digits_u32(value));
}

int write_u64(char* out, std::uint64_t value) noexcept {
  return write_unsigned(out, value, scalar::decimal_digits_u64(value));
}

int write_i32(char* out, std::int32_t value) noexcept {
  std::uint32_t magnitude = static_cast<std::uint32_t>(value);
  if (value < 0) {
    *out++ = '-';
    magnitude = 0u - magnitude;
    return 1 + scalar::write_u32(out, magnitude);
  }
  return scalar::write_u32(out, magnitude);
}

int write_i64(char* out, std::int64_t value) noexcept {
  std::uint64_t magnitude = static_cast<std::uint64_t>(value);
  if (value < 0) {
    *out++ = '-';
    magnitude = 0ull - magnitude;
    return 1 + scalar::write_u64(out, magnitude);
  }
  return scalar::write_u64(out, magnitude);
}

}  // namespace scalar

int decimal_digits_u32(std::uint32_t v) noexcept { return value_width_u32(v); }

int decimal_digits_u64(std::uint64_t v) noexcept { return value_width_u64(v); }

int write_u32(char* out, std::uint32_t value) noexcept {
  if (textconv_vectorized()) return swar::write_u32(out, value);
  return scalar::write_u32(out, value);
}

int write_u64(char* out, std::uint64_t value) noexcept {
  if (textconv_vectorized()) return swar::write_u64(out, value);
  return scalar::write_u64(out, value);
}

int write_i32(char* out, std::int32_t value) noexcept {
  std::uint32_t magnitude = static_cast<std::uint32_t>(value);
  if (value < 0) {
    *out++ = '-';
    magnitude = 0u - magnitude;
    return 1 + write_u32(out, magnitude);
  }
  return write_u32(out, magnitude);
}

int write_i64(char* out, std::int64_t value) noexcept {
  std::uint64_t magnitude = static_cast<std::uint64_t>(value);
  if (value < 0) {
    *out++ = '-';
    magnitude = 0ull - magnitude;
    return 1 + write_u64(out, magnitude);
  }
  return write_u64(out, magnitude);
}

int serialized_length_i32(std::int32_t value) noexcept {
  return value_width_i32(value);
}

int serialized_length_i64(std::int64_t value) noexcept {
  return value_width_i64(value);
}

}  // namespace bsoap::textconv
