#include "textconv/itoa.hpp"

#include "textconv/swar.hpp"

namespace bsoap::textconv {

int write_u32(char* out, std::uint32_t value) noexcept {
  return swar::write_u32(out, value);
}

int write_u64(char* out, std::uint64_t value) noexcept {
  return swar::write_u64(out, value);
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
