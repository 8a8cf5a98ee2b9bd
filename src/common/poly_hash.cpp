#include "common/poly_hash.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"

namespace bsoap::poly {
namespace {

/// Bytes hashed per block: the span of the split power table below.
constexpr std::size_t kBlock = 4096;

constexpr std::uint64_t reduce(std::uint64_t x) {
  const std::uint64_t folded = (x & kModulus) + (x >> 61);
  return folded >= kModulus ? folded - kModulus : folded;
}

constexpr std::uint64_t mul_c(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 prod = static_cast<unsigned __int128>(a) * b;
  return reduce((static_cast<std::uint64_t>(prod) & kModulus) +
                static_cast<std::uint64_t>(prod >> 61));
}

struct Tables {
  /// r^j for j < kBlock, split into 32-bit halves: a byte times a half fits
  /// 40 bits, so one block accumulates in two plain 64-bit sums with no
  /// reduction inside the loop.
  std::array<std::uint32_t, kBlock> lo{};
  std::array<std::uint32_t, kBlock> hi{};
  /// by_byte[k][x] = r^(x · 256^k): pow() multiplies one entry per byte.
  std::array<std::array<std::uint64_t, 256>, 4> by_byte{};
  std::uint64_t block_weight = 0;  ///< r^kBlock
};

constexpr Tables make_tables() {
  Tables t;
  std::uint64_t power = 1;
  for (std::size_t j = 0; j < kBlock; ++j) {
    t.lo[j] = static_cast<std::uint32_t>(power);
    t.hi[j] = static_cast<std::uint32_t>(power >> 32);
    power = mul_c(power, kRadix);
  }
  t.block_weight = power;
  std::uint64_t step = kRadix;  // r^(256^k)
  for (auto& table : t.by_byte) {
    std::uint64_t p = 1;
    for (std::uint64_t& entry : table) {
      entry = p;
      p = mul_c(p, step);
    }
    step = p;  // r^(256 · 256^k)
  }
  return t;
}

constexpr Tables kTables = make_tables();
constexpr std::uint64_t kTwo32 = std::uint64_t{1} << 32;

}  // namespace

std::uint64_t pow(std::uint64_t e) {
  BSOAP_ASSERT(e < (std::uint64_t{1} << 32));
  std::uint64_t result = kTables.by_byte[0][e & 0xff];
  for (int k = 1; k < 4; ++k) {
    const std::uint64_t digit = (e >> (8 * k)) & 0xff;
    if (digit != 0) result = mul(result, kTables.by_byte[k][digit]);
  }
  return result;
}

std::uint64_t hash(const char* data, std::size_t n) {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  std::uint64_t acc = 0;
  std::uint64_t weight = 1;  // r^(block start)
  while (n > 0) {
    const std::size_t take = std::min(n, kBlock);
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    for (std::size_t j = 0; j < take; ++j) {
      lo += std::uint64_t{p[j]} * kTables.lo[j];
      hi += std::uint64_t{p[j]} * kTables.hi[j];
    }
    const std::uint64_t block = add(mul(reduce(hi), kTwo32), reduce(lo));
    acc = add(acc, mul(weight, block));
    weight = mul(weight, kTables.block_weight);
    p += take;
    n -= take;
  }
  return acc;
}

}  // namespace bsoap::poly
