// Position-weighted polynomial hash over GF(2^61 − 1): the diff-wire
// integrity root.
//
//   H(bytes) = Σ bᵢ · rⁱ  mod p,   p = 2^61 − 1,  i = absolute offset
//
// The hash is linear in the bytes and each byte is weighted by its offset,
// which gives the three properties both sides of the diff wire build on:
//
//   overwrite   rewriting n bytes at offset o moves H by
//               r^o · (H(new) − H(old)), so a patch costs O(dirty bytes);
//   fold        a body cut into pieces at base offsets o_k hashes as
//               Σ r^(o_k) · H(piece_k), so the sender's chunk layout and the
//               receiver's flat string give one root without either side
//               knowing the other's layout;
//   collisions  two different bodies of one length collide with probability
//               ≤ length / p over the choice of r (a nonzero polynomial of
//               degree < length has fewer roots). A power-of-two modulus
//               would not do: Thue–Morse strings collide under 2^64.
//
// r is a fixed, documented constant, so this is a consistency check that
// backs the diff-wire epoch chain, not an authenticator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace bsoap::poly {

inline constexpr std::uint64_t kModulus = (std::uint64_t{1} << 61) - 1;
/// The evaluation point r (any fixed element of high multiplicative order).
inline constexpr std::uint64_t kRadix = 0x0a3b5c7d9e1f2437ull;

inline std::uint64_t add(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t s = a + b;
  return s >= kModulus ? s - kModulus : s;
}

inline std::uint64_t sub(std::uint64_t a, std::uint64_t b) {
  return a >= b ? a - b : a + kModulus - b;
}

/// a · b mod p for a, b < p.
inline std::uint64_t mul(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 prod = static_cast<unsigned __int128>(a) * b;
  const std::uint64_t folded = (static_cast<std::uint64_t>(prod) & kModulus) +
                               static_cast<std::uint64_t>(prod >> 61);
  return folded >= kModulus ? folded - kModulus : folded;
}

/// r^e mod p for e < 2^32 (three multiplications over byte tables).
std::uint64_t pow(std::uint64_t e);

/// Σ data[j] · r^j over j ∈ [0, n): the hash of a piece at offset 0.
std::uint64_t hash(const char* data, std::size_t n);
inline std::uint64_t hash(std::string_view bytes) {
  return hash(bytes.data(), bytes.size());
}

/// How the hash of a whole moves when the piece at `offset` goes from
/// hashing to `old_hash` to hashing to `new_hash` (both as pieces at offset
/// 0): add the result to the whole's hash. This is the one overwrite rule
/// both sides of the diff wire apply.
inline std::uint64_t move_by(std::size_t offset, std::uint64_t old_hash,
                             std::uint64_t new_hash) {
  const std::uint64_t d = sub(new_hash, old_hash);
  return d == 0 ? 0 : mul(pow(offset), d);
}

/// move_by for a piece that also changes offset: the piece at `from`
/// hashing to `old_hash` becomes one at `to` hashing to `new_hash`. A splice
/// moves every later piece of the body this way.
inline std::uint64_t move_to(std::size_t from, std::uint64_t old_hash,
                             std::size_t to, std::uint64_t new_hash) {
  if (from == to) return move_by(from, old_hash, new_hash);
  return sub(mul(pow(to), new_hash), mul(pow(from), old_hash));
}

}  // namespace bsoap::poly
