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
// Both sides keep the hash of a range as a PieceTable: the hashes of
// consecutive pieces of about kPiece bytes, each hashed as if at offset 0,
// folded into the range's hash on demand. An overwrite moves the owner's
// cached hash by its delta, as above, and only marks the pieces it lands
// in; a splice (bytes inserted or removed) costs a rehash of only the
// piece or two it lands in, because the pieces after it keep their own
// hashes and only change weight in the fold. So a shifted patch costs the
// bytes near its splices and overwrites, never the body.
//
// r is a fixed, documented constant, so this is a consistency check that
// backs the diff-wire epoch chain, not an authenticator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

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

/// hash(after, n) − hash(before, n): how the hash of a piece at offset 0
/// changes when its n bytes go from `before` to `after`, in one pass over
/// both.
std::uint64_t hash_change(const char* before, const char* after,
                          std::size_t n);

/// How the hash of a whole moves when the piece at `offset` changes by
/// `change` (its hash as a piece at offset 0, after minus before): add the
/// result to the whole's hash. This is the one overwrite rule both sides
/// of the diff wire apply.
inline std::uint64_t move_by(std::size_t offset, std::uint64_t change) {
  return change == 0 ? 0 : mul(pow(offset), change);
}

/// Target piece length of a PieceTable. Pieces stay within
/// [kPiece/2, 2·kPiece]; only a table of one piece (a range shorter than
/// that) may hold a shorter one. A full kPiece piece folds with one
/// multiplication. 512 B won a DiffWire/shift sweep of 256, 512 and 1024
/// (EXPERIMENTS.md).
inline constexpr std::size_t kPiece = 512;

/// The hash of one byte range (a chunk, a replica body), kept as the hashes
/// of its consecutive pieces. The table holds no bytes: the operations that
/// hash take the range's current bytes. Unbuilt until build(); a built
/// table follows every change of the range — overwrites and splices mark
/// the pieces they land in, refresh() rehashes each marked piece once
/// (however many changes landed in it) — and fold() gives the range's
/// hash. An in-place overwrite reads and writes no piece: it sets one bit
/// per kPiece-byte block while the owner moves its cached hash by move_by,
/// so a range that is only overwritten never rehashes a piece (touching a
/// piece on every overwrite measured slower on overwrite-only patches).
/// 16 bytes per piece.
class PieceTable {
 public:
  bool built() const { return built_; }
  /// Heap bytes the table holds: its pieces and the overwrite bitmap.
  std::size_t heap_bytes() const {
    return pieces_.capacity() * sizeof(Piece) +
           overwritten_.capacity() * sizeof(std::uint64_t);
  }
  /// Forgets every piece: the range is stale until the next build().
  void reset() {
    pieces_.clear();
    overwritten_.clear();
    built_ = false;
  }

  /// Cuts [data, data + n) into pieces and hashes each: the one O(n)
  /// operation. Returns the bytes hashed (n).
  std::size_t build(const char* data, std::size_t n);

  /// The range's hash, Σ r^start_k · H_k, by a running weight. Only
  /// between a refresh() and the next overwrite() or splice().
  std::uint64_t fold() const;

  /// The `n` bytes at `offset` were overwritten in place.
  void overwrite(std::size_t offset, std::size_t n) {
    if (n == 0) return;
    const std::size_t last = (offset + n - 1) / kPiece;
    if (last / 64 >= overwritten_.size()) overwritten_.resize(last / 64 + 1);
    for (std::size_t b = offset / kPiece; b <= last; ++b) {
      overwritten_[b / 64] |= std::uint64_t{1} << (b % 64);
    }
  }

  /// The `old_len` bytes at `offset` became `new_len` bytes (the lengths
  /// may be equal): the pieces they lay in become one dirty piece and the
  /// later ones renumber. No bytes are read.
  void splice(std::size_t offset, std::size_t old_len, std::size_t new_len);

  /// Rehashes the dirty pieces from `data` (the range's bytes now), cut
  /// back to piece length, and merges short pieces into a neighbour.
  /// Returns the bytes hashed.
  std::size_t refresh(const char* data);

  /// Moves the pieces at and after `offset` of `data` into `tail`, rebased
  /// to 0, and keeps the ones before. Only the piece that straddles
  /// `offset` is rehashed: its tail side now, its head side (left dirty)
  /// by the next refresh() — a chunk split splices there anyway. Returns
  /// the bytes hashed.
  std::size_t split(const char* data, std::size_t offset, PieceTable* tail);

  /// Tests and debug builds: the pieces tile [0, n), and each clean one is
  /// within its length bounds and hashes to its bytes. True when unbuilt.
  bool check(const char* data, std::size_t n) const;

 private:
  struct Piece {
    std::uint32_t start = 0;
    std::uint32_t len = 0;
    std::uint64_t hash = 0;  ///< kDirty until refresh() rehashes it
  };
  /// Not a hash value (every hash is < kModulus).
  static constexpr std::uint64_t kDirty = ~std::uint64_t{0};

  std::size_t end(std::size_t k) const {
    return pieces_[k].start + pieces_[k].len;
  }
  /// Whether block b (bytes [b·kPiece, (b + 1)·kPiece)) was overwritten.
  bool overwritten(std::size_t b) const {
    return b / 64 < overwritten_.size() &&
           (overwritten_[b / 64] >> (b % 64) & 1) != 0;
  }
  /// Index of the piece holding offset `at` (the last piece for the end of
  /// the range).
  std::size_t find(std::size_t at) const;
  /// Marks the pieces under every overwritten block dirty and clears the
  /// blocks: before anything that moves pieces or reads their hashes.
  void settle();
  /// Rehashes piece k from `data`, cut into pieces of piece length.
  /// Returns bytes hashed.
  std::size_t cut(const char* data, std::size_t k);
  /// Merges pieces k and k + 1 (H = H_k + r^len_k · H_k+1), splitting the
  /// result in half when it is too long. Returns bytes hashed.
  std::size_t merge(const char* data, std::size_t k);
  /// Merges every piece under kPiece/2 into a neighbour.
  std::size_t merge_short(const char* data);

  std::vector<Piece> pieces_;
  /// One bit per kPiece-byte block of the range, set by overwrite() since
  /// the last settle().
  std::vector<std::uint64_t> overwritten_;
  bool built_ = false;
};

}  // namespace bsoap::poly
