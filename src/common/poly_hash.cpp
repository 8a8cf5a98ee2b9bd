#include "common/poly_hash.hpp"

#include <algorithm>
#include <array>
#include <bit>

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

static_assert(kPiece < kBlock);
/// r^kPiece: the fold's weight step over a full piece.
constexpr std::uint64_t kPieceWeight =
    (std::uint64_t{kTables.hi[kPiece]} << 32) | kTables.lo[kPiece];
constexpr std::size_t kMinPiece = kPiece / 2;
constexpr std::size_t kMaxPiece = 2 * kPiece;

/// Pieces a range of n bytes is cut into: full kPiece pieces, the last one
/// absorbing the remainder, so every piece lies in [kPiece, 2·kPiece) —
/// except one shorter piece for a range under kPiece.
std::size_t pieces_for(std::size_t n) {
  return n == 0 ? 0 : std::max<std::size_t>(1, n / kPiece);
}

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

std::uint64_t hash_change(const char* before, const char* after,
                          std::size_t n) {
  const auto* b = reinterpret_cast<const unsigned char*>(before);
  const auto* a = reinterpret_cast<const unsigned char*>(after);
  // A byte difference times a 32-bit half fits 41 signed bits, so a block
  // accumulates in two signed 64-bit sums; each sum's magnitude is below p.
  const auto to_field = [](std::int64_t v) {
    return v >= 0 ? static_cast<std::uint64_t>(v)
                  : sub(0, static_cast<std::uint64_t>(-v));
  };
  std::uint64_t acc = 0;
  std::uint64_t weight = 1;  // r^(block start)
  while (n > 0) {
    const std::size_t take = std::min(n, kBlock);
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    for (std::size_t j = 0; j < take; ++j) {
      const std::int64_t d = std::int64_t{a[j]} - std::int64_t{b[j]};
      lo += d * kTables.lo[j];
      hi += d * kTables.hi[j];
    }
    const std::uint64_t block = add(mul(to_field(hi), kTwo32), to_field(lo));
    acc = add(acc, mul(weight, block));
    weight = mul(weight, kTables.block_weight);
    a += take;
    b += take;
    n -= take;
  }
  return acc;
}

std::size_t PieceTable::find(std::size_t at) const {
  BSOAP_ASSERT(!pieces_.empty());
  // Pieces are cut at multiples of kPiece and only splices move them, so
  // the piece at at/kPiece is a good first guess.
  const std::size_t guess = std::min(at / kPiece, pieces_.size() - 1);
  if (pieces_[guess].start <= at &&
      (at < end(guess) || guess + 1 == pieces_.size())) {
    return guess;
  }
  const auto it = std::upper_bound(
      pieces_.begin(), pieces_.end(), at,
      [](std::size_t x, const Piece& p) { return x < p.start; });
  return static_cast<std::size_t>(it - pieces_.begin()) - 1;
}

std::size_t PieceTable::cut(const char* data, std::size_t k) {
  const std::size_t n = pieces_[k].len;
  const std::size_t count = pieces_for(n);
  const auto at = pieces_.begin() + static_cast<std::ptrdiff_t>(k);
  pieces_.insert(at, count - 1, Piece{});
  std::size_t from = pieces_[k + count - 1].start;
  const std::size_t stop = from + n;
  for (std::size_t j = k; j < k + count; ++j) {
    const std::size_t len = j + 1 < k + count ? kPiece : stop - from;
    pieces_[j] = Piece{static_cast<std::uint32_t>(from),
                       static_cast<std::uint32_t>(len), hash(data + from, len)};
    from += len;
  }
  return n;
}

std::size_t PieceTable::build(const char* data, std::size_t n) {
  reset();
  built_ = true;
  if (n == 0) return 0;
  pieces_.push_back(Piece{0, static_cast<std::uint32_t>(n), kDirty});
  return cut(data, 0);
}

std::uint64_t PieceTable::fold() const {
  std::uint64_t acc = 0;
  std::uint64_t weight = 1;  // r^start of the piece
  for (const Piece& p : pieces_) {
    acc = add(acc, mul(weight, p.hash));
    weight = mul(weight, p.len == kPiece ? kPieceWeight : pow(p.len));
  }
  return acc;
}

void PieceTable::settle() {
  if (pieces_.empty()) overwritten_.clear();
  for (std::size_t w = 0; w < overwritten_.size(); ++w) {
    for (std::uint64_t bits = overwritten_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t lo = (w * 64 + std::countr_zero(bits)) * kPiece;
      const std::size_t last = find(
          std::min(lo + kPiece, end(pieces_.size() - 1)) - 1);
      for (std::size_t k = find(lo); k <= last; ++k) pieces_[k].hash = kDirty;
    }
  }
  overwritten_.clear();
}

void PieceTable::splice(std::size_t offset, std::size_t old_len,
                        std::size_t new_len) {
  BSOAP_ASSERT(built_);
  if (old_len == 0 && new_len == 0) return;
  settle();
  const std::ptrdiff_t delta = static_cast<std::ptrdiff_t>(new_len) -
                               static_cast<std::ptrdiff_t>(old_len);
  if (pieces_.empty()) {  // the range was empty: it is all new bytes
    pieces_.push_back(Piece{0, static_cast<std::uint32_t>(new_len), kDirty});
    return;
  }
  const std::size_t first = find(offset);
  const std::size_t last = old_len > 0 ? find(offset + old_len - 1) : first;
  Piece& p = pieces_[first];
  p.len = static_cast<std::uint32_t>(end(last) + delta - p.start);
  p.hash = kDirty;
  const auto after = pieces_.begin() + static_cast<std::ptrdiff_t>(first) + 1;
  pieces_.erase(after, after + static_cast<std::ptrdiff_t>(last - first));
  for (std::size_t k = first + 1; k < pieces_.size(); ++k) {
    pieces_[k].start = static_cast<std::uint32_t>(pieces_[k].start + delta);
  }
  if (p.len == 0) {
    pieces_.erase(pieces_.begin() + static_cast<std::ptrdiff_t>(first));
  }
}

std::size_t PieceTable::merge(const char* data, std::size_t k) {
  Piece& a = pieces_[k];
  const Piece& b = pieces_[k + 1];
  a.hash = a.hash == kDirty || b.hash == kDirty
               ? kDirty
               : add(a.hash, mul(pow(a.len), b.hash));
  a.len += b.len;
  pieces_.erase(pieces_.begin() + static_cast<std::ptrdiff_t>(k) + 1);
  Piece& whole = pieces_[k];
  if (whole.len <= kMaxPiece || whole.hash == kDirty) return 0;
  // Too long: hash the back half, and the front half is what remains.
  const std::uint32_t front = whole.len / 2;
  const Piece back{whole.start + front, whole.len - front,
                   hash(data + whole.start + front, whole.len - front)};
  whole.hash = sub(whole.hash, mul(pow(front), back.hash));
  whole.len = front;
  pieces_.insert(pieces_.begin() + static_cast<std::ptrdiff_t>(k) + 1, back);
  return back.len;
}

std::size_t PieceTable::merge_short(const char* data) {
  std::size_t hashed = 0;
  for (std::size_t k = 0; k < pieces_.size() && pieces_.size() > 1;) {
    if (pieces_[k].len >= kMinPiece) {
      ++k;
    } else {
      hashed += merge(data, k > 0 ? k - 1 : 0);
    }
  }
  return hashed;
}

std::size_t PieceTable::refresh(const char* data) {
  settle();
  std::size_t hashed = 0;
  for (std::size_t k = 0; k < pieces_.size(); ++k) {
    if (pieces_[k].hash != kDirty) continue;
    const std::size_t n = pieces_[k].len;
    hashed += cut(data, k);
    k += pieces_for(n) - 1;
  }
  return hashed + merge_short(data);
}

std::size_t PieceTable::split(const char* data, std::size_t offset,
                              PieceTable* tail) {
  BSOAP_ASSERT(built_);
  settle();
  tail->reset();
  tail->built_ = true;
  if (pieces_.empty()) return 0;
  std::size_t cut_at = find(offset);
  std::size_t hashed = 0;
  Piece& p = pieces_[cut_at];
  if (offset == end(cut_at)) {  // the end of the range: nothing moves
    ++cut_at;
  } else if (offset > p.start) {  // straddles: cut it in two
    const std::size_t back = end(cut_at) - offset;
    tail->pieces_.push_back(Piece{static_cast<std::uint32_t>(offset),
                                  static_cast<std::uint32_t>(back),
                                  hash(data + offset, back)});
    hashed = back;
    p.len = static_cast<std::uint32_t>(offset - p.start);
    p.hash = kDirty;
    ++cut_at;
  }
  const auto from = pieces_.begin() + static_cast<std::ptrdiff_t>(cut_at);
  tail->pieces_.insert(tail->pieces_.end(), from, pieces_.end());
  pieces_.erase(from, pieces_.end());
  for (Piece& moved : tail->pieces_) {
    moved.start = static_cast<std::uint32_t>(moved.start - offset);
  }
  return hashed + merge_short(data) + tail->merge_short(data + offset);
}

bool PieceTable::check(const char* data, std::size_t n) const {
  if (!built_) return true;
  std::size_t at = 0;
  for (const Piece& p : pieces_) {
    if (p.start != at || p.len == 0) return false;
    at += p.len;
    bool stale = p.hash == kDirty;
    for (std::size_t b = p.start / kPiece; b <= (at - 1) / kPiece; ++b) {
      stale = stale || overwritten(b);
    }
    if (stale) continue;
    const bool sole = pieces_.size() == 1;
    if (p.len > kMaxPiece || (!sole && p.len < kMinPiece) ||
        p.hash != hash(data + p.start, p.len)) {
      return false;
    }
  }
  return at == n;
}

}  // namespace bsoap::poly
