// Chunked message storage (paper Section 3.2).
//
// Serialized SOAP templates are not stored contiguously: the message lives in
// variable-sized, potentially noncontiguous chunks so that on-the-fly
// expansion ("shifting") moves at most one chunk's tail instead of the whole
// message. Three configurable parameters — mirrored from the paper — govern
// behaviour: the default chunk size, the threshold above which a chunk is
// split in two rather than reallocated, and the slack left empty at the end
// of each chunk so small shifts need no allocation at all.
//
// Positions into the store are (chunk index, offset) pairs rather than raw
// pointers: a shift then only renumbers offsets within a single chunk, and a
// split renumbers chunk indices after the split point (see DutTable).
//
// Integrity root. root() returns the polynomial hash of the whole message
// (common/poly_hash.hpp) — the diff-wire patch frame's checksum. Each chunk
// keeps a piece table over its bytes and the fold of that table (the chunk
// hash); the root folds the chunk hashes by base offset, O(chunks). Hashing
// is lazy: a chunk is hashed from scratch on the first root() after it was
// built or appended to. From then on every change costs the bytes near it,
// as the paper's chunking intends for the bytes themselves: an in-place
// write (write_at, Edit) moves the chunk hash by the bytes it overwrites
// and marks them in the piece table (one bit, no piece touched); a shift
// (expand_at, contract_at) marks the piece or two it lands in dirty, and
// the next root() after a shift rehashes each marked piece once and
// refolds that chunk; a realloc keeps the table (offsets are
// chunk-relative); a split moves the pieces after the split point to the
// new chunk and rehashes only the piece that straddles it. A buffer whose
// root is never asked for pays one branch per write.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/poly_hash.hpp"

namespace bsoap::buffer {

/// Tuning knobs from the paper: "Configurable parameters determine the
/// default initial chunk size, the threshold at which chunks are split into
/// two, and the space that is initially left empty at the end of a chunk."
struct ChunkConfig {
  std::size_t chunk_size = 32 * 1024;   ///< capacity of newly created chunks
  std::size_t split_threshold = 64 * 1024;  ///< grow past this => split
  std::size_t tail_reserve = 512;       ///< slack kept empty while building

  /// Bytes of a fresh chunk usable during initial serialization.
  std::size_t payload_limit() const {
    return tail_reserve < chunk_size ? chunk_size - tail_reserve : chunk_size;
  }
};

/// A stable position in a ChunkedBuffer.
struct BufPos {
  std::uint32_t chunk = 0;
  std::uint32_t offset = 0;

  bool operator==(const BufPos&) const = default;
  /// Document order: chunk first, then offset.
  bool operator<(const BufPos& rhs) const {
    return chunk != rhs.chunk ? chunk < rhs.chunk : offset < rhs.offset;
  }
};

/// How an expand_at call made room for the larger field.
enum class ExpandOutcome {
  kSlack,    ///< tail moved right within existing capacity
  kRealloc,  ///< chunk reallocated to a larger capacity, then tail moved
  kSplit,    ///< tail split off into a freshly inserted chunk
};

struct ExpandResult {
  ExpandOutcome outcome = ExpandOutcome::kSlack;
  /// Valid for kSplit: bytes at offsets >= split_offset in the original
  /// chunk moved to the inserted chunk (same relative order, rebased to 0).
  std::size_t split_offset = 0;
};

/// Append-plus-in-place-edit byte store backed by a list of chunks.
class ChunkedBuffer {
  struct Chunk;

 public:
  explicit ChunkedBuffer(ChunkConfig config = {});

  ChunkedBuffer(ChunkedBuffer&&) noexcept = default;
  ChunkedBuffer& operator=(ChunkedBuffer&&) noexcept = default;

  const ChunkConfig& config() const { return config_; }

  // --- building ---------------------------------------------------------

  /// Appends bytes at the end, opening new chunks as needed. The data may be
  /// split across chunk boundaries (used for tags and literal markup).
  void append(const char* data, std::size_t n);
  void append(std::string_view text) { append(text.data(), text.size()); }

  /// Reserves `n` contiguous bytes at the end for direct writing and returns
  /// the pointer; a new chunk is opened if the current one cannot fit them.
  /// Caller writes up to `n` bytes then calls commit(written).
  /// n must not exceed the chunk payload size.
  char* reserve_contiguous(std::size_t n);
  void commit(std::size_t written);

  /// Position of the bytes handed out by the last reserve_contiguous call.
  /// Valid between reserve_contiguous and commit.
  BufPos reserved_pos() const {
    BSOAP_ASSERT(!chunks_.empty());
    return BufPos{static_cast<std::uint32_t>(chunks_.size() - 1),
                  static_cast<std::uint32_t>(chunks_.back().size)};
  }

  /// Position one past the last byte (where the next append lands is not
  /// guaranteed to be this position if a new chunk is opened).
  BufPos end_pos() const;

  // --- reading ----------------------------------------------------------

  std::size_t total_size() const { return total_size_; }
  std::size_t chunk_count() const { return chunks_.size(); }
  std::string_view chunk_view(std::size_t i) const;
  std::size_t chunk_capacity(std::size_t i) const;

  /// Pointer to the byte at `pos`. pos.offset may equal the chunk size only
  /// for the final chunk (end position). Read-only: in-place writes go
  /// through write_at or an Edit so the chunk's hash follows them.
  const char* at(BufPos pos) const;

  /// Copies the whole message into one string (tests, linearized sends).
  std::string linearize() const;

  /// Read `n` bytes starting at `pos`, possibly across chunks.
  void read_at(BufPos pos, char* out, std::size_t n) const;

  // --- in-place editing (differential serialization) ---------------------

  /// Overwrites `n` bytes at `pos`. The region must lie within one chunk —
  /// serialized fields are always stored contiguously.
  void write_at(BufPos pos, const char* data, std::size_t n);

  /// A scoped in-place write of the `n` bytes at `pos` (within one chunk):
  /// data() may be written freely until the Edit closes. While the chunk is
  /// hashed, opening hashes the region's old bytes and closing moves the
  /// chunk hash by the difference and marks the region in the chunk's
  /// piece table; otherwise both are one branch. Edits on distinct chunks
  /// touch disjoint state, so writers partitioned by chunk may run them
  /// concurrently.
  class Edit {
   public:
    Edit(ChunkedBuffer& buf, BufPos pos, std::size_t n);
    ~Edit();
    Edit(const Edit&) = delete;
    Edit& operator=(const Edit&) = delete;

    char* data() const { return data_; }

   private:
    char* data_ = nullptr;
    Chunk* chunk_ = nullptr;  ///< set while the chunk is hashed
    std::uint32_t offset_ = 0;
    std::uint32_t len_ = 0;
    std::uint64_t old_hash_ = 0;  ///< while the chunk hash is folded
  };

  /// Grows the region [pos, pos+old_len) to new_len bytes, moving the tail
  /// of the chunk right. Bytes of the region itself are preserved (the
  /// caller rewrites them); new bytes are uninitialized. Returns how room
  /// was made so the caller can renumber its positions:
  ///   kSlack/kRealloc: offsets > pos.offset+old_len in this chunk move
  ///                    right by (new_len - old_len);
  ///   kSplit: offsets >= split_offset move to chunk pos.chunk+1 at
  ///           (offset - split_offset); later chunk indices shift by +1;
  ///           then the in-chunk rule applies to what remained.
  ExpandResult expand_at(BufPos pos, std::size_t old_len, std::size_t new_len);

  /// Shrinks the region [pos, pos+old_len) to new_len, moving the chunk tail
  /// left. Offsets > pos.offset+old_len move left by (old_len - new_len).
  void contract_at(BufPos pos, std::size_t old_len, std::size_t new_len);

  /// Gathers all chunks as (pointer, length) slices for scatter-gather IO.
  struct Slice {
    const char* data;
    std::size_t len;
  };
  std::vector<Slice> slices() const;

  /// Appends the nonempty chunks to `out` as `SliceT{data, len}` — lets a
  /// send path fill its (reusable) net-layer slice vector directly instead
  /// of materializing a Slice vector and re-wrapping it per send.
  template <typename SliceT>
  void append_slices(std::vector<SliceT>& out) const {
    out.reserve(out.size() + chunks_.size());
    for (const Chunk& c : chunks_) {
      if (c.size > 0) out.push_back(SliceT{c.data.get(), c.size});
    }
  }

  /// Removes all content but keeps the configuration.
  void clear();

  // --- integrity root -----------------------------------------------------

  /// poly::hash of the whole message, maintained incrementally (see the
  /// file comment). Builds the tables of stale chunks, and rehashes the
  /// dirty pieces of the chunks a shift or split touched.
  std::uint64_t root();

  /// Bytes hashed from scratch so far: chunk builds, and the pieces
  /// rehashed after shifts and splits (those the shifts, splits and the
  /// in-place writes since landed in). The region hashes of in-place
  /// writes are not counted, so a steady stream of same-width rewrites
  /// adds nothing.
  std::uint64_t hashed_bytes() const { return hashed_bytes_; }

  /// Internal consistency check (tests): sizes/capacities are coherent and
  /// every hashed chunk's pieces and hash match its bytes.
  bool check_invariants() const;

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    std::size_t size = 0;
    std::size_t capacity = 0;
    poly::PieceTable pieces;  ///< unbuilt = stale: root() hashes the chunk
    std::uint64_t hash = 0;   ///< poly::hash of the bytes, while `folded`
    bool folded = false;
  };

  Chunk make_chunk(std::size_t capacity) const;
  Chunk& last() { return chunks_.back(); }
  /// Marks a chunk whose bytes grew at its end stale: one branch while
  /// the root has never been asked for (the building path).
  static void stale(Chunk& c) {
    if (!c.pieces.built()) return;
    c.pieces.reset();
    c.folded = false;
  }
  /// Moves `c`'s bytes into a new allocation of `capacity`.
  static void grow(Chunk& c, std::size_t capacity);
  /// Follows a shift of `c`'s region at `offset` in its piece table.
  static void splice_pieces(Chunk& c, std::size_t offset, std::size_t old_len,
                            std::size_t new_len);

  ChunkConfig config_;
  std::vector<Chunk> chunks_;
  std::size_t total_size_ = 0;
  std::size_t reserved_ = 0;  // outstanding reserve_contiguous amount
  std::uint64_t hashed_bytes_ = 0;
};

// Inline: every field rewrite of the update stage opens one.
inline ChunkedBuffer::Edit::Edit(ChunkedBuffer& buf, BufPos pos,
                                 std::size_t n) {
  BSOAP_ASSERT(pos.chunk < buf.chunks_.size());
  Chunk& c = buf.chunks_[pos.chunk];
  BSOAP_ASSERT(pos.offset + n <= c.size);
  data_ = c.data.get() + pos.offset;
  if (c.pieces.built()) {
    chunk_ = &c;
    offset_ = pos.offset;
    len_ = static_cast<std::uint32_t>(n);
    if (c.folded) old_hash_ = poly::hash(data_, n);
  }
}

inline ChunkedBuffer::Edit::~Edit() {
  if (chunk_ == nullptr) return;
  if (chunk_->folded) {
    chunk_->hash = poly::add(
        chunk_->hash,
        poly::move_by(offset_, poly::sub(poly::hash(data_, len_), old_hash_)));
  }
  chunk_->pieces.overwrite(offset_, len_);
}

}  // namespace bsoap::buffer
