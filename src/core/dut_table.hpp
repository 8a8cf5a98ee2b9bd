// Data Update Tracking (DUT) table — paper Section 3.1.
//
// Each saved message template owns a DUT table with one entry per data item
// in the message. An entry holds exactly the fields the paper lists:
//   * a pointer to type information, including the maximum serialized size,
//   * a dirty bit (changed since last written into the serialized message),
//   * the item's current location in the serialized message,
//   * its serialized length (characters used by the most recent value), and
//   * its field width (characters currently allocated; >= serialized length).
//
// Locations are (chunk, offset) pairs instead of raw pointers so that a
// shift renumbers offsets within one chunk and a chunk split renumbers chunk
// indices — no pointer rewriting over the whole table.
//
// Entries additionally carry a shadow copy of the last serialized value,
// which lets the stub detect changes by comparison when the application does
// not use the explicit set-API (the paper's envisioned get/set accessors).
//
// Two structures sit beside the entry array for the bulk array fast path:
//
//   * Dirty bits live in a dense word bitmask, not in the entries: marking
//     touches one cache line per 64 leaves, and the dirty-field update scans
//     whole words instead of striding through ~48-byte entries.
//   * Homogeneous array parameters are described by ArraySegment records
//     with struct-of-arrays shadow planes (contiguous double[]/int32[]/Mio[]
//     copies of the last serialized values), so comparison-based dirty
//     detection over an array is a memcmp-wide scan of new[] vs shadow[]
//     instead of a per-leaf union compare. The per-entry shadow union is
//     kept in sync so either update mode can follow the other.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "buffer/chunked_buffer.hpp"
#include "common/error.hpp"
#include "soap/value.hpp"

namespace bsoap::core {

enum class LeafType : std::uint8_t {
  kInt32,
  kInt64,
  kDouble,
  kBool,
  kString,
};

/// Static per-type information (the paper's "pointer to a data structure
/// that contains information about the data item's type").
struct LeafTypeInfo {
  LeafType type;
  /// Maximum characters any serialized value of this type can occupy;
  /// 0 = unbounded (strings cannot be stuffed — paper footnote 2).
  std::uint16_t max_chars;
  std::string_view xsd_name;
};

const LeafTypeInfo& leaf_type_info(LeafType type) noexcept;

struct DutEntry {
  const LeafTypeInfo* type = nullptr;
  buffer::BufPos pos;                 ///< first byte of the serialized value
  std::uint32_t serialized_len = 0;   ///< chars of the current value
  std::uint32_t field_width = 0;      ///< chars allocated (>= serialized_len)
  std::uint32_t close_tag_len = 0;    ///< bytes of the closing tag after the value

  /// Shadow copy of the last serialized value (for comparison-based dirty
  /// detection). Strings live in DutTable::shadow_strings_.
  union Shadow {
    std::int64_t i;
    double d;
  } shadow{0};
  std::uint32_t shadow_string = kNoString;

  static constexpr std::uint32_t kNoString = 0xffffffffu;

  /// Whitespace currently padding this field (after the closing tag).
  std::uint32_t padding() const { return field_width - serialized_len; }
};

/// A homogeneous run of DUT entries produced by one array parameter. The
/// segment's shadow values live contiguously in the matching SoA plane,
/// `elem_count` elements starting at `plane_offset`.
struct ArraySegment {
  enum class Kind : std::uint8_t { kDouble, kInt32, kMio };

  Kind kind = Kind::kDouble;
  std::uint32_t first_leaf = 0;   ///< DUT index of the segment's first entry
  std::uint32_t elem_count = 0;   ///< array elements (an MIO is 3 leaves)
  std::uint32_t plane_offset = 0; ///< element offset into the kind's plane

  // Cached width minima over the segment's entries (int-typed and
  // double-typed leaves separately), used to prove a parallel update cannot
  // expand. Valid while width_epoch matches the template's steal counter +1;
  // widths only shrink when a steal takes a donor's padding.
  mutable std::uint32_t min_int_width = 0;
  mutable std::uint32_t min_double_width = 0;
  mutable std::uint64_t width_epoch = 0;  ///< 0 = never computed

  std::uint32_t leaves_per_elem() const {
    return kind == Kind::kMio ? 3u : 1u;
  }
  std::uint32_t leaf_count() const { return elem_count * leaves_per_elem(); }
};

class DutTable {
 public:
  void reserve(std::size_t n) {
    entries_.reserve(n);
    dirty_words_.reserve((n + 63) / 64);
  }

  std::uint32_t add_entry(const DutEntry& entry) {
    entries_.push_back(entry);
    if (entries_.size() > dirty_words_.size() * 64) dirty_words_.push_back(0);
    return static_cast<std::uint32_t>(entries_.size() - 1);
  }

  std::uint32_t add_string_shadow(std::string value) {
    shadow_strings_.push_back(std::move(value));
    return static_cast<std::uint32_t>(shadow_strings_.size() - 1);
  }

  std::size_t size() const { return entries_.size(); }
  DutEntry& operator[](std::size_t i) { return entries_[i]; }
  const DutEntry& operator[](std::size_t i) const { return entries_[i]; }

  std::string& shadow_string(std::uint32_t index) {
    return shadow_strings_[index];
  }

  // --- dirty bits (dense word bitmask) ------------------------------------

  /// Dirty-bit bookkeeping. "If none of the dirty bits are set, the message
  /// has not changed and can be resent as is."
  bool is_dirty(std::size_t i) const {
    return (dirty_words_[i >> 6] >> (i & 63)) & 1u;
  }
  void mark_dirty(std::size_t i) {
    std::uint64_t& word = dirty_words_[i >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if ((word & bit) == 0) {
      word |= bit;
      ++dirty_count_;
    }
  }
  void clear_dirty(std::size_t i) {
    std::uint64_t& word = dirty_words_[i >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if ((word & bit) != 0) {
      word &= ~bit;
      --dirty_count_;
    }
  }
  bool any_dirty() const { return dirty_count_ > 0; }
  std::size_t dirty_count() const { return dirty_count_; }
  /// Dirty bits set in [begin, end): a popcount over the mask words.
  std::size_t dirty_count_in(std::size_t begin, std::size_t end) const;

  /// The raw bitmask for word-wide scanning; bit i of word w is leaf
  /// w*64 + i. Bits at or beyond size() are always zero.
  const std::uint64_t* dirty_words() const { return dirty_words_.data(); }
  std::size_t dirty_word_count() const { return dirty_words_.size(); }

  /// Clears every dirty bit in [begin, end), adjusting the count by the
  /// popcount actually cleared (bulk path: one pass after a segment update
  /// instead of a clear_dirty per leaf).
  void clear_dirty_range(std::size_t begin, std::size_t end);

  /// Clears exactly the bits covered by `runs` ([first, second) leaf
  /// ranges). O(dirty words), not O(segment words): the scan that produced
  /// the runs already proved every other word in the segment is clean.
  void clear_dirty_runs(
      std::span<const std::pair<std::uint32_t, std::uint32_t>> runs);

  /// Clears `bits` of dirty word `w`; every bit passed must currently be
  /// set (the fused serial scan passes the masked word it just drained).
  void clear_dirty_word(std::size_t w, std::uint64_t bits) {
    BSOAP_ASSERT((dirty_words_[w] & bits) == bits);
    dirty_words_[w] &= ~bits;
    dirty_count_ -= static_cast<std::size_t>(std::popcount(bits));
  }

  /// Appends (word index, word) for every nonzero mask word — the update
  /// journal's dirty snapshot, taken before a differential update.
  void snapshot_dirty_words(
      std::vector<std::pair<std::uint32_t, std::uint64_t>>& out) const {
    for (std::size_t w = 0; w < dirty_words_.size(); ++w) {
      if (dirty_words_[w] != 0) {
        out.emplace_back(static_cast<std::uint32_t>(w), dirty_words_[w]);
      }
    }
  }

  /// Restores the mask from a snapshot taken before an update. Sound only
  /// while no bit has been set since the snapshot (updates only clear
  /// bits), so every word absent from the snapshot is still zero.
  void restore_dirty_words(
      std::span<const std::pair<std::uint32_t, std::uint64_t>> words,
      std::size_t count) {
    for (const auto& [w, bits] : words) dirty_words_[w] = bits;
    dirty_count_ = count;
  }

  // --- array segments + SoA shadow planes ---------------------------------

  std::uint32_t add_double_segment(std::uint32_t first_leaf, const double* v,
                                   std::size_t n);
  std::uint32_t add_int_segment(std::uint32_t first_leaf,
                                const std::int32_t* v, std::size_t n);
  std::uint32_t add_mio_segment(std::uint32_t first_leaf, const soap::Mio* v,
                                std::size_t n);

  const std::vector<ArraySegment>& segments() const { return segments_; }

  double* double_plane(const ArraySegment& seg) {
    return double_plane_.data() + seg.plane_offset;
  }
  std::int32_t* int_plane(const ArraySegment& seg) {
    return int_plane_.data() + seg.plane_offset;
  }
  soap::Mio* mio_plane(const ArraySegment& seg) {
    return mio_plane_.data() + seg.plane_offset;
  }

  /// Renumbers after an in-chunk shift: entries in `chunk` whose offset is
  /// >= from_offset move right by `delta` bytes. Entries are in document
  /// order, so the affected ones form a contiguous suffix range.
  void apply_shift(std::uint32_t chunk, std::uint32_t from_offset,
                   std::uint32_t delta);

  /// Renumbers after ChunkedBuffer::expand_at reported a split of `chunk` at
  /// `split_offset`: entries at >= split_offset move to chunk+1 rebased to
  /// offset - split_offset; entries in later chunks get chunk index +1.
  void apply_split(std::uint32_t chunk, std::uint32_t split_offset);

  /// Index of the first entry at or after the given position (document
  /// order). Returns size() if none.
  std::size_t first_entry_at_or_after(buffer::BufPos pos) const;

  /// Verifies document-ordering and width invariants (tests). The O(n)
  /// dirty recount runs in debug-assert builds only.
  bool check_invariants() const;

  /// Removes all entries, shadow strings, segments and planes (template
  /// rebuild).
  void clear() {
    entries_.clear();
    shadow_strings_.clear();
    dirty_words_.clear();
    segments_.clear();
    double_plane_.clear();
    int_plane_.clear();
    mio_plane_.clear();
    dirty_count_ = 0;
  }

 private:
  std::vector<DutEntry> entries_;
  std::vector<std::string> shadow_strings_;
  std::vector<std::uint64_t> dirty_words_;
  std::size_t dirty_count_ = 0;

  std::vector<ArraySegment> segments_;
  std::vector<double> double_plane_;
  std::vector<std::int32_t> int_plane_;
  std::vector<soap::Mio> mio_plane_;
};

}  // namespace bsoap::core
