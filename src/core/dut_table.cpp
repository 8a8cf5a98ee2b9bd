#include "core/dut_table.hpp"

#include <algorithm>
#include <cstring>

#include "textconv/widths.hpp"

namespace bsoap::core {

const LeafTypeInfo& leaf_type_info(LeafType type) noexcept {
  static const LeafTypeInfo kInt32Info{
      LeafType::kInt32, textconv::kMaxInt32Chars, "xsd:int"};
  static const LeafTypeInfo kInt64Info{
      LeafType::kInt64, textconv::kMaxInt64Chars, "xsd:long"};
  static const LeafTypeInfo kDoubleInfo{
      LeafType::kDouble, textconv::kMaxDoubleChars, "xsd:double"};
  static const LeafTypeInfo kBoolInfo{LeafType::kBool, 5, "xsd:boolean"};
  static const LeafTypeInfo kStringInfo{LeafType::kString, 0, "xsd:string"};
  switch (type) {
    case LeafType::kInt32: return kInt32Info;
    case LeafType::kInt64: return kInt64Info;
    case LeafType::kDouble: return kDoubleInfo;
    case LeafType::kBool: return kBoolInfo;
    case LeafType::kString: return kStringInfo;
  }
  return kStringInfo;
}

std::size_t DutTable::dirty_count_in(std::size_t begin,
                                     std::size_t end) const {
  std::size_t count = 0;
  for (std::size_t i = begin; i < end;) {
    const std::size_t bit = i & 63;
    const std::size_t span = std::min<std::size_t>(64 - bit, end - i);
    std::uint64_t mask = ~std::uint64_t{0} << bit;
    if (span < 64) mask &= ~std::uint64_t{0} >> (64 - bit - span);
    count +=
        static_cast<std::size_t>(std::popcount(dirty_words_[i >> 6] & mask));
    i += span;
  }
  return count;
}

void DutTable::clear_dirty_range(std::size_t begin, std::size_t end) {
  if (begin >= end) return;
  std::size_t cleared = 0;
  std::size_t i = begin;
  while (i < end) {
    std::uint64_t& word = dirty_words_[i >> 6];
    const std::size_t bit = i & 63;
    const std::size_t span = std::min<std::size_t>(64 - bit, end - i);
    // Mask covering bits [bit, bit+span) of this word.
    std::uint64_t mask = ~std::uint64_t{0} << bit;
    if (span < 64) mask &= ~std::uint64_t{0} >> (64 - bit - span);
    cleared += static_cast<std::size_t>(std::popcount(word & mask));
    word &= ~mask;
    i += span;
  }
  BSOAP_ASSERT(cleared <= dirty_count_);
  dirty_count_ -= cleared;
}

void DutTable::clear_dirty_runs(
    std::span<const std::pair<std::uint32_t, std::uint32_t>> runs) {
  std::size_t cleared = 0;
  for (const auto& [begin, end] : runs) {
    std::size_t i = begin;
    while (i < end) {
      std::uint64_t& word = dirty_words_[i >> 6];
      const std::size_t bit = i & 63;
      const std::size_t span = std::min<std::size_t>(64 - bit, end - i);
      std::uint64_t mask = ~std::uint64_t{0} << bit;
      if (span < 64) mask &= ~std::uint64_t{0} >> (64 - bit - span);
      cleared += static_cast<std::size_t>(std::popcount(word & mask));
      word &= ~mask;
      i += span;
    }
  }
  BSOAP_ASSERT(cleared <= dirty_count_);
  dirty_count_ -= cleared;
}

std::uint32_t DutTable::add_double_segment(std::uint32_t first_leaf,
                                           const double* v, std::size_t n) {
  ArraySegment seg;
  seg.kind = ArraySegment::Kind::kDouble;
  seg.first_leaf = first_leaf;
  seg.elem_count = static_cast<std::uint32_t>(n);
  seg.plane_offset = static_cast<std::uint32_t>(double_plane_.size());
  double_plane_.insert(double_plane_.end(), v, v + n);
  segments_.push_back(seg);
  return static_cast<std::uint32_t>(segments_.size() - 1);
}

std::uint32_t DutTable::add_int_segment(std::uint32_t first_leaf,
                                        const std::int32_t* v, std::size_t n) {
  ArraySegment seg;
  seg.kind = ArraySegment::Kind::kInt32;
  seg.first_leaf = first_leaf;
  seg.elem_count = static_cast<std::uint32_t>(n);
  seg.plane_offset = static_cast<std::uint32_t>(int_plane_.size());
  int_plane_.insert(int_plane_.end(), v, v + n);
  segments_.push_back(seg);
  return static_cast<std::uint32_t>(segments_.size() - 1);
}

std::uint32_t DutTable::add_mio_segment(std::uint32_t first_leaf,
                                        const soap::Mio* v, std::size_t n) {
  ArraySegment seg;
  seg.kind = ArraySegment::Kind::kMio;
  seg.first_leaf = first_leaf;
  seg.elem_count = static_cast<std::uint32_t>(n);
  seg.plane_offset = static_cast<std::uint32_t>(mio_plane_.size());
  mio_plane_.insert(mio_plane_.end(), v, v + n);
  segments_.push_back(seg);
  return static_cast<std::uint32_t>(segments_.size() - 1);
}

std::size_t DutTable::first_entry_at_or_after(buffer::BufPos pos) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), pos,
      [](const DutEntry& e, buffer::BufPos p) { return e.pos < p; });
  return static_cast<std::size_t>(it - entries_.begin());
}

void DutTable::apply_shift(std::uint32_t chunk, std::uint32_t from_offset,
                           std::uint32_t delta) {
  for (std::size_t i =
           first_entry_at_or_after(buffer::BufPos{chunk, from_offset});
       i < entries_.size() && entries_[i].pos.chunk == chunk; ++i) {
    entries_[i].pos.offset += delta;
  }
}

void DutTable::apply_split(std::uint32_t chunk, std::uint32_t split_offset) {
  for (std::size_t i =
           first_entry_at_or_after(buffer::BufPos{chunk, split_offset});
       i < entries_.size(); ++i) {
    DutEntry& e = entries_[i];
    if (e.pos.chunk == chunk) {
      e.pos.chunk = chunk + 1;
      e.pos.offset -= split_offset;
    } else {
      e.pos.chunk += 1;
    }
  }
}

bool DutTable::check_invariants() const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const DutEntry& e = entries_[i];
    if (e.type == nullptr) return false;
    if (e.field_width < e.serialized_len) return false;
    if (i > 0 && !(entries_[i - 1].pos < e.pos)) return false;
    if (e.type->type == LeafType::kString) {
      if (e.shadow_string == DutEntry::kNoString ||
          e.shadow_string >= shadow_strings_.size()) {
        return false;
      }
    }
  }
  for (const ArraySegment& seg : segments_) {
    if (seg.first_leaf + seg.leaf_count() > entries_.size()) return false;
  }
#ifdef BSOAP_DEBUG_INVARIANTS
  // O(n) recount of the bitmask against the cached counter — debug-assert
  // builds only, so release hot paths never pay it.
  std::size_t dirty = 0;
  for (std::size_t w = 0; w < dirty_words_.size(); ++w) {
    dirty += static_cast<std::size_t>(std::popcount(dirty_words_[w]));
  }
  if (dirty != dirty_count_) return false;
#endif
  return true;
}

}  // namespace bsoap::core
