#include "core/message_template.hpp"

#include <algorithm>
#include <cstring>

#include "textconv/dtoa.hpp"
#include "textconv/itoa.hpp"
#include "textconv/swar.hpp"

namespace bsoap::core {
namespace {

constexpr std::uint32_t kMaxCloseTag = 32;

/// Restores one SoA plane slot from a rolled-back entry's shadow union (the
/// per-entry shadows and the planes are kept in sync by every update path,
/// so the restored union is the plane's pre-update value).
void restore_plane_slot(DutTable& dut, std::size_t idx, const DutEntry& e) {
  const std::vector<ArraySegment>& segs = dut.segments();
  const auto it = std::upper_bound(
      segs.begin(), segs.end(), idx,
      [](std::size_t i, const ArraySegment& s) { return i < s.first_leaf; });
  if (it == segs.begin()) return;
  const ArraySegment& seg = *std::prev(it);
  const std::size_t off = idx - seg.first_leaf;
  if (off >= seg.leaf_count()) return;
  switch (seg.kind) {
    case ArraySegment::Kind::kDouble:
      dut.double_plane(seg)[off] = e.shadow.d;
      break;
    case ArraySegment::Kind::kInt32:
      dut.int_plane(seg)[off] = static_cast<std::int32_t>(e.shadow.i);
      break;
    case ArraySegment::Kind::kMio: {
      soap::Mio& m = dut.mio_plane(seg)[off / 3];
      switch (off % 3) {
        case 0: m.x = static_cast<std::int32_t>(e.shadow.i); break;
        case 1: m.y = static_cast<std::int32_t>(e.shadow.i); break;
        default: m.value = e.shadow.d; break;
      }
      break;
    }
  }
}

}  // namespace

void UpdateJournal::begin(MessageTemplate& tmpl) {
  records_.clear();
  bytes_.clear();
  strings_.clear();
  dirty_words_.clear();
  shifts_.clear();
  steals_.clear();
  structural_marks_ = 0;
  armed_ = true;
  tmpl.dut().snapshot_dirty_words(dirty_words_);
  dirty_count_ = tmpl.dut().dirty_count();
  stats_ = tmpl.stats();
  tmpl.journal_ = this;
}

void UpdateJournal::commit(MessageTemplate& tmpl) {
  BSOAP_ASSERT(tmpl.journal_ == this);
  tmpl.journal_ = nullptr;
  armed_ = false;
  records_.clear();
  bytes_.clear();
  strings_.clear();
  dirty_words_.clear();
  shifts_.clear();
  steals_.clear();
}

void UpdateJournal::record_field(MessageTemplate& tmpl, std::size_t idx) {
  const DutEntry& e = tmpl.dut()[idx];
  FieldRecord rec;
  rec.idx = static_cast<std::uint32_t>(idx);
  rec.entry = e;
  rec.byte_off = static_cast<std::uint32_t>(bytes_.size());
  rec.byte_len = e.field_width + e.close_tag_len;
  bytes_.resize(bytes_.size() + rec.byte_len);
  tmpl.buffer().read_at(e.pos, bytes_.data() + rec.byte_off, rec.byte_len);
  if (e.shadow_string != DutEntry::kNoString) {
    rec.shadow_string = static_cast<std::uint32_t>(strings_.size());
    strings_.push_back(tmpl.dut().shadow_string(e.shadow_string));
  }
  records_.push_back(rec);
}

bool UpdateJournal::rollback(MessageTemplate& tmpl) {
  BSOAP_ASSERT(tmpl.journal_ == this);
  tmpl.journal_ = nullptr;
  armed_ = false;
  if (structural()) return false;
  DutTable& dut = tmpl.dut();
  // Reverse order: a leaf recorded twice (RunWriter fallback re-entering
  // rewrite_value) has its earliest record — the true pre-update state —
  // restored last.
  for (auto it = records_.rbegin(); it != records_.rend(); ++it) {
    const FieldRecord& rec = *it;
    DutEntry& e = dut[rec.idx];
    e = rec.entry;
    tmpl.buffer().write_at(e.pos, bytes_.data() + rec.byte_off, rec.byte_len);
    if (rec.shadow_string != DutEntry::kNoString) {
      dut.shadow_string(e.shadow_string) = strings_[rec.shadow_string];
    }
    restore_plane_slot(dut, rec.idx, e);
  }
  dut.restore_dirty_words(dirty_words_, dirty_count_);
  tmpl.stats() = stats_;
  records_.clear();
  bytes_.clear();
  strings_.clear();
  dirty_words_.clear();
  return true;
}

void MessageTemplate::rewrite_value(std::size_t idx, const char* text,
                                    std::uint32_t len) {
  DutEntry& entry = dut_[idx];
  if (journal_ != nullptr) journal_->record_field(*this, idx);
  ++stats_.value_rewrites;

  if (len == entry.serialized_len) {
    // Same serialized size: overwrite the value bytes only; tag and padding
    // are already in place.
    buffer_.write_at(entry.pos, text, len);
    stats_.bytes_rewritten += len;
    return;
  }

  if (len > entry.field_width) {
    // The value no longer fits: widen the field, by stealing a neighbour's
    // padding when allowed, else by shifting the chunk tail. Either way,
    // bytes outside the recorded field regions move — past the point of
    // exact rollback. try_steal and expand_by_shifting record the geometry
    // a diff-wire patch needs.
    if (journal_ != nullptr) journal_->mark_structural();
    ++stats_.expansions;
    std::uint32_t new_width = len;
    if (config_.stuffing.stuff_on_expand && entry.type->max_chars > 0) {
      new_width = std::max<std::uint32_t>(len, entry.type->max_chars);
    }
    if (!(config_.enable_stealing && try_steal(idx, new_width))) {
      expand_by_shifting(idx, new_width);
    }
  }

  // Write value, closing tag (shifted to sit right after the value), and
  // whitespace padding up to the field width.
  DutEntry& e = dut_[idx];  // re-read: expansion may have renumbered
  char tag[kMaxCloseTag];
  BSOAP_ASSERT(e.close_tag_len <= kMaxCloseTag);
  buffer_.read_at(buffer::BufPos{e.pos.chunk, e.pos.offset + e.serialized_len},
                  tag, e.close_tag_len);
  const buffer::ChunkedBuffer::Edit edit(buffer_, e.pos,
                                         e.field_width + e.close_tag_len);
  char* base = edit.data();
  std::memcpy(base, text, len);
  std::memcpy(base + len, tag, e.close_tag_len);
  std::memset(base + len + e.close_tag_len, ' ', e.field_width - len);
  ++stats_.tag_shifts;
  stats_.bytes_rewritten += e.field_width + e.close_tag_len;
  e.serialized_len = len;
}

bool MessageTemplate::try_steal(std::size_t idx, std::uint32_t new_width) {
  DutEntry& entry = dut_[idx];
  const std::uint32_t delta = new_width - entry.field_width;
  const std::uint32_t chunk = entry.pos.chunk;

  for (std::size_t j = idx + 1;
       j < dut_.size() && j <= idx + config_.steal_scan_limit; ++j) {
    DutEntry& donor = dut_[j];
    if (donor.pos.chunk != chunk) return false;  // stealing stays in-chunk
    if (donor.padding() < delta) continue;

    // Move everything between the end of our region and the end of the
    // donor's value+tag right by delta; the donor's padding absorbs it.
    const std::uint32_t move_begin =
        entry.pos.offset + entry.field_width + entry.close_tag_len;
    const std::uint32_t move_end =
        donor.pos.offset + donor.serialized_len + donor.close_tag_len;
    const buffer::ChunkedBuffer::Edit edit(
        buffer_, buffer::BufPos{chunk, move_begin},
        move_end + delta - move_begin);
    std::memmove(edit.data() + delta, edit.data(), move_end - move_begin);
    for (std::size_t k = idx + 1; k <= j; ++k) {
      dut_[k].pos.offset += delta;
    }
    donor.field_width -= delta;
    entry.field_width = new_width;
    ++stats_.steals;
    if (journal_ != nullptr) journal_->record_steal(idx, j);
    return true;
  }
  return false;
}

void MessageTemplate::expand_by_shifting(std::size_t idx,
                                         std::uint32_t new_width) {
  DutEntry& entry = dut_[idx];
  const std::uint32_t old_region = entry.field_width + entry.close_tag_len;
  const std::uint32_t new_region = new_width + entry.close_tag_len;
  const std::uint32_t chunk = entry.pos.chunk;
  const std::uint32_t region_end = entry.pos.offset + old_region;

  // The closing tag (inside the region) survives expand_at in place; the
  // caller rewrites value+tag+padding afterwards via rewrite_value.
  const buffer::ExpandResult result =
      buffer_.expand_at(entry.pos, old_region, new_region);
  const std::uint32_t delta = new_region - old_region;
  switch (result.outcome) {
    case buffer::ExpandOutcome::kSlack:
      ++stats_.chunk_shifts;
      dut_.apply_shift(chunk, region_end, delta);
      break;
    case buffer::ExpandOutcome::kRealloc:
      ++stats_.chunk_reallocs;
      dut_.apply_shift(chunk, region_end, delta);
      break;
    case buffer::ExpandOutcome::kSplit:
      ++stats_.chunk_splits;
      dut_.apply_split(chunk, static_cast<std::uint32_t>(result.split_offset));
      break;
  }
  dut_[idx].field_width = new_width;
  if (journal_ != nullptr) journal_->record_shift(idx, old_region, new_region);
}

void MessageTemplate::RunWriter::rewrite_padded(std::size_t idx,
                                                const char* text,
                                                std::uint32_t len) {
  DutEntry& e = tmpl_.dut()[idx];
  if (len > e.field_width) {
    // Expansion: the full steal/shift/split machinery, which may renumber
    // positions, realloc a chunk, or split chunks. Parallel callers prove
    // fit up front, so this only runs with the template's own stats block
    // (single-threaded).
    BSOAP_ASSERT(&stats_ == &tmpl_.stats());
    tmpl_.rewrite_value(idx, text, len);
    return;
  }
  if (UpdateJournal* journal = tmpl_.journal()) {
    journal->record_field(tmpl_, idx);
  }
  const buffer::ChunkedBuffer::Edit edit(tmpl_.buffer(), e.pos,
                                         e.field_width + e.close_tag_len);
  char* p = edit.data();
  ++stats_.value_rewrites;
  if (len == e.serialized_len) {
    textconv::swar::copy_digits(p, text, len);
    stats_.bytes_rewritten += len;
    return;
  }
  // Tag shift, all wide exact stores. The tag save reads from the buffer
  // (whose readable extent past the region is not guaranteed), so it stays
  // a bounded memcpy; the local is padded so the store side can go wide.
  char tag[kMaxCloseTag + 8];
  BSOAP_ASSERT(e.close_tag_len <= kMaxCloseTag);
  std::memcpy(tag, p + e.serialized_len, e.close_tag_len);
  textconv::swar::copy_digits(p, text, len);
  textconv::swar::copy_digits(p + len, tag, e.close_tag_len);
  textconv::swar::fill_spaces(p + len + e.close_tag_len, e.field_width - len);
  ++stats_.tag_shifts;
  stats_.bytes_rewritten += e.field_width + e.close_tag_len;
  e.serialized_len = len;
}

template <typename Convert>
void MessageTemplate::RunWriter::rewrite_convert(std::size_t idx,
                                                 std::uint32_t max_chars,
                                                 Convert conv) {
  DutEntry& e = tmpl_.dut()[idx];
  if (e.field_width >= max_chars) [[likely]] {
    // Type-max stuffed field: every value fits, so the converter's exact
    // wide stores land straight in the buffer region — no scratch copy.
    // The closing tag is captured first because a longer value overwrites
    // its leading bytes.
    if (UpdateJournal* journal = tmpl_.journal()) {
      journal->record_field(tmpl_, idx);
    }
    const buffer::ChunkedBuffer::Edit edit(tmpl_.buffer(), e.pos,
                                           e.field_width + e.close_tag_len);
    char* p = edit.data();
    ++stats_.value_rewrites;
    char tag[kMaxCloseTag + 8];
    BSOAP_ASSERT(e.close_tag_len <= kMaxCloseTag);
    std::memcpy(tag, p + e.serialized_len, e.close_tag_len);
    const std::uint32_t len = conv(p);
    if (len == e.serialized_len) {
      stats_.bytes_rewritten += len;
      return;
    }
    textconv::swar::copy_digits(p + len, tag, e.close_tag_len);
    textconv::swar::fill_spaces(p + len + e.close_tag_len,
                                e.field_width - len);
    ++stats_.tag_shifts;
    stats_.bytes_rewritten += e.field_width + e.close_tag_len;
    e.serialized_len = len;
    return;
  }
  // Padded so rewrite_padded's wide copy may read (never write) a full
  // word from any offset below the produced length.
  char text[textconv::kMaxDoubleChars + 8];
  const std::uint32_t len = conv(text);
  rewrite_padded(idx, text, len);
}

void MessageTemplate::RunWriter::rewrite_double(std::size_t idx, double v) {
  rewrite_convert(idx, textconv::kMaxDoubleChars, [v](char* out) {
    return static_cast<std::uint32_t>(textconv::write_double(out, v));
  });
}

void MessageTemplate::RunWriter::rewrite_i32(std::size_t idx, std::int32_t v) {
  rewrite_convert(idx, textconv::kMaxInt32Chars, [v](char* out) {
    return static_cast<std::uint32_t>(textconv::write_i32(out, v));
  });
}

bool MessageTemplate::check_invariants() const {
  if (!buffer_.check_invariants()) return false;
  if (!dut_.check_invariants()) return false;
  for (std::size_t i = 0; i < dut_.size(); ++i) {
    const DutEntry& e = dut_[i];
    if (e.pos.chunk >= buffer_.chunk_count()) return false;
    const std::string_view chunk = buffer_.chunk_view(e.pos.chunk);
    const std::size_t region_end =
        static_cast<std::size_t>(e.pos.offset) + e.field_width + e.close_tag_len;
    if (region_end > chunk.size()) return false;
    // Padding bytes must be whitespace.
    for (std::size_t p = e.pos.offset + e.serialized_len + e.close_tag_len;
         p < region_end; ++p) {
      if (chunk[p] != ' ') return false;
    }
    // The closing tag must start with '<'.
    if (e.close_tag_len > 0 &&
        chunk[e.pos.offset + e.serialized_len] != '<') {
      return false;
    }
  }
  return true;
}

}  // namespace bsoap::core
