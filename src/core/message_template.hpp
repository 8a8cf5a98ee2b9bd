// Saved message templates and the in-place field rewrite engine.
//
// A MessageTemplate is the serialized form of one previously sent SOAP
// message (stored in noncontiguous chunks) plus its DUT table. Field layout
// within the message (paper Section 3.2):
//
//     <item>VALUE</item>·····<item>...
//           ^value     ^padding (whitespace, legal in XML)
//
// field_width is the character budget for VALUE; when a new value is shorter
// the closing tag is rewritten further left and the remainder padded with
// whitespace ("closing tag shift"); when it no longer fits, space is first
// stolen from a neighbouring field's padding, and failing that the message
// is expanded on the fly ("shifting") — bounded by the chunk, which may
// grow, be reallocated, or split per the ChunkConfig thresholds.
#pragma once

#include <cstdint>

#include "buffer/chunked_buffer.hpp"
#include "core/dut_table.hpp"

namespace bsoap::core {

/// Field width assignment at template-build time (paper Section 3.2 /
/// Section 4.4 "stuffing").
struct StuffingPolicy {
  enum class Mode {
    kExact,    ///< width = current value length (no stuffing)
    kTypeMax,  ///< width = the type's maximum serialized size
    kFixed,    ///< width = fixed_width (clamped up to the value length)
  };

  Mode mode = Mode::kExact;
  std::uint32_t fixed_width = 0;
  /// When a field must be expanded anyway, widen it straight to its type's
  /// maximum serialized size so it never shifts again (pay the shift once).
  bool stuff_on_expand = false;

  std::uint32_t width_for(const LeafTypeInfo& type,
                          std::uint32_t value_len) const {
    switch (mode) {
      case Mode::kExact:
        return value_len;
      case Mode::kTypeMax:
        return type.max_chars == 0 ? value_len
                                   : std::max<std::uint32_t>(type.max_chars,
                                                             value_len);
      case Mode::kFixed:
        return std::max(fixed_width, value_len);
    }
    return value_len;
  }
};

/// The bulk array fast path (SoA shadow planes + dirty-run rewrites).
struct BulkUpdateConfig {
  /// Record ArraySegment descriptors + shadow planes at build time and use
  /// the run-based update path. Off = the per-leaf scalar path everywhere
  /// (the ablation baseline).
  bool enable = true;
  /// Arrays below this element count are not worth a segment descriptor.
  std::uint32_t min_elements = 16;
  /// Segments update on the shared worker pool when they span multiple
  /// chunks, every field provably fits its width (no expansion possible),
  /// and the segment has at least this many leaves (a dirty-field update
  /// also needs a sixteenth of this many dirty leaves). SIZE_MAX keeps
  /// every segment on the serial path.
  std::size_t parallel_min_leaves = 1 << 16;
};

struct TemplateConfig {
  buffer::ChunkConfig chunk;
  StuffingPolicy stuffing;
  /// Take space from neighbouring fields before shifting the chunk tail
  /// (paper Section 3.2, explored in companion paper [4]).
  bool enable_stealing = true;
  /// How many following entries to scan for a padding donor.
  std::uint32_t steal_scan_limit = 4;
  BulkUpdateConfig bulk;
};

/// Counters exposed for tests, benchmarks and the classifier.
struct TemplateStats {
  std::uint64_t value_rewrites = 0;   ///< fields whose value text was rewritten
  std::uint64_t tag_shifts = 0;       ///< closing tag moved within the field
  std::uint64_t expansions = 0;       ///< fields that outgrew their width
  std::uint64_t steals = 0;           ///< expansions absorbed by a neighbour
  std::uint64_t chunk_shifts = 0;     ///< chunk tail memmoves (slack)
  std::uint64_t chunk_reallocs = 0;   ///< chunk grown into a new region
  std::uint64_t chunk_splits = 0;     ///< chunk split in two
  std::uint64_t bytes_rewritten = 0;  ///< value+tag+pad bytes written

  /// Merges another stats block (parallel workers accumulate locally and
  /// fold in after the join).
  void add(const TemplateStats& rhs) {
    value_rewrites += rhs.value_rewrites;
    tag_shifts += rhs.tag_shifts;
    expansions += rhs.expansions;
    steals += rhs.steals;
    chunk_shifts += rhs.chunk_shifts;
    chunk_reallocs += rhs.chunk_reallocs;
    chunk_splits += rhs.chunk_splits;
    bytes_rewritten += rhs.bytes_rewritten;
  }
};

class MessageTemplate;

/// Transactional record of one differential update (client resilience).
///
/// A failed write after a completed update is poisonous: the template's
/// refreshed shadow copies and cleared dirty bits claim the peer saw bytes
/// it never received, so every later send would silently diff against state
/// the server does not have. Arming a journal before the update makes the
/// rewrite engine capture, per touched field, the pre-rewrite buffer region,
/// DUT entry and shadow copy — plus one up-front snapshot of the dirty mask
/// words and the stats counters — so a failed send rolls back exactly: the
/// template is byte-identical to before the update and every changed field
/// is dirty again, ready for a retry on a fresh connection.
///
/// Cost is O(fields rewritten) + O(mask words); a content match records
/// nothing. Structural updates (expansion by steal/shift/split) move bytes
/// whose pre-move layout was not captured; the journal then reports itself
/// structural and rollback refuses — the caller invalidates the template
/// instead, forcing a clean first-time send.
///
/// The same records describe the update to a diff-wire peer. Besides the
/// touched fields, the journal keeps each expansion's geometry: a shift
/// (the field's region grew, everything after it moved) and a steal (bytes
/// moved inside one chunk, from the widened field's start to the end of
/// its donor's region, without changing the body length). From these and
/// the final DUT positions a patch frame derives its overwrite and splice
/// runs (SendPipeline::build_patch_frame).
class UpdateJournal {
 public:
  /// One expansion by shifting: field `idx`'s region (value, close tag and
  /// padding) grew from `old_region` to `new_region` bytes.
  struct ShiftRecord {
    std::uint32_t idx = 0;
    std::uint32_t old_region = 0;
    std::uint32_t new_region = 0;
  };
  /// One expansion by stealing: the bytes from field `idx`'s start to the
  /// end of field `donor`'s region moved (same total length).
  struct StealRecord {
    std::uint32_t idx = 0;
    std::uint32_t donor = 0;
  };

  /// Starts recording against `tmpl` (arms the rewrite-engine hooks).
  /// Any previously captured state is dropped.
  void begin(MessageTemplate& tmpl);

  /// Stops recording and drops the captured state (the send succeeded).
  void commit(MessageTemplate& tmpl);

  /// Restores buffer bytes, DUT entries, shadow copies (strings and SoA
  /// planes), the dirty mask and the stats counters to their begin() state.
  /// Returns false without restoring when the update was structural — the
  /// template must then be invalidated. Disarms either way.
  bool rollback(MessageTemplate& tmpl);

  bool armed() const { return armed_; }
  bool structural() const { return structural_marks_ != 0; }
  /// True when every structural change of the armed update has a shift or
  /// steal record, so the records describe the whole update to a peer.
  bool patchable() const {
    return structural_marks_ == shifts_.size() + steals_.size();
  }
  /// True when the armed update touched nothing (rollback would be a no-op).
  bool empty() const { return records_.empty() && !structural(); }

  /// Appends the DUT indices the armed update touched, in record order (a
  /// leaf may appear more than once if it was re-recorded). Their final
  /// regions, with the steal spans, cover every byte the update changed.
  void touched_fields(std::vector<std::uint32_t>& out) const {
    out.clear();
    out.reserve(records_.size());
    for (const FieldRecord& rec : records_) out.push_back(rec.idx);
  }
  const std::vector<ShiftRecord>& shifts() const { return shifts_; }
  const std::vector<StealRecord>& steals() const { return steals_; }

  // --- rewrite-engine hooks. Single-threaded: the parallel segment update
  // is disabled while a journal is armed. ---
  void mark_structural() { ++structural_marks_; }
  void record_field(MessageTemplate& tmpl, std::size_t idx);
  void record_shift(std::size_t idx, std::uint32_t old_region,
                    std::uint32_t new_region) {
    shifts_.push_back(ShiftRecord{static_cast<std::uint32_t>(idx), old_region,
                                  new_region});
  }
  void record_steal(std::size_t idx, std::size_t donor) {
    steals_.push_back(StealRecord{static_cast<std::uint32_t>(idx),
                                  static_cast<std::uint32_t>(donor)});
  }

 private:
  struct FieldRecord {
    std::uint32_t idx = 0;
    DutEntry entry;              ///< full pre-rewrite entry
    std::uint32_t byte_off = 0;  ///< into bytes_
    std::uint32_t byte_len = 0;  ///< field_width + close_tag_len
    std::uint32_t shadow_string = DutEntry::kNoString;  ///< into strings_
  };

  bool armed_ = false;
  std::size_t structural_marks_ = 0;
  std::vector<FieldRecord> records_;
  std::vector<ShiftRecord> shifts_;
  std::vector<StealRecord> steals_;
  std::string bytes_;  ///< concatenated pre-rewrite field regions
  std::vector<std::string> strings_;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> dirty_words_;
  std::size_t dirty_count_ = 0;
  TemplateStats stats_;
};

class MessageTemplate {
 public:
  explicit MessageTemplate(const TemplateConfig& config)
      : config_(config), buffer_(config.chunk) {}

  buffer::ChunkedBuffer& buffer() { return buffer_; }
  const buffer::ChunkedBuffer& buffer() const { return buffer_; }
  DutTable& dut() { return dut_; }
  const DutTable& dut() const { return dut_; }
  const TemplateConfig& config() const { return config_; }
  TemplateStats& stats() { return stats_; }
  const TemplateStats& stats() const { return stats_; }

  /// Structure signature of the call this template serializes.
  std::uint64_t signature = 0;

  /// Rewrites the value of DUT entry `idx` with `text` (already in lexical
  /// form, escaped if a string). Performs whatever combination of padding,
  /// closing-tag shifting, stealing and chunk expansion is needed; updates
  /// the entry's serialized_len/field_width and clears nothing (dirty bits
  /// are the caller's concern).
  void rewrite_value(std::size_t idx, const char* text, std::uint32_t len);

  /// Cursor for rewriting a run of entries in ascending index order. Each
  /// field that fits its width is written in place through a scoped
  /// buffer Edit over its region (which keeps the chunk's integrity hash
  /// current); a value that outgrows its width falls back to rewrite_value
  /// (the expansion machinery). Byte effects and counters are identical to
  /// calling rewrite_value per entry.
  ///
  /// `stats` receives the counters: pass tmpl.stats() on the serial path, a
  /// worker-local block on the parallel path (where the caller must have
  /// proven every value fits — the fallback asserts it is not reached when
  /// writing to foreign stats).
  class RunWriter {
   public:
    RunWriter(MessageTemplate& tmpl, TemplateStats& stats)
        : tmpl_(tmpl), stats_(stats) {}

    /// Convert `v` to text and rewrite entry `idx`. The value copy, the
    /// shifted closing tag and the whitespace pad are all written with
    /// wide exact stores (no per-field libc memcpy/memset).
    void rewrite_double(std::size_t idx, double v);
    void rewrite_i32(std::size_t idx, std::int32_t v);

   private:
    /// Rewrites entry `idx` from conversion scratch that is readable 8
    /// bytes past `len` (wide copies may over-read, never over-write).
    void rewrite_padded(std::size_t idx, const char* text, std::uint32_t len);

    /// Body of the typed rewrites: when the field is stuffed to at least
    /// `max_chars` (every value fits), `conv` writes the value text
    /// straight into the template buffer; otherwise it converts into
    /// scratch and rewrite_padded runs.
    template <typename Convert>
    void rewrite_convert(std::size_t idx, std::uint32_t max_chars,
                         Convert conv);
    MessageTemplate& tmpl_;
    TemplateStats& stats_;
  };

  /// Internal consistency: buffer and DUT agree (every entry's region is in
  /// range, value+tag+padding bytes are coherent). Test hook.
  bool check_invariants() const;

  /// The armed recovery journal, or nullptr. Armed via UpdateJournal::begin;
  /// the rewrite engine reports every field it touches while set.
  UpdateJournal* journal() const { return journal_; }

 private:
  friend class UpdateJournal;
  /// Attempts to widen entry `idx` to `new_width` by taking padding from a
  /// following entry in the same chunk. Returns true on success.
  bool try_steal(std::size_t idx, std::uint32_t new_width);

  /// Widens entry `idx` to `new_width` by expanding the chunk (slack /
  /// realloc / split), renumbering the DUT accordingly.
  void expand_by_shifting(std::size_t idx, std::uint32_t new_width);

  TemplateConfig config_;
  buffer::ChunkedBuffer buffer_;
  DutTable dut_;
  TemplateStats stats_;
  UpdateJournal* journal_ = nullptr;
};

}  // namespace bsoap::core
