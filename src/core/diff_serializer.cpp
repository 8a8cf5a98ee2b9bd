#include "core/diff_serializer.hpp"

#include <bit>
#include <chrono>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "core/bulk_scan.hpp"
#include "core/leaf_walk.hpp"
#include "core/update_pool.hpp"
#include "textconv/dtoa.hpp"
#include "textconv/itoa.hpp"
#include "textconv/widths.hpp"
#include "xml/escape.hpp"

namespace bsoap::core {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Element/leaf index range [first, second).
using RunRange = std::pair<std::uint32_t, std::uint32_t>;

struct BulkTelemetry {
  std::uint64_t leaves = 0;
  std::uint64_t runs = 0;
  std::int64_t scan_ns = 0;
  std::int64_t rewrite_ns = 0;

  void add(const BulkTelemetry& rhs) {
    leaves += rhs.leaves;
    runs += rhs.runs;
    scan_ns += rhs.scan_ns;
    rewrite_ns += rhs.rewrite_ns;
  }
};

// The Mio plane is scanned with memcmp; padding bytes would make bitwise
// element comparison unsound.
static_assert(sizeof(soap::Mio) == 2 * sizeof(std::int32_t) + sizeof(double),
              "Mio must have no padding for plane memcmp scanning");

/// True when no value of the segment's element type(s) can outgrow its
/// field — the precondition for updating the segment off the main thread
/// (expansion renumbers positions and may realloc/split chunks).
///
/// The cached width minima go stale only when a steal shrinks a donor field
/// (expansions only ever widen), so the cache is keyed on the steal counter.
bool guaranteed_fit(const MessageTemplate& tmpl, const ArraySegment& seg) {
  const std::uint64_t epoch = tmpl.stats().steals + 1;
  if (seg.width_epoch != epoch) {
    std::uint32_t min_int = 0xffffffffu;
    std::uint32_t min_double = 0xffffffffu;
    const DutTable& dut = tmpl.dut();
    const std::size_t end = seg.first_leaf + seg.leaf_count();
    for (std::size_t i = seg.first_leaf; i < end; ++i) {
      const DutEntry& e = dut[i];
      if (e.type->type == LeafType::kDouble) {
        min_double = std::min(min_double, e.field_width);
      } else {
        min_int = std::min(min_int, e.field_width);
      }
    }
    seg.min_int_width = min_int;
    seg.min_double_width = min_double;
    seg.width_epoch = epoch;
  }
  if (seg.kind != ArraySegment::Kind::kDouble &&
      seg.min_int_width < static_cast<std::uint32_t>(textconv::kMaxInt32Chars)) {
    return false;
  }
  if (seg.kind != ArraySegment::Kind::kInt32 &&
      seg.min_double_width <
          static_cast<std::uint32_t>(textconv::kMaxDoubleChars)) {
    return false;
  }
  return true;
}

/// Splits the segment's element range at backing-chunk transitions (leaf
/// chunks are nondecreasing in document order, so each transition is found
/// by binary search) and groups the chunk-aligned intervals into at most
/// `max_parts` ranges of roughly equal element count. Returns an empty or
/// single-part vector when the segment occupies one chunk.
std::vector<RunRange> partition_segment(const MessageTemplate& tmpl,
                                        const ArraySegment& seg,
                                        std::size_t max_parts) {
  const DutTable& dut = tmpl.dut();
  const std::uint32_t stride = seg.leaves_per_elem();
  const auto chunk_of = [&](std::uint32_t e) {
    return dut[seg.first_leaf + e * stride].pos.chunk;
  };
  std::vector<std::uint32_t> bounds{0};
  std::uint32_t e = 0;
  while (e < seg.elem_count) {
    const std::uint32_t c = chunk_of(e);
    std::uint32_t lo = e + 1;
    std::uint32_t hi = seg.elem_count;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (chunk_of(mid) > c) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    if (lo < seg.elem_count) bounds.push_back(lo);
    e = lo;
  }
  bounds.push_back(seg.elem_count);

  std::vector<RunRange> parts;
  if (bounds.size() <= 2 || max_parts <= 1) return parts;
  const std::uint32_t target = static_cast<std::uint32_t>(
      (seg.elem_count + max_parts - 1) / max_parts);
  std::uint32_t begin = 0;
  for (std::size_t b = 1; b + 1 < bounds.size(); ++b) {
    if (bounds[b] - begin >= target) {
      parts.emplace_back(begin, bounds[b]);
      begin = bounds[b];
    }
  }
  parts.emplace_back(begin, seg.elem_count);
  return parts;
}

// --- per-part segment updaters ---------------------------------------------
//
// Each updates the element subrange [eb, ee) of one segment: scan for dirty
// runs, rewrite them through the RunWriter cursor, and refresh both the SoA
// plane and the per-entry shadow union so either update mode can follow the
// other. Counters land in whatever stats block the RunWriter carries.

void compare_double_part(MessageTemplate& tmpl, const ArraySegment& seg,
                         const double* next, std::uint32_t eb, std::uint32_t ee,
                         MessageTemplate::RunWriter& w,
                         std::vector<RunRange>& runs, BulkTelemetry& tm) {
  DutTable& dut = tmpl.dut();
  double* shadow = dut.double_plane(seg);
  const auto t0 = Clock::now();
  runs.clear();
  bulk::for_each_differing_run(
      next + eb, shadow + eb, ee - eb, [&](std::size_t b, std::size_t e) {
        runs.emplace_back(eb + static_cast<std::uint32_t>(b),
                          eb + static_cast<std::uint32_t>(e));
      });
  const auto t1 = Clock::now();
  for (const RunRange& r : runs) {
    for (std::uint32_t k = r.first; k < r.second; ++k) {
      w.rewrite_double(seg.first_leaf + k, next[k]);
      dut[seg.first_leaf + k].shadow.d = next[k];
    }
    std::memcpy(shadow + r.first, next + r.first,
                (r.second - r.first) * sizeof(double));
  }
  tm.leaves += ee - eb;
  tm.runs += runs.size();
  tm.scan_ns += ns_between(t0, t1);
  tm.rewrite_ns += ns_between(t1, Clock::now());
}

void compare_int_part(MessageTemplate& tmpl, const ArraySegment& seg,
                      const std::int32_t* next, std::uint32_t eb,
                      std::uint32_t ee, MessageTemplate::RunWriter& w,
                      std::vector<RunRange>& runs, BulkTelemetry& tm) {
  DutTable& dut = tmpl.dut();
  std::int32_t* shadow = dut.int_plane(seg);
  const auto t0 = Clock::now();
  runs.clear();
  bulk::for_each_differing_run(
      next + eb, shadow + eb, ee - eb, [&](std::size_t b, std::size_t e) {
        runs.emplace_back(eb + static_cast<std::uint32_t>(b),
                          eb + static_cast<std::uint32_t>(e));
      });
  const auto t1 = Clock::now();
  for (const RunRange& r : runs) {
    for (std::uint32_t k = r.first; k < r.second; ++k) {
      w.rewrite_i32(seg.first_leaf + k, next[k]);
      dut[seg.first_leaf + k].shadow.i = next[k];
    }
    std::memcpy(shadow + r.first, next + r.first,
                (r.second - r.first) * sizeof(std::int32_t));
  }
  tm.leaves += ee - eb;
  tm.runs += runs.size();
  tm.scan_ns += ns_between(t0, t1);
  tm.rewrite_ns += ns_between(t1, Clock::now());
}

void compare_mio_part(MessageTemplate& tmpl, const ArraySegment& seg,
                      const soap::Mio* next, std::uint32_t eb, std::uint32_t ee,
                      MessageTemplate::RunWriter& w,
                      std::vector<RunRange>& runs, BulkTelemetry& tm) {
  DutTable& dut = tmpl.dut();
  soap::Mio* shadow = dut.mio_plane(seg);
  const auto t0 = Clock::now();
  runs.clear();
  bulk::for_each_differing_run(
      next + eb, shadow + eb, ee - eb, [&](std::size_t b, std::size_t e) {
        runs.emplace_back(eb + static_cast<std::uint32_t>(b),
                          eb + static_cast<std::uint32_t>(e));
      });
  const auto t1 = Clock::now();
  for (const RunRange& r : runs) {
    for (std::uint32_t k = r.first; k < r.second; ++k) {
      // Per-field compare within the dirty element, matching what the
      // per-leaf visitor rewrites (and its counters).
      const soap::Mio& nv = next[k];
      soap::Mio& sv = shadow[k];
      const std::uint32_t leaf = seg.first_leaf + 3 * k;
      if (nv.x != sv.x) {
        w.rewrite_i32(leaf, nv.x);
        dut[leaf].shadow.i = nv.x;
      }
      if (nv.y != sv.y) {
        w.rewrite_i32(leaf + 1, nv.y);
        dut[leaf + 1].shadow.i = nv.y;
      }
      if (std::bit_cast<std::uint64_t>(nv.value) !=
          std::bit_cast<std::uint64_t>(sv.value)) {
        w.rewrite_double(leaf + 2, nv.value);
        dut[leaf + 2].shadow.d = nv.value;
      }
      sv = nv;
    }
  }
  tm.leaves += static_cast<std::uint64_t>(ee - eb) * 3;
  tm.runs += runs.size();
  tm.scan_ns += ns_between(t0, t1);
  tm.rewrite_ns += ns_between(t1, Clock::now());
}

void dirty_double_part(MessageTemplate& tmpl, const ArraySegment& seg,
                       const double* next, std::uint32_t eb, std::uint32_t ee,
                       MessageTemplate::RunWriter& w,
                       std::vector<RunRange>& runs, BulkTelemetry& tm) {
  DutTable& dut = tmpl.dut();
  double* shadow = dut.double_plane(seg);
  const auto t0 = Clock::now();
  runs.clear();
  runs.reserve(dut.dirty_count());
  bulk::for_each_set_run(dut.dirty_words(), seg.first_leaf + eb,
                         seg.first_leaf + ee,
                         [&](std::size_t b, std::size_t e) {
                           runs.emplace_back(static_cast<std::uint32_t>(b),
                                             static_cast<std::uint32_t>(e));
                         });
  const auto t1 = Clock::now();
  for (const RunRange& r : runs) {
    for (std::uint32_t i = r.first; i < r.second; ++i) {
      const std::uint32_t k = i - seg.first_leaf;
      w.rewrite_double(i, next[k]);
      dut[i].shadow.d = next[k];
      shadow[k] = next[k];
    }
  }
  tm.leaves += ee - eb;
  tm.runs += runs.size();
  tm.scan_ns += ns_between(t0, t1);
  tm.rewrite_ns += ns_between(t1, Clock::now());
}

void dirty_int_part(MessageTemplate& tmpl, const ArraySegment& seg,
                    const std::int32_t* next, std::uint32_t eb,
                    std::uint32_t ee, MessageTemplate::RunWriter& w,
                    std::vector<RunRange>& runs, BulkTelemetry& tm) {
  DutTable& dut = tmpl.dut();
  std::int32_t* shadow = dut.int_plane(seg);
  const auto t0 = Clock::now();
  runs.clear();
  runs.reserve(dut.dirty_count());
  bulk::for_each_set_run(dut.dirty_words(), seg.first_leaf + eb,
                         seg.first_leaf + ee,
                         [&](std::size_t b, std::size_t e) {
                           runs.emplace_back(static_cast<std::uint32_t>(b),
                                             static_cast<std::uint32_t>(e));
                         });
  const auto t1 = Clock::now();
  for (const RunRange& r : runs) {
    for (std::uint32_t i = r.first; i < r.second; ++i) {
      const std::uint32_t k = i - seg.first_leaf;
      w.rewrite_i32(i, next[k]);
      dut[i].shadow.i = next[k];
      shadow[k] = next[k];
    }
  }
  tm.leaves += ee - eb;
  tm.runs += runs.size();
  tm.scan_ns += ns_between(t0, t1);
  tm.rewrite_ns += ns_between(t1, Clock::now());
}

void dirty_mio_part(MessageTemplate& tmpl, const ArraySegment& seg,
                    const soap::Mio* next, std::uint32_t eb, std::uint32_t ee,
                    MessageTemplate::RunWriter& w, std::vector<RunRange>& runs,
                    BulkTelemetry& tm) {
  DutTable& dut = tmpl.dut();
  soap::Mio* shadow = dut.mio_plane(seg);
  const auto t0 = Clock::now();
  runs.clear();
  runs.reserve(dut.dirty_count());
  bulk::for_each_set_run(dut.dirty_words(), seg.first_leaf + 3 * eb,
                         seg.first_leaf + 3 * ee,
                         [&](std::size_t b, std::size_t e) {
                           runs.emplace_back(static_cast<std::uint32_t>(b),
                                             static_cast<std::uint32_t>(e));
                         });
  const auto t1 = Clock::now();
  for (const RunRange& r : runs) {
    for (std::uint32_t i = r.first; i < r.second; ++i) {
      const std::uint32_t off = i - seg.first_leaf;
      const std::uint32_t k = off / 3;
      switch (off % 3) {
        case 0:
          w.rewrite_i32(i, next[k].x);
          dut[i].shadow.i = next[k].x;
          shadow[k].x = next[k].x;
          break;
        case 1:
          w.rewrite_i32(i, next[k].y);
          dut[i].shadow.i = next[k].y;
          shadow[k].y = next[k].y;
          break;
        default:
          w.rewrite_double(i, next[k].value);
          dut[i].shadow.d = next[k].value;
          shadow[k].value = next[k].value;
          break;
      }
    }
  }
  tm.leaves += static_cast<std::uint64_t>(ee - eb) * 3;
  tm.runs += runs.size();
  tm.scan_ns += ns_between(t0, t1);
  tm.rewrite_ns += ns_between(t1, Clock::now());
}

/// A dirty-mode update converts only the dirty leaves, where compare mode
/// also scans every clean one, so a dirty segment must hold this fraction
/// of parallel_min_leaves in dirty leaves before the pool pays: against
/// the serial path its partition and wake-up read 0.82–1.22× at 655–1,000
/// dirty leaves and 1.6–2.0× at 6,554–10,000
/// (AblationDut/UpdatePool_Dirty_*, EXPERIMENTS.md).
constexpr std::size_t kDirtyLeafWeight = 16;

/// Runs `part(eb, ee, writer, runs, telemetry)` chunk-partitioned on the
/// shared pool when the segment is large (in dirty mode, also by its dirty
/// count), multi-chunk, and provably expansion-free (worker writes then
/// touch disjoint chunks and disjoint DUT entries; counters accumulate in
/// worker-local stats merged after the join). Returns false without calling
/// `part` when the segment is not eligible; `merged_runs` then holds every
/// part's dirty runs for the caller's serial bit clear.
template <typename PartFn>
bool parallel_segment(MessageTemplate& tmpl, const ArraySegment& seg,
                      bool dirty_mode, std::vector<RunRange>& merged_runs,
                      BulkTelemetry& tm, PartFn&& part) {
  const BulkUpdateConfig& cfg = tmpl.config().bulk;
  // An armed recovery journal records fields single-threaded; the serial
  // paths run instead while one is attached.
  const std::size_t min_dirty = cfg.parallel_min_leaves / kDirtyLeafWeight;
  if (tmpl.journal() != nullptr ||
      seg.leaf_count() < cfg.parallel_min_leaves ||
      (dirty_mode &&
       (tmpl.dut().dirty_count() < min_dirty ||  // O(1) bound first
        tmpl.dut().dirty_count_in(seg.first_leaf,
                                  seg.first_leaf + seg.leaf_count()) <
            min_dirty)) ||
      !guaranteed_fit(tmpl, seg)) {
    return false;
  }
  UpdatePool& pool = UpdatePool::instance();
  const std::vector<RunRange> parts =
      partition_segment(tmpl, seg, pool.concurrency());
  if (parts.size() <= 1) return false;
  std::vector<TemplateStats> part_stats(parts.size());
  std::vector<BulkTelemetry> part_tm(parts.size());
  std::vector<std::vector<RunRange>> part_runs(parts.size());
  pool.run(parts.size(), [&](std::size_t p) {
    MessageTemplate::RunWriter w(tmpl, part_stats[p]);
    part(parts[p].first, parts[p].second, w, part_runs[p], part_tm[p]);
  });
  merged_runs.clear();
  for (std::size_t p = 0; p < parts.size(); ++p) {
    tmpl.stats().add(part_stats[p]);
    tm.add(part_tm[p]);
    merged_runs.insert(merged_runs.end(), part_runs[p].begin(),
                       part_runs[p].end());
  }
  return true;
}

/// Serial fallback used by the compare visitor: one part covering the whole
/// segment, counters straight into the template's stats block.
template <typename PartFn>
void update_segment(MessageTemplate& tmpl, const ArraySegment& seg,
                    std::vector<RunRange>& serial_runs, BulkTelemetry& tm,
                    PartFn&& part) {
  if (parallel_segment(tmpl, seg, /*dirty_mode=*/false, serial_runs, tm,
                       part)) {
    return;
  }
  MessageTemplate::RunWriter w(tmpl, tmpl.stats());
  part(0, seg.elem_count, w, serial_runs, tm);
}

/// Serial dirty-mode fast path: a single pass over the mask words of
/// [begin, end) that rewrites each set leaf and clears the word it just
/// drained. The two-pass run collection exists only for the parallel path
/// (workers must not write shared mask words); serially, fusing the passes
/// skips the run vector and the separate clear entirely. The telemetry run
/// count falls out of a bit trick: a run starts at every set bit whose
/// predecessor — including the previous word's top bit — is clear.
template <typename RewriteLeaf>
void fused_dirty_scan(DutTable& dut, std::size_t begin, std::size_t end,
                      BulkTelemetry& tm, RewriteLeaf&& rewrite_leaf) {
  if (begin >= end) return;
  const std::uint64_t* words = dut.dirty_words();
  const std::size_t wb = begin >> 6;
  const std::size_t we = (end + 63) >> 6;
  std::uint64_t prev_top = 0;
  for (std::size_t w = wb; w < we; ++w) {
    std::uint64_t bits = words[w];
    if (w == wb && (begin & 63) != 0) {
      bits &= ~std::uint64_t{0} << (begin & 63);
    }
    if (w == we - 1 && (end & 63) != 0) {
      bits &= ~std::uint64_t{0} >> (64 - (end & 63));
    }
    if (bits == 0) {
      prev_top = 0;
      continue;
    }
    tm.runs += static_cast<std::uint64_t>(
        std::popcount(bits & ~((bits << 1) | prev_top)));
    prev_top = bits >> 63;
    for (std::uint64_t rem = bits; rem != 0; rem &= rem - 1) {
      rewrite_leaf((w << 6) + static_cast<std::size_t>(std::countr_zero(rem)));
    }
    dut.clear_dirty_word(w, bits);
  }
}

// Fused serial dirty updaters, one per segment kind. The whole pass is
// charged to rewrite_ns (there is no separate scan to time).

void dirty_double_serial(MessageTemplate& tmpl, const ArraySegment& seg,
                         const double* next, BulkTelemetry& tm) {
  DutTable& dut = tmpl.dut();
  double* shadow = dut.double_plane(seg);
  MessageTemplate::RunWriter w(tmpl, tmpl.stats());
  const auto t0 = Clock::now();
  fused_dirty_scan(
      dut, seg.first_leaf, seg.first_leaf + seg.leaf_count(), tm,
      [&](std::size_t i) {
        const std::size_t k = i - seg.first_leaf;
        w.rewrite_double(i, next[k]);
        dut[i].shadow.d = next[k];
        shadow[k] = next[k];
      });
  tm.leaves += seg.leaf_count();
  tm.rewrite_ns += ns_between(t0, Clock::now());
}

void dirty_int_serial(MessageTemplate& tmpl, const ArraySegment& seg,
                      const std::int32_t* next, BulkTelemetry& tm) {
  DutTable& dut = tmpl.dut();
  std::int32_t* shadow = dut.int_plane(seg);
  MessageTemplate::RunWriter w(tmpl, tmpl.stats());
  const auto t0 = Clock::now();
  fused_dirty_scan(
      dut, seg.first_leaf, seg.first_leaf + seg.leaf_count(), tm,
      [&](std::size_t i) {
        const std::size_t k = i - seg.first_leaf;
        w.rewrite_i32(i, next[k]);
        dut[i].shadow.i = next[k];
        shadow[k] = next[k];
      });
  tm.leaves += seg.leaf_count();
  tm.rewrite_ns += ns_between(t0, Clock::now());
}

void dirty_mio_serial(MessageTemplate& tmpl, const ArraySegment& seg,
                      const soap::Mio* next, BulkTelemetry& tm) {
  DutTable& dut = tmpl.dut();
  soap::Mio* shadow = dut.mio_plane(seg);
  MessageTemplate::RunWriter w(tmpl, tmpl.stats());
  const auto t0 = Clock::now();
  fused_dirty_scan(
      dut, seg.first_leaf, seg.first_leaf + seg.leaf_count(), tm,
      [&](std::size_t i) {
        const std::size_t off = i - seg.first_leaf;
        const std::size_t k = off / 3;
        switch (off % 3) {
          case 0:
            w.rewrite_i32(i, next[k].x);
            dut[i].shadow.i = next[k].x;
            shadow[k].x = next[k].x;
            break;
          case 1:
            w.rewrite_i32(i, next[k].y);
            dut[i].shadow.i = next[k].y;
            shadow[k].y = next[k].y;
            break;
          default:
            w.rewrite_double(i, next[k].value);
            dut[i].shadow.d = next[k].value;
            shadow[k].value = next[k].value;
            break;
        }
      });
  tm.leaves += seg.leaf_count();
  tm.rewrite_ns += ns_between(t0, Clock::now());
}

/// Shared field-rewrite plumbing for both visitors.
struct RewriteContext {
  explicit RewriteContext(MessageTemplate& t) : tmpl(t) {}

  MessageTemplate& tmpl;
  std::size_t idx = 0;
  char scratch[textconv::kMaxDoubleChars] = {};
  std::string string_scratch;

  // Bulk path state: segments were recorded in document order, so a cursor
  // suffices to pair each array parameter with its descriptor.
  std::size_t seg_cursor = 0;
  std::vector<RunRange> runs_scratch;
  BulkTelemetry bulk;

  /// The segment for the array parameter starting at the current leaf, or
  /// nullptr when none was recorded (small array, bulk disabled).
  const ArraySegment* match_segment(ArraySegment::Kind kind, std::size_t n) {
    const std::vector<ArraySegment>& segs = tmpl.dut().segments();
    if (seg_cursor >= segs.size()) return nullptr;
    const ArraySegment& seg = segs[seg_cursor];
    if (seg.first_leaf != idx || seg.kind != kind || seg.elem_count != n) {
      return nullptr;
    }
    ++seg_cursor;
    return &seg;
  }

  void rewrite_int(std::int32_t v) {
    const int len = textconv::write_i32(scratch, v);
    tmpl.rewrite_value(idx, scratch, static_cast<std::uint32_t>(len));
  }
  void rewrite_int64(std::int64_t v) {
    const int len = textconv::write_i64(scratch, v);
    tmpl.rewrite_value(idx, scratch, static_cast<std::uint32_t>(len));
  }
  void rewrite_double(double v) {
    const int len = textconv::write_double(scratch, v);
    tmpl.rewrite_value(idx, scratch, static_cast<std::uint32_t>(len));
  }
  void rewrite_bool(bool v) {
    const std::string_view text = v ? "true" : "false";
    tmpl.rewrite_value(idx, text.data(),
                       static_cast<std::uint32_t>(text.size()));
  }
  void rewrite_string(const std::string& v) {
    string_scratch.clear();
    xml::escape_append(string_scratch, v);
    tmpl.rewrite_value(idx, string_scratch.data(),
                       static_cast<std::uint32_t>(string_scratch.size()));
  }
};

/// Compare-against-shadow visitor: rewrites on change, refreshes the shadow.
struct CompareVisitor : RewriteContext {
  explicit CompareVisitor(MessageTemplate& t) : RewriteContext(t) {}

  void on_int(std::int32_t v) {
    DutEntry& e = tmpl.dut()[idx];
    if (e.shadow.i != v) {
      rewrite_int(v);
      e.shadow.i = v;
    }
    ++idx;
  }
  void on_int64(std::int64_t v) {
    DutEntry& e = tmpl.dut()[idx];
    if (e.shadow.i != v) {
      rewrite_int64(v);
      e.shadow.i = v;
    }
    ++idx;
  }
  void on_double(double v) {
    DutEntry& e = tmpl.dut()[idx];
    // Bitwise comparison: distinguishes -0.0 from 0.0 and handles NaN.
    if (std::bit_cast<std::uint64_t>(e.shadow.d) !=
        std::bit_cast<std::uint64_t>(v)) {
      rewrite_double(v);
      e.shadow.d = v;
    }
    ++idx;
  }
  void on_bool(bool v) {
    DutEntry& e = tmpl.dut()[idx];
    if ((e.shadow.i != 0) != v) {
      rewrite_bool(v);
      e.shadow.i = v ? 1 : 0;
    }
    ++idx;
  }
  void on_string(const std::string& v) {
    DutEntry& e = tmpl.dut()[idx];
    if (tmpl.dut().shadow_string(e.shadow_string) != v) {
      rewrite_string(v);
      tmpl.dut().shadow_string(e.shadow_string) = v;
    }
    ++idx;
  }

  bool on_double_array(std::span<const double> v) {
    const ArraySegment* seg =
        match_segment(ArraySegment::Kind::kDouble, v.size());
    if (seg == nullptr) return false;
    update_segment(tmpl, *seg, runs_scratch, bulk,
                   [&](std::uint32_t eb, std::uint32_t ee,
                       MessageTemplate::RunWriter& w,
                       std::vector<RunRange>& runs, BulkTelemetry& tm) {
                     compare_double_part(tmpl, *seg, v.data(), eb, ee, w, runs,
                                         tm);
                   });
    idx += seg->leaf_count();
    return true;
  }
  bool on_int_array(std::span<const std::int32_t> v) {
    const ArraySegment* seg =
        match_segment(ArraySegment::Kind::kInt32, v.size());
    if (seg == nullptr) return false;
    update_segment(tmpl, *seg, runs_scratch, bulk,
                   [&](std::uint32_t eb, std::uint32_t ee,
                       MessageTemplate::RunWriter& w,
                       std::vector<RunRange>& runs, BulkTelemetry& tm) {
                     compare_int_part(tmpl, *seg, v.data(), eb, ee, w, runs,
                                      tm);
                   });
    idx += seg->leaf_count();
    return true;
  }
  bool on_mio_array(std::span<const soap::Mio> v) {
    const ArraySegment* seg = match_segment(ArraySegment::Kind::kMio, v.size());
    if (seg == nullptr) return false;
    update_segment(tmpl, *seg, runs_scratch, bulk,
                   [&](std::uint32_t eb, std::uint32_t ee,
                       MessageTemplate::RunWriter& w,
                       std::vector<RunRange>& runs, BulkTelemetry& tm) {
                     compare_mio_part(tmpl, *seg, v.data(), eb, ee, w, runs,
                                      tm);
                   });
    idx += seg->leaf_count();
    return true;
  }
};

/// Dirty-bit visitor: rewrites entries whose bit is set, no comparisons.
struct DirtyVisitor : RewriteContext {
  explicit DirtyVisitor(MessageTemplate& t) : RewriteContext(t) {}

  bool take_dirty() {
    if (!tmpl.dut().is_dirty(idx)) return false;
    tmpl.dut().clear_dirty(idx);
    return true;
  }

  void on_int(std::int32_t v) {
    if (take_dirty()) {
      rewrite_int(v);
      tmpl.dut()[idx].shadow.i = v;
    }
    ++idx;
  }
  void on_int64(std::int64_t v) {
    if (take_dirty()) {
      rewrite_int64(v);
      tmpl.dut()[idx].shadow.i = v;
    }
    ++idx;
  }
  void on_double(double v) {
    if (take_dirty()) {
      rewrite_double(v);
      tmpl.dut()[idx].shadow.d = v;
    }
    ++idx;
  }
  void on_bool(bool v) {
    if (take_dirty()) {
      rewrite_bool(v);
      tmpl.dut()[idx].shadow.i = v ? 1 : 0;
    }
    ++idx;
  }
  void on_string(const std::string& v) {
    if (take_dirty()) {
      rewrite_string(v);
      tmpl.dut().shadow_string(tmpl.dut()[idx].shadow_string) = v;
    }
    ++idx;
  }

  /// Dirty bits are only read during the parallel segment update; the clear
  /// runs afterwards on this thread over the merged per-part runs, so it is
  /// O(dirty words), not a pass over the segment. The serial fallback fuses
  /// rewriting and clearing into one pass over the mask instead.
  void finish_parallel_segment() { tmpl.dut().clear_dirty_runs(runs_scratch); }

  bool on_double_array(std::span<const double> v) {
    const ArraySegment* seg =
        match_segment(ArraySegment::Kind::kDouble, v.size());
    if (seg == nullptr) return false;
    if (parallel_segment(tmpl, *seg, /*dirty_mode=*/true, runs_scratch, bulk,
                         [&](std::uint32_t eb, std::uint32_t ee,
                             MessageTemplate::RunWriter& w,
                             std::vector<RunRange>& runs, BulkTelemetry& tm) {
                           dirty_double_part(tmpl, *seg, v.data(), eb, ee, w,
                                             runs, tm);
                         })) {
      finish_parallel_segment();
    } else {
      dirty_double_serial(tmpl, *seg, v.data(), bulk);
    }
    idx += seg->leaf_count();
    return true;
  }
  bool on_int_array(std::span<const std::int32_t> v) {
    const ArraySegment* seg =
        match_segment(ArraySegment::Kind::kInt32, v.size());
    if (seg == nullptr) return false;
    if (parallel_segment(tmpl, *seg, /*dirty_mode=*/true, runs_scratch, bulk,
                         [&](std::uint32_t eb, std::uint32_t ee,
                             MessageTemplate::RunWriter& w,
                             std::vector<RunRange>& runs, BulkTelemetry& tm) {
                           dirty_int_part(tmpl, *seg, v.data(), eb, ee, w, runs,
                                          tm);
                         })) {
      finish_parallel_segment();
    } else {
      dirty_int_serial(tmpl, *seg, v.data(), bulk);
    }
    idx += seg->leaf_count();
    return true;
  }
  bool on_mio_array(std::span<const soap::Mio> v) {
    const ArraySegment* seg = match_segment(ArraySegment::Kind::kMio, v.size());
    if (seg == nullptr) return false;
    if (parallel_segment(tmpl, *seg, /*dirty_mode=*/true, runs_scratch, bulk,
                         [&](std::uint32_t eb, std::uint32_t ee,
                             MessageTemplate::RunWriter& w,
                             std::vector<RunRange>& runs, BulkTelemetry& tm) {
                           dirty_mio_part(tmpl, *seg, v.data(), eb, ee, w, runs,
                                          tm);
                         })) {
      finish_parallel_segment();
    } else {
      dirty_mio_serial(tmpl, *seg, v.data(), bulk);
    }
    idx += seg->leaf_count();
    return true;
  }
};

UpdateResult finish(MessageTemplate& tmpl, const TemplateStats& before,
                    const BulkTelemetry& bulk) {
  const TemplateStats& after = tmpl.stats();
  UpdateResult result;
  result.values_rewritten = after.value_rewrites - before.value_rewrites;
  result.tag_shifts = after.tag_shifts - before.tag_shifts;
  result.expansions = after.expansions - before.expansions;
  result.steals = after.steals - before.steals;
  result.bulk_leaves = bulk.leaves;
  result.bulk_runs = bulk.runs;
  result.scan_ns = bulk.scan_ns;
  result.rewrite_ns = bulk.rewrite_ns;
  if (result.values_rewritten == 0) {
    result.match = MatchKind::kContentMatch;
  } else if (result.expansions == 0) {
    result.match = MatchKind::kPerfectStructural;
  } else {
    result.match = MatchKind::kPartialStructural;
  }
  return result;
}

bool use_bulk_walk(const MessageTemplate& tmpl) {
  return tmpl.config().bulk.enable && !tmpl.dut().segments().empty();
}

}  // namespace

const char* match_kind_name(MatchKind kind) noexcept {
  switch (kind) {
    case MatchKind::kFirstTime: return "first-time send";
    case MatchKind::kContentMatch: return "message content match";
    case MatchKind::kPerfectStructural: return "perfect structural match";
    case MatchKind::kPartialStructural: return "partial structural match";
  }
  return "unknown";
}

UpdateResult update_template(MessageTemplate& tmpl, const soap::RpcCall& call) {
  BSOAP_ASSERT(tmpl.signature == call.structure_signature());
  const TemplateStats before = tmpl.stats();
  CompareVisitor visitor(tmpl);
  if (use_bulk_walk(tmpl)) {
    for_each_leaf_bulk(call, visitor);
  } else {
    for_each_leaf(call, visitor);
  }
  BSOAP_ASSERT(visitor.idx == tmpl.dut().size());
  return finish(tmpl, before, visitor.bulk);
}

UpdateResult update_dirty_fields(MessageTemplate& tmpl,
                                 const soap::RpcCall& call) {
  BSOAP_ASSERT(tmpl.signature == call.structure_signature());
  const TemplateStats before = tmpl.stats();
  DirtyVisitor visitor(tmpl);
  if (use_bulk_walk(tmpl)) {
    for_each_leaf_bulk(call, visitor);
  } else {
    for_each_leaf(call, visitor);
  }
  BSOAP_ASSERT(visitor.idx == tmpl.dut().size());
  return finish(tmpl, before, visitor.bulk);
}

}  // namespace bsoap::core
