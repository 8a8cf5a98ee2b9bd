#include "core/diff_deserializer.hpp"

#include <algorithm>
#include <cstring>

#include "soap/envelope_reader.hpp"
#include "textconv/parse.hpp"
#ifdef BSOAP_DEBUG_INVARIANTS
#include "xml/pull_parser.hpp"
#endif

namespace bsoap::core {
namespace {

bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\n'; }

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_ws(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_ws(s.back())) s.remove_suffix(1);
  return s;
}

/// Heap bytes a parsed value owns (container capacities, recursively).
std::size_t value_bytes(const soap::Value& value) {
  using soap::ValueKind;
  switch (value.kind()) {
    case ValueKind::kString:
      return value.as_string().capacity();
    case ValueKind::kDoubleArray:
      return value.doubles().capacity() * sizeof(double);
    case ValueKind::kIntArray:
      return value.ints().capacity() * sizeof(std::int32_t);
    case ValueKind::kMioArray:
      return value.mios().capacity() * sizeof(soap::Mio);
    case ValueKind::kStruct: {
      std::size_t n =
          value.members().capacity() * sizeof(soap::Value::Member);
      for (const soap::Value::Member& m : value.members()) {
        n += m.name.capacity() + value_bytes(m.value);
      }
      return n;
    }
    default:
      return 0;
  }
}

}  // namespace

void DiffDeserializer::reset() {
  cache_valid_ = false;
  fast_path_usable_ = false;
  regions_.clear();
  slots_.clear();
  pieces_.clear();
  piece_ids_.clear();
  doc_size_ = 0;
}

std::size_t DiffDeserializer::bytes() const {
  std::size_t n = regions_.capacity() * sizeof(LeafRegion) +
                  slots_.capacity() * sizeof(LeafSlot) +
                  pieces_.capacity() * sizeof(std::string) +
                  piece_ids_.capacity() * sizeof(std::uint32_t) +
                  cached_call_.method.capacity() +
                  cached_call_.service_namespace.capacity() +
                  cached_call_.params.capacity() * sizeof(soap::Param);
  for (const soap::Param& p : cached_call_.params) {
    n += p.name.capacity() + value_bytes(p.value);
  }
  const std::size_t inline_capacity = std::string().capacity();
  for (const std::string& piece : pieces_) {
    // Short pieces live inside the string object itself.
    if (piece.capacity() > inline_capacity) n += piece.capacity() + 1;
  }
  return n;
}

Status DiffDeserializer::prime(std::string_view document) {
  return full_parse(document);
}

Result<DiffDeserializer::ApplyReport> DiffDeserializer::demote(
    std::string_view document) {
  BSOAP_RETURN_IF_ERROR(full_parse(document));
  ApplyReport report;
  report.path = ApplyPath::kFullParse;
  report.demoted = true;
  return report;
}

namespace {

/// Matches one piece of the new document against `old`, the structure
/// between two leaves (or after the last leaf of a window) in the previous
/// document: the same tags and other tokens byte for byte, while the
/// whitespace between them may differ (the sender's padding). Starts at
/// `*pos` and advances it past the match. The piece ends right after its
/// last token, or at `end` when `to_end` (whitespace before `end` allowed).
bool match_structure(std::string_view old, std::string_view doc,
                     std::size_t* pos, std::size_t end, bool to_end) {
  // Unchanged bytes, the common case (a same-width rewrite): one compare.
  if (end - *pos >= old.size() && doc.compare(*pos, old.size(), old) == 0 &&
      (!to_end || *pos + old.size() == end)) {
    *pos += old.size();
    return true;
  }
  std::size_t i = 0;
  std::size_t j = *pos;
  for (;;) {
    while (i < old.size() && is_ws(old[i])) ++i;
    if (i == old.size()) break;
    while (j < end && is_ws(doc[j])) ++j;
    // A token is a tag through its '>', or text up to the next '<'.
    std::size_t token_end =
        old[i] == '<' ? old.find('>', i) : old.find('<', i);
    if (token_end == std::string_view::npos) {
      token_end = old.size();
    } else if (old[i] == '<') {
      ++token_end;
    }
    const std::size_t len = token_end - i;
    if (end - j < len || doc.compare(j, len, old.substr(i, len)) != 0) {
      return false;
    }
    i += len;
    j += len;
  }
  if (to_end) {
    while (j < end && is_ws(doc[j])) ++j;
    if (j != end) return false;
  }
  *pos = j;
  return true;
}

}  // namespace

Result<DiffDeserializer::ApplyReport> DiffDeserializer::apply_runs(
    std::string_view document, std::span<const diffwire::PatchRun> runs) {
  if (!cache_valid_) {
    BSOAP_RETURN_IF_ERROR(full_parse(document));
    return ApplyReport{ApplyPath::kFullParse, 0, false};
  }
  if (!fast_path_usable_) return demote(document);
  // The runs must turn the previous document into `document`: sorted and
  // disjoint in previous-document offsets, and the lengths must add up.
  std::size_t old_end = 0;
  std::ptrdiff_t growth = 0;
  for (const diffwire::PatchRun& run : runs) {
    if (run.offset < old_end || run.offset > doc_size_ ||
        run.old_length() > doc_size_ - run.offset) {
      return demote(document);
    }
    old_end = std::size_t{run.offset} + run.old_length();
    growth += static_cast<std::ptrdiff_t>(run.length) -
              static_cast<std::ptrdiff_t>(run.old_length());
  }
  if (static_cast<std::ptrdiff_t>(doc_size_) + growth !=
      static_cast<std::ptrdiff_t>(document.size())) {
    return demote(document);
  }
  if (runs.empty()) {
    return ApplyReport{ApplyPath::kContentHit, 0, false};
  }

  // Runs group into windows of whole leaves: from the text of the first
  // leaf a run meets to the text of the first leaf after it (or the end of
  // the document). The window's new bytes are re-scanned with the
  // `<n>text</n>` rule: the same structure between the same number of
  // texts, else demote. Regions before a window have moved by the growth
  // of the windows before it.
  const std::size_t n = regions_.size();
  std::ptrdiff_t shift = 0;  // new offset − old offset before the window
  std::size_t placed = 0;    // regions_[0, placed) hold new offsets
  std::size_t reparsed = 0;
  for (std::size_t r = 0; r < runs.size();) {
    std::size_t lo = static_cast<std::size_t>(
        std::lower_bound(regions_.begin() + placed, regions_.end(),
                         std::size_t{runs[r].offset},
                         [](const LeafRegion& region, std::size_t pos) {
                           return region.end < pos;
                         }) -
        regions_.begin());
    if (lo == n) return demote(document);  // past the last leaf's text
    if (runs[r].offset < regions_[lo].begin) {
      // Starts in the structure before leaf `lo`: the window starts at the
      // leaf before (none before the first leaf: the envelope head).
      if (lo == placed) return demote(document);
      --lo;
    }
    std::size_t hi = lo;
    std::size_t b = 0;  // window end, old offset
    std::ptrdiff_t window_growth = 0;
    do {
      const diffwire::PatchRun& run = runs[r];
      const std::size_t run_end = std::size_t{run.offset} + run.old_length();
      hi = static_cast<std::size_t>(
          std::upper_bound(regions_.begin() + hi, regions_.end(), run_end,
                           [](std::size_t pos, const LeafRegion& region) {
                             return pos < region.begin;
                           }) -
          regions_.begin());
      b = hi < n ? regions_[hi].begin : doc_size_;
      window_growth += static_cast<std::ptrdiff_t>(run.length) -
                       static_cast<std::ptrdiff_t>(run.old_length());
      ++r;
    } while (r < runs.size() && runs[r].offset < b);

    if (shift != 0) {
      for (std::size_t k = placed; k < lo; ++k) {
        regions_[k].begin += shift;
        regions_[k].end += shift;
      }
    }
    std::size_t pos = regions_[lo].begin + shift;
    const std::size_t window_end = b + shift + window_growth;
    for (std::size_t k = lo; k < hi; ++k) {
      const void* lt = std::memchr(document.data() + pos, '<',
                                   window_end - pos);
      if (lt == nullptr) return demote(document);
      const std::size_t text_end =
          static_cast<std::size_t>(static_cast<const char*>(lt) -
                                   document.data());
      regions_[k] = LeafRegion{pos, text_end};
      pos = text_end;
      if (!match_structure(pieces_[piece_ids_[k]], document, &pos,
                           window_end, /*to_end=*/k + 1 == hi)) {
        return demote(document);
      }
    }
    for (std::size_t k = lo; k < hi; ++k) {
      const LeafRegion& region = regions_[k];
      if (!reparse_slot(k, document.substr(region.begin,
                                           region.end - region.begin))
               .ok()) {
        return demote(document);
      }
    }
    reparsed += hi - lo;
    shift += window_growth;
    placed = hi;
  }
  if (shift != 0) {
    for (std::size_t k = placed; k < n; ++k) {
      regions_[k].begin += shift;
      regions_[k].end += shift;
    }
  }
  doc_size_ = document.size();
#ifdef BSOAP_DEBUG_INVARIANTS
  check_against_full_parse(document);
#endif
  return ApplyReport{ApplyPath::kFastParse, reparsed, false};
}

Status DiffDeserializer::reparse_slot(std::size_t index,
                                      std::string_view fresh) {
  const LeafSlot& slot = slots_[index];
  const std::string_view lexical = trim(fresh);
  switch (slot.kind) {
    case LeafSlot::Kind::kInt32: {
      Result<std::int32_t> v = textconv::parse_i32(lexical);
      if (!v.ok()) return v.error();
      *static_cast<std::int32_t*>(slot.target) = v.value();
      break;
    }
    case LeafSlot::Kind::kDouble: {
      Result<double> v = textconv::parse_double(lexical);
      if (!v.ok()) return v.error();
      *static_cast<double*>(slot.target) = v.value();
      break;
    }
  }
  return Status{};
}

namespace {

/// Collects mutable leaf pointers of a Value in document order.
struct SlotCollector {
  template <typename PushFn>
  static void collect(soap::Value& value, const PushFn& push) {
    using soap::ValueKind;
    switch (value.kind()) {
      case ValueKind::kDoubleArray:
        for (double& d : value.doubles()) push(&d, 'd');
        break;
      case ValueKind::kIntArray:
        for (std::int32_t& i : value.ints()) push(&i, 'i');
        break;
      case ValueKind::kMioArray:
        for (soap::Mio& m : value.mios()) {
          push(&m.x, 'i');
          push(&m.y, 'i');
          push(&m.value, 'd');
        }
        break;
      case ValueKind::kStruct:
        for (soap::Value::Member& m : value.members()) collect(m.value, push);
        break;
      default:
        // Scalars: Value keeps its payload private; scalar leaves disable
        // the fast path (push with null target handles this).
        push(nullptr, 's');
        break;
    }
  }
};

}  // namespace

bool DiffDeserializer::collect_slots() {
  slots_.clear();
  bool all_supported = true;
  const auto push = [&](void* target, char kind) {
    if (target == nullptr) {
      all_supported = false;
      return;
    }
    LeafSlot slot;
    slot.kind = kind == 'd' ? LeafSlot::Kind::kDouble : LeafSlot::Kind::kInt32;
    slot.target = target;
    slots_.push_back(slot);
  };
  for (soap::Param& p : cached_call_.params) {
    SlotCollector::collect(p.value, push);
  }
  if (!all_supported || slots_.size() != regions_.size()) {
    fast_path_usable_ = false;
  }
  return all_supported;
}

void DiffDeserializer::collect_pieces(std::string_view document) {
  // Pieces that match each other both ways hold the same tokens, so any of
  // them stands for the rest in the window re-scan. An entry keeps the raw
  // bytes most of its pieces have (a majority vote), so the re-scan's
  // one-compare path hits on the common padding even where the first
  // leaf's differs, e.g. when element 0 carries a request id. Distinct
  // entries are few (one per tag pattern between leaves, e.g. three for a
  // MIO array), so a piece is looked up among the previous leaf's and the
  // first kSearch entries; past those it gets its own entry.
  constexpr std::size_t kSearch = 32;
  std::vector<std::uint32_t> votes;
  pieces_.clear();
  piece_ids_.resize(regions_.size());
  for (std::size_t k = 0; k < regions_.size(); ++k) {
    const std::size_t next =
        k + 1 < regions_.size() ? regions_[k + 1].begin : document.size();
    const std::string_view piece =
        document.substr(regions_[k].end, next - regions_[k].end);
    const auto same = [&](std::uint32_t id) {
      const std::string_view entry = pieces_[id];
      std::size_t at_piece = 0;
      std::size_t at_entry = 0;
      return piece == entry ||
             (match_structure(entry, piece, &at_piece, piece.size(),
                              /*to_end=*/true) &&
              match_structure(piece, entry, &at_entry, entry.size(),
                              /*to_end=*/true));
    };
    std::uint32_t id = k > 0 ? piece_ids_[k - 1] : 0;
    if (k == 0 || !same(id)) {
      id = 0;
      const std::size_t search = std::min(pieces_.size(), kSearch);
      while (id < search && !same(id)) ++id;
      if (id == search) {
        id = static_cast<std::uint32_t>(pieces_.size());
        pieces_.emplace_back(piece);
        votes.push_back(0);
      }
    }
    if (piece == pieces_[id]) {
      ++votes[id];
    } else if (votes[id] == 0) {
      pieces_[id].assign(piece);
      votes[id] = 1;
    } else {
      --votes[id];
    }
    piece_ids_[k] = id;
  }
}

Status DiffDeserializer::full_parse(std::string_view document) {
  // One pass: the reader records every typed-array leaf's text span while
  // it parses (reusing the region table's capacity).
  soap::LeafSpans leaves;
  leaves.spans.swap(regions_);
  Result<soap::RpcCall> call = soap::read_rpc_envelope(document, &leaves);
  regions_.swap(leaves.spans);
  if (!call.ok()) {
    // The cache may already be torn (apply_runs moves regions and rewrites
    // leaves before it demotes); never serve it after a failed re-prime.
    cache_valid_ = false;
    fast_path_usable_ = false;
    return call.error();
  }
  cached_call_ = std::move(call.value());
  doc_size_ = document.size();
  cache_valid_ = true;
  fast_path_usable_ = leaves.exact;
  [[maybe_unused]] const bool all_supported = collect_slots();
  if (fast_path_usable_) {
    collect_pieces(document);
  } else {
    pieces_.clear();
    piece_ids_.clear();
  }
#ifdef BSOAP_DEBUG_INVARIANTS
  check_regions_against_walk(document, leaves.exact && all_supported);
#endif
  return Status{};
}

#ifdef BSOAP_DEBUG_INVARIANTS
namespace {

/// Bitwise value equality (NaN equals itself, -0.0 differs from 0.0).
bool bit_equal(const soap::Value& a, const soap::Value& b) {
  using soap::ValueKind;
  if (a.kind() != b.kind()) return false;
  const auto same_bytes = [](const auto& x, const auto& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(x[0])) == 0);
  };
  switch (a.kind()) {
    case ValueKind::kDoubleArray:
      return same_bytes(a.doubles(), b.doubles());
    case ValueKind::kIntArray:
      return same_bytes(a.ints(), b.ints());
    case ValueKind::kMioArray:
      return same_bytes(a.mios(), b.mios());
    case ValueKind::kStruct:
      if (a.members().size() != b.members().size()) return false;
      for (std::size_t i = 0; i < a.members().size(); ++i) {
        if (a.members()[i].name != b.members()[i].name ||
            !bit_equal(a.members()[i].value, b.members()[i].value)) {
          return false;
        }
      }
      return true;
    default:
      return a == b;
  }
}

}  // namespace

/// A fast parse must leave exactly what a full parse of the document
/// would: the same call, bit for bit, and the same region map.
void DiffDeserializer::check_against_full_parse(
    std::string_view document) const {
  soap::LeafSpans leaves;
  Result<soap::RpcCall> full = soap::read_rpc_envelope(document, &leaves);
  BSOAP_ASSERT(full.ok());
  const soap::RpcCall& call = full.value();
  BSOAP_ASSERT(call.method == cached_call_.method &&
               call.service_namespace == cached_call_.service_namespace &&
               call.params.size() == cached_call_.params.size());
  for (std::size_t i = 0; i < call.params.size(); ++i) {
    BSOAP_ASSERT(call.params[i].name == cached_call_.params[i].name);
    BSOAP_ASSERT(bit_equal(call.params[i].value, cached_call_.params[i].value));
  }
  BSOAP_ASSERT(leaves.exact && leaves.spans.size() == regions_.size());
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    BSOAP_ASSERT(leaves.spans[i].begin == regions_[i].begin &&
                 leaves.spans[i].end == regions_[i].end);
  }
}

/// Checks the one-pass map against a separate pull-parser walk that takes
/// the span of every childless element's single text event (the pass
/// full_parse made before the reader recorded spans itself). When the
/// reader's spans are exact, every leaf is slot-addressable and the walk
/// finds one region per slot, the two maps are identical; a usable map is
/// in any case a subsequence of the walk's (it leaves out header leaves).
void DiffDeserializer::check_regions_against_walk(std::string_view document,
                                                  bool exact) const {
  std::vector<LeafRegion> walked;
  bool walk_usable = true;
  xml::XmlPullParser parser(document);
  struct Frame {
    bool has_children = false;
    LeafRegion text{0, 0};
    int text_events = 0;
  };
  std::vector<Frame> stack;
  for (;;) {
    Result<xml::XmlEvent> event = parser.next();
    if (!event.ok()) return;  // trailing bytes the envelope reader ignores
    if (event.value() == xml::XmlEvent::kEof) break;
    switch (event.value()) {
      case xml::XmlEvent::kStartElement:
        if (!stack.empty()) stack.back().has_children = true;
        stack.push_back(Frame{});
        break;
      case xml::XmlEvent::kText:
        if (!stack.empty()) {
          stack.back().text = LeafRegion{parser.event_begin(),
                                         parser.event_end()};
          ++stack.back().text_events;
        }
        break;
      case xml::XmlEvent::kEndElement: {
        const Frame f = stack.back();
        stack.pop_back();
        if (f.has_children) break;
        if (f.text_events == 1) walked.push_back(f.text);
        else if (f.text_events > 1 || stack.size() > 2) walk_usable = false;
        break;
      }
      default:
        break;
    }
  }
  const auto same = [](const LeafRegion& a, const LeafRegion& b) {
    return a.begin == b.begin && a.end == b.end;
  };
  const auto before = [](const LeafRegion& a, const LeafRegion& b) {
    return a.begin < b.begin;
  };
  if (exact && walk_usable && walked.size() == slots_.size()) {
    BSOAP_ASSERT(fast_path_usable_);
    BSOAP_ASSERT(std::equal(walked.begin(), walked.end(), regions_.begin(),
                            regions_.end(), same));
  }
  if (fast_path_usable_) {
    BSOAP_ASSERT(std::includes(walked.begin(), walked.end(), regions_.begin(),
                               regions_.end(), before));
  }
}
#endif

}  // namespace bsoap::core
