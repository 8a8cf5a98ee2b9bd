#include "core/diff_deserializer.hpp"

#include <algorithm>
#include <cstring>

#include "soap/envelope_reader.hpp"
#include "textconv/parse.hpp"
#include "xml/escape.hpp"
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
  cached_doc_.clear();
  regions_.clear();
  slots_.clear();
}

std::size_t DiffDeserializer::bytes() const {
  std::size_t n = cached_doc_.capacity() +
                  regions_.capacity() * sizeof(LeafRegion) +
                  slots_.capacity() * sizeof(LeafSlot) +
                  touched_.capacity() * sizeof(std::size_t) +
                  cached_call_.method.capacity() +
                  cached_call_.service_namespace.capacity() +
                  cached_call_.params.capacity() * sizeof(soap::Param);
  for (const soap::Param& p : cached_call_.params) {
    n += p.name.capacity() + value_bytes(p.value);
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

Result<DiffDeserializer::ApplyReport> DiffDeserializer::apply_runs(
    std::string_view document, std::span<const DirtyRun> runs) {
  if (!cache_valid_) {
    BSOAP_RETURN_IF_ERROR(full_parse(document));
    return ApplyReport{ApplyPath::kFullParse, 0, false};
  }
  if (document.size() != cached_doc_.size() || !fast_path_usable_) {
    return demote(document);
  }
  if (runs.empty()) {
    return ApplyReport{ApplyPath::kContentHit, 0, false};
  }

  // Intersect each run with the leaf-region map. Bytes of a run that fall
  // outside every region are structural: a patch may cover them (runs span
  // the close tag after a widened value) but must not change them.
  touched_.clear();
  for (const DirtyRun& run : runs) {
    if (run.length == 0) continue;
    if (run.offset > document.size() ||
        run.length > document.size() - run.offset) {
      return demote(document);
    }
    std::size_t cursor = run.offset;
    const std::size_t run_end = run.offset + run.length;
    while (cursor < run_end) {
      // First region whose end lies past the cursor.
      const auto it = std::upper_bound(
          regions_.begin(), regions_.end(), cursor,
          [](std::size_t pos, const LeafRegion& r) { return pos < r.end; });
      const std::size_t next_begin =
          it == regions_.end() ? document.size() : it->begin;
      if (cursor < next_begin) {
        const std::size_t seg_end = std::min(run_end, next_begin);
        if (std::memcmp(document.data() + cursor, cached_doc_.data() + cursor,
                        seg_end - cursor) != 0) {
          return demote(document);  // a structural byte changed
        }
        cursor = seg_end;
        continue;
      }
      touched_.push_back(static_cast<std::size_t>(it - regions_.begin()));
      cursor = std::min(run_end, it->end);
    }
  }
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());

  for (const DirtyRun& run : runs) {
    if (run.length == 0) continue;
    std::memcpy(cached_doc_.data() + run.offset, document.data() + run.offset,
                run.length);
  }
  for (const std::size_t index : touched_) {
    const LeafRegion& r = regions_[index];
    const std::string_view fresh =
        std::string_view(cached_doc_).substr(r.begin, r.end - r.begin);
    const Status st = reparse_slot(index, fresh);
    if (!st.ok()) return demote(document);
  }
  return ApplyReport{ApplyPath::kFastParse, touched_.size(), false};
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
    case LeafSlot::Kind::kInt64: {
      Result<std::int64_t> v = textconv::parse_i64(lexical);
      if (!v.ok()) return v.error();
      *static_cast<std::int64_t*>(slot.target) = v.value();
      break;
    }
    case LeafSlot::Kind::kDouble: {
      Result<double> v = textconv::parse_double(lexical);
      if (!v.ok()) return v.error();
      *static_cast<double*>(slot.target) = v.value();
      break;
    }
    case LeafSlot::Kind::kBool: {
      if (lexical == "true" || lexical == "1") {
        *static_cast<bool*>(slot.target) = true;
      } else if (lexical == "false" || lexical == "0") {
        *static_cast<bool*>(slot.target) = false;
      } else {
        return Error{ErrorCode::kParseError, "bad boolean region"};
      }
      break;
    }
    case LeafSlot::Kind::kString: {
      std::string decoded;
      if (!xml::unescape(fresh, &decoded)) {
        return Error{ErrorCode::kParseError, "bad string region"};
      }
      *static_cast<std::string*>(slot.target) = std::move(decoded);
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

Status DiffDeserializer::full_parse(std::string_view document) {
  // One pass: the reader records every typed-array leaf's text span while
  // it parses (reusing the region table's capacity).
  soap::LeafSpans leaves;
  leaves.spans.swap(regions_);
  Result<soap::RpcCall> call = soap::read_rpc_envelope(document, &leaves);
  regions_.swap(leaves.spans);
  if (!call.ok()) {
    // The cache may already be torn (apply_runs copies run bytes before
    // re-parsing leaves); never serve it after a failed re-prime.
    cache_valid_ = false;
    fast_path_usable_ = false;
    return call.error();
  }
  cached_call_ = std::move(call.value());
  cached_doc_.assign(document);
  cache_valid_ = true;
  fast_path_usable_ = leaves.exact;
  [[maybe_unused]] const bool all_supported = collect_slots();
#ifdef BSOAP_DEBUG_INVARIANTS
  check_regions_against_walk(leaves.exact && all_supported);
#endif
  return Status{};
}

#ifdef BSOAP_DEBUG_INVARIANTS
/// Checks the one-pass map against a separate pull-parser walk that takes
/// the span of every childless element's single text event (the pass
/// full_parse made before the reader recorded spans itself). When the
/// reader's spans are exact, every leaf is slot-addressable and the walk
/// finds one region per slot, the two maps are identical; a usable map is
/// in any case a subsequence of the walk's (it leaves out header leaves).
void DiffDeserializer::check_regions_against_walk(bool exact) const {
  std::vector<LeafRegion> walked;
  bool walk_usable = true;
  xml::XmlPullParser parser(cached_doc_);
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
