#include "core/diff_deserializer.hpp"

#include <algorithm>
#include <cstring>

#include "soap/envelope_reader.hpp"
#include "textconv/parse.hpp"
#include "xml/escape.hpp"
#include "xml/pull_parser.hpp"

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

void DiffDeserializer::collect_slots() {
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
}

Status DiffDeserializer::full_parse(std::string_view document) {
  Result<soap::RpcCall> call = soap::read_rpc_envelope(document);
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
  fast_path_usable_ = true;

  // Record the byte regions of scalar-content text: a text event whose
  // element has no element children is a candidate leaf region.
  regions_.clear();
  xml::XmlPullParser parser(cached_doc_);
  struct Frame {
    bool has_children = false;
    std::size_t text_begin = 0;
    std::size_t text_end = 0;
    int text_events = 0;
  };
  std::vector<Frame> stack;
  for (;;) {
    Result<xml::XmlEvent> event = parser.next();
    if (!event.ok()) return event.error();
    if (event.value() == xml::XmlEvent::kEof) break;
    switch (event.value()) {
      case xml::XmlEvent::kStartElement:
        if (!stack.empty()) stack.back().has_children = true;
        stack.push_back(Frame{});
        break;
      case xml::XmlEvent::kText:
        if (!stack.empty()) {
          Frame& f = stack.back();
          f.text_begin = parser.event_begin();
          f.text_end = parser.event_end();
          ++f.text_events;
        }
        break;
      case xml::XmlEvent::kEndElement: {
        const Frame f = stack.back();
        stack.pop_back();
        if (!f.has_children && f.text_events == 1) {
          regions_.push_back(LeafRegion{f.text_begin, f.text_end});
        } else if (!f.has_children && f.text_events > 1) {
          fast_path_usable_ = false;  // split text (CDATA/entity mix)
        } else if (!f.has_children && f.text_events == 0 &&
                   stack.size() > 2) {
          // Empty leaf (e.g. empty string): region bookkeeping would
          // misalign with the leaf walk, so disable the fast path.
          fast_path_usable_ = false;
        }
        break;
      }
      default:
        break;
    }
  }

  collect_slots();
  return Status{};
}

}  // namespace bsoap::core
