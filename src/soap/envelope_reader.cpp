#include "soap/envelope_reader.hpp"

#include <map>
#include <optional>
#include <string>

#include "soap/constants.hpp"
#include "textconv/parse.hpp"
#include "xml/pull_parser.hpp"
#include "xml/qname.hpp"
#include "xml/tag_trie.hpp"

namespace bsoap::soap {
namespace {

using xml::XmlEvent;
using xml::XmlPullParser;

bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\n'; }

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_ws(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_ws(s.back())) s.remove_suffix(1);
  return s;
}

Error type_error(std::string_view what, std::string_view text) {
  return Error{ErrorCode::kParseError,
               std::string("bad ") + std::string(what) + " lexical: '" +
                   std::string(text) + "'"};
}

using MultiRefMap = std::map<std::string, Value>;

/// Consumes events to the end of the current element.
Status skip_subtree(XmlPullParser* parser) {
  std::size_t depth = 1;
  while (depth > 0) {
    Result<XmlEvent> event = parser->next();
    if (!event.ok()) return event.error();
    if (event.value() == XmlEvent::kStartElement) ++depth;
    else if (event.value() == XmlEvent::kEndElement) --depth;
    else if (event.value() == XmlEvent::kEof) {
      return Error{ErrorCode::kParseError, "EOF inside element"};
    }
  }
  return Status{};
}

/// Marks a leaf that was not read from exactly one text event.
constexpr LeafSpan kNoSpan{std::string_view::npos, std::string_view::npos};

Error unknown_mio_member(std::string_view name) {
  return Error{ErrorCode::kParseError,
               "unknown MIO member: " + std::string(name)};
}

/// Reads values from one parser, recording typed-array leaf spans into
/// `spans` when it is non-null.
class ValueReader {
 public:
  ValueReader(XmlPullParser* parser, std::string_view document,
              const MultiRefMap* multirefs, LeafSpans* spans)
      : parser_(parser),
        base_(document.data()),
        multirefs_(multirefs),
        spans_(spans) {}

  /// Reads the value whose start tag the parser just consumed.
  Result<Value> read_value();

 private:
  Result<std::string> read_text_content(LeafSpan* span);
  Result<Mio> read_mio();
  Result<Value> read_array(std::string_view array_type);

  LeafSpan span_of(std::string_view text) const {
    const auto begin = static_cast<std::size_t>(text.data() - base_);
    return LeafSpan{begin, begin + text.size()};
  }
  void record(LeafSpan span) {
    if (spans_ == nullptr) return;
    std::vector<LeafSpan>& spans = spans_->spans;
    if (span.begin == kNoSpan.begin ||
        (!spans.empty() && span.begin < spans.back().end)) {
      spans_->exact = false;
    }
    spans.push_back(span);
  }

  XmlPullParser* parser_;
  const char* base_;
  const MultiRefMap* multirefs_;
  LeafSpans* spans_;
};

/// Collects the text content of the current element (parser just consumed
/// its start tag) and consumes the matching end tag. Fails if child
/// elements appear. `*span` is the text's byte span when it came from
/// exactly one text event, else kNoSpan.
Result<std::string> ValueReader::read_text_content(LeafSpan* span) {
  std::string content;
  LeafSpan last_text = kNoSpan;
  int text_events = 0;
  for (;;) {
    Result<XmlEvent> event = parser_->next();
    if (!event.ok()) return event.error();
    switch (event.value()) {
      case XmlEvent::kText:
        content += parser_->text();
        last_text = LeafSpan{parser_->event_begin(), parser_->event_end()};
        ++text_events;
        break;
      case XmlEvent::kEndElement:
        if (span != nullptr) *span = text_events == 1 ? last_text : kNoSpan;
        return content;
      case XmlEvent::kStartElement:
        return Error{ErrorCode::kParseError,
                     "unexpected child element <" + std::string(parser_->name()) +
                         "> in scalar content"};
      case XmlEvent::kEof:
        return Error{ErrorCode::kParseError, "EOF inside element"};
    }
  }
}

/// Reads one MIO: <item><x>..</x><y>..</y><v>..</v></item>; the start tag of
/// <item> has been consumed.
Result<Mio> ValueReader::read_mio() {
  // Trie-based tag dispatch (Chiu et al. [6]): member names resolve to
  // slot ids in one pass instead of repeated string compares.
  static const xml::TagTrie& mio_trie = *[] {
    auto* trie = new xml::TagTrie();
    trie->add("x");
    trie->add("y");
    trie->add("v");
    return trie;
  }();
  Mio mio;
  int field = 0;
  LeafSpan spans[3] = {kNoSpan, kNoSpan, kNoSpan};
  for (;;) {
    int slot;
    std::string_view text;
    LeafSpan span;
    std::string content;
    if (const std::optional<xml::SimpleElement> member =
            parser_->next_simple_element()) {
      slot = mio_trie.match(member->name);
      if (slot < 0) return unknown_mio_member(member->name);
      text = member->text;
      span = span_of(text);
    } else {
      Result<XmlEvent> event = parser_->next();
      if (!event.ok()) return event.error();
      if (event.value() == XmlEvent::kEndElement) {
        if (field != 3) {
          return Error{ErrorCode::kParseError, "MIO with missing fields"};
        }
        // A repeated member leaves another slot without a span.
        for (const LeafSpan& s : spans) record(s);
        return mio;
      }
      if (event.value() == XmlEvent::kText) continue;  // inter-element space
      if (event.value() != XmlEvent::kStartElement) {
        return Error{ErrorCode::kParseError, "EOF inside MIO"};
      }
      slot = mio_trie.match(parser_->name());
      if (slot < 0) return unknown_mio_member(parser_->name());
      Result<std::string> read = read_text_content(&span);
      if (!read.ok()) return read.error();
      content = std::move(read.value());
      text = content;
    }
    const std::string_view lexical = trim(text);
    if (slot == 2) {
      Result<double> v = textconv::parse_double(lexical);
      if (!v.ok()) return type_error("MIO double", lexical);
      mio.value = v.value();
    } else {
      Result<std::int32_t> v = textconv::parse_i32(lexical);
      if (!v.ok()) return type_error("MIO int", lexical);
      (slot == 0 ? mio.x : mio.y) = v.value();
    }
    spans[slot] = span;
    ++field;
  }
}

/// Reads a SOAP-ENC:Array given the arrayType attribute value; the array's
/// start tag has been consumed.
Result<Value> ValueReader::read_array(std::string_view array_type) {
  const std::size_t bracket = array_type.find('[');
  const std::string_view element_type =
      bracket == std::string_view::npos ? array_type
                                        : array_type.substr(0, bracket);
  const std::string_view local = xml::split_qname(element_type).local;

  enum class Elem { kDouble, kInt, kMio } elem;
  if (local == "double" || local == "float") elem = Elem::kDouble;
  else if (local == "int" || local == "long") elem = Elem::kInt;
  else if (local == "MIO") elem = Elem::kMio;
  else {
    return Error{ErrorCode::kUnsupported,
                 "unsupported arrayType: " + std::string(array_type)};
  }

  std::vector<double> doubles;
  std::vector<std::int32_t> ints;
  std::vector<Mio> mios;
  const auto append = [&](std::string_view text, LeafSpan span) -> Status {
    const std::string_view lexical = trim(text);
    if (elem == Elem::kDouble) {
      Result<double> v = textconv::parse_double(lexical);
      if (!v.ok()) return type_error("double", lexical);
      doubles.push_back(v.value());
    } else {
      Result<std::int32_t> v = textconv::parse_i32(lexical);
      if (!v.ok()) return type_error("int", lexical);
      ints.push_back(v.value());
    }
    record(span);
    return Status{};
  };
  for (;;) {
    if (elem != Elem::kMio) {
      if (const std::optional<xml::SimpleElement> item =
              parser_->next_simple_element()) {
        BSOAP_RETURN_IF_ERROR(append(item->text, span_of(item->text)));
        continue;
      }
    }
    Result<XmlEvent> event = parser_->next();
    if (!event.ok()) return event.error();
    if (event.value() == XmlEvent::kEndElement) break;
    if (event.value() == XmlEvent::kText) continue;  // whitespace between items
    if (event.value() != XmlEvent::kStartElement) {
      return Error{ErrorCode::kParseError, "EOF inside array"};
    }
    if (elem == Elem::kMio) {
      Result<Mio> mio = read_mio();
      if (!mio.ok()) return mio.error();
      mios.push_back(mio.value());
      continue;
    }
    LeafSpan span;
    Result<std::string> text = read_text_content(&span);
    if (!text.ok()) return text.error();
    BSOAP_RETURN_IF_ERROR(append(text.value(), span));
  }
  switch (elem) {
    case Elem::kDouble: return Value::from_double_array(std::move(doubles));
    case Elem::kInt: return Value::from_int_array(std::move(ints));
    case Elem::kMio: return Value::from_mio_array(std::move(mios));
  }
  return Error{ErrorCode::kInternal, "unreachable"};
}

Result<Value> ValueReader::read_value() {
  // Multi-ref accessor: <name href="#ref-N"/> refers to an independent
  // element serialized once elsewhere in the Body (SOAP 1.1 Section 5).
  if (const xml::XmlAttribute* href = parser_->find_attribute("href")) {
    std::string id = href->value;
    if (!id.empty() && id.front() == '#') id.erase(0, 1);
    BSOAP_RETURN_IF_ERROR(skip_subtree(parser_));  // consume the empty element
    if (multirefs_ != nullptr) {
      const auto it = multirefs_->find(id);
      if (it != multirefs_->end()) return it->second;
    }
    return Error{ErrorCode::kParseError, "unresolved multiRef '#" + id + "'"};
  }

  std::string xsi_type;
  std::string array_type;
  if (const xml::XmlAttribute* attr = parser_->find_attribute("xsi:type")) {
    xsi_type = attr->value;
  }
  if (const xml::XmlAttribute* attr =
          parser_->find_attribute("SOAP-ENC:arrayType")) {
    array_type = attr->value;
  }

  if (xsi_type == "SOAP-ENC:Array" || !array_type.empty()) {
    if (array_type.empty()) {
      return Error{ErrorCode::kParseError, "Array without arrayType"};
    }
    return read_array(array_type);
  }

  const std::string_view local = xml::split_qname(xsi_type).local;
  if (local == "int" || local == "long" || local == "double" ||
      local == "float" || local == "boolean" || local == "string") {
    Result<std::string> text = read_text_content(nullptr);
    if (!text.ok()) return text.error();
    if (local == "string") return Value::from_string(std::move(text.value()));
    const std::string_view lexical = trim(text.value());
    if (local == "int") {
      Result<std::int32_t> v = textconv::parse_i32(lexical);
      if (!v.ok()) return type_error("int", lexical);
      return Value::from_int(v.value());
    }
    if (local == "long") {
      Result<std::int64_t> v = textconv::parse_i64(lexical);
      if (!v.ok()) return type_error("long", lexical);
      return Value::from_int64(v.value());
    }
    if (local == "boolean") {
      if (lexical == "true" || lexical == "1") return Value::from_bool(true);
      if (lexical == "false" || lexical == "0") return Value::from_bool(false);
      return type_error("boolean", lexical);
    }
    Result<double> v = textconv::parse_double(lexical);
    if (!v.ok()) return type_error("double", lexical);
    return Value::from_double(v.value());
  }

  // No recognized xsi:type: struct if children follow, else string.
  Value structure = Value::make_struct();
  std::string text_content;
  bool has_children = false;
  for (;;) {
    Result<XmlEvent> event = parser_->next();
    if (!event.ok()) return event.error();
    if (event.value() == XmlEvent::kEndElement) break;
    if (event.value() == XmlEvent::kText) {
      text_content += parser_->text();
      continue;
    }
    if (event.value() != XmlEvent::kStartElement) {
      return Error{ErrorCode::kParseError, "EOF inside value"};
    }
    has_children = true;
    std::string member_name(parser_->name());
    Result<Value> member = read_value();
    if (!member.ok()) return member.error();
    structure.add_member(std::move(member_name), std::move(member.value()));
  }
  if (has_children) return structure;
  return Value::from_string(std::move(text_content));
}

}  // namespace


namespace {

/// Pre-pass for multi-ref documents: parses every id-bearing element in the
/// Body into a value, keyed by id. Nested multi-refs are not supported.
Result<std::map<std::string, Value>> collect_multirefs(
    std::string_view document) {
  std::map<std::string, Value> out;
  XmlPullParser scanner(document);
  for (;;) {
    Result<XmlEvent> event = scanner.next();
    if (!event.ok()) return event.error();
    if (event.value() == XmlEvent::kEof) return out;
    if (event.value() != XmlEvent::kStartElement) continue;
    const xml::XmlAttribute* id = scanner.find_attribute("id");
    if (id == nullptr) continue;
    const std::string key = id->value;
    // Parse this element's subtree with a sub-parser over its byte range.
    const std::size_t begin = scanner.event_begin();
    BSOAP_RETURN_IF_ERROR(skip_subtree(&scanner));
    const std::size_t end = scanner.event_end();
    const std::string_view subtree = document.substr(begin, end - begin);
    XmlPullParser sub(subtree);
    Result<XmlEvent> sub_event = sub.next();
    if (!sub_event.ok()) return sub_event.error();
    Result<Value> value =
        ValueReader(&sub, subtree, nullptr, nullptr).read_value();
    if (!value.ok()) return value.error();
    out.emplace(key, std::move(value.value()));
  }
}

}  // namespace

Result<RpcCall> read_rpc_envelope(std::string_view document,
                                  LeafSpans* leaf_spans) {
  XmlPullParser parser(document);
  if (leaf_spans != nullptr) {
    leaf_spans->spans.clear();
    leaf_spans->exact = true;
  }

  // Multi-ref pre-pass (only when href accessors are present).
  std::map<std::string, Value> multirefs;
  if (document.find("href=\"#") != std::string_view::npos) {
    if (leaf_spans != nullptr) leaf_spans->exact = false;
    Result<std::map<std::string, Value>> collected =
        collect_multirefs(document);
    if (!collected.ok()) return collected.error();
    multirefs = std::move(collected.value());
  }

  // Envelope.
  Result<XmlEvent> event = parser.next();
  if (!event.ok()) return event.error();
  if (event.value() != XmlEvent::kStartElement ||
      xml::split_qname(parser.name()).local != "Envelope") {
    return Error{ErrorCode::kParseError, "expected SOAP Envelope"};
  }

  // Optional Header, then Body.
  for (;;) {
    event = parser.next();
    if (!event.ok()) return event.error();
    if (event.value() == XmlEvent::kText) continue;
    if (event.value() != XmlEvent::kStartElement) {
      return Error{ErrorCode::kParseError, "expected SOAP Body"};
    }
    const std::string_view local = xml::split_qname(parser.name()).local;
    if (local == "Header") {
      // Skip the header subtree.
      std::size_t depth = 1;
      while (depth > 0) {
        event = parser.next();
        if (!event.ok()) return event.error();
        if (event.value() == XmlEvent::kStartElement) ++depth;
        else if (event.value() == XmlEvent::kEndElement) --depth;
        else if (event.value() == XmlEvent::kEof) {
          return Error{ErrorCode::kParseError, "EOF in Header"};
        }
      }
      continue;
    }
    if (local == "Body") break;
    return Error{ErrorCode::kParseError,
                 "unexpected element <" + std::string(parser.name()) + ">"};
  }

  // Method element. Independent id-bearing elements (multiRef definitions)
  // may legally precede it; they were collected in the pre-pass.
  for (;;) {
    event = parser.next();
    if (!event.ok()) return event.error();
    if (event.value() == XmlEvent::kText) continue;
    if (event.value() != XmlEvent::kStartElement) {
      return Error{ErrorCode::kParseError, "expected method element in Body"};
    }
    if (parser.find_attribute("id") != nullptr) {
      BSOAP_RETURN_IF_ERROR(skip_subtree(&parser));
      continue;
    }
    break;
  }

  RpcCall call;
  const xml::QName method = xml::split_qname(parser.name());
  call.method = std::string(method.local);
  std::string xmlns_attr = "xmlns";
  if (!method.prefix.empty()) {
    xmlns_attr += ':';
    xmlns_attr += method.prefix;
  }
  if (const xml::XmlAttribute* ns = parser.find_attribute(xmlns_attr)) {
    call.service_namespace = ns->value;
  }

  // Parameters.
  ValueReader reader(&parser, document, &multirefs, leaf_spans);
  for (;;) {
    event = parser.next();
    if (!event.ok()) return event.error();
    if (event.value() == XmlEvent::kEndElement) break;  // method end
    if (event.value() == XmlEvent::kText) continue;
    if (event.value() != XmlEvent::kStartElement) {
      return Error{ErrorCode::kParseError, "EOF inside method element"};
    }
    Param param;
    param.name = std::string(parser.name());
    Result<Value> value = reader.read_value();
    if (!value.ok()) return value.error();
    param.value = std::move(value.value());
    call.params.push_back(std::move(param));
  }

  // Close Body and Envelope, skipping any independent body-level elements
  // (multiRef definitions were collected in the pre-pass).
  for (int closes = 0; closes < 2;) {
    event = parser.next();
    if (!event.ok()) return event.error();
    if (event.value() == XmlEvent::kText) continue;
    if (event.value() == XmlEvent::kStartElement) {
      BSOAP_RETURN_IF_ERROR(skip_subtree(&parser));
      continue;
    }
    if (event.value() != XmlEvent::kEndElement) {
      return Error{ErrorCode::kParseError, "expected envelope close"};
    }
    ++closes;
  }
  return call;
}

}  // namespace bsoap::soap
