// Non-validating streaming (pull) XML parser.
//
// Supports the subset of XML 1.0 needed by SOAP 1.1 payloads: declarations,
// comments, processing instructions, CDATA, attributes, the predefined and
// numeric entities, and self-closing tags. Well-formedness (tag nesting) is
// enforced. The parser reports byte regions for every event, which the
// differential deserializer (paper Section 6, future work) uses to skip
// re-parsing unchanged regions of an incoming message.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace bsoap::xml {

enum class XmlEvent {
  kStartElement,
  kEndElement,
  kText,
  kEof,
};

struct XmlAttribute {
  std::string_view name;  ///< view into the document
  std::string value;      ///< entity-decoded
};

/// A sibling of the plainest form, `<name>text</name>`; both views point
/// into the document, so `text.data()` locates the text's byte span.
struct SimpleElement {
  std::string_view name;
  std::string_view text;
};

class XmlPullParser {
 public:
  struct Options {
    /// Drop text events that are pure whitespace (significant for SOAP
    /// because stuffing pads fields with whitespace — values are trimmed by
    /// the typed accessors instead).
    bool skip_whitespace_text = false;
  };

  /// The document must outlive the parser; names are views into it.
  explicit XmlPullParser(std::string_view doc) : XmlPullParser(doc, Options{}) {}
  XmlPullParser(std::string_view doc, Options options);

  /// Advances to the next event.
  Result<XmlEvent> next();

  /// Consumes the next sibling only if it is exactly `<name>text</name>`
  /// after optional whitespace: no attributes, no whitespace inside either
  /// tag, and text without '<' or '&' (so no comment, CDATA, entity or
  /// child element). Otherwise consumes nothing and returns nullopt; next()
  /// then reads the same bytes as events. A match is a balanced element, so
  /// depth() is unchanged; it yields the events next() would have, minus
  /// the copy of the text.
  std::optional<SimpleElement> next_simple_element();

  /// Element qname; valid after kStartElement / kEndElement.
  std::string_view name() const { return name_; }

  /// Decoded character data; valid after kText.
  const std::string& text() const { return text_; }

  /// Attributes of the last start element.
  const std::vector<XmlAttribute>& attributes() const { return attributes_; }

  /// Looks up an attribute by qname; nullptr if absent.
  const XmlAttribute* find_attribute(std::string_view attr_name) const;

  /// Byte range [begin, end) of the last event in the document.
  std::size_t event_begin() const { return event_begin_; }
  std::size_t event_end() const { return pos_; }

  /// Current element nesting depth.
  std::size_t depth() const { return stack_.size(); }

 private:
  Result<XmlEvent> parse_start_tag();
  Result<XmlEvent> parse_end_tag();
  Result<XmlEvent> parse_text();
  Status skip_comment();
  Status skip_processing_instruction();
  Result<XmlEvent> parse_cdata();
  Status parse_attributes();
  std::string_view read_name();
  void skip_whitespace();
  Error error_at(std::string msg) const;

  std::string_view doc_;
  Options options_;
  std::size_t pos_ = 0;
  std::size_t event_begin_ = 0;

  std::string_view name_;
  std::string text_;
  std::vector<XmlAttribute> attributes_;
  std::vector<std::string_view> stack_;
  bool pending_self_close_ = false;
  bool root_seen_ = false;
};

}  // namespace bsoap::xml
