#include "xml/pull_parser.hpp"

#include <cctype>
#include <cstring>

#include "xml/escape.hpp"

namespace bsoap::xml {
namespace {

bool is_name_start(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || c == '_' ||
         c == ':';
}

bool is_name_char(char c) {
  return is_name_start(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\n'; }

}  // namespace

XmlPullParser::XmlPullParser(std::string_view doc, Options options)
    : doc_(doc), options_(options) {}

Error XmlPullParser::error_at(std::string msg) const {
  msg += " at offset ";
  msg += std::to_string(pos_);
  return Error{ErrorCode::kParseError, std::move(msg)};
}

void XmlPullParser::skip_whitespace() {
  while (pos_ < doc_.size() && is_ws(doc_[pos_])) ++pos_;
}

std::string_view XmlPullParser::read_name() {
  const std::size_t start = pos_;
  if (pos_ < doc_.size() && is_name_start(doc_[pos_])) {
    ++pos_;
    while (pos_ < doc_.size() && is_name_char(doc_[pos_])) ++pos_;
  }
  return doc_.substr(start, pos_ - start);
}

Result<XmlEvent> XmlPullParser::next() {
  if (pending_self_close_) {
    pending_self_close_ = false;
    BSOAP_ASSERT(!stack_.empty());
    name_ = stack_.back();
    stack_.pop_back();
    return XmlEvent::kEndElement;
  }

  for (;;) {
    if (pos_ >= doc_.size()) {
      if (!stack_.empty()) {
        return error_at("unexpected end of document inside <" +
                        std::string(stack_.back()) + ">");
      }
      event_begin_ = pos_;
      return XmlEvent::kEof;
    }

    event_begin_ = pos_;
    if (doc_[pos_] != '<') {
      Result<XmlEvent> text = parse_text();
      if (!text.ok()) return text;
      if (text.value() == XmlEvent::kText && options_.skip_whitespace_text) {
        bool all_ws = true;
        for (const char c : text_) {
          if (!is_ws(c)) {
            all_ws = false;
            break;
          }
        }
        if (all_ws) continue;
      }
      return text;
    }

    // '<' dispatch.
    if (pos_ + 1 >= doc_.size()) return error_at("dangling '<'");
    const char c = doc_[pos_ + 1];
    if (c == '/') return parse_end_tag();
    if (c == '?') {
      BSOAP_RETURN_IF_ERROR(skip_processing_instruction());
      continue;
    }
    if (c == '!') {
      if (doc_.compare(pos_, 4, "<!--") == 0) {
        BSOAP_RETURN_IF_ERROR(skip_comment());
        continue;
      }
      if (doc_.compare(pos_, 9, "<![CDATA[") == 0) return parse_cdata();
      return error_at("unsupported markup declaration");
    }
    return parse_start_tag();
  }
}

std::optional<SimpleElement> XmlPullParser::next_simple_element() {
  if (pending_self_close_ || stack_.empty()) return std::nullopt;
  const std::size_t size = doc_.size();
  std::size_t p = pos_;
  while (p < size && is_ws(doc_[p])) ++p;
  if (p + 1 >= size || doc_[p] != '<' || !is_name_start(doc_[p + 1])) {
    return std::nullopt;
  }
  const std::size_t name_begin = p + 1;
  p = name_begin + 1;
  while (p < size && is_name_char(doc_[p])) ++p;
  if (p >= size || doc_[p] != '>') return std::nullopt;
  const std::string_view name = doc_.substr(name_begin, p - name_begin);
  const std::size_t text_begin = p + 1;
  const char* lt = static_cast<const char*>(
      std::memchr(doc_.data() + text_begin, '<', size - text_begin));
  if (lt == nullptr) return std::nullopt;
  const std::size_t text_end = static_cast<std::size_t>(lt - doc_.data());
  if (std::memchr(doc_.data() + text_begin, '&', text_end - text_begin) !=
      nullptr) {
    return std::nullopt;
  }
  // "</" name ">" with nothing in between.
  const std::size_t close_end = text_end + 3 + name.size();
  if (close_end > size || doc_[text_end + 1] != '/' ||
      doc_.compare(text_end + 2, name.size(), name) != 0 ||
      doc_[close_end - 1] != '>') {
    return std::nullopt;
  }
  event_begin_ = name_begin - 1;
  pos_ = close_end;
  name_ = name;
  return SimpleElement{name,
                       doc_.substr(text_begin, text_end - text_begin)};
}

Result<XmlEvent> XmlPullParser::parse_text() {
  const std::size_t start = pos_;
  while (pos_ < doc_.size() && doc_[pos_] != '<') ++pos_;
  if (stack_.empty()) {
    // Character data outside the root element: only whitespace is legal.
    for (std::size_t i = start; i < pos_; ++i) {
      if (!is_ws(doc_[i])) return error_at("text outside root element");
    }
    if (pos_ >= doc_.size()) {
      if (!root_seen_) return error_at("document has no root element");
      event_begin_ = pos_;
      return XmlEvent::kEof;
    }
    // Re-dispatch from next() by treating this as skippable.
    text_.clear();
    return next();
  }
  if (!unescape(doc_.substr(start, pos_ - start), &text_)) {
    return error_at("malformed entity reference");
  }
  return XmlEvent::kText;
}

Result<XmlEvent> XmlPullParser::parse_cdata() {
  pos_ += 9;  // "<![CDATA["
  const std::size_t close = doc_.find("]]>", pos_);
  if (close == std::string_view::npos) return error_at("unterminated CDATA");
  if (stack_.empty()) return error_at("CDATA outside root element");
  text_.assign(doc_.substr(pos_, close - pos_));
  pos_ = close + 3;
  return XmlEvent::kText;
}

Status XmlPullParser::skip_comment() {
  pos_ += 4;  // "<!--"
  const std::size_t close = doc_.find("-->", pos_);
  if (close == std::string_view::npos) return error_at("unterminated comment");
  pos_ = close + 3;
  return Status{};
}

Status XmlPullParser::skip_processing_instruction() {
  pos_ += 2;  // "<?"
  const std::size_t close = doc_.find("?>", pos_);
  if (close == std::string_view::npos) {
    return error_at("unterminated processing instruction");
  }
  pos_ = close + 2;
  return Status{};
}

Status XmlPullParser::parse_attributes() {
  attributes_.clear();
  for (;;) {
    skip_whitespace();
    if (pos_ >= doc_.size()) return error_at("unterminated start tag");
    const char c = doc_[pos_];
    if (c == '>' || c == '/') return Status{};
    const std::string_view attr_name = read_name();
    if (attr_name.empty()) return error_at("expected attribute name");
    skip_whitespace();
    if (pos_ >= doc_.size() || doc_[pos_] != '=') {
      return error_at("expected '=' after attribute name");
    }
    ++pos_;
    skip_whitespace();
    if (pos_ >= doc_.size() || (doc_[pos_] != '"' && doc_[pos_] != '\'')) {
      return error_at("expected quoted attribute value");
    }
    const char quote = doc_[pos_++];
    const std::size_t value_start = pos_;
    while (pos_ < doc_.size() && doc_[pos_] != quote) {
      if (doc_[pos_] == '<') return error_at("'<' in attribute value");
      ++pos_;
    }
    if (pos_ >= doc_.size()) return error_at("unterminated attribute value");
    XmlAttribute attr;
    attr.name = attr_name;
    if (!unescape(doc_.substr(value_start, pos_ - value_start), &attr.value)) {
      return error_at("malformed entity in attribute value");
    }
    ++pos_;  // closing quote
    attributes_.push_back(std::move(attr));
  }
}

Result<XmlEvent> XmlPullParser::parse_start_tag() {
  if (root_seen_ && stack_.empty()) {
    return error_at("multiple root elements");
  }
  ++pos_;  // '<'
  name_ = read_name();
  if (name_.empty()) return error_at("expected element name");
  BSOAP_RETURN_IF_ERROR(parse_attributes());
  if (doc_[pos_] == '/') {
    if (pos_ + 1 >= doc_.size() || doc_[pos_ + 1] != '>') {
      return error_at("expected '/>'");
    }
    pos_ += 2;
    stack_.push_back(name_);
    pending_self_close_ = true;
    root_seen_ = true;
    return XmlEvent::kStartElement;
  }
  BSOAP_ASSERT(doc_[pos_] == '>');
  ++pos_;
  stack_.push_back(name_);
  root_seen_ = true;
  return XmlEvent::kStartElement;
}

Result<XmlEvent> XmlPullParser::parse_end_tag() {
  pos_ += 2;  // "</"
  const std::string_view closing = read_name();
  skip_whitespace();
  if (pos_ >= doc_.size() || doc_[pos_] != '>') {
    return error_at("expected '>' in end tag");
  }
  ++pos_;
  if (stack_.empty()) return error_at("unmatched end tag </" + std::string(closing) + ">");
  if (stack_.back() != closing) {
    return error_at("mismatched end tag </" + std::string(closing) +
                    ">, expected </" + std::string(stack_.back()) + ">");
  }
  name_ = stack_.back();
  stack_.pop_back();
  return XmlEvent::kEndElement;
}

const XmlAttribute* XmlPullParser::find_attribute(
    std::string_view attr_name) const {
  for (const XmlAttribute& attr : attributes_) {
    if (attr.name == attr_name) return &attr;
  }
  return nullptr;
}

}  // namespace bsoap::xml
