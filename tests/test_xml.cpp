// Tests for XML escaping, the sink-templated writer, and the pull parser.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "buffer/chunked_buffer.hpp"
#include "buffer/sinks.hpp"
#include "common/rng.hpp"
#include "xml/escape.hpp"
#include "xml/pull_parser.hpp"
#include "xml/qname.hpp"
#include "xml/writer.hpp"

namespace bsoap::xml {
namespace {

using buffer::StringSink;

std::string escape(std::string_view in) {
  std::string out;
  escape_append(out, in);
  return out;
}

TEST(Escape, PredefinedEntities) {
  EXPECT_EQ(escape("a<b&c>d\"e'f"), "a&lt;b&amp;c&gt;d&quot;e&apos;f");
  EXPECT_EQ(escape("plain text"), "plain text");
  EXPECT_FALSE(needs_escaping("plain"));
  EXPECT_TRUE(needs_escaping("a&b"));
}

TEST(Escape, RoundTrip) {
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    std::string original;
    const std::size_t n = rng.next_below(40);
    for (std::size_t k = 0; k < n; ++k) {
      original += static_cast<char>(32 + rng.next_below(95));
    }
    std::string decoded;
    ASSERT_TRUE(unescape(escape(original), &decoded)) << original;
    EXPECT_EQ(decoded, original);
  }
}

TEST(Escape, NumericReferences) {
  std::string out;
  EXPECT_TRUE(unescape("&#65;&#x42;&#x2764;", &out));
  EXPECT_EQ(out, "AB\xE2\x9D\xA4");
  EXPECT_FALSE(unescape("&#;", &out));
  EXPECT_FALSE(unescape("&bogus;", &out));
  EXPECT_FALSE(unescape("&#xZZ;", &out));
  EXPECT_FALSE(unescape("&unterminated", &out));
  EXPECT_FALSE(unescape("&#1114112;", &out));  // above U+10FFFF
}

TEST(Writer, BasicDocument) {
  StringSink sink;
  XmlWriter<StringSink> writer(sink);
  writer.declaration();
  writer.start_element("root");
  writer.attribute("id", "1");
  writer.start_element("child");
  writer.text("a<b");
  writer.end_element();
  writer.start_element("empty");
  writer.end_element();
  writer.end_element();
  writer.finish();
  EXPECT_EQ(sink.str(),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>"
            "<root id=\"1\"><child>a&lt;b</child><empty/></root>");
}

TEST(Writer, NumericFastPaths) {
  StringSink sink;
  XmlWriter<StringSink> writer(sink);
  writer.start_element("n");
  writer.int_text(-42);
  writer.end_element();
  writer.start_element("d");
  writer.double_text(2.5);
  writer.end_element();
  EXPECT_EQ(sink.str(), "<n>-42</n><d>2.5</d>");
}

TEST(Writer, IntoChunkedBuffer) {
  buffer::ChunkConfig config;
  config.chunk_size = 32;
  config.tail_reserve = 4;
  buffer::ChunkedBuffer buf(config);
  XmlWriter<buffer::ChunkedBuffer> writer(buf);
  writer.start_element("root");
  for (int i = 0; i < 20; ++i) {
    writer.start_element("v");
    writer.int_text(i);
    writer.end_element();
  }
  writer.end_element();
  writer.finish();
  EXPECT_GT(buf.chunk_count(), 1u);
  std::string expected = "<root>";
  for (int i = 0; i < 20; ++i) {
    expected += "<v>" + std::to_string(i) + "</v>";
  }
  expected += "</root>";
  EXPECT_EQ(buf.linearize(), expected);
}

TEST(Writer, AttributeEscaping) {
  StringSink sink;
  XmlWriter<StringSink> writer(sink);
  writer.start_element("e");
  writer.attribute("a", "x\"y<z");
  writer.end_element();
  EXPECT_EQ(sink.str(), "<e a=\"x&quot;y&lt;z\"/>");
}

// --- pull parser --------------------------------------------------------

std::vector<std::string> tokenize(std::string_view doc) {
  XmlPullParser parser(doc);
  std::vector<std::string> out;
  for (;;) {
    Result<XmlEvent> event = parser.next();
    if (!event.ok()) {
      out.push_back("ERROR:" + event.error().message);
      return out;
    }
    switch (event.value()) {
      case XmlEvent::kStartElement: {
        std::string attrs;
        for (const XmlAttribute& a : parser.attributes()) {
          attrs += " " + std::string(a.name) + "=" + a.value;
        }
        out.push_back("<" + std::string(parser.name()) + attrs);
        break;
      }
      case XmlEvent::kEndElement:
        out.push_back("</" + std::string(parser.name()));
        break;
      case XmlEvent::kText:
        out.push_back("T:" + parser.text());
        break;
      case XmlEvent::kEof:
        out.push_back("EOF");
        return out;
    }
  }
}

TEST(PullParser, Basic) {
  const auto tokens = tokenize("<a><b x=\"1\">hi</b><c/></a>");
  const std::vector<std::string> expected = {"<a", "<b x=1", "T:hi", "</b",
                                             "<c", "</c", "</a", "EOF"};
  EXPECT_EQ(tokens, expected);
}

TEST(PullParser, DeclCommentsPis) {
  const auto tokens = tokenize(
      "<?xml version=\"1.0\"?><!-- note --><root><?pi data?>x</root>");
  const std::vector<std::string> expected = {"<root", "T:x", "</root", "EOF"};
  EXPECT_EQ(tokens, expected);
}

TEST(PullParser, Cdata) {
  const auto tokens = tokenize("<r><![CDATA[a<b&c]]></r>");
  const std::vector<std::string> expected = {"<r", "T:a<b&c", "</r", "EOF"};
  EXPECT_EQ(tokens, expected);
}

TEST(PullParser, EntityDecoding) {
  const auto tokens = tokenize("<r a=\"x&amp;y\">1 &lt; 2</r>");
  const std::vector<std::string> expected = {"<r a=x&y", "T:1 < 2", "</r",
                                             "EOF"};
  EXPECT_EQ(tokens, expected);
}

TEST(PullParser, WhitespaceBetweenElements) {
  const auto tokens = tokenize("<r>  <a/>  </r>");
  const std::vector<std::string> expected = {"<r",  "T:  ", "<a",  "</a",
                                             "T:  ", "</r",  "EOF"};
  EXPECT_EQ(tokens, expected);
}

TEST(PullParser, Errors) {
  EXPECT_EQ(tokenize("<a><b></a>").back().substr(0, 6), "ERROR:");
  EXPECT_EQ(tokenize("<a>").back().substr(0, 6), "ERROR:");
  EXPECT_EQ(tokenize("text").back().substr(0, 6), "ERROR:");
  EXPECT_EQ(tokenize("<a></a><b></b>").back().substr(0, 6), "ERROR:");
  EXPECT_EQ(tokenize("<a x=1></a>").back().substr(0, 6), "ERROR:");
  EXPECT_EQ(tokenize("<a x=\"1></a>").back().substr(0, 6), "ERROR:");
  EXPECT_EQ(tokenize("<a><![CDATA[x]]</a>").back().substr(0, 6), "ERROR:");
  EXPECT_EQ(tokenize("</a>").back().substr(0, 6), "ERROR:");
  EXPECT_EQ(tokenize("<a>&bogus;</a>").back().substr(0, 6), "ERROR:");
}

TEST(PullParser, SelfClosingDepth) {
  XmlPullParser parser("<a><b/></a>");
  EXPECT_EQ(parser.next().value(), XmlEvent::kStartElement);
  EXPECT_EQ(parser.depth(), 1u);
  EXPECT_EQ(parser.next().value(), XmlEvent::kStartElement);
  EXPECT_EQ(parser.depth(), 2u);
  EXPECT_EQ(parser.next().value(), XmlEvent::kEndElement);
  EXPECT_EQ(parser.depth(), 1u);
  EXPECT_EQ(parser.name(), "b");
}

TEST(PullParser, EventRegions) {
  const std::string doc = "<r><v>12345</v></r>";
  XmlPullParser parser(doc);
  EXPECT_EQ(parser.next().value(), XmlEvent::kStartElement);  // r
  EXPECT_EQ(parser.next().value(), XmlEvent::kStartElement);  // v
  EXPECT_EQ(parser.next().value(), XmlEvent::kText);
  EXPECT_EQ(doc.substr(parser.event_begin(),
                       parser.event_end() - parser.event_begin()),
            "12345");
}

TEST(PullParser, FindAttribute) {
  XmlPullParser parser("<r a=\"1\" b=\"2\"/>");
  ASSERT_EQ(parser.next().value(), XmlEvent::kStartElement);
  ASSERT_NE(parser.find_attribute("b"), nullptr);
  EXPECT_EQ(parser.find_attribute("b")->value, "2");
  EXPECT_EQ(parser.find_attribute("zz"), nullptr);
}

TEST(PullParser, SkipWhitespaceTextOption) {
  XmlPullParser::Options options;
  options.skip_whitespace_text = true;
  XmlPullParser parser("<r>   <a>x</a>   </r>", options);
  EXPECT_EQ(parser.next().value(), XmlEvent::kStartElement);  // r
  EXPECT_EQ(parser.next().value(), XmlEvent::kStartElement);  // a
  EXPECT_EQ(parser.next().value(), XmlEvent::kText);
  EXPECT_EQ(parser.text(), "x");
}

/// Reads one whole element with next() (start tag first), returning its
/// name.
std::string consume_element(XmlPullParser& parser) {
  Result<XmlEvent> event = parser.next();
  while (event.ok() && event.value() == XmlEvent::kText) event = parser.next();
  EXPECT_TRUE(event.ok() && event.value() == XmlEvent::kStartElement);
  const std::string name(parser.name());
  const std::size_t depth = parser.depth();
  while (parser.depth() >= depth) {
    event = parser.next();
    if (!event.ok()) return "ERROR:" + event.error().message;
  }
  return name;
}

TEST(PullParser, SimpleElementTakesOnlyThePlainForm) {
  const std::string doc =
      "<r> \n\t<a>1.5 </a><b></b><c/><d k=\"1\">2</d><e>&amp;</e>"
      "<f><![CDATA[3]]></f><g>4<!--c--></g><h>5</h ><i ></i><j><k/></j>"
      "<l>6</l><m>7</mm></m></r>";
  XmlPullParser parser(doc);
  EXPECT_FALSE(parser.next_simple_element().has_value());  // no root yet
  ASSERT_EQ(parser.next().value(), XmlEvent::kStartElement);

  std::optional<SimpleElement> a = parser.next_simple_element();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->name, "a");
  EXPECT_EQ(a->text, "1.5 ");
  EXPECT_EQ(static_cast<std::size_t>(a->text.data() - doc.data()),
            doc.find("1.5"));
  EXPECT_EQ(parser.depth(), 1u);
  std::optional<SimpleElement> b = parser.next_simple_element();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->name, "b");
  EXPECT_TRUE(b->text.empty());

  // Each irregular form is left whole for next().
  for (const char* name : {"c", "d", "e", "f", "g", "h", "i", "j"}) {
    const std::size_t before = parser.depth();
    EXPECT_FALSE(parser.next_simple_element().has_value()) << name;
    EXPECT_EQ(parser.depth(), before);
    EXPECT_EQ(consume_element(parser), name);
  }
  std::optional<SimpleElement> l = parser.next_simple_element();
  ASSERT_TRUE(l.has_value());
  EXPECT_EQ(l->text, "6");
  // "</mm>" does not close <m>: not taken, and next() reports it.
  EXPECT_FALSE(parser.next_simple_element().has_value());
  EXPECT_EQ(consume_element(parser).substr(0, 6), "ERROR:");
}

TEST(PullParser, SimpleElementLeavesAPendingSelfCloseAlone) {
  XmlPullParser parser("<r><s/><a>1</a></r>");
  ASSERT_EQ(parser.next().value(), XmlEvent::kStartElement);  // r
  ASSERT_EQ(parser.next().value(), XmlEvent::kStartElement);  // s
  EXPECT_FALSE(parser.next_simple_element().has_value());
  ASSERT_EQ(parser.next().value(), XmlEvent::kEndElement);
  EXPECT_EQ(parser.name(), "s");
  ASSERT_TRUE(parser.next_simple_element().has_value());
  EXPECT_EQ(parser.next().value(), XmlEvent::kEndElement);  // r
  EXPECT_EQ(parser.next().value(), XmlEvent::kEof);
}

TEST(PullParser, SimpleElementNeedsItsCloseTagInTheDocument) {
  for (const char* doc : {"<r><a>1</a", "<r><a>1</", "<r><a>1", "<r><a>",
                          "<r><a", "<r><"}) {
    XmlPullParser parser(doc);
    ASSERT_EQ(parser.next().value(), XmlEvent::kStartElement) << doc;
    EXPECT_FALSE(parser.next_simple_element().has_value()) << doc;
    Result<XmlEvent> event = parser.next();
    while (event.ok() && event.value() != XmlEvent::kEof) {
      event = parser.next();
    }
    EXPECT_FALSE(event.ok()) << doc;
  }
}

// Writer output always parses back (fuzz over random trees).
TEST(WriterParserFuzz, RoundTrip) {
  Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    StringSink sink;
    XmlWriter<StringSink> writer(sink);
    int open = 0;
    int emitted = 0;
    bool can_attr = true;  // true only right after a start_element
    writer.start_element("root");
    ++open;
    while (emitted < 30) {
      const std::uint64_t action = rng.next_below(4);
      if (action == 0 && open < 8) {
        writer.start_element("e" + std::to_string(emitted % 7));
        ++open;
        can_attr = true;
      } else if (action == 1 && open > 1) {
        writer.end_element();
        --open;
        can_attr = false;
      } else if (action == 3 && can_attr) {
        writer.attribute("a" + std::to_string(emitted), "v&quoted");
      } else {
        writer.text("t<&>" + std::to_string(emitted));
        can_attr = false;
      }
      ++emitted;
    }
    while (open > 0) {
      writer.end_element();
      --open;
    }
    writer.finish();
    const auto tokens = tokenize(sink.str());
    ASSERT_FALSE(tokens.empty());
    EXPECT_EQ(tokens.back(), "EOF") << sink.str();
  }
}

TEST(QName, Split) {
  EXPECT_EQ(split_qname("a:b").prefix, "a");
  EXPECT_EQ(split_qname("a:b").local, "b");
  EXPECT_EQ(split_qname("plain").prefix, "");
  EXPECT_EQ(split_qname("plain").local, "plain");
}

TEST(NamespaceTracker, Scoping) {
  NamespaceTracker tracker;
  tracker.push_scope({{"xmlns", "urn:default"}, {"xmlns:a", "urn:a"}});
  EXPECT_EQ(tracker.resolve(""), "urn:default");
  EXPECT_EQ(tracker.resolve("a"), "urn:a");
  tracker.push_scope({{"xmlns:a", "urn:a2"}});
  EXPECT_EQ(tracker.resolve("a"), "urn:a2");
  EXPECT_EQ(tracker.resolve_qname("a:x"), "urn:a2");
  tracker.pop_scope();
  EXPECT_EQ(tracker.resolve("a"), "urn:a");
  tracker.pop_scope();
  EXPECT_EQ(tracker.resolve("a"), "");
}

}  // namespace
}  // namespace bsoap::xml
