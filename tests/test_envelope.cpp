// Envelope round-trip tests: writer -> reader must reproduce the call, for
// every value kind, for both the conventional serializer and the XSOAP-like
// baseline's output.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "buffer/sinks.hpp"
#include "common/rng.hpp"
#include "soap/envelope_reader.hpp"
#include "soap/envelope_writer.hpp"
#include "soap/soap_server.hpp"
#include "soap/workload.hpp"
#include "textconv/parse.hpp"
#include "typed_array_docs.hpp"

namespace bsoap::soap {
namespace {

std::string serialize(const RpcCall& call) {
  buffer::StringSink sink;
  write_rpc_envelope(sink, call);
  return sink.take();
}

RpcCall round_trip(const RpcCall& call) {
  Result<RpcCall> parsed = read_rpc_envelope(serialize(call));
  EXPECT_TRUE(parsed.ok()) << (parsed.ok() ? "" : parsed.error().to_string());
  return parsed.ok() ? parsed.value() : RpcCall{};
}

TEST(Envelope, WriterOutputShape) {
  RpcCall call;
  call.method = "echo";
  call.service_namespace = "urn:test";
  call.params.push_back(Param{"x", Value::from_int(5)});
  const std::string doc = serialize(call);
  EXPECT_NE(doc.find("<?xml version=\"1.0\""), std::string::npos);
  EXPECT_NE(doc.find("<SOAP-ENV:Envelope"), std::string::npos);
  EXPECT_NE(doc.find("<SOAP-ENV:Body>"), std::string::npos);
  EXPECT_NE(doc.find("<ns1:echo xmlns:ns1=\"urn:test\">"), std::string::npos);
  EXPECT_NE(doc.find("<x xsi:type=\"xsd:int\">5</x>"), std::string::npos);
  EXPECT_NE(doc.find("</SOAP-ENV:Envelope>"), std::string::npos);
}

TEST(Envelope, ScalarRoundTrip) {
  RpcCall call;
  call.method = "m";
  call.service_namespace = "urn:s";
  call.params.push_back(Param{"i", Value::from_int(-7)});
  call.params.push_back(Param{"l", Value::from_int64(1ll << 60)});
  call.params.push_back(Param{"d", Value::from_double(3.25)});
  call.params.push_back(Param{"b", Value::from_bool(true)});
  call.params.push_back(Param{"s", Value::from_string("hi <&> there")});

  const RpcCall parsed = round_trip(call);
  EXPECT_EQ(parsed.method, "m");
  EXPECT_EQ(parsed.service_namespace, "urn:s");
  ASSERT_EQ(parsed.params.size(), 5u);
  EXPECT_EQ(parsed.params[0].value.as_int(), -7);
  EXPECT_EQ(parsed.params[1].value.as_int64(), 1ll << 60);
  EXPECT_EQ(parsed.params[2].value.as_double(), 3.25);
  EXPECT_TRUE(parsed.params[3].value.as_bool());
  EXPECT_EQ(parsed.params[4].value.as_string(), "hi <&> there");
}

TEST(Envelope, DoubleArrayRoundTripExact) {
  const auto values = random_doubles(500, 9001);
  const RpcCall parsed = round_trip(make_double_array_call(values));
  ASSERT_EQ(parsed.params.size(), 1u);
  const auto& back = parsed.params[0].value.doubles();
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::memcmp(&back[i], &values[i], sizeof(double)), 0) << i;
  }
}

TEST(Envelope, IntArrayRoundTrip) {
  const auto values = random_ints(300, 77);
  const RpcCall parsed = round_trip(make_int_array_call(values));
  EXPECT_EQ(parsed.params[0].value.ints(), values);
}

TEST(Envelope, MioArrayRoundTrip) {
  const auto values = random_mios(200, 123);
  const RpcCall parsed = round_trip(make_mio_array_call(values));
  EXPECT_EQ(parsed.params[0].value.mios(), values);
}

TEST(Envelope, EmptyArray) {
  const RpcCall parsed = round_trip(make_double_array_call({}));
  EXPECT_TRUE(parsed.params[0].value.doubles().empty());
}

TEST(Envelope, NestedStructRoundTrip) {
  RpcCall call;
  call.method = "m";
  call.service_namespace = "urn:s";
  Value outer = Value::make_struct();
  outer.add_member("name", Value::from_string("job-1"));
  Value inner = Value::make_struct();
  inner.add_member("retries", Value::from_int(3));
  inner.add_member("timeout", Value::from_double(1.5));
  outer.add_member("config", inner);
  outer.add_member("grid", Value::from_double_array({0.5, 1.5}));
  call.params.push_back(Param{"job", outer});

  const RpcCall parsed = round_trip(call);
  const Value& job = parsed.params[0].value;
  ASSERT_EQ(job.kind(), ValueKind::kStruct);
  ASSERT_EQ(job.members().size(), 3u);
  EXPECT_EQ(job.members()[0].value.as_string(), "job-1");
  EXPECT_EQ(job.members()[1].value.members()[1].value.as_double(), 1.5);
  EXPECT_EQ(job.members()[2].value.doubles(), (std::vector<double>{0.5, 1.5}));
}

TEST(Envelope, SpecialDoubles) {
  RpcCall call;
  call.method = "m";
  call.service_namespace = "urn:s";
  call.params.push_back(Param{
      "d", Value::from_double_array(
               {std::numeric_limits<double>::infinity(),
                -std::numeric_limits<double>::infinity(), -0.0, 5e-324})});
  const RpcCall parsed = round_trip(call);
  const auto& d = parsed.params[0].value.doubles();
  EXPECT_TRUE(std::isinf(d[0]) && d[0] > 0);
  EXPECT_TRUE(std::isinf(d[1]) && d[1] < 0);
  EXPECT_TRUE(d[2] == 0.0 && std::signbit(d[2]));
  EXPECT_EQ(d[3], 5e-324);
}

TEST(Envelope, WhitespaceStuffedValuesParse) {
  // Whitespace padding (stuffing) is explicitly legal; the reader trims.
  const std::string doc =
      "<?xml version=\"1.0\"?><SOAP-ENV:Envelope><SOAP-ENV:Body>"
      "<ns1:m xmlns:ns1=\"urn:s\">"
      "<data xsi:type=\"SOAP-ENC:Array\" SOAP-ENC:arrayType=\"xsd:double[2]\">"
      "<item>1.5</item>      <item>2.5   </item>"
      "</data></ns1:m></SOAP-ENV:Body></SOAP-ENV:Envelope>";
  Result<RpcCall> parsed = read_rpc_envelope(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().params[0].value.doubles(),
            (std::vector<double>{1.5, 2.5}));
}

TEST(Envelope, HeaderSkipped) {
  const std::string doc =
      "<SOAP-ENV:Envelope><SOAP-ENV:Header><t:tx xmlns:t=\"u\">9</t:tx>"
      "</SOAP-ENV:Header><SOAP-ENV:Body><ns1:m xmlns:ns1=\"urn:s\">"
      "<x xsi:type=\"xsd:int\">1</x></ns1:m></SOAP-ENV:Body>"
      "</SOAP-ENV:Envelope>";
  Result<RpcCall> parsed = read_rpc_envelope(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().method, "m");
  EXPECT_EQ(parsed.value().params[0].value.as_int(), 1);
}

TEST(Envelope, Errors) {
  EXPECT_FALSE(read_rpc_envelope("").ok());
  EXPECT_FALSE(read_rpc_envelope("<NotEnvelope/>").ok());
  EXPECT_FALSE(read_rpc_envelope("<SOAP-ENV:Envelope></SOAP-ENV:Envelope>").ok());
  // Bad lexical in a typed field.
  const std::string bad_int =
      "<SOAP-ENV:Envelope><SOAP-ENV:Body><ns1:m xmlns:ns1=\"u\">"
      "<x xsi:type=\"xsd:int\">forty</x></ns1:m></SOAP-ENV:Body>"
      "</SOAP-ENV:Envelope>";
  EXPECT_FALSE(read_rpc_envelope(bad_int).ok());
  // Array with unsupported element type.
  const std::string bad_array =
      "<SOAP-ENV:Envelope><SOAP-ENV:Body><ns1:m xmlns:ns1=\"u\">"
      "<a xsi:type=\"SOAP-ENC:Array\" SOAP-ENC:arrayType=\"xsd:date[1]\">"
      "<item>x</item></a></ns1:m></SOAP-ENV:Body></SOAP-ENV:Envelope>";
  EXPECT_FALSE(read_rpc_envelope(bad_array).ok());
}

TEST(Envelope, ResponseAndFaultHelpers) {
  const std::string response_doc =
      serialize_rpc_response("solve", "urn:s", Value::from_double(42.5));
  Result<RpcCall> parsed = read_rpc_envelope(response_doc);
  ASSERT_TRUE(parsed.ok());
  Result<Value> result = extract_rpc_result(parsed.value(), "solve");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().as_double(), 42.5);

  EXPECT_FALSE(extract_rpc_result(parsed.value(), "otherMethod").ok());

  const std::string fault_doc =
      serialize_rpc_fault("SOAP-ENV:Server", "boom");
  Result<RpcCall> fault = read_rpc_envelope(fault_doc);
  ASSERT_TRUE(fault.ok());
  Result<Value> fault_result = extract_rpc_result(fault.value(), "solve");
  EXPECT_FALSE(fault_result.ok());
  EXPECT_NE(fault_result.error().message.find("boom"), std::string::npos);
}

TEST(Envelope, CdataAndNumericEntitiesInStrings) {
  const std::string doc =
      "<SOAP-ENV:Envelope><SOAP-ENV:Body><ns1:m xmlns:ns1=\"u\">"
      "<a xsi:type=\"xsd:string\"><![CDATA[raw <markup> & stuff]]></a>"
      "<b xsi:type=\"xsd:string\">&#65;&#x42;</b>"
      "</ns1:m></SOAP-ENV:Body></SOAP-ENV:Envelope>";
  Result<RpcCall> parsed = read_rpc_envelope(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().params[0].value.as_string(),
            "raw <markup> & stuff");
  EXPECT_EQ(parsed.value().params[1].value.as_string(), "AB");
}

TEST(Envelope, ScalarWhitespacePaddingTrimmed) {
  // Stuffed scalars arrive with padding around the lexical.
  const std::string doc =
      "<SOAP-ENV:Envelope><SOAP-ENV:Body><ns1:m xmlns:ns1=\"u\">"
      "<x xsi:type=\"xsd:int\">   42   </x>"
      "<d xsi:type=\"xsd:double\">\n\t2.5\n</d>"
      "</ns1:m></SOAP-ENV:Body></SOAP-ENV:Envelope>";
  Result<RpcCall> parsed = read_rpc_envelope(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().params[0].value.as_int(), 42);
  EXPECT_EQ(parsed.value().params[1].value.as_double(), 2.5);
}

TEST(MultiRef, SharedStructSerializedOnce) {
  RpcCall call;
  call.method = "m";
  call.service_namespace = "urn:s";
  Value shared = Value::make_struct();
  shared.add_member("host", Value::from_string("node1.example.org"));
  shared.add_member("port", Value::from_int(8080));
  call.params.push_back(Param{"primary", shared});
  call.params.push_back(Param{"backup", shared});
  call.params.push_back(Param{"count", Value::from_int(2)});

  buffer::StringSink sink;
  write_rpc_envelope_multiref(sink, call);
  const std::string doc = sink.take();
  // The struct body appears once; both uses are hrefs.
  EXPECT_EQ(doc.find("node1.example.org"),
            doc.rfind("node1.example.org"));
  EXPECT_NE(doc.find("<primary href=\"#ref-1\"/>"), std::string::npos);
  EXPECT_NE(doc.find("<backup href=\"#ref-1\"/>"), std::string::npos);
  EXPECT_NE(doc.find("<multiRef id=\"ref-1\">"), std::string::npos);

  // And it decodes back to the full call.
  Result<RpcCall> parsed = read_rpc_envelope(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_TRUE(parsed.value().params[0].value == shared);
  EXPECT_TRUE(parsed.value().params[1].value == shared);
  EXPECT_EQ(parsed.value().params[2].value.as_int(), 2);
}

TEST(MultiRef, SharedStringsAboveThreshold) {
  RpcCall call;
  call.method = "m";
  call.service_namespace = "urn:s";
  call.params.push_back(
      Param{"a", Value::from_string("a shared long string value")});
  call.params.push_back(
      Param{"b", Value::from_string("a shared long string value")});
  call.params.push_back(Param{"c", Value::from_string("hi")});
  call.params.push_back(Param{"d", Value::from_string("hi")});

  buffer::StringSink sink;
  write_rpc_envelope_multiref(sink, call);
  const std::string doc = sink.take();
  EXPECT_NE(doc.find("href=\"#ref-1\""), std::string::npos);
  // Short strings stay inline (below min_string_length).
  EXPECT_EQ(doc.find("href=\"#ref-2\""), std::string::npos);

  Result<RpcCall> parsed = read_rpc_envelope(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().params[1].value.as_string(),
            "a shared long string value");
  EXPECT_EQ(parsed.value().params[3].value.as_string(), "hi");
}

TEST(MultiRef, NoSharingFallsBackToPlainEncoding) {
  RpcCall call;
  call.method = "m";
  call.service_namespace = "urn:s";
  call.params.push_back(Param{"x", Value::from_int(1)});
  buffer::StringSink multiref_sink;
  write_rpc_envelope_multiref(multiref_sink, call);
  buffer::StringSink plain_sink;
  write_rpc_envelope(plain_sink, call);
  EXPECT_EQ(multiref_sink.str(), plain_sink.str());
}

TEST(MultiRef, UnresolvedHrefFails) {
  const std::string doc =
      "<SOAP-ENV:Envelope><SOAP-ENV:Body><ns1:m xmlns:ns1=\"u\">"
      "<x href=\"#nope\"/></ns1:m></SOAP-ENV:Body></SOAP-ENV:Envelope>";
  EXPECT_FALSE(read_rpc_envelope(doc).ok());
}

TEST(MultiRef, ForwardAndBackwardReferences) {
  // Definition placed before the method element also resolves (the
  // collector pre-pass is order-independent).
  const std::string doc =
      "<SOAP-ENV:Envelope><SOAP-ENV:Body>"
      "<multiRef id=\"r\" xsi:type=\"xsd:string\">shared-text</multiRef>"
      "<ns1:m xmlns:ns1=\"u\"><x href=\"#r\"/><y href=\"#r\"/></ns1:m>"
      "</SOAP-ENV:Body></SOAP-ENV:Envelope>";
  Result<RpcCall> parsed = read_rpc_envelope(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().params[0].value.as_string(), "shared-text");
  EXPECT_EQ(parsed.value().params[1].value.as_string(), "shared-text");
}

TEST(Envelope, FuzzRandomCallsRoundTrip) {
  Rng rng(4242);
  for (int round = 0; round < 100; ++round) {
    RpcCall call;
    call.method = "m" + std::to_string(rng.next_below(5));
    call.service_namespace = "urn:fuzz";
    const std::size_t params = 1 + rng.next_below(4);
    for (std::size_t p = 0; p < params; ++p) {
      const std::string name = "p" + std::to_string(p);
      switch (rng.next_below(6)) {
        case 0:
          call.params.push_back(Param{name, Value::from_int(rng.next_i32())});
          break;
        case 1:
          call.params.push_back(
              Param{name, Value::from_double(Rng(rng.next_u64()).next_finite_double())});
          break;
        case 2:
          call.params.push_back(Param{
              name, Value::from_string(std::string(rng.next_below(20), '&'))});
          break;
        case 3:
          call.params.push_back(Param{
              name, Value::from_double_array(
                        random_doubles(rng.next_below(50), rng.next_u64()))});
          break;
        case 4:
          call.params.push_back(
              Param{name, Value::from_int_array(
                              random_ints(rng.next_below(50), rng.next_u64()))});
          break;
        default:
          call.params.push_back(
              Param{name, Value::from_mio_array(
                              random_mios(rng.next_below(30), rng.next_u64()))});
          break;
      }
    }
    const RpcCall parsed = round_trip(call);
    ASSERT_EQ(parsed.params.size(), call.params.size());
    for (std::size_t p = 0; p < params; ++p) {
      EXPECT_TRUE(parsed.params[p].value == call.params[p].value)
          << "round " << round << " param " << p;
    }
  }
}

// --- The typed-array scanner against the general reader -------------------
//
// Every regular item goes through the scanner; an irregular form of the same
// item (comment, attribute, entity, CDATA, "</item >", text before it) goes
// through the general event loop. A document and its twin must read alike.

using testing::ArrayElem;
using testing::Irregularity;

constexpr ArrayElem kElems[] = {ArrayElem::kDouble, ArrayElem::kInt,
                                ArrayElem::kMio};

/// The values a document's lexicals stand for, straight from textconv.
Value expected_value(const testing::TypedArrayDoc& doc) {
  const auto lexical = [](const testing::Leaf& leaf) -> std::string_view {
    return leaf.lexical;
  };
  if (doc.elem == ArrayElem::kDouble) {
    std::vector<double> v;
    for (const testing::Item& item : doc.items) {
      v.push_back(textconv::parse_double(lexical(item.leaves[0])).value());
    }
    return Value::from_double_array(std::move(v));
  }
  if (doc.elem == ArrayElem::kInt) {
    std::vector<std::int32_t> v;
    for (const testing::Item& item : doc.items) {
      v.push_back(textconv::parse_i32(lexical(item.leaves[0])).value());
    }
    return Value::from_int_array(std::move(v));
  }
  std::vector<Mio> v;
  for (const testing::Item& item : doc.items) {
    v.push_back(Mio{textconv::parse_i32(lexical(item.leaves[0])).value(),
                    textconv::parse_i32(lexical(item.leaves[1])).value(),
                    textconv::parse_double(lexical(item.leaves[2])).value()});
  }
  return Value::from_mio_array(std::move(v));
}

TEST(TypedArrayTwins, IrregularItemParsesBitEqual) {
  Rng rng(2020);
  for (const ArrayElem elem : kElems) {
    for (int round = 0; round < 40; ++round) {
      const std::size_t n = 1 + rng.next_below(30);
      const testing::TypedArrayDoc doc =
          testing::random_typed_array_doc(elem, n, rng);
      const std::string regular = doc.render();
      Result<RpcCall> base = read_rpc_envelope(regular);
      ASSERT_TRUE(base.ok()) << base.error().to_string() << "\n" << regular;
      ASSERT_EQ(base.value().params.size(), 1u);
      ASSERT_TRUE(testing::bit_equal(base.value().params[0].value,
                                     expected_value(doc)))
          << regular;
      for (int form = 1; form < testing::kIrregularityCount; ++form) {
        const auto irregularity = static_cast<Irregularity>(form);
        // The first, the last and a random item; then every item, which
        // leaves the whole array to the general reader.
        const std::size_t k = rng.next_below(n);
        const std::pair<std::size_t, std::size_t> spans[] = {
            {0, 1}, {n - 1, n}, {k, k + 1}, {0, n}};
        for (const auto& [from, to] : spans) {
          const std::string twin = doc.render(irregularity, from, to);
          Result<RpcCall> parsed = read_rpc_envelope(twin);
          ASSERT_TRUE(parsed.ok()) << parsed.error().to_string() << "\n"
                                   << twin;
          EXPECT_TRUE(testing::bit_equal(parsed.value(), base.value()))
              << twin;
        }
      }
    }
  }
}

TEST(TypedArrayTwins, BadLexicalFailsAlikeOnBothPaths) {
  static const char* const kBad[] = {"1.5x", "",    "1e",  "--1",
                                     "nan",  "0x1", "1 2", "2147483648"};
  Rng rng(2021);
  for (const ArrayElem elem : kElems) {
    for (int round = 0; round < 60; ++round) {
      const std::size_t n = 2 + rng.next_below(20);
      testing::TypedArrayDoc doc =
          testing::random_typed_array_doc(elem, n, rng);
      const std::size_t bad_item = rng.next_below(n);
      testing::Item& item = doc.items[bad_item];
      testing::Leaf& leaf = item.leaves[rng.next_below(item.leaves.size())];
      leaf.lexical = kBad[rng.next_below(sizeof(kBad) / sizeof(kBad[0]))];
      const std::string regular = doc.render();
      Result<RpcCall> base = read_rpc_envelope(regular);
      if (base.ok()) {
        // "2147483648" is a fine double; the others never parse.
        ASSERT_EQ(leaf.lexical, "2147483648");
        continue;
      }
      EXPECT_EQ(base.error().message.rfind("bad ", 0), 0u)
          << base.error().message;
      for (int form = 1; form < testing::kIrregularityCount; ++form) {
        const auto irregularity = static_cast<Irregularity>(form);
        const std::size_t k = rng.next_below(n);
        const std::pair<std::size_t, std::size_t> spans[] = {
            {bad_item, bad_item + 1}, {k, k + 1}, {0, n}};
        for (const auto& [from, to] : spans) {
          const std::string twin = doc.render(irregularity, from, to);
          Result<RpcCall> parsed = read_rpc_envelope(twin);
          ASSERT_FALSE(parsed.ok()) << twin;
          EXPECT_EQ(parsed.error().message, base.error().message) << twin;
        }
      }
    }
  }
}

TEST(TypedArrayTwins, LeafSpansCoverEachLexicalInValueOrder) {
  Rng rng(2022);
  for (const ArrayElem elem : kElems) {
    const testing::TypedArrayDoc doc =
        testing::random_typed_array_doc(elem, 25, rng);
    const std::string regular = doc.render();
    LeafSpans spans;
    ASSERT_TRUE(read_rpc_envelope(regular, &spans).ok());
    EXPECT_TRUE(spans.exact);
    std::vector<std::string> texts;
    for (const testing::Item& item : doc.items) {
      for (const testing::Leaf& leaf : item.leaves) {
        texts.push_back(leaf.pre + leaf.lexical + leaf.post);
      }
    }
    ASSERT_EQ(spans.spans.size(), texts.size());
    for (std::size_t i = 0; i < texts.size(); ++i) {
      const LeafSpan s = spans.spans[i];
      EXPECT_EQ(regular.substr(s.begin, s.end - s.begin), texts[i]) << i;
    }
    // The general reader records the same spans for forms that keep the
    // text in one event, and none that pass for exact otherwise.
    for (const Irregularity irregularity :
         {Irregularity::kAttribute, Irregularity::kSpacedClose,
          Irregularity::kComment, Irregularity::kTextBefore}) {
      const std::string twin = doc.render(irregularity, 0, 25);
      LeafSpans twin_spans;
      ASSERT_TRUE(read_rpc_envelope(twin, &twin_spans).ok());
      EXPECT_TRUE(twin_spans.exact);
      ASSERT_EQ(twin_spans.spans.size(), texts.size());
      for (std::size_t i = 0; i < texts.size(); ++i) {
        const LeafSpan s = twin_spans.spans[i];
        EXPECT_EQ(twin.substr(s.begin, s.end - s.begin), texts[i]) << i;
      }
    }
    LeafSpans split;
    ASSERT_TRUE(
        read_rpc_envelope(doc.render(Irregularity::kSplitComment, 3, 4), &split)
            .ok());
    // Item 3's first leaf carries the comment (a MIO's member 3 % 3).
    EXPECT_EQ(split.exact, doc.items[3].leaves[0].lexical.size() < 2);
  }
}

TEST(TypedArrayTwins, MioMembersOutOfOrderAreNotExact) {
  const std::string doc =
      "<SOAP-ENV:Envelope><SOAP-ENV:Body><ns1:m xmlns:ns1=\"urn:s\">"
      "<data SOAP-ENC:arrayType=\"ns1:MIO[1]\"><item><y>2</y><x>1</x>"
      "<v>0.5</v></item></data></ns1:m></SOAP-ENV:Body></SOAP-ENV:Envelope>";
  LeafSpans spans;
  Result<RpcCall> parsed = read_rpc_envelope(doc, &spans);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().params[0].value.mios()[0], (Mio{1, 2, 0.5}));
  EXPECT_FALSE(spans.exact);
}

TEST(TypedArrayTwins, MultiRefDocumentsAreNotExact) {
  const std::string doc =
      "<SOAP-ENV:Envelope><SOAP-ENV:Body>"
      "<multiRef id=\"r\" SOAP-ENC:arrayType=\"xsd:double[1]\">"
      "<item>1.5</item></multiRef>"
      "<ns1:m xmlns:ns1=\"u\"><x href=\"#r\"/></ns1:m>"
      "</SOAP-ENV:Body></SOAP-ENV:Envelope>";
  LeafSpans spans;
  Result<RpcCall> parsed = read_rpc_envelope(doc, &spans);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().params[0].value.doubles(),
            (std::vector<double>{1.5}));
  EXPECT_FALSE(spans.exact);
}

}  // namespace
}  // namespace bsoap::soap
