// Hand-built typed-array envelopes for testing the envelope reader's
// typed-array scanner against its general event loop. Every item's lexicals
// and stuffed whitespace are explicit, and any item can be rendered in an
// irregular XML form that keeps its value but leaves it to the general
// reader.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "soap/value.hpp"
#include "soap/workload.hpp"
#include "textconv/dtoa.hpp"
#include "textconv/itoa.hpp"

namespace bsoap::testing {

enum class ArrayElem { kDouble, kInt, kMio };

/// XML forms of one leaf. All but kNone keep the leaf out of the scanner;
/// none changes the value it reads as.
enum class Irregularity {
  kNone,          ///< <item>text</item>
  kComment,       ///< <item><!--c-->text</item>
  kSplitComment,  ///< a comment inside the text: two text events
  kAttribute,     ///< <item a="1">text</item>
  kEntity,        ///< the lexical's first character as &#xHH;
  kCdata,         ///< <item><![CDATA[text]]></item>
  kSpacedClose,   ///< </item >
  kTextBefore,    ///< non-whitespace text before the leaf
};
constexpr int kIrregularityCount = 8;

/// One leaf's text: stuffing before and after its lexical.
struct Leaf {
  std::string pre;
  std::string lexical;
  std::string post;
};

/// One array item: the whitespace before it and its leaves (one, or a
/// MIO's x, y, v).
struct Item {
  std::string gap;
  std::vector<Leaf> leaves;
};

inline std::string render_leaf(const char* tag, const Leaf& leaf,
                               Irregularity irregularity) {
  const std::string open = std::string("<") + tag + ">";
  const std::string close = std::string("</") + tag + ">";
  const std::string text = leaf.pre + leaf.lexical + leaf.post;
  const std::string& lex = leaf.lexical;
  switch (irregularity) {
    case Irregularity::kNone:
      return open + text + close;
    case Irregularity::kComment:
      return open + "<!-- c -->" + text + close;
    case Irregularity::kSplitComment:
      if (lex.size() < 2) return open + "<!--c-->" + text + close;
      return open + leaf.pre + lex.substr(0, 1) + "<!--c-->" + lex.substr(1) +
             leaf.post + close;
    case Irregularity::kAttribute:
      return std::string("<") + tag + " a=\"1\">" + text + close;
    case Irregularity::kEntity: {
      if (lex.empty()) return open + "<!--c-->" + text + close;
      char ref[16];
      std::snprintf(ref, sizeof(ref), "&#x%X;",
                    static_cast<unsigned char>(lex[0]));
      return open + leaf.pre + ref + lex.substr(1) + leaf.post + close;
    }
    case Irregularity::kCdata:
      return open + "<![CDATA[" + text + "]]>" + close;
    case Irregularity::kSpacedClose:
      return open + text + "</" + tag + " >";
    case Irregularity::kTextBefore:
      return "z" + open + text + close;
  }
  return {};
}

/// A double/int/MIO array envelope built item by item.
struct TypedArrayDoc {
  ArrayElem elem = ArrayElem::kDouble;
  std::vector<Item> items;

  /// The envelope with items [from, to) in `irregularity`'s form and all
  /// others regular. A MIO item applies it to one member (by index).
  std::string render(Irregularity irregularity = Irregularity::kNone,
                     std::size_t from = 0, std::size_t to = 0) const {
    const char* type = elem == ArrayElem::kDouble ? "xsd:double"
                       : elem == ArrayElem::kInt  ? "xsd:int"
                                                  : "ns1:MIO";
    std::string doc =
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
        "<SOAP-ENV:Envelope "
        "xmlns:SOAP-ENV=\"http://schemas.xmlsoap.org/soap/envelope/\">"
        "<SOAP-ENV:Body><ns1:sendData xmlns:ns1=\"urn:bsoap-bench\">"
        "<data xsi:type=\"SOAP-ENC:Array\" SOAP-ENC:arrayType=\"";
    doc += type;
    doc += "[" + std::to_string(items.size()) + "]\">";
    for (std::size_t i = 0; i < items.size(); ++i) {
      const Item& item = items[i];
      const Irregularity form =
          i >= from && i < to ? irregularity : Irregularity::kNone;
      doc += item.gap;
      if (elem != ArrayElem::kMio) {
        doc += render_leaf("item", item.leaves[0], form);
        continue;
      }
      static const char* const kMembers[] = {"x", "y", "v"};
      doc += "<item>";
      for (std::size_t m = 0; m < 3; ++m) {
        doc += render_leaf(kMembers[m], item.leaves[m],
                           m == i % 3 ? form : Irregularity::kNone);
      }
      doc += "</item>";
    }
    doc += "</data></ns1:sendData></SOAP-ENV:Body></SOAP-ENV:Envelope>";
    return doc;
  }
};

/// Whitespace stuffing: empty half the time, else 1-6 mixed blanks.
inline std::string random_padding(Rng& rng) {
  std::string pad;
  if (rng.chance(1, 2)) return pad;
  const std::size_t n = 1 + rng.next_below(6);
  for (std::size_t i = 0; i < n; ++i) pad += " \t\r\n"[rng.next_below(4)];
  return pad;
}

inline std::string random_double_lexical(Rng& rng) {
  static const char* const kSpecial[] = {
      "NaN",  "INF",  "-INF", "+INF",    "-0",     "-0.0",
      "0",    "1e5",  ".5",   "+1.5",    "5.",     "-1E-7",
      "4.9e-324", "1.7976931348623157e308", "2.2250738585072011e-308",
      "0.30000000000000000000000000000000001"};
  if (rng.chance(1, 5)) {
    return kSpecial[rng.next_below(sizeof(kSpecial) / sizeof(kSpecial[0]))];
  }
  char buf[textconv::kMaxDoubleChars];
  const double v = soap::double_with_serialized_length(
      rng, static_cast<int>(rng.next_in(1, 24)));
  return std::string(buf,
                     static_cast<std::size_t>(textconv::write_double(buf, v)));
}

inline std::string random_int_lexical(Rng& rng) {
  static const char* const kSpecial[] = {"-2147483648", "2147483647", "+7",
                                         "0", "-0", "007"};
  if (rng.chance(1, 5)) {
    return kSpecial[rng.next_below(sizeof(kSpecial) / sizeof(kSpecial[0]))];
  }
  char buf[textconv::kMaxInt32Chars];
  const std::int32_t v = soap::int_with_serialized_length(
      rng, static_cast<int>(rng.next_in(1, 11)));
  return std::string(buf,
                     static_cast<std::size_t>(textconv::write_i32(buf, v)));
}

inline TypedArrayDoc random_typed_array_doc(ArrayElem elem, std::size_t n,
                                            Rng& rng) {
  TypedArrayDoc doc;
  doc.elem = elem;
  const auto leaf = [&rng](std::string lexical) {
    return Leaf{random_padding(rng), std::move(lexical), random_padding(rng)};
  };
  for (std::size_t i = 0; i < n; ++i) {
    Item item;
    item.gap = random_padding(rng);
    if (elem == ArrayElem::kDouble) {
      item.leaves.push_back(leaf(random_double_lexical(rng)));
    } else if (elem == ArrayElem::kInt) {
      item.leaves.push_back(leaf(random_int_lexical(rng)));
    } else {
      item.leaves.push_back(leaf(random_int_lexical(rng)));
      item.leaves.push_back(leaf(random_int_lexical(rng)));
      item.leaves.push_back(leaf(random_double_lexical(rng)));
    }
    doc.items.push_back(std::move(item));
  }
  return doc;
}

inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Value equality with doubles compared bit for bit (NaN payloads, -0.0).
inline bool bit_equal(const soap::Value& a, const soap::Value& b) {
  using soap::ValueKind;
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case ValueKind::kDouble:
      return same_bits(a.as_double(), b.as_double());
    case ValueKind::kDoubleArray: {
      const std::vector<double>& x = a.doubles();
      const std::vector<double>& y = b.doubles();
      if (x.size() != y.size()) return false;
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (!same_bits(x[i], y[i])) return false;
      }
      return true;
    }
    case ValueKind::kMioArray: {
      const std::vector<soap::Mio>& x = a.mios();
      const std::vector<soap::Mio>& y = b.mios();
      if (x.size() != y.size()) return false;
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (x[i].x != y[i].x || x[i].y != y[i].y ||
            !same_bits(x[i].value, y[i].value)) {
          return false;
        }
      }
      return true;
    }
    case ValueKind::kStruct: {
      if (a.members().size() != b.members().size()) return false;
      for (std::size_t i = 0; i < a.members().size(); ++i) {
        if (a.members()[i].name != b.members()[i].name ||
            !bit_equal(a.members()[i].value, b.members()[i].value)) {
          return false;
        }
      }
      return true;
    }
    default:
      return a == b;
  }
}

inline bool bit_equal(const soap::RpcCall& a, const soap::RpcCall& b) {
  if (a.method != b.method || a.service_namespace != b.service_namespace ||
      a.params.size() != b.params.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.params.size(); ++i) {
    if (a.params[i].name != b.params[i].name ||
        !bit_equal(a.params[i].value, b.params[i].value)) {
      return false;
    }
  }
  return true;
}

}  // namespace bsoap::testing
