// SOAP 1.1 envelope deserialization into an RpcCall.
//
// Used by the validating server, the round-trip test suite, and the
// differential-deserialization extension. Typing rules: xsi:type attributes
// drive scalar/array decoding; elements without xsi:type decode as structs
// (children) or strings (text only). Whitespace around scalar lexicals is
// trimmed — stuffing (paper Section 3.2) pads fields with whitespace that is
// explicitly legal in XML.
//
// Typed arrays (double, int, MIO) are read by a scanner: each regular item
// `<n>text</n>` is converted straight from a view into the document, with
// no XML event and no text copy. The first irregular item (attribute,
// comment, CDATA, entity, self-closing or href item, text between items)
// is read by the general event loop, and the scanner resumes at the item
// after it. Both paths convert the same trimmed lexical, so any document
// the scanner reads yields bit-equal values — and the same errors — as
// the general reader alone.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "soap/value.hpp"

namespace bsoap::soap {

/// Byte span [begin, end) of one leaf's text in the document.
struct LeafSpan {
  std::size_t begin;
  std::size_t end;
};

/// The text spans of a document's typed-array leaves — every double and int
/// item and every MIO x, y and v — in value order (a MIO's members in x, y,
/// v order). `exact` says the spans are complete and in document order; it
/// is false when a leaf was not read from exactly one text event, a MIO's
/// members are out of x, y, v order, or the document uses multi-refs
/// (sub-parsers read those values at other offsets).
struct LeafSpans {
  std::vector<LeafSpan> spans;
  bool exact = true;
};

/// Parses a complete SOAP request envelope. Fails on malformed XML, a
/// missing Envelope/Body, or type errors in value lexicals. With
/// `leaf_spans`, also records the typed-array leaf spans (its vector is
/// cleared first and keeps its capacity).
Result<RpcCall> read_rpc_envelope(std::string_view document,
                                  LeafSpans* leaf_spans = nullptr);

}  // namespace bsoap::soap
