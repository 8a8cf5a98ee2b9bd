// Tests for differential deserialization (Section 6 extension): the
// run-guided apply_runs path the server's ParsedReplica drives — content
// hits, fast leaf re-parses, and graceful demotion to a full parse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <span>

#include "buffer/sinks.hpp"
#include "common/rng.hpp"
#include "core/diff_deserializer.hpp"
#include "core/template_builder.hpp"
#include "soap/envelope_reader.hpp"
#include "soap/envelope_writer.hpp"
#include "soap/workload.hpp"

namespace bsoap::core {
namespace {

using soap::RpcCall;

std::string serialize(const RpcCall& call) {
  buffer::StringSink sink;
  soap::write_rpc_envelope(sink, call);
  return sink.take();
}

/// Byte-diffs two same-length documents into dirty runs, merging runs whose
/// gap of unchanged (structural) bytes is at most `merge_gap` — the shape
/// SendPipeline::build_patch_frame produces when adjacent fields change.
std::vector<diffwire::PatchRun> byte_diff_runs(std::string_view old_doc,
                                               std::string_view fresh,
                                               std::size_t merge_gap) {
  std::vector<diffwire::PatchRun> runs;
  std::size_t i = 0;
  while (i < old_doc.size()) {
    if (old_doc[i] == fresh[i]) {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    while (i < old_doc.size() && old_doc[i] != fresh[i]) ++i;
    if (!runs.empty() &&
        begin - (runs.back().offset + runs.back().length) <= merge_gap) {
      runs.back().length = static_cast<std::uint32_t>(i - runs.back().offset);
    } else {
      runs.push_back(diffwire::PatchRun{static_cast<std::uint32_t>(begin),
                                        static_cast<std::uint32_t>(i - begin)});
    }
  }
  return runs;
}

/// A type-max-stuffed document, as a stuffed sender's template holds it:
/// each value's closing tag is followed by whitespace padding up to the
/// double's maximum width.
std::string stuffed(const std::vector<double>& values) {
  TemplateConfig config;
  config.stuffing.mode = StuffingPolicy::Mode::kTypeMax;
  return build_template(soap::make_double_array_call(values), config)
      ->buffer()
      .linearize();
}

/// Doubles of serialized widths 1–24: stuffed, their paddings differ.
std::vector<double> mixed_width_values(std::size_t n, std::uint64_t seed) {
  bsoap::Rng rng(seed);
  std::vector<double> values(n);
  for (double& v : values) {
    v = soap::double_with_serialized_length(
        rng, 1 + static_cast<int>(rng.next_below(24)));
  }
  return values;
}

/// The structure after leaf `k`'s text: to the next leaf's text.
std::string_view piece_after(std::string_view doc,
                             std::span<const DiffDeserializer::LeafRegion> r,
                             std::size_t k) {
  return doc.substr(r[k].end, r[k + 1].begin - r[k].end);
}

/// Renames the element around leaf `k`'s text (open and close tag) by
/// replacing the last letter of its name with `letter`: same length.
void rename_leaf(std::string& doc,
                 std::span<const DiffDeserializer::LeafRegion> r,
                 std::size_t k, char letter) {
  doc[r[k].begin - 2] = letter;  // <name>text
  const std::size_t close = doc.find('>', r[k].end);
  doc[close - 1] = letter;       // text</name>
}

/// Value-identity against the always-full-parse oracle, via the canonical
/// serialization (covers method, namespace, every leaf — and distinguishes
/// -0.0 from 0.0 while treating two NaNs as equal).
void expect_matches_oracle(const DiffDeserializer& deser,
                           std::string_view document) {
  Result<RpcCall> oracle = soap::read_rpc_envelope(document);
  ASSERT_TRUE(oracle.ok()) << oracle.error().to_string();
  EXPECT_EQ(serialize(deser.call()), serialize(oracle.value()));
}

/// Runs apply_runs for `fresh` against the cache (primed with `old_doc`),
/// with the exact byte-diff runs between the two.
Result<DiffDeserializer::ApplyReport> apply_diff(DiffDeserializer& deser,
                                                 std::string_view old_doc,
                                                 std::string_view fresh) {
  if (old_doc.size() != fresh.size()) return deser.apply_runs(fresh, {});
  const auto runs = byte_diff_runs(old_doc, fresh, 0);
  return deser.apply_runs(fresh, runs);
}

TEST(DiffDeserializer, FastParseReparsesOnlyChangedLeaves) {
  DiffDeserializer deser;
  auto values = soap::doubles_with_serialized_length(60, 18, 2);
  const std::string doc = serialize(soap::make_double_array_call(values));
  ASSERT_TRUE(deser.prime(doc).ok());

  // Change several values to others of the SAME serialized length: the
  // document keeps its length, so only the changed leaves are re-parsed.
  auto replacement = soap::doubles_with_serialized_length(5, 18, 3);
  for (int i = 0; i < 5; ++i) values[static_cast<std::size_t>(i * 11)] = replacement[static_cast<std::size_t>(i)];
  const std::string fresh = serialize(soap::make_double_array_call(values));
  Result<DiffDeserializer::ApplyReport> report = apply_diff(deser, doc, fresh);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().path, DiffDeserializer::ApplyPath::kFastParse);
  EXPECT_EQ(report.value().leaves_reparsed, 5u);
  EXPECT_EQ(deser.call().params[0].value.doubles(), values);
}

TEST(DiffDeserializer, LengthChangeDemotes) {
  DiffDeserializer deser;
  auto values = soap::doubles_with_serialized_length(30, 18, 4);
  const std::string doc = serialize(soap::make_double_array_call(values));
  ASSERT_TRUE(deser.prime(doc).ok());

  values[3] = 1.0;  // 1 char: document shrinks
  const std::string fresh = serialize(soap::make_double_array_call(values));
  Result<DiffDeserializer::ApplyReport> report = apply_diff(deser, doc, fresh);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().path, DiffDeserializer::ApplyPath::kFullParse);
  EXPECT_TRUE(report.value().demoted);
  EXPECT_EQ(deser.call().params[0].value.doubles(), values);
}

TEST(DiffDeserializer, StructureChangeDemotes) {
  DiffDeserializer deser;
  ASSERT_TRUE(deser
                  .prime(serialize(soap::make_double_array_call(
                      soap::doubles_with_serialized_length(10, 18, 5))))
                  .ok());
  const std::string fresh = serialize(
      soap::make_double_array_call(soap::doubles_with_serialized_length(11, 18, 6)));
  Result<DiffDeserializer::ApplyReport> report = deser.apply_runs(fresh, {});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().path, DiffDeserializer::ApplyPath::kFullParse);
  EXPECT_TRUE(report.value().demoted);
  expect_matches_oracle(deser, fresh);
}

TEST(DiffDeserializer, MioRegions) {
  DiffDeserializer deser;
  auto mios = soap::mios_with_serialized_length(40, 36, 7);
  const std::string doc = serialize(soap::make_mio_array_call(mios));
  ASSERT_TRUE(deser.prime(doc).ok());

  // Replace one MIO's double with another of the same width.
  const auto replacement = soap::mios_with_serialized_length(1, 36, 8)[0];
  mios[9].value = replacement.value;
  const std::string fresh = serialize(soap::make_mio_array_call(mios));
  Result<DiffDeserializer::ApplyReport> report = apply_diff(deser, doc, fresh);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().path, DiffDeserializer::ApplyPath::kFastParse);
  EXPECT_EQ(report.value().leaves_reparsed, 1u);
  EXPECT_EQ(deser.call().params[0].value.mios(), mios);
}

TEST(DiffDeserializer, MalformedDocumentFails) {
  DiffDeserializer deser;
  EXPECT_FALSE(deser.prime("<not-soap/>").ok());
  EXPECT_FALSE(deser.primed());
  EXPECT_FALSE(deser.apply_runs("<not-soap/>", {}).ok());
}

TEST(DiffDeserializer, ResetForgetsCache) {
  DiffDeserializer deser;
  const std::string doc =
      serialize(soap::make_double_array_call(soap::random_doubles(10, 9)));
  ASSERT_TRUE(deser.prime(doc).ok());
  ASSERT_TRUE(deser.primed());
  deser.reset();
  EXPECT_FALSE(deser.primed());
  // Unprimed again: the replay that would have been a content hit is a
  // plain full parse (not a demotion — there was no cache to throw away).
  Result<DiffDeserializer::ApplyReport> report = deser.apply_runs(doc, {});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().path, DiffDeserializer::ApplyPath::kFullParse);
  EXPECT_FALSE(report.value().demoted);
  expect_matches_oracle(deser, doc);
}

TEST(DiffDeserializer, ScalarParamsDisableFastPathSafely) {
  DiffDeserializer deser;
  RpcCall call;
  call.method = "m";
  call.service_namespace = "urn:s";
  call.params.push_back(soap::Param{"x", soap::Value::from_int(12345)});
  const std::string doc = serialize(call);
  ASSERT_TRUE(deser.prime(doc).ok());
  EXPECT_FALSE(deser.fast_path_usable());
  call.params[0].value = soap::Value::from_int(54321);  // same width
  const std::string fresh = serialize(call);
  Result<DiffDeserializer::ApplyReport> report = apply_diff(deser, doc, fresh);
  ASSERT_TRUE(report.ok());
  // Scalar leaves are not slot-addressable: full parse, but still correct.
  EXPECT_EQ(report.value().path, DiffDeserializer::ApplyPath::kFullParse);
  EXPECT_EQ(deser.call().params[0].value.as_int(), 54321);
}

TEST(DiffDeserializer, BytesCoverTheParsedCallNotTheDocument) {
  DiffDeserializer deser;
  EXPECT_LT(deser.bytes(), 64u);
  const auto values = soap::doubles_with_serialized_length(1000, 18, 12);
  const std::string doc = serialize(soap::make_double_array_call(values));
  ASSERT_TRUE(deser.prime(doc).ok());
  // The parsed doubles and, per leaf, a region, a slot and a piece id; the
  // document itself stays with the caller.
  const std::size_t per_leaf = sizeof(double) +
                               2 * sizeof(std::size_t) +  // region
                               2 * sizeof(void*) +        // slot
                               sizeof(std::uint32_t);     // piece id
  EXPECT_GE(deser.bytes(), values.size() * (per_leaf - sizeof(void*)));
  EXPECT_LT(deser.bytes(), values.size() * per_leaf + doc.size() / 4);
}

TEST(DiffDeserializer, PatchSteadyShapedBodyCostsUnder700KB) {
  // 10,000 type-max-stuffed 17-character doubles: a 370 KB body. With a
  // copy of the document the cache held 1,026,116 bytes.
  const std::string doc =
      stuffed(soap::doubles_with_serialized_length(10000, 17, 13));
  ASSERT_GT(doc.size(), 360000u);
  DiffDeserializer deser;
  ASSERT_TRUE(deser.prime(doc).ok());
  ASSERT_TRUE(deser.fast_path_usable());
  EXPECT_LE(deser.bytes(), 700000u);
}

TEST(DiffDeserializerApplyRuns, WhitespaceChangeAgainstAnotherPaddingFastParses) {
  // Leaf k's padding differs from the first leaf's, whose raw bytes stand
  // for every `</item>···<item>` piece: turning one of its pad bytes into a
  // newline changes only whitespace between tags, so the window re-scan
  // accepts it by tokens.
  const std::string doc = stuffed(mixed_width_values(40, 61));
  DiffDeserializer deser;
  ASSERT_TRUE(deser.prime(doc).ok());
  ASSERT_TRUE(deser.fast_path_usable());
  const auto regions = deser.regions();
  std::size_t k = 1;
  while (k + 2 < regions.size() &&
         (piece_after(doc, regions, k) == piece_after(doc, regions, 0) ||
          piece_after(doc, regions, k).find(' ') == std::string_view::npos)) {
    ++k;
  }
  ASSERT_LT(k + 2, regions.size());
  std::string fresh = doc;
  fresh[doc.find(' ', regions[k].end)] = '\n';
  const auto runs = byte_diff_runs(doc, fresh, 0);
  ASSERT_EQ(runs.size(), 1u);

  Result<DiffDeserializer::ApplyReport> report = deser.apply_runs(fresh, runs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().path, DiffDeserializer::ApplyPath::kFastParse);
  EXPECT_FALSE(report.value().demoted);
  expect_matches_oracle(deser, fresh);
}

TEST(DiffDeserializerApplyRuns, SameLengthTagChangeInsideWindowDemotes) {
  const std::string doc = stuffed(mixed_width_values(40, 62));
  DiffDeserializer deser;
  ASSERT_TRUE(deser.prime(doc).ok());
  const auto regions = deser.regions();
  std::string fresh = doc;
  rename_leaf(fresh, regions, 20, 'x');
  const auto runs = byte_diff_runs(doc, fresh, 0);
  ASSERT_EQ(runs.size(), 2u);

  Result<DiffDeserializer::ApplyReport> report = deser.apply_runs(fresh, runs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().path, DiffDeserializer::ApplyPath::kFullParse);
  EXPECT_TRUE(report.value().demoted);
  expect_matches_oracle(deser, fresh);
}

TEST(DiffDeserializerApplyRuns, ValueBesideAnotherTagOfTheSameLengthFastParses) {
  // One item of the document is named differently, so the pieces around it
  // hold other tokens than their neighbours, at the same length: a value
  // change on either side must be matched against its own piece.
  std::vector<double> values = mixed_width_values(40, 63);
  std::string doc = stuffed(values);
  {
    DiffDeserializer probe;
    ASSERT_TRUE(probe.prime(doc).ok());
    rename_leaf(doc, probe.regions(), 20, 'x');
  }
  DiffDeserializer deser;
  ASSERT_TRUE(deser.prime(doc).ok());
  ASSERT_TRUE(deser.fast_path_usable());
  const auto regions = deser.regions();
  for (const std::size_t k : {19u, 20u, 21u}) {
    SCOPED_TRACE(k);
    std::string fresh = doc;
    // A same-width digit change: '1' ↔ '2' in the value's last digit.
    std::size_t at = regions[k].end - 1;
    while (fresh[at] < '1' || fresh[at] > '2') --at;
    ASSERT_GE(at, regions[k].begin);
    fresh[at] = fresh[at] == '1' ? '2' : '1';
    const auto runs = byte_diff_runs(doc, fresh, 0);
    Result<DiffDeserializer::ApplyReport> report =
        deser.apply_runs(fresh, runs);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().path, DiffDeserializer::ApplyPath::kFastParse);
    EXPECT_FALSE(report.value().demoted);
    expect_matches_oracle(deser, fresh);
    doc = fresh;
  }
}

TEST(DiffDeserializerApplyRuns, EmptyRunsAreAContentHit) {
  DiffDeserializer deser;
  const std::string doc = serialize(
      soap::make_double_array_call(soap::doubles_with_serialized_length(20, 18, 40)));
  ASSERT_TRUE(deser.prime(doc).ok());
  Result<DiffDeserializer::ApplyReport> report = deser.apply_runs(doc, {});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().path, DiffDeserializer::ApplyPath::kContentHit);
  EXPECT_EQ(report.value().leaves_reparsed, 0u);
  EXPECT_FALSE(report.value().demoted);
  expect_matches_oracle(deser, doc);
}

TEST(DiffDeserializerApplyRuns, SingleLeafRunReparsesOneRegion) {
  DiffDeserializer deser;
  auto values = soap::doubles_with_serialized_length(30, 18, 41);
  const std::string doc = serialize(soap::make_double_array_call(values));
  ASSERT_TRUE(deser.prime(doc).ok());
  ASSERT_TRUE(deser.fast_path_usable());

  values[7] = soap::doubles_with_serialized_length(1, 18, 42)[0];
  const std::string fresh = serialize(soap::make_double_array_call(values));
  ASSERT_EQ(fresh.size(), doc.size());
  const auto runs = byte_diff_runs(doc, fresh, 0);
  ASSERT_FALSE(runs.empty());

  Result<DiffDeserializer::ApplyReport> report = deser.apply_runs(fresh, runs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().path, DiffDeserializer::ApplyPath::kFastParse);
  EXPECT_EQ(report.value().leaves_reparsed, 1u);
  EXPECT_FALSE(report.value().demoted);
  expect_matches_oracle(deser, fresh);
}

TEST(DiffDeserializerApplyRuns, RunCoveringCloseTagFastParses) {
  // build_patch_frame runs are field_width + close_tag_len wide: the run
  // covers the leaf AND the (unchanged) structural close-tag bytes after
  // it. That must still be a fast parse, not a demotion.
  DiffDeserializer deser;
  auto values = soap::doubles_with_serialized_length(25, 18, 43);
  const std::string doc = serialize(soap::make_double_array_call(values));
  ASSERT_TRUE(deser.prime(doc).ok());

  values[12] = soap::doubles_with_serialized_length(1, 18, 44)[0];
  const std::string fresh = serialize(soap::make_double_array_call(values));
  // Gap 18 coalesces the intra-leaf diffs into one run (unchanged digits
  // inside the lexical would otherwise split it).
  auto runs = byte_diff_runs(doc, fresh, 18);
  ASSERT_EQ(runs.size(), 1u);
  // Widen the run over the close tag and into the next open tag.
  runs[0].length = static_cast<std::uint32_t>(std::min<std::size_t>(
      runs[0].length + 12, fresh.size() - runs[0].offset));

  Result<DiffDeserializer::ApplyReport> report = deser.apply_runs(fresh, runs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().path, DiffDeserializer::ApplyPath::kFastParse);
  EXPECT_FALSE(report.value().demoted);
  expect_matches_oracle(deser, fresh);
}

TEST(DiffDeserializerApplyRuns, RegionStraddlingRunReparsesBothLeaves) {
  DiffDeserializer deser;
  auto values = soap::doubles_with_serialized_length(16, 18, 45);
  const std::string doc = serialize(soap::make_double_array_call(values));
  ASSERT_TRUE(deser.prime(doc).ok());

  // Two adjacent leaves change; one merged run straddles the structural
  // bytes between their regions.
  auto repl = soap::doubles_with_serialized_length(2, 18, 46);
  values[5] = repl[0];
  values[6] = repl[1];
  const std::string fresh = serialize(soap::make_double_array_call(values));
  const auto runs = byte_diff_runs(doc, fresh, fresh.size());  // force merge
  ASSERT_EQ(runs.size(), 1u);

  Result<DiffDeserializer::ApplyReport> report = deser.apply_runs(fresh, runs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().path, DiffDeserializer::ApplyPath::kFastParse);
  EXPECT_EQ(report.value().leaves_reparsed, 2u);
  expect_matches_oracle(deser, fresh);
}

TEST(DiffDeserializerApplyRuns, NanAndNegativeZeroLexicals) {
  DiffDeserializer deser;
  auto values = soap::doubles_with_serialized_length(10, 18, 47);
  const std::string doc = serialize(soap::make_double_array_call(values));
  ASSERT_TRUE(deser.prime(doc).ok());
  ASSERT_GE(deser.regions().size(), 4u);

  // Overwrite two leaf regions in place with padded special lexicals: the
  // xsd:double forms both the fast path and the oracle must agree on.
  std::string fresh = doc;
  const auto patch_region = [&](std::size_t index, std::string_view lexical) {
    const DiffDeserializer::LeafRegion r = deser.regions()[index];
    const std::size_t width = r.end - r.begin;
    ASSERT_GE(width, lexical.size());
    std::string padded(lexical);
    padded.resize(width, ' ');
    fresh.replace(r.begin, width, padded);
  };
  patch_region(1, "NaN");
  patch_region(3, "-0.0");
  const auto runs = byte_diff_runs(doc, fresh, 0);

  Result<DiffDeserializer::ApplyReport> report = deser.apply_runs(fresh, runs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().path, DiffDeserializer::ApplyPath::kFastParse);
  const std::vector<double>& doubles = deser.call().params[0].value.doubles();
  EXPECT_TRUE(std::isnan(doubles[1]));
  EXPECT_TRUE(std::signbit(doubles[3]));
  EXPECT_EQ(doubles[3], 0.0);
  expect_matches_oracle(deser, fresh);
}

TEST(DiffDeserializerApplyRuns, StructuralByteChangeDemotes) {
  DiffDeserializer deser;
  auto values = soap::doubles_with_serialized_length(12, 18, 48);
  const std::string doc = serialize(soap::make_double_array_call(values));
  ASSERT_TRUE(deser.prime(doc).ok());

  // Flip a byte inside the method element name (structural), with a run
  // that covers it: the fast path must notice and rebuild via full parse.
  const std::size_t method_pos = doc.find("sendData");
  ASSERT_NE(method_pos, std::string::npos);
  std::string fresh = doc;
  // Replace both occurrences (open + close tag) so the result stays
  // well-formed XML and the full parse succeeds.
  std::size_t pos = 0;
  while ((pos = fresh.find("sendData", pos)) != std::string::npos) {
    fresh.replace(pos, 8, "sendDatb");
    pos += 8;
  }
  const auto runs = byte_diff_runs(doc, fresh, 0);

  Result<DiffDeserializer::ApplyReport> report = deser.apply_runs(fresh, runs);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().path, DiffDeserializer::ApplyPath::kFullParse);
  EXPECT_TRUE(report.value().demoted);
  EXPECT_EQ(deser.call().method, "sendDatb");
  expect_matches_oracle(deser, fresh);
}

TEST(DiffDeserializerApplyRuns, SizeChangeDemotes) {
  DiffDeserializer deser;
  auto values = soap::doubles_with_serialized_length(12, 18, 49);
  ASSERT_TRUE(deser.prime(serialize(soap::make_double_array_call(values))).ok());
  values[0] = 1.0;  // shorter lexical: the document shrinks
  const std::string fresh = serialize(soap::make_double_array_call(values));
  Result<DiffDeserializer::ApplyReport> report = deser.apply_runs(fresh, {});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().path, DiffDeserializer::ApplyPath::kFullParse);
  EXPECT_TRUE(report.value().demoted);
  expect_matches_oracle(deser, fresh);
}

TEST(DiffDeserializerApplyRuns, ReparseFailureDemotesAndInvalidatesCache) {
  DiffDeserializer deser;
  auto values = soap::doubles_with_serialized_length(8, 18, 50);
  const std::string doc = serialize(soap::make_double_array_call(values));
  ASSERT_TRUE(deser.prime(doc).ok());

  // Garbage inside a leaf region: the typed reparse fails, the demotion's
  // full parse fails on the same bytes, and the cache must not survive in
  // the half-updated state.
  const DiffDeserializer::LeafRegion r = deser.regions()[2];
  std::string fresh = doc;
  fresh.replace(r.begin, r.end - r.begin, std::string(r.end - r.begin, '#'));
  const auto runs = byte_diff_runs(doc, fresh, 0);

  Result<DiffDeserializer::ApplyReport> report = deser.apply_runs(fresh, runs);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(deser.primed());

  // Recovery: a later full body re-primes cleanly.
  ASSERT_TRUE(deser.prime(doc).ok());
  expect_matches_oracle(deser, doc);
}

TEST(DiffDeserializerApplyRuns, UnprimedFallsBackToFullParse) {
  DiffDeserializer deser;
  const std::string doc = serialize(
      soap::make_double_array_call(soap::doubles_with_serialized_length(6, 18, 51)));
  const diffwire::PatchRun run{0, 1};
  Result<DiffDeserializer::ApplyReport> report =
      deser.apply_runs(doc, std::span<const diffwire::PatchRun>(&run, 1));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().path, DiffDeserializer::ApplyPath::kFullParse);
  EXPECT_FALSE(report.value().demoted);
  expect_matches_oracle(deser, doc);
}

TEST(DiffDeserializerApplyRuns, MioMembersOutOfOrderNeverFastParse) {
  // Regions follow the document, slots follow x, y, v: with <y> before <x>
  // a patch to y's text would land in x. Such a map is never used.
  const auto doc_with_y = [](char y) {
    return std::string(
               "<SOAP-ENV:Envelope><SOAP-ENV:Body><ns1:m xmlns:ns1=\"urn:s\">"
               "<data SOAP-ENC:arrayType=\"ns1:MIO[1]\"><item><y>") +
           y +
           "</y><x>1</x><v>0.5</v></item></data></ns1:m></SOAP-ENV:Body>"
           "</SOAP-ENV:Envelope>";
  };
  const std::string doc = doc_with_y('2');
  const std::string fresh = doc_with_y('3');
  DiffDeserializer deser;
  ASSERT_TRUE(deser.prime(doc).ok());
  EXPECT_FALSE(deser.fast_path_usable());
  Result<DiffDeserializer::ApplyReport> report = apply_diff(deser, doc, fresh);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().path, DiffDeserializer::ApplyPath::kFullParse);
  EXPECT_EQ(deser.call().params[0].value.mios()[0], (soap::Mio{1, 3, 0.5}));
}

TEST(DiffDeserializerApplyRuns, EmptyArrayKeepsTheFastPath) {
  // An empty array has no leaves: the map is empty but exact.
  RpcCall call = soap::make_double_array_call({});
  call.params.push_back(soap::Param{
      "more", soap::Value::from_double_array(
                  soap::doubles_with_serialized_length(4, 18, 52))});
  const std::string doc = serialize(call);
  DiffDeserializer deser;
  ASSERT_TRUE(deser.prime(doc).ok());
  EXPECT_TRUE(deser.fast_path_usable());
  EXPECT_EQ(deser.regions().size(), 4u);
  call.params[1].value.doubles()[2] =
      soap::doubles_with_serialized_length(1, 18, 53)[0];
  const std::string fresh = serialize(call);
  Result<DiffDeserializer::ApplyReport> report = apply_diff(deser, doc, fresh);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().path, DiffDeserializer::ApplyPath::kFastParse);
  expect_matches_oracle(deser, fresh);
}

TEST(DiffDeserializerApplyRuns, RandomizedDirtyRunSweepsMatchOracle) {
  std::mt19937_64 rng(2026);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n = 40 + static_cast<std::size_t>(trial) * 23;
    auto values = soap::doubles_with_serialized_length(
        n, 18, 500 + static_cast<unsigned>(trial));
    DiffDeserializer deser;
    std::string doc = serialize(soap::make_double_array_call(values));
    ASSERT_TRUE(deser.prime(doc).ok());
    ASSERT_TRUE(deser.fast_path_usable());
    int full_parses = 0;

    for (int epoch = 1; epoch <= 10; ++epoch) {
      const std::size_t dirty =
          1 + rng() % std::max<std::size_t>(1, n / 3);  // width sweep
      auto repl = soap::doubles_with_serialized_length(
          dirty, 18, 1000 + static_cast<unsigned>(trial * 100 + epoch));
      for (std::size_t k = 0; k < dirty; ++k) values[rng() % n] = repl[k];
      std::string fresh = serialize(soap::make_double_array_call(values));
      ASSERT_EQ(fresh.size(), doc.size());
      // Random merge gaps: single-leaf runs, multi-run merges, and runs
      // straddling regions across structural bytes all occur.
      const auto runs = byte_diff_runs(doc, fresh, rng() % 96);

      Result<DiffDeserializer::ApplyReport> report =
          deser.apply_runs(fresh, runs);
      ASSERT_TRUE(report.ok());
      EXPECT_FALSE(report.value().demoted);
      full_parses += report.value().path ==
                     DiffDeserializer::ApplyPath::kFullParse;
      expect_matches_oracle(deser, fresh);
      doc = std::move(fresh);
    }
    EXPECT_EQ(full_parses, 0);
  }
}

}  // namespace
}  // namespace bsoap::core
