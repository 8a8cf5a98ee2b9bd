// Bulk-vs-scalar equivalence for the array fast path.
//
// The acceptance bar for the bulk update path (SoA shadow planes, word-wide
// dirty scanning, run-based rewrites, optional parallel segment update) is
// byte-for-byte wire equivalence with the per-leaf path AND identical
// MatchKind/UpdateResult counters — including when values outgrow their
// fields and the run rewriter must fall back to the expansion machinery.
// These tests drive the same update sequences through a bulk-enabled and a
// bulk-disabled template and compare everything after every step.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/poly_hash.hpp"
#include "core/bulk_scan.hpp"
#include "core/diff_serializer.hpp"
#include "core/template_builder.hpp"
#include "soap/envelope_reader.hpp"
#include "soap/workload.hpp"

namespace bsoap::core {
namespace {

using soap::RpcCall;

TemplateConfig bulk_config() {
  TemplateConfig config;
  config.stuffing.mode = StuffingPolicy::Mode::kExact;
  config.bulk.enable = true;
  // Serial bulk: no segment reaches the worker pool.
  config.bulk.parallel_min_leaves = std::numeric_limits<std::size_t>::max();
  return config;
}

TemplateConfig scalar_config() {
  TemplateConfig config = bulk_config();
  config.bulk.enable = false;
  return config;
}

void expect_same_result(const UpdateResult& bulk, const UpdateResult& scalar,
                        int step) {
  EXPECT_EQ(bulk.match, scalar.match) << "step " << step;
  EXPECT_EQ(bulk.values_rewritten, scalar.values_rewritten) << "step " << step;
  EXPECT_EQ(bulk.tag_shifts, scalar.tag_shifts) << "step " << step;
  EXPECT_EQ(bulk.expansions, scalar.expansions) << "step " << step;
  EXPECT_EQ(bulk.steals, scalar.steals) << "step " << step;
}

/// Runs the compare-mode sequence through both paths; every step must agree
/// on bytes and counters. Returns total bulk leaves to let callers assert
/// the fast path actually engaged.
std::uint64_t expect_equivalent(const std::vector<RpcCall>& calls,
                                TemplateConfig bulk_cfg,
                                TemplateConfig scalar_cfg) {
  auto bulk_tmpl = build_template(calls[0], bulk_cfg);
  auto scalar_tmpl = build_template(calls[0], scalar_cfg);
  EXPECT_EQ(bulk_tmpl->buffer().linearize(), scalar_tmpl->buffer().linearize());
  std::uint64_t bulk_leaves = 0;
  for (std::size_t i = 1; i < calls.size(); ++i) {
    const UpdateResult b = update_template(*bulk_tmpl, calls[i]);
    const UpdateResult s = update_template(*scalar_tmpl, calls[i]);
    expect_same_result(b, s, static_cast<int>(i));
    EXPECT_EQ(s.bulk_leaves, 0u);
    bulk_leaves += b.bulk_leaves;
    EXPECT_EQ(bulk_tmpl->buffer().linearize(),
              scalar_tmpl->buffer().linearize())
        << "step " << i;
  }
  EXPECT_TRUE(bulk_tmpl->check_invariants());
  EXPECT_TRUE(scalar_tmpl->check_invariants());
  return bulk_leaves;
}

TEST(BulkEquivalence, DoubleSparseSameWidth) {
  const std::size_t n = 300;
  auto values = soap::doubles_with_serialized_length(n, 18, 1);
  const auto pool = soap::doubles_with_serialized_length(n, 18, 2);
  std::vector<RpcCall> calls;
  calls.push_back(soap::make_double_array_call(values));
  for (int step = 0; step < 4; ++step) {
    for (std::size_t i = static_cast<std::size_t>(step); i < n; i += 10) {
      values[i] = pool[(i + static_cast<std::size_t>(step)) % n];
    }
    calls.push_back(soap::make_double_array_call(values));
  }
  EXPECT_GT(expect_equivalent(calls, bulk_config(), scalar_config()), 0u);
}

TEST(BulkEquivalence, DoubleDenseRewrite) {
  const std::size_t n = 128;
  std::vector<RpcCall> calls;
  calls.push_back(
      soap::make_double_array_call(soap::doubles_with_serialized_length(n, 18, 3)));
  calls.push_back(
      soap::make_double_array_call(soap::doubles_with_serialized_length(n, 18, 4)));
  calls.push_back(
      soap::make_double_array_call(soap::doubles_with_serialized_length(n, 18, 5)));
  EXPECT_GT(expect_equivalent(calls, bulk_config(), scalar_config()), 0u);
}

TEST(BulkEquivalence, RaggedWidthsWithExpansionFallback) {
  // Exact stuffing + short initial values; replacements of wildly varying
  // serialized length force tag shifts, steals and chunk expansion inside
  // runs. The bulk path must fall back per-leaf for the overflowing fields
  // and still produce identical bytes and counters.
  const std::size_t n = 200;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i % 7);
  std::vector<RpcCall> calls;
  calls.push_back(soap::make_double_array_call(values));
  auto wide = values;
  for (std::size_t i = 0; i < n; i += 3) {
    wide[i] = -2.2250738585072014e-308;  // 24 chars: guaranteed overflow
  }
  calls.push_back(soap::make_double_array_call(wide));
  // Shrink back: same-width path with huge padding, then grow a different set.
  calls.push_back(soap::make_double_array_call(values));
  auto wide2 = values;
  for (std::size_t i = 1; i < n; i += 5) {
    wide2[i] = 1.7976931348623157e308;
  }
  calls.push_back(soap::make_double_array_call(wide2));
  EXPECT_GT(expect_equivalent(calls, bulk_config(), scalar_config()), 0u);
}

TEST(BulkEquivalence, IntSparse) {
  const std::size_t n = 256;
  auto values = soap::random_ints(n, 6);
  std::vector<RpcCall> calls;
  calls.push_back(soap::make_int_array_call(values));
  for (int step = 1; step <= 3; ++step) {
    for (std::size_t i = 0; i < n; i += 8) {
      // Varying widths incl. sign flips; unsigned wrap keeps this UB-free.
      values[i] = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(values[i]) * 31u +
          static_cast<std::uint32_t>(step));
    }
    calls.push_back(soap::make_int_array_call(values));
  }
  EXPECT_GT(expect_equivalent(calls, bulk_config(), scalar_config()), 0u);
}

TEST(BulkEquivalence, MioPerFieldRewrites) {
  const std::size_t n = 120;
  auto mios = soap::random_mios(n, 7);
  std::vector<RpcCall> calls;
  calls.push_back(soap::make_mio_array_call(mios));
  // Touch different fields of different elements each step.
  auto step1 = mios;
  for (std::size_t i = 0; i < n; i += 4) step1[i].value *= 0.5;
  calls.push_back(soap::make_mio_array_call(step1));
  auto step2 = step1;
  for (std::size_t i = 1; i < n; i += 4) {
    step2[i].x += 1000;
    step2[i].y = -step2[i].y;
  }
  calls.push_back(soap::make_mio_array_call(step2));
  EXPECT_GT(expect_equivalent(calls, bulk_config(), scalar_config()), 0u);
}

TEST(BulkEquivalence, NanAndNegativeZeroInArrays) {
  const std::size_t n = 64;
  std::vector<double> values(n, 0.0);
  std::vector<RpcCall> calls;
  calls.push_back(soap::make_double_array_call(values));
  auto tweaked = values;
  tweaked[5] = -0.0;  // bitwise change, same numeric value
  tweaked[6] = std::numeric_limits<double>::quiet_NaN();
  calls.push_back(soap::make_double_array_call(tweaked));
  // NaN -> same NaN must NOT rewrite (bitwise equality), so this step is a
  // content match on both paths.
  calls.push_back(soap::make_double_array_call(tweaked));
  EXPECT_GT(expect_equivalent(calls, bulk_config(), scalar_config()), 0u);
}

TEST(BulkEquivalence, DirtyModeDouble) {
  const std::size_t n = 200;
  const auto values = soap::doubles_with_serialized_length(n, 18, 8);
  const auto pool = soap::doubles_with_serialized_length(n, 18, 9);
  auto bulk_tmpl =
      build_template(soap::make_double_array_call(values), bulk_config());
  auto scalar_tmpl =
      build_template(soap::make_double_array_call(values), scalar_config());

  auto mutated = values;
  for (std::size_t i = 2; i < n; i += 7) {
    mutated[i] = pool[i];
    bulk_tmpl->dut().mark_dirty(i);
    scalar_tmpl->dut().mark_dirty(i);
  }
  const RpcCall call = soap::make_double_array_call(mutated);
  const UpdateResult b = update_dirty_fields(*bulk_tmpl, call);
  const UpdateResult s = update_dirty_fields(*scalar_tmpl, call);
  expect_same_result(b, s, 0);
  EXPECT_GT(b.bulk_leaves, 0u);
  EXPECT_GT(b.bulk_runs, 0u);
  EXPECT_FALSE(bulk_tmpl->dut().any_dirty());
  EXPECT_FALSE(scalar_tmpl->dut().any_dirty());
  EXPECT_EQ(bulk_tmpl->buffer().linearize(), scalar_tmpl->buffer().linearize());
}

TEST(BulkEquivalence, DirtyModeMioFieldGranularity) {
  const std::size_t n = 80;
  auto mios = soap::random_mios(n, 10);
  auto bulk_tmpl =
      build_template(soap::make_mio_array_call(mios), bulk_config());
  auto scalar_tmpl =
      build_template(soap::make_mio_array_call(mios), scalar_config());

  // Dirty only the double field of every third MIO plus one x coordinate:
  // leaf i*3+2 is the value, i*3 the x.
  auto mutated = mios;
  for (std::size_t i = 0; i < n; i += 3) {
    mutated[i].value *= 2.0;
    bulk_tmpl->dut().mark_dirty(i * 3 + 2);
    scalar_tmpl->dut().mark_dirty(i * 3 + 2);
  }
  mutated[1].x = 424242;
  bulk_tmpl->dut().mark_dirty(1 * 3);
  scalar_tmpl->dut().mark_dirty(1 * 3);

  const RpcCall call = soap::make_mio_array_call(mutated);
  const UpdateResult b = update_dirty_fields(*bulk_tmpl, call);
  const UpdateResult s = update_dirty_fields(*scalar_tmpl, call);
  expect_same_result(b, s, 0);
  EXPECT_FALSE(bulk_tmpl->dut().any_dirty());
  EXPECT_EQ(bulk_tmpl->buffer().linearize(), scalar_tmpl->buffer().linearize());
}

TEST(BulkEquivalence, ParallelSegmentUpdateMatchesSerial) {
  // Small chunks force a multi-chunk segment; type-max stuffing guarantees
  // fit so the parallel path is eligible. Serial bulk, parallel bulk and
  // scalar must all produce identical bytes and counters.
  const std::size_t n = 4000;
  TemplateConfig parallel_cfg = bulk_config();
  parallel_cfg.stuffing.mode = StuffingPolicy::Mode::kTypeMax;
  parallel_cfg.chunk.chunk_size = 4 * 1024;
  parallel_cfg.chunk.split_threshold = 8 * 1024;
  parallel_cfg.bulk.parallel_min_leaves = 64;
  TemplateConfig serial_cfg = parallel_cfg;
  serial_cfg.bulk.parallel_min_leaves = std::numeric_limits<std::size_t>::max();
  TemplateConfig plain_cfg = parallel_cfg;
  plain_cfg.bulk.enable = false;

  auto values = soap::random_doubles(n, 11);
  const RpcCall first = soap::make_double_array_call(values);
  auto par_tmpl = build_template(first, parallel_cfg);
  auto ser_tmpl = build_template(first, serial_cfg);
  auto pl_tmpl = build_template(first, plain_cfg);
  ASSERT_GT(par_tmpl->buffer().chunk_count(), 1u);

  const auto pool = soap::random_doubles(n, 12);
  for (int step = 1; step <= 3; ++step) {
    for (std::size_t i = static_cast<std::size_t>(step); i < n; i += 5) {
      values[i] = pool[(i * static_cast<std::size_t>(step)) % n];
    }
    const RpcCall call = soap::make_double_array_call(values);
    const UpdateResult p = update_template(*par_tmpl, call);
    const UpdateResult se = update_template(*ser_tmpl, call);
    const UpdateResult pl = update_template(*pl_tmpl, call);
    expect_same_result(p, se, step);
    expect_same_result(p, pl, step);
    ASSERT_EQ(par_tmpl->buffer().linearize(), ser_tmpl->buffer().linearize());
    ASSERT_EQ(par_tmpl->buffer().linearize(), pl_tmpl->buffer().linearize());
  }
  EXPECT_TRUE(par_tmpl->check_invariants());
}

TEST(BulkEquivalence, ParallelDirtyModeMatchesSerial) {
  const std::size_t n = 4000;
  TemplateConfig parallel_cfg = bulk_config();
  parallel_cfg.stuffing.mode = StuffingPolicy::Mode::kTypeMax;
  parallel_cfg.chunk.chunk_size = 4 * 1024;
  parallel_cfg.chunk.split_threshold = 8 * 1024;
  parallel_cfg.bulk.parallel_min_leaves = 64;
  TemplateConfig plain_cfg = parallel_cfg;
  plain_cfg.bulk.enable = false;

  auto values = soap::random_doubles(n, 13);
  const RpcCall first = soap::make_double_array_call(values);
  auto par_tmpl = build_template(first, parallel_cfg);
  auto pl_tmpl = build_template(first, plain_cfg);

  auto mutated = values;
  const auto pool = soap::random_doubles(n, 14);
  for (std::size_t i = 0; i < n; i += 3) {
    mutated[i] = pool[i];
    par_tmpl->dut().mark_dirty(i);
    pl_tmpl->dut().mark_dirty(i);
  }
  const RpcCall call = soap::make_double_array_call(mutated);
  const UpdateResult p = update_dirty_fields(*par_tmpl, call);
  const UpdateResult s = update_dirty_fields(*pl_tmpl, call);
  expect_same_result(p, s, 0);
  EXPECT_FALSE(par_tmpl->dut().any_dirty());
  EXPECT_EQ(par_tmpl->buffer().linearize(), pl_tmpl->buffer().linearize());
}

TEST(BulkEquivalence, ParallelUpdateKeepsMaterializedRootExact) {
  // Each worker writes only its own chunks, and each chunk carries its own
  // integrity hash: once the root is materialized, a parallel update (no
  // journal armed, so the parallel path is eligible) must leave it equal to
  // a from-scratch hash without hashing any piece from scratch.
  const std::size_t n = 4000;
  TemplateConfig cfg = bulk_config();
  cfg.stuffing.mode = StuffingPolicy::Mode::kTypeMax;
  cfg.chunk.chunk_size = 4 * 1024;
  cfg.chunk.split_threshold = 8 * 1024;
  cfg.bulk.parallel_min_leaves = 64;
  ASSERT_GE(n, cfg.bulk.parallel_min_leaves);

  auto values = soap::random_doubles(n, 15);
  auto tmpl = build_template(soap::make_double_array_call(values), cfg);
  ASSERT_GT(tmpl->buffer().chunk_count(), 1u);
  tmpl->buffer().root();
  const std::uint64_t hashed = tmpl->buffer().hashed_bytes();

  const auto pool = soap::random_doubles(n, 16);
  for (int step = 1; step <= 3; ++step) {
    for (std::size_t i = static_cast<std::size_t>(step); i < n; i += 4) {
      values[i] = pool[(i * static_cast<std::size_t>(step)) % n];
    }
    const UpdateResult r =
        update_template(*tmpl, soap::make_double_array_call(values));
    ASSERT_GT(r.values_rewritten, 0u);
    ASSERT_EQ(tmpl->buffer().root(), poly::hash(tmpl->buffer().linearize()))
        << "step " << step;
  }
  EXPECT_EQ(tmpl->buffer().hashed_bytes(), hashed);
  EXPECT_TRUE(tmpl->check_invariants());
}

TEST(BulkEquivalence, SmallArraysSkipSegments) {
  // Below min_elements no segment is recorded and the bulk walk falls back
  // to per-leaf dispatch.
  TemplateConfig config = bulk_config();
  config.bulk.min_elements = 16;
  auto tmpl = build_template(
      soap::make_double_array_call(soap::random_doubles(8, 15)), config);
  EXPECT_TRUE(tmpl->dut().segments().empty());
  const UpdateResult result = update_template(
      *tmpl, soap::make_double_array_call(soap::random_doubles(8, 16)));
  EXPECT_EQ(result.bulk_leaves, 0u);
  EXPECT_EQ(result.values_rewritten, 8u);
}

TEST(BulkEquivalence, ContentMatchScansWithoutRewrites) {
  const RpcCall call =
      soap::make_double_array_call(soap::random_doubles(500, 17));
  auto tmpl = build_template(call, bulk_config());
  const UpdateResult result = update_template(*tmpl, call);
  EXPECT_EQ(result.match, MatchKind::kContentMatch);
  EXPECT_EQ(result.values_rewritten, 0u);
  EXPECT_EQ(result.bulk_leaves, 500u);
  EXPECT_EQ(result.bulk_runs, 0u);
}

// --- scanning primitives ----------------------------------------------------

using RunSpan = std::pair<std::size_t, std::size_t>;

std::vector<RunSpan> set_runs(const std::vector<std::uint64_t>& words,
                          std::size_t begin, std::size_t end) {
  std::vector<RunSpan> out;
  bulk::for_each_set_run(words.data(), begin, end,
                         [&](std::size_t b, std::size_t e) {
                           out.emplace_back(b, e);
                         });
  return out;
}

TEST(BulkScan, SetRunsCrossWordBoundaries) {
  std::vector<std::uint64_t> words(3, 0);
  // Run [60, 70): crosses the word 0/1 boundary.
  for (std::size_t i = 60; i < 70; ++i) words[i >> 6] |= 1ull << (i & 63);
  // Isolated bit 128 (first bit of word 2).
  words[2] |= 1ull;
  const auto runs = set_runs(words, 0, 192);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], RunSpan(60, 70));
  EXPECT_EQ(runs[1], RunSpan(128, 129));
}

TEST(BulkScan, SetRunsClipToRange) {
  std::vector<std::uint64_t> words(2, ~std::uint64_t{0});
  const auto runs = set_runs(words, 10, 100);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], RunSpan(10, 100));
  EXPECT_TRUE(set_runs(words, 50, 50).empty());
}

TEST(BulkScan, SetRunsEmptyMask) {
  std::vector<std::uint64_t> words(4, 0);
  EXPECT_TRUE(set_runs(words, 0, 256).empty());
}

TEST(BulkScan, DifferingRunsFindExactRanges) {
  const std::size_t n = 1000;
  std::vector<double> a(n, 1.0);
  std::vector<double> b = a;
  // Two runs, one crossing the 512-byte block boundary (64 doubles/block).
  for (std::size_t i = 60; i < 70; ++i) b[i] = 2.0;
  b[500] = 2.5;
  std::vector<RunSpan> runs;
  bulk::for_each_differing_run(a.data(), b.data(), n,
                               [&](std::size_t rb, std::size_t re) {
                                 runs.emplace_back(rb, re);
                               });
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], RunSpan(60, 70));
  EXPECT_EQ(runs[1], RunSpan(500, 501));
}

TEST(BulkScan, DifferingRunsIdenticalArrays) {
  std::vector<std::int32_t> a(777, 3);
  std::vector<std::int32_t> b = a;
  bool any = false;
  bulk::for_each_differing_run(a.data(), b.data(), a.size(),
                               [&](std::size_t, std::size_t) { any = true; });
  EXPECT_FALSE(any);
}

TEST(BulkScan, DifferingRunsAllDifferent) {
  std::vector<std::int32_t> a(130, 1);
  std::vector<std::int32_t> b(130, 2);
  std::vector<RunSpan> runs;
  bulk::for_each_differing_run(a.data(), b.data(), a.size(),
                               [&](std::size_t rb, std::size_t re) {
                                 runs.emplace_back(rb, re);
                               });
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], RunSpan(0, 130));
}

}  // namespace
}  // namespace bsoap::core
