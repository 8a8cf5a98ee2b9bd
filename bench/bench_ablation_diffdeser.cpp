// Ablation: differential deserialization (paper Section 6 future work).
//
// Server-side receive cost for a stream of similar messages, measured on
// the SAME code paths the server runtime drives (core::DiffDeserializer,
// which ParsedReplica wraps under the replica lease):
//   * FullParse    — conventional envelope parse every message;
//   * Replay       — the server's header-only replay path: apply_runs with
//                    zero runs (no memcmp — the patch checksum already
//                    proved the body unchanged);
//   * FastParse    — 5% same-width values changed, delivered as the dirty
//                    runs a patch frame carries: apply_runs re-parses only
//                    the touched leaf regions.
// The end-to-end counterpart (real round trips, both engines) is
// bench_diffdeser; this figure isolates the deserializer itself.
#include <cstdint>
#include <span>
#include <vector>

#include "bench/bench_common.hpp"
#include "buffer/sinks.hpp"
#include "core/diff_deserializer.hpp"
#include "soap/envelope_reader.hpp"
#include "soap/envelope_writer.hpp"
#include "soap/workload.hpp"

namespace {

using namespace bsoap;
using namespace bsoap::bench;

std::string serialize(const soap::RpcCall& call) {
  buffer::StringSink sink;
  soap::write_rpc_envelope(sink, call);
  return sink.take();
}

/// Byte-diffs two same-length documents into the dirty runs a patch frame
/// would carry, merging runs separated by at most `merge_gap` unchanged
/// bytes (the shape SendPipeline's journal produces).
std::vector<diffwire::PatchRun> byte_diff_runs(
    const std::string& old_doc, const std::string& fresh,
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

void register_figure() {
  register_series("AblationDiffDeser/FullParse/Double",
                  [](benchmark::State& state, std::size_t n) {
                    const std::string doc = serialize(soap::make_double_array_call(
                        soap::doubles_with_serialized_length(n, 18, 1)));
                    for (auto _ : state) {
                      Result<soap::RpcCall> call = soap::read_rpc_envelope(doc);
                      BSOAP_ASSERT(call.ok());
                      benchmark::DoNotOptimize(call.value().params.size());
                    }
                  });

  register_series("AblationDiffDeser/Replay/Double",
                  [](benchmark::State& state, std::size_t n) {
                    const std::string doc = serialize(soap::make_double_array_call(
                        soap::doubles_with_serialized_length(n, 18, 1)));
                    core::DiffDeserializer deser;
                    (void)deser.prime(doc);
                    std::uint64_t content_hits = 0;
                    for (auto _ : state) {
                      Result<core::DiffDeserializer::ApplyReport> report =
                          deser.apply_runs(doc, {});
                      BSOAP_ASSERT(report.ok());
                      content_hits += report.value().path ==
                                      core::DiffDeserializer::ApplyPath::kContentHit;
                      benchmark::DoNotOptimize(&deser.call());
                    }
                    state.counters["content_hits"] =
                        static_cast<double>(content_hits);
                  });

  register_series(
      "AblationDiffDeser/FastParse_5pctChanged/Double",
      [](benchmark::State& state, std::size_t n) {
        auto values = soap::doubles_with_serialized_length(n, 18, 1);
        const std::string base =
            serialize(soap::make_double_array_call(values));
        core::DiffDeserializer deser;
        (void)deser.prime(base);
        // Pre-generate alternating documents with 5% same-width changes,
        // plus the dirty runs each transition would carry in a patch frame
        // (run extraction is the sender's cost, not the receiver's).
        const auto pool = soap::doubles_with_serialized_length(n, 18, 2);
        const std::size_t changes = n >= 20 ? n / 20 : 1;
        std::vector<std::string> docs;
        for (int variant = 0; variant < 2; ++variant) {
          auto v = values;
          for (std::size_t c = 0; c < changes && c < n; ++c) {
            const std::size_t idx = (c * 19 + static_cast<std::size_t>(variant)) % n;
            v[idx] = pool[idx];
          }
          docs.push_back(serialize(soap::make_double_array_call(v)));
        }
        std::vector<std::vector<diffwire::PatchRun>> runs = {
            byte_diff_runs(docs[1], docs[0], 18),
            byte_diff_runs(docs[0], docs[1], 18)};
        std::uint64_t fast_parses = 0;
        std::uint64_t demotions = 0;
        const auto tally = [&](const core::DiffDeserializer::ApplyReport& r) {
          fast_parses += r.path == core::DiffDeserializer::ApplyPath::kFastParse;
          demotions += r.demoted;
        };
        bool flip = false;
        // First transition: base -> docs[0].
        Result<core::DiffDeserializer::ApplyReport> first =
            deser.apply_runs(docs[0], byte_diff_runs(base, docs[0], 18));
        BSOAP_ASSERT(first.ok());
        tally(first.value());
        for (auto _ : state) {
          flip = !flip;
          const std::size_t next = flip ? 1 : 0;
          Result<core::DiffDeserializer::ApplyReport> report =
              deser.apply_runs(docs[next], runs[next]);
          BSOAP_ASSERT(report.ok());
          tally(report.value());
          benchmark::DoNotOptimize(&deser.call());
        }
        state.counters["fast_parses"] = static_cast<double>(fast_parses);
        state.counters["demotions"] = static_cast<double>(demotions);
      });
}

}  // namespace

BSOAP_BENCH_MAIN(register_figure)
