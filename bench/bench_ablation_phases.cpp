// Ablation: serialization phase breakdown (paper Section 2).
//
// The paper attributes ~90% of SOAP end-to-end time to number->ASCII
// conversion. This bench decomposes a full double-array serialization into:
//   * Convert        — dtoa only, output discarded;
//   * ConvertAndPack — full envelope into a NullSink (conversion + tag
//                      emission, no buffer retention);
//   * Serialize      — full envelope into the contiguous buffer;
//   * SerializeSend  — serialize + HTTP frame + send to the drain server;
//   * PackOnly       — memcpy of a preserialized envelope (no conversion).
//
// The Pipeline* series use the differential send path's own SendObserver
// instead of ad-hoc timers: each stage's share of a perfect-structural-match
// send (resolve / update / frame / write) is reported as the iteration's
// manual time, so the breakdown is exactly what the production path measures
// about itself.
#include "bench/bench_common.hpp"
#include "buffer/sinks.hpp"
#include "core/client.hpp"
#include "core/send_pipeline.hpp"
#include "soap/envelope_writer.hpp"
#include "soap/workload.hpp"
#include "textconv/dtoa.hpp"

#include "baseline/gsoap_like.hpp"

namespace {

using namespace bsoap;
using namespace bsoap::bench;

/// One series per pipeline stage: PSM sends (every value rewritten, no
/// expansion) with the stage's observer time as the manual iteration time.
void register_pipeline_stage_series(core::SendStage stage) {
  register_series(
      std::string("AblationPhases/Pipeline") +
          [&] {
            std::string name(core::send_stage_name(stage));
            name[0] = static_cast<char>(name[0] - 'a' + 'A');
            return name;
          }() +
          "/Double",
      [stage](benchmark::State& state, std::size_t n) {
        BenchEnv env;
        core::BsoapClient client(*env.transport);
        core::StageTimings timings;
        client.pipeline().set_observer(&timings);
        // Two same-width value sets: alternating keeps every send a perfect
        // structural match with all n values rewritten.
        const auto a = soap::doubles_with_serialized_length(n, 18, 1);
        const auto b = soap::doubles_with_serialized_length(n, 18, 2);
        (void)must(client.send_call(soap::make_double_array_call(a)));
        bool use_b = true;
        for (auto _ : state) {
          timings.reset();
          (void)must(client.send_call(
              soap::make_double_array_call(use_b ? b : a)));
          use_b = !use_b;
          state.SetIterationTime(
              static_cast<double>(timings.totals(stage).ns) / 1e9);
        }
      },
      /*manual_time=*/true);
}

void register_figure() {
  for (const core::SendStage stage :
       {core::SendStage::kResolve, core::SendStage::kUpdate,
        core::SendStage::kFrame, core::SendStage::kWrite}) {
    register_pipeline_stage_series(stage);
  }

  register_series("AblationPhases/Convert/Double",
                  [](benchmark::State& state, std::size_t n) {
                    const auto values = soap::random_doubles(n, 1);
                    char buf[textconv::kMaxDoubleChars];
                    for (auto _ : state) {
                      int total = 0;
                      for (const double v : values) {
                        total += textconv::write_double(buf, v);
                      }
                      benchmark::DoNotOptimize(total);
                    }
                  });

  register_series("AblationPhases/ConvertAndPack/Double",
                  [](benchmark::State& state, std::size_t n) {
                    const soap::RpcCall call = soap::make_double_array_call(
                        soap::random_doubles(n, 1));
                    buffer::NullSink sink;
                    for (auto _ : state) {
                      sink.clear();
                      soap::write_rpc_envelope(sink, call);
                      benchmark::DoNotOptimize(sink.size());
                    }
                  });

  register_series("AblationPhases/Serialize/Double",
                  [](benchmark::State& state, std::size_t n) {
                    const soap::RpcCall call = soap::make_double_array_call(
                        soap::random_doubles(n, 1));
                    buffer::StringSink sink;
                    for (auto _ : state) {
                      sink.clear();
                      soap::write_rpc_envelope(sink, call);
                      benchmark::DoNotOptimize(sink.size());
                    }
                  });

  register_series("AblationPhases/SerializeSend/Double",
                  [](benchmark::State& state, std::size_t n) {
                    BenchEnv env;
                    baseline::GSoapLikeClient client(*env.transport);
                    const soap::RpcCall call = soap::make_double_array_call(
                        soap::random_doubles(n, 1));
                    (void)must(client.send_call(call));  // warm connection
                    for (auto _ : state) {
                      benchmark::DoNotOptimize(must(client.send_call(call)));
                    }
                  });

  register_series("AblationPhases/PackOnly/Double",
                  [](benchmark::State& state, std::size_t n) {
                    buffer::StringSink prebuilt;
                    soap::write_rpc_envelope(
                        prebuilt,
                        soap::make_double_array_call(soap::random_doubles(n, 1)));
                    const std::string envelope = prebuilt.take();
                    std::string target;
                    target.reserve(envelope.size());
                    for (auto _ : state) {
                      target.assign(envelope);
                      benchmark::DoNotOptimize(target.data());
                    }
                  });
}

}  // namespace

BSOAP_BENCH_MAIN(register_figure)
