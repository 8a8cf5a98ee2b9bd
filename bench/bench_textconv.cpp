// Conversion-speed gate for textconv, the update stage it feeds, and a
// zero-copy gate for the reactor write path.
//
// Textconv/WriteDoubleVsToChars — converts the same n 17-char doubles with
// write_double and with std::to_chars (shortest round-trip form) into one
// contiguous buffer, as interleaved round pairs whose order alternates
// every iteration. Interleaving makes the ratio immune to the slow drift
// and bursty interference that make two separately-run series
// incomparable on shared CI boxes; the counter `to_chars_ratio` is the
// median over per-pair write_double_ns / to_chars_ns ratios, which a
// handful of preempted rounds cannot move. The standard library is a
// reference this repository cannot delete, so the ratio catches a fall
// back to scalar-speed conversion on any host.
//
// Textconv/Update — update_dirty_fields over a type-max-stuffed double PSM
// template with a contiguous 1% dirty window; `ns_per_field` is
// informational. Serial bulk update (parallel_min_leaves = SIZE_MAX) so
// the figure measures conversion and rewrite, not thread-pool dilution.
//
// Textconv/ReactorZeroCopy — MCM resends through the reactor engine with a
// synchronously-draining client; the server's write_copied_bytes counter
// must stay exactly 0 (every response left via the direct slice path, no
// EAGAIN tail was copied). check_match_kinds.py gates the ratio and the
// copied bytes.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <limits>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/client.hpp"
#include "core/diff_serializer.hpp"
#include "core/message_template.hpp"
#include "core/template_builder.hpp"
#include "server/server_runtime.hpp"
#include "soap/workload.hpp"
#include "textconv/dtoa.hpp"

namespace {

using namespace bsoap;
using namespace bsoap::bench;
using Clock = std::chrono::steady_clock;

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

double elapsed_ns(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

void register_to_chars_ratio() {
  register_series(
      "Textconv/WriteDoubleVsToChars/Double",
      [](benchmark::State& state, std::size_t n) {
        const std::vector<double> values =
            soap::doubles_with_serialized_length(n, 17, 1);
        std::vector<char> out(n * textconv::kMaxDoubleChars + 64);
        char* const end = out.data() + out.size();
        std::size_t checksum = 0;
        auto run_round = [&](bool ours) {
          char* p = out.data();
          const auto t0 = Clock::now();
          if (ours) {
            for (const double v : values) p += textconv::write_double(p, v);
          } else {
            for (const double v : values) p = std::to_chars(p, end, v).ptr;
          }
          const auto t1 = Clock::now();
          checksum += static_cast<std::size_t>(p - out.data());
          return elapsed_ns(t0, t1);
        };

        // Untimed warmup pairs: fault in the output pages and settle the
        // branch predictors before the first measured pair.
        for (int w = 0; w < 4; ++w) (void)run_round(w & 1);

        std::vector<double> ratios;
        double ours_sum = 0;
        double ref_sum = 0;
        bool ours_first = false;
        for (auto _ : state) {
          ours_first = !ours_first;
          double ours_ns;
          double ref_ns;
          if (ours_first) {
            ours_ns = run_round(true);
            ref_ns = run_round(false);
          } else {
            ref_ns = run_round(false);
            ours_ns = run_round(true);
          }
          if (ref_ns > 0) ratios.push_back(ours_ns / ref_ns);
          ours_sum += ours_ns;
          ref_sum += ref_ns;
          state.SetIterationTime(ours_ns / 1e9);
        }
        benchmark::DoNotOptimize(checksum);
        const double values_run =
            static_cast<double>(state.iterations()) * static_cast<double>(n);
        state.counters["to_chars_ratio"] = median_of(std::move(ratios));
        state.counters["write_double_ns_per_value"] =
            values_run > 0 ? ours_sum / values_run : 0.0;
        state.counters["to_chars_ns_per_value"] =
            values_run > 0 ? ref_sum / values_run : 0.0;
      },
      /*manual_time=*/true);
}

void register_update() {
  register_series(
      "Textconv/Update/Double",
      [](benchmark::State& state, std::size_t n) {
        core::TemplateConfig cfg;
        cfg.stuffing.mode = core::StuffingPolicy::Mode::kTypeMax;
        cfg.bulk.parallel_min_leaves = std::numeric_limits<std::size_t>::max();
        const std::size_t block = std::max<std::size_t>(1, n / 100);
        auto tmpl = core::build_template(
            soap::make_double_array_call(
                soap::doubles_with_serialized_length(n, 17, 1)),
            cfg);
        // Three same-width value pools so consecutive rounds always rewrite
        // real digits instead of matching the previous round's bytes.
        std::vector<soap::RpcCall> calls;
        for (int s = 2; s < 5; ++s) {
          calls.push_back(soap::make_double_array_call(
              soap::doubles_with_serialized_length(n, 17, s)));
        }
        const std::size_t base_span = n - block + 1;

        std::size_t round = 0;
        auto run_round = [&] {
          const soap::RpcCall& call = calls[round % calls.size()];
          const std::size_t base = (round * block * 7) % base_span;
          for (std::size_t i = base; i < base + block; ++i) {
            tmpl->dut().mark_dirty(i);
          }
          const auto t0 = Clock::now();
          (void)core::update_dirty_fields(*tmpl, call);
          const auto t1 = Clock::now();
          ++round;
          return elapsed_ns(t0, t1);
        };

        for (int w = 0; w < 4; ++w) (void)run_round();

        double sum = 0;
        for (auto _ : state) {
          const double ns = run_round();
          sum += ns;
          state.SetIterationTime(ns / 1e9);
        }
        const double fields =
            static_cast<double>(state.iterations()) * static_cast<double>(block);
        state.counters["ns_per_field"] = fields > 0 ? sum / fields : 0.0;
      },
      /*manual_time=*/true);
}

void register_reactor_zerocopy() {
  register_series(
      "Textconv/ReactorZeroCopy/Double",
      [](benchmark::State& state, std::size_t n) {
        soap::RpcHandler echo =
            [](const soap::RpcCall& call) -> Result<soap::Value> {
          const auto view = call.params[0].value.doubles();
          return soap::Value::from_double_array(
              std::vector<double>(view.begin(), view.end()));
        };
        server::ServerRuntimeOptions options;
        options.workers = 1;
        options.io_model = server::IoModel::kReactor;
        auto server = must(server::ServerRuntime::start(echo, options));
        auto transport = must(net::tcp_connect(server->port()));
        core::BsoapClient client(*transport);
        const soap::RpcCall call = soap::make_double_array_call(
            soap::doubles_with_serialized_length(n, 17, 1));
        (void)must(client.invoke(call));  // first-time template build
        for (auto _ : state) {
          benchmark::DoNotOptimize(must(client.invoke(call)));
        }
        const server::ServerStats stats = server->stats();
        state.counters["write_copied_bytes"] =
            static_cast<double>(stats.write_copied_bytes);
        state.counters["partial_writes"] =
            static_cast<double>(stats.partial_writes);
        transport->shutdown_send();
        server->stop();
      });
}

void register_figure() {
  register_to_chars_ratio();
  register_update();
  register_reactor_zerocopy();
}

}  // namespace

BSOAP_BENCH_MAIN(register_figure)
