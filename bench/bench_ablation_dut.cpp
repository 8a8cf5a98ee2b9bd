// Ablation: DUT table overhead.
//
// The content-match fast path must scan (or short-circuit) the dirty state.
// Measures: the dirty-bit short circuit (BoundMessage clean send, minus
// network: classification only), the comparison-based scan over an unchanged
// call (update_template with zero rewrites), and the comparison scan cost as
// a fraction of full serialization.
//
// The Scalar-vs-Bulk pairs isolate the array fast path (SoA plane memcmp /
// word-wide dirty-bit scanning + run-based rewrites) from dtoa cost: both
// variants rewrite the identical ~10% of elements with identical
// conversions, so the delta is pure scan + rewrite-cursor overhead.
//
// The UpdatePool series measure the shared worker pool against the serial
// bulk path (parallel_min_leaves = SIZE_MAX) on type-max stuffed templates
// at and above the pool's 65,536-leaf threshold. Each iteration runs one
// serial and one pool update of the same call, alternating which goes
// first; `pool_speedup` is the median per-pair serial/pool time ratio.
#include <algorithm>
#include <chrono>
#include <limits>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/diff_serializer.hpp"
#include "core/template_builder.hpp"
#include "soap/workload.hpp"

namespace {

using namespace bsoap;
using namespace bsoap::bench;

/// Two calls identical to the template except every 10th element, whose
/// value flips between the A and B pools (same serialized width, so no
/// expansions muddy the comparison).
struct SparseWorkload {
  soap::RpcCall base;
  soap::RpcCall call_a;
  soap::RpcCall call_b;

  explicit SparseWorkload(std::size_t n) {
    constexpr int kChars = 18;
    const auto values = soap::doubles_with_serialized_length(n, kChars, 1);
    const auto pool_a = soap::doubles_with_serialized_length(n, kChars, 2);
    const auto pool_b = soap::doubles_with_serialized_length(n, kChars, 3);
    auto a = values;
    auto b = values;
    for (std::size_t i = 0; i < n; i += 10) {
      a[i] = pool_a[i];
      b[i] = pool_b[i];
    }
    base = soap::make_double_array_call(values);
    call_a = soap::make_double_array_call(std::move(a));
    call_b = soap::make_double_array_call(std::move(b));
  }
};

void register_scan_ablation(bool bulk, const std::string& variant) {
  register_series(
      "AblationDut/CompareUpdate_" + variant + "_10pctDirty/Double",
      [bulk](benchmark::State& state, std::size_t n) {
        const SparseWorkload w(n);
        core::TemplateConfig config;
        config.bulk.enable = bulk;
        auto tmpl = core::build_template(w.base, config);
        bool flip = false;
        std::uint64_t runs = 0;
        std::int64_t scan_ns = 0;
        std::int64_t rewrite_ns = 0;
        for (auto _ : state) {
          flip = !flip;
          const core::UpdateResult result =
              core::update_template(*tmpl, flip ? w.call_a : w.call_b);
          runs += result.bulk_runs;
          scan_ns += result.scan_ns;
          rewrite_ns += result.rewrite_ns;
          benchmark::DoNotOptimize(result.values_rewritten);
        }
        state.counters["bulk_runs"] = static_cast<double>(runs);
        state.counters["scan_ns"] = static_cast<double>(scan_ns);
        state.counters["rewrite_ns"] = static_cast<double>(rewrite_ns);
      });

  register_series(
      "AblationDut/DirtyUpdate_" + variant + "_10pctDirty/Double",
      [bulk](benchmark::State& state, std::size_t n) {
        const SparseWorkload w(n);
        core::TemplateConfig config;
        config.bulk.enable = bulk;
        auto tmpl = core::build_template(w.base, config);
        bool flip = false;
        for (auto _ : state) {
          flip = !flip;
          for (std::size_t i = 0; i < n; i += 10) {
            tmpl->dut().mark_dirty(i);
          }
          const core::UpdateResult result =
              core::update_dirty_fields(*tmpl, flip ? w.call_a : w.call_b);
          benchmark::DoNotOptimize(result.values_rewritten);
        }
      });
}

/// Serial-vs-pool pairs over one value pattern: every `stride`-th element
/// flips between two same-width pools. `dirty_mode` drives
/// update_dirty_fields (dirty bits set by the caller) instead of the
/// comparison scan of update_template.
void register_pool_pair(bool dirty_mode, std::size_t stride,
                        const std::string& name) {
  for (const std::size_t n : {std::size_t{65536}, std::size_t{100000}}) {
    if (const char* cap = std::getenv("BSOAP_BENCH_MAX_N")) {
      if (n > static_cast<std::size_t>(std::atoll(cap))) continue;
    }
    auto* b = benchmark::RegisterBenchmark(
        (name + "/" + std::to_string(n)).c_str(),
        [dirty_mode, stride, n](benchmark::State& state) {
          constexpr int kChars = 18;
          const auto values = soap::doubles_with_serialized_length(n, kChars, 1);
          const auto pool_a = soap::doubles_with_serialized_length(n, kChars, 2);
          const auto pool_b = soap::doubles_with_serialized_length(n, kChars, 3);
          auto a = values;
          auto b = values;
          for (std::size_t i = 0; i < n; i += stride) {
            a[i] = pool_a[i];
            b[i] = pool_b[i];
          }
          const soap::RpcCall calls[2] = {
              soap::make_double_array_call(std::move(a)),
              soap::make_double_array_call(std::move(b))};

          core::TemplateConfig pool_cfg;
          pool_cfg.stuffing.mode = core::StuffingPolicy::Mode::kTypeMax;
          core::TemplateConfig serial_cfg = pool_cfg;
          serial_cfg.bulk.parallel_min_leaves =
              std::numeric_limits<std::size_t>::max();
          const soap::RpcCall base = soap::make_double_array_call(values);
          auto serial = core::build_template(base, serial_cfg);
          auto pooled = core::build_template(base, pool_cfg);

          std::size_t round = 0;
          auto timed = [&](core::MessageTemplate& tmpl) {
            const soap::RpcCall& call = calls[round % 2];
            if (dirty_mode) {
              for (std::size_t i = 0; i < n; i += stride) {
                tmpl.dut().mark_dirty(i);
              }
            }
            const auto t0 = std::chrono::steady_clock::now();
            const core::UpdateResult r =
                dirty_mode ? core::update_dirty_fields(tmpl, call)
                           : core::update_template(tmpl, call);
            const auto t1 = std::chrono::steady_clock::now();
            benchmark::DoNotOptimize(r.values_rewritten);
            return static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                    .count());
          };
          // One untimed round per side: starts the pool's threads and
          // faults in both templates.
          (void)timed(*serial);
          (void)timed(*pooled);
          ++round;

          std::vector<double> ratios;
          double serial_sum = 0;
          double pool_sum = 0;
          for (auto _ : state) {
            double serial_ns;
            double pool_ns;
            if (round % 2 == 0) {
              serial_ns = timed(*serial);
              pool_ns = timed(*pooled);
            } else {
              pool_ns = timed(*pooled);
              serial_ns = timed(*serial);
            }
            ++round;
            if (pool_ns > 0) ratios.push_back(serial_ns / pool_ns);
            serial_sum += serial_ns;
            pool_sum += pool_ns;
            state.SetIterationTime(pool_ns / 1e9);
          }
          std::nth_element(ratios.begin(), ratios.begin() + ratios.size() / 2,
                           ratios.end());
          const double iters = static_cast<double>(state.iterations());
          state.counters["pool_speedup"] =
              ratios.empty() ? 0.0 : ratios[ratios.size() / 2];
          state.counters["serial_us"] = serial_sum / iters / 1e3;
          state.counters["pool_us"] = pool_sum / iters / 1e3;
        });
    b->Iterations(30)->Unit(benchmark::kMillisecond)->UseManualTime();
  }
}

void register_figure() {
  for (const bool dirty_mode : {false, true}) {
    const std::string mode = dirty_mode ? "Dirty" : "Compare";
    register_pool_pair(dirty_mode, 100,
                       "AblationDut/UpdatePool_" + mode + "_1pctDirty/Double");
    register_pool_pair(dirty_mode, 10,
                       "AblationDut/UpdatePool_" + mode + "_10pctDirty/Double");
  }
  register_scan_ablation(/*bulk=*/true, "Bulk");
  register_scan_ablation(/*bulk=*/false, "Scalar");
  register_series("AblationDut/CompareScan_NoChanges/Double",
                  [](benchmark::State& state, std::size_t n) {
                    const soap::RpcCall call = soap::make_double_array_call(
                        soap::random_doubles(n, 1));
                    core::TemplateConfig config;
                    auto tmpl = core::build_template(call, config);
                    for (auto _ : state) {
                      const core::UpdateResult result =
                          core::update_template(*tmpl, call);
                      benchmark::DoNotOptimize(result.values_rewritten);
                    }
                  });

  register_series("AblationDut/DirtyScan_NoChanges/Double",
                  [](benchmark::State& state, std::size_t n) {
                    const soap::RpcCall call = soap::make_double_array_call(
                        soap::random_doubles(n, 1));
                    core::TemplateConfig config;
                    auto tmpl = core::build_template(call, config);
                    for (auto _ : state) {
                      const core::UpdateResult result =
                          core::update_dirty_fields(*tmpl, call);
                      benchmark::DoNotOptimize(result.values_rewritten);
                    }
                  });

  register_series("AblationDut/DirtyBitShortCircuit/Double",
                  [](benchmark::State& state, std::size_t n) {
                    const soap::RpcCall call = soap::make_double_array_call(
                        soap::random_doubles(n, 1));
                    core::TemplateConfig config;
                    auto tmpl = core::build_template(call, config);
                    for (auto _ : state) {
                      // The client's clean-send path: one counter check.
                      benchmark::DoNotOptimize(tmpl->dut().any_dirty());
                    }
                  });

  register_series("AblationDut/FullBuild_Reference/Double",
                  [](benchmark::State& state, std::size_t n) {
                    const soap::RpcCall call = soap::make_double_array_call(
                        soap::random_doubles(n, 1));
                    core::TemplateConfig config;
                    auto tmpl = core::build_template(call, config);
                    for (auto _ : state) {
                      core::rebuild_template(*tmpl, call);
                      benchmark::DoNotOptimize(tmpl->buffer().total_size());
                    }
                  });
}

}  // namespace

BSOAP_BENCH_MAIN(register_figure)
