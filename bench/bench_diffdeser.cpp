// Differential deserialization end to end: the server's receive-side parse
// cost per request, fused ReplicaStore + ParsedReplica path vs the
// always-full-parse baseline, as the fraction of dirty values grows.
//
// Each point runs real client/server round trips (ServerRuntime, pooled
// BsoapClient speaking the diff-wire patch protocol) with a
// RecvStageTimings observer on the server, so parse_ns_per_req is the
// measured receive parse stage — full parse, region fast parse, or the
// memory read of a content hit — not a microbenchmark of the deserializer
// in isolation. Every mode sends IDENTICAL wire traffic (patch frames);
// only the server-side parse path differs, so the ratio isolates
// differential deserialization. Series (trailing /N is dirty values per
// mille of the array):
//
//   DiffDeser/fullparse/N — diff_deserialize off: every reconstructed body
//     is parsed from scratch (the oracle baseline).
//   DiffDeser/fastparse/N — fused path: dirty runs re-parse only the
//     leaves they touch.
//   DiffDeser/replay/0    — unchanged resends cross as header-only replay
//     frames; the cached call is served with zero parse work.
//   DiffDeser/replay_large/0 — the same replays over 10,000 values, not
//     capped by BSOAP_BENCH_MAX_N: a replica apply that touches only the
//     frame's runs costs the same at either body size.
//   DiffDeser/reactor_fullparse/10, DiffDeser/reactor_fastparse/10 — the
//     same 1%-dirty comparison on the epoll engine.
//
// check_match_kinds.py gates: at <= 1% dirty the fast-parse series' parse
// stage must be >= 5x faster than full parse (both engines), clean
// fast-parse series must report zero demotions, the replay series must
// serve from the cache alone (content hits, no fast/extra full parses),
// replay_large's patch-apply stage must stay within 2x replay's, and every
// DiffDeser entry must report failed == 0.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/rng.hpp"
#include "core/client.hpp"
#include "net/tcp.hpp"
#include "server/recv_observer.hpp"
#include "server/server_runtime.hpp"
#include "soap/workload.hpp"

namespace {

using namespace bsoap;
using namespace bsoap::bench;

/// Request payload size. BSOAP_BENCH_MAX_N caps it for quick runs, with a
/// floor of 256 so the 5x parse-ratio gate compares real parse work rather
/// than fixed per-request overhead.
std::size_t payload_size() {
  std::size_t n = 1000;
  if (const char* cap = std::getenv("BSOAP_BENCH_MAX_N")) {
    const auto max_n = static_cast<std::size_t>(std::atoll(cap));
    if (max_n >= 1 && max_n < n) n = std::max<std::size_t>(max_n, 256);
  }
  return n;
}

/// The replay_large body: 10-20x the capped payload, so an apply stage that
/// scaled with the body would show it.
constexpr std::size_t kLargePayload = 10000;

constexpr int kRequestsPerIter = 64;

enum class Mode { kFullParse, kFastParse, kReplay };

Result<soap::Value> sum_handler(const soap::RpcCall& call) {
  double total = 0;
  for (const double v : call.params[0].value.doubles()) total += v;
  return soap::Value::from_double(total);
}

void bench_point(benchmark::State& state, int permille, Mode mode,
                 server::IoModel io_model, std::size_t n) {
  server::RecvStageTimings timings;
  server::ServerRuntimeOptions options;
  options.workers = 2;
  options.io_model = io_model;
  options.diff_deserialize = mode != Mode::kFullParse;
  options.recv_observer = &timings;
  auto server = must(server::ServerRuntime::start(sum_handler, options));

  const std::uint16_t port = server->port();
  net::Dialer dial = [port] { return net::tcp_connect(port); };
  core::BsoapClientConfig config;
  // Stuffed numeric fields keep value rewrites in place, so every mutated
  // resend is a perfect structural match and crosses as a patch frame —
  // identical wire traffic for every mode.
  config.tmpl.stuffing.mode = core::StuffingPolicy::Mode::kTypeMax;
  config.tmpl.stuffing.stuff_on_expand = true;
  config.diffwire = true;
  core::BsoapClient client(dial, config);

  const std::size_t dirty =
      mode == Mode::kReplay
          ? 0
          : std::max<std::size_t>(
                1, n * static_cast<std::size_t>(permille) / 1000);
  std::vector<double> values = soap::doubles_with_serialized_length(n, 17, 7);
  // Seeded by permille only: fullparse and fastparse mutate identical
  // positions with identical replacement values.
  bsoap::Rng rng(static_cast<std::uint64_t>(permille) * 6271 + 29);

  // Warmup: builds the template, pins the replica, and (fused modes)
  // primes the cached parse; an unchanged resend then builds the replica's
  // piece table, a once-per-pin cost. Stage timings restart at zero after
  // it.
  must(client.invoke(soap::make_double_array_call(values)));
  must(client.invoke(soap::make_double_array_call(values)));
  timings.reset();

  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  for (auto _ : state) {
    for (int i = 0; i < kRequestsPerIter; ++i) {
      for (std::size_t d = 0; d < dirty; ++d) {
        values[rng.next_below(n)] =
            soap::double_with_serialized_length(rng, 17);
      }
      if (!client.invoke(soap::make_double_array_call(values)).ok()) ++failed;
      ++requests;
    }
  }

  const server::RecvStageTimings::Snapshot snap = timings.snapshot();
  const server::ServerStats stats = server->stats();
  state.SetItemsProcessed(static_cast<std::int64_t>(requests));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dirty"] = static_cast<double>(dirty);
  state.counters["failed"] = static_cast<double>(failed);
  state.counters["parse_ns_per_req"] =
      requests > 0
          ? static_cast<double>(snap.parse.ns) / static_cast<double>(requests)
          : 0;
  state.counters["patch_apply_ns_per_req"] =
      requests > 0 ? static_cast<double>(snap.patch_apply.ns) /
                         static_cast<double>(requests)
                   : 0;
  // Whole-server counters (the warmup offer contributes one full parse).
  state.counters["content_hits"] = static_cast<double>(stats.deser_content_hits);
  state.counters["fast_parses"] = static_cast<double>(stats.deser_fast_parses);
  state.counters["full_parses"] = static_cast<double>(stats.deser_full_parses);
  state.counters["leaves_reparsed"] =
      static_cast<double>(stats.deser_leaves_reparsed);
  state.counters["demotions"] = static_cast<double>(stats.deser_demotions);
  state.counters["patch_nacks"] = static_cast<double>(stats.patch_nacks);
  server->stop();
}

void register_point(const std::string& name, int permille, Mode mode,
                    server::IoModel io_model,
                    std::size_t n = payload_size()) {
  benchmark::RegisterBenchmark(
      name.c_str(),
      [permille, mode, io_model, n](benchmark::State& state) {
        bench_point(state, permille, mode, io_model, n);
      })
      ->Iterations(2)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
}

void register_bench() {
  for (const int permille : {1, 10, 100}) {
    register_point("DiffDeser/fullparse/" + std::to_string(permille), permille,
                   Mode::kFullParse, server::IoModel::kBlocking);
    register_point("DiffDeser/fastparse/" + std::to_string(permille), permille,
                   Mode::kFastParse, server::IoModel::kBlocking);
  }
  // Header-only replays: the content-hit series (dirty = 0).
  register_point("DiffDeser/replay/0", 0, Mode::kReplay,
                 server::IoModel::kBlocking);
  register_point("DiffDeser/replay_large/0", 0, Mode::kReplay,
                 server::IoModel::kBlocking, kLargePayload);
  // Same 1%-dirty comparison through the epoll engine.
  register_point("DiffDeser/reactor_fullparse/10", 10, Mode::kFullParse,
                 server::IoModel::kReactor);
  register_point("DiffDeser/reactor_fastparse/10", 10, Mode::kFastParse,
                 server::IoModel::kReactor);
}

}  // namespace

BSOAP_BENCH_MAIN(register_bench)
