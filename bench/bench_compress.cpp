// Wire compression on the wire: actual bytes per request with and without
// the template-preset DEFLATE layer, as the fraction of dirty values grows.
//
// Each point runs a real client/server round trip (ServerRuntime, pooled
// BsoapClient) with every dialed connection wrapped in a byte-counting
// transport, and a SendObserver recording the payload bytes and compression
// CPU of every send. Series (the trailing /N is dirty values per mille):
//
//   WireCompress/fullid/N      — re-offer workload (the client drops its
//     template before each request, so every send is a first-time full
//     re-offer) with identity coding: every send is the full envelope.
//   WireCompress/fullpreset/N  — same workload, deflate-preset coding: each
//     re-offer compresses against the previous pin generation's dictionary,
//     which the body is near-identical to. This is the re-offer series the
//     acceptance gate measures.
//   WireCompress/patchid/N     — stuffed workload (same-width rewrites stay
//     in place): steady state sends uncompressed patch frames.
//   WireCompress/patchpreset/N — same workload from a preset-coding client:
//     patch frames still go uncoded (indexing the dictionary would cost more
//     than the few hundred bytes it could save).
//   WireCompress/decode/N      — informational, no gate: one preset-coded
//     re-offer decoded against the previous body's tail (the server's
//     inflate of a coded re-offer), ns/op per decode. Back-references are
//     most of such a body, so this series follows the inflate copy loop.
//
// Identity and preset series mutate the same positions with the same values
// (same RNG seed per point), so the byte ratios isolate the coding layer.
// check_match_kinds.py gates: fullpreset wire bytes <= 0.5x fullid at every
// dirty rate (the >= 2x reduction the preset layer exists for) with every
// re-offer coded, patchpreset sends no coded frame and the same payload
// bytes as patchid, and every WireCompress entry reports failed == 0.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "buffer/sinks.hpp"
#include "common/rng.hpp"
#include "compress/deflate.hpp"
#include "core/client.hpp"
#include "http/content_coding.hpp"
#include "net/tcp.hpp"
#include "server/server_runtime.hpp"
#include "soap/envelope_writer.hpp"
#include "soap/workload.hpp"

namespace {

using namespace bsoap;
using namespace bsoap::bench;

/// Request payload size. BSOAP_BENCH_MAX_N caps it for quick runs, but with
/// a floor of 256: the cross-series byte gates compare whole requests, and
/// on a tiny body the fixed HTTP head would dominate both sides.
std::size_t payload_size() {
  std::size_t n = 1000;
  if (const char* cap = std::getenv("BSOAP_BENCH_MAX_N")) {
    const auto max_n = static_cast<std::size_t>(std::atoll(cap));
    if (max_n >= 1 && max_n < n) n = std::max<std::size_t>(max_n, 256);
  }
  return n;
}

constexpr int kRequestsPerIter = 48;

enum class Mode { kFullIdentity, kFullPreset, kPatchIdentity, kPatchPreset };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kFullIdentity: return "fullid";
    case Mode::kFullPreset: return "fullpreset";
    case Mode::kPatchIdentity: return "patchid";
    case Mode::kPatchPreset: return "patchpreset";
  }
  return "?";
}

bool is_patch_mode(Mode mode) {
  return mode == Mode::kPatchIdentity || mode == Mode::kPatchPreset;
}

bool is_preset_mode(Mode mode) {
  return mode == Mode::kFullPreset || mode == Mode::kPatchPreset;
}

/// Counts every byte the client puts on the wire (heads + bodies), pass
///-through otherwise.
class CountingTransport final : public net::Transport {
 public:
  CountingTransport(std::unique_ptr<net::Transport> inner,
                    std::atomic<std::uint64_t>* bytes)
      : inner_(std::move(inner)), bytes_(bytes) {}

  Status send(const char* data, std::size_t n) override {
    bytes_->fetch_add(n, std::memory_order_relaxed);
    return inner_->send(data, n);
  }
  Status send_slices(std::span<const net::ConstSlice> slices) override {
    std::uint64_t total = 0;
    for (const net::ConstSlice& slice : slices) total += slice.len;
    bytes_->fetch_add(total, std::memory_order_relaxed);
    return inner_->send_slices(slices);
  }
  Result<std::size_t> recv(char* out, std::size_t n) override {
    return inner_->recv(out, n);
  }
  void shutdown_send() override { inner_->shutdown_send(); }
  void shutdown_both() override { inner_->shutdown_both(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  std::atomic<std::uint64_t>* bytes_;
};

/// Records the per-send payload bytes (the coded size when a send went out
/// compressed) and the compression CPU — the wire-bytes x CPU trade the
/// JSON counters expose per series.
class CodingObserver final : public core::SendObserver {
 public:
  void on_stage(core::SendStage, std::int64_t, std::size_t) override {}
  void on_send(const core::SendReport& report) override {
    payload_bytes += report.envelope_bytes;
    coding_ns += report.coding_ns;
    bytes_saved += report.coding_bytes_saved;
    if (report.coding != http::ContentCoding::kIdentity) ++compressed_sends;
  }

  void reset() {
    payload_bytes = 0;
    coding_ns = 0;
    bytes_saved = 0;
    compressed_sends = 0;
  }

  std::uint64_t payload_bytes = 0;
  std::int64_t coding_ns = 0;
  std::uint64_t bytes_saved = 0;
  std::uint64_t compressed_sends = 0;
};

Result<soap::Value> sum_handler(const soap::RpcCall& call) {
  double total = 0;
  for (const double v : call.params[0].value.doubles()) total += v;
  return soap::Value::from_double(total);
}

void bench_point(benchmark::State& state, int permille, Mode mode) {
  server::ServerRuntimeOptions options;
  options.workers = 2;
  auto server = must(server::ServerRuntime::start(sum_handler, options));

  std::atomic<std::uint64_t> sent_bytes{0};
  const std::uint16_t port = server->port();
  net::Dialer dial = [port,
                      &sent_bytes]() -> Result<std::unique_ptr<net::Transport>> {
    Result<std::unique_ptr<net::Transport>> conn = net::tcp_connect(port);
    if (!conn.ok()) return conn.error();
    return std::unique_ptr<net::Transport>(std::make_unique<CountingTransport>(
        std::move(conn.value()), &sent_bytes));
  };

  core::BsoapClientConfig config;
  if (is_patch_mode(mode)) {
    // Stuffed numeric fields keep value rewrites in place — the perfect
    // structural matches the patch series measure.
    config.tmpl.stuffing.mode = core::StuffingPolicy::Mode::kTypeMax;
    config.tmpl.stuffing.stuff_on_expand = true;
  }
  config.with_diffwire(true);
  if (is_preset_mode(mode)) {
    config.with_compression(http::ContentCoding::kDeflatePreset,
                            /*min_body_bytes=*/64);
  }
  core::BsoapClient client(dial, config);
  CodingObserver observer;
  client.pipeline().set_observer(&observer);

  const std::size_t n = payload_size();
  const std::size_t dirty = std::max<std::size_t>(
      1, n * static_cast<std::size_t>(permille) / 1000);
  std::vector<double> values = soap::doubles_with_serialized_length(n, 17, 7);
  // Seeded by permille only: identity and preset series mutate identical
  // positions with identical replacement values.
  bsoap::Rng rng(static_cast<std::uint64_t>(permille) * 6151 + 29);

  // Warmup: first send builds the template, pins, and acks (preset modes
  // also ack the coding and capture the pin generation's dictionary).
  must(client.invoke(soap::make_double_array_call(values)));
  sent_bytes.store(0, std::memory_order_relaxed);
  observer.reset();

  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  for (auto _ : state) {
    for (int i = 0; i < kRequestsPerIter; ++i) {
      for (std::size_t d = 0; d < dirty; ++d) {
        values[rng.next_below(n)] = soap::double_with_serialized_length(rng, 17);
      }
      const soap::RpcCall call = soap::make_double_array_call(values);
      if (!is_patch_mode(mode)) {
        // A dropped template makes every send a first-time full re-offer.
        client.store().erase(call.structure_signature());
      }
      if (!client.invoke(call).ok()) ++failed;
      ++requests;
    }
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(requests));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dirty"] = static_cast<double>(dirty);
  state.counters["requests"] = static_cast<double>(requests);
  state.counters["failed"] = static_cast<double>(failed);
  state.counters["wire_bytes_per_req"] =
      requests > 0 ? static_cast<double>(sent_bytes.load()) /
                         static_cast<double>(requests)
                   : 0;
  state.counters["payload_bytes_per_req"] =
      requests > 0 ? static_cast<double>(observer.payload_bytes) /
                         static_cast<double>(requests)
                   : 0;
  state.counters["coding_cpu_ns_per_req"] =
      requests > 0 ? static_cast<double>(observer.coding_ns) /
                         static_cast<double>(requests)
                   : 0;
  state.counters["compressed_sends"] =
      static_cast<double>(observer.compressed_sends);
  state.counters["coding_bytes_saved"] =
      static_cast<double>(observer.bytes_saved);
  if (const diffwire::ClientDiffStats* ds = client.diffwire_stats()) {
    state.counters["offers_sent"] = static_cast<double>(ds->offers_sent);
    state.counters["patch_sends"] = static_cast<double>(ds->patch_sends);
    state.counters["patch_nacks"] = static_cast<double>(ds->patch_nacks);
  }
  server->stop();
}

std::string envelope_of(const std::vector<double>& values) {
  buffer::StringSink sink;
  soap::write_rpc_envelope(sink, soap::make_double_array_call(values));
  return sink.take();
}

void bench_decode(benchmark::State& state, int permille) {
  const std::size_t n = payload_size();
  std::vector<double> values = soap::doubles_with_serialized_length(n, 17, 7);
  const std::string before = envelope_of(values);
  bsoap::Rng rng(static_cast<std::uint64_t>(permille) * 7919 + 17);
  const std::size_t dirty = std::max<std::size_t>(
      1, n * static_cast<std::size_t>(permille) / 1000);
  for (std::size_t d = 0; d < dirty; ++d) {
    values[rng.next_below(n)] = soap::double_with_serialized_length(rng, 17);
  }
  const std::string after = envelope_of(values);
  constexpr std::size_t kWindow = 32 * 1024;
  const std::string_view dict =
      std::string_view(before).substr(before.size() > kWindow
                                          ? before.size() - kWindow
                                          : 0);
  const std::string coded = compress::zlib_compress(after, dict);
  std::uint64_t failed = 0;
  for (auto _ : state) {
    const Result<std::string> out =
        compress::zlib_decompress(coded, after.size(), dict);
    if (!out.ok() || out.value() != after) ++failed;
    benchmark::DoNotOptimize(out);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["failed"] = static_cast<double>(failed);
  state.counters["body_bytes"] = static_cast<double>(after.size());
  state.counters["coded_bytes"] = static_cast<double>(coded.size());
}

void register_bench() {
  for (const Mode mode : {Mode::kFullIdentity, Mode::kFullPreset,
                          Mode::kPatchIdentity, Mode::kPatchPreset}) {
    for (const int permille : {1, 10, 100}) {
      // Mode before the numeric suffix: the JSON reporter parses the
      // trailing "/N" as the series point.
      const std::string name = std::string("WireCompress/") +
                               mode_name(mode) + "/" +
                               std::to_string(permille);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [permille, mode](benchmark::State& state) {
            bench_point(state, permille, mode);
          })
          ->Iterations(2)
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
    }
  }
  for (const int permille : {1, 10, 100}) {
    benchmark::RegisterBenchmark(
        ("WireCompress/decode/" + std::to_string(permille)).c_str(),
        [permille](benchmark::State& state) { bench_decode(state, permille); })
        ->Iterations(200)
        ->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace

BSOAP_BENCH_MAIN(register_bench)
