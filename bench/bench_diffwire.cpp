// Diff-wire protocol on the wire: actual bytes sent per request, patch vs
// full-body, as the fraction of dirty values grows — plus a NACK-storm
// series proving the fallback path never fails a request.
//
// Each point runs a real client/server round trip (ServerRuntime with
// diff-wire enabled, pooled BsoapClient) with every dialed connection
// wrapped in a byte-counting transport, so wire_bytes_per_req is the true
// on-wire cost including HTTP heads — the number the paper's Gigabit
// Ethernet motivation cares about. Series (the trailing /N is dirty values
// per mille of the array):
//
//   DiffWire/full/N   — diff-wire off: every send is the full envelope.
//   DiffWire/patch/N  — diff-wire on: steady state sends patch frames.
//   DiffWire/nackstorm/N — diff-wire on, but the server's replica store is
//     cleared every 16 requests. Each clear NACKs the next patch; the
//     client falls back to a full send inside the same invoke and re-pins.
//   DiffWire/shift/N  — diff-wire on, exact-width fields, and every dirty
//     value takes a new width (1..24 characters) each request, so fields
//     widen (shift, steal) and narrow; the template is never dropped. The
//     partial structural matches travel as splice runs.
//
// Both series mutate the same value positions (same RNG seed per point), so
// the patch/full byte ratio isolates the protocol. check_match_kinds.py
// gates: at 1 per mille dirty, patch wire bytes <= 0.1x full wire bytes;
// every DiffWire entry reports failed == 0 (including the NACK storm).
//
// Integrity-root counters prove steady patches never hash a whole body.
// Patch and nackstorm series: the server's full_hashes (whole-replica root
// computations) must stay <= pins + repins, and the live client template's
// client_hashed_bytes (counted by its own buffer since it was built) <=
// body_bytes: every value here keeps its width, so nothing is hashed from
// scratch after the first root. The shift series gates its own counts:
// patch share >= 0.95 with zero demotions, full_hashes <= pins + repins,
// and per-request windows of bytes hashed from scratch on each side
// (window_client_hashed, window_server_hashed) within
// window_runs x 2 x piece_bytes + window_frame_bytes: a splice costs the
// piece it lands in, not the body. The frame bytes (the patch frames'
// payload: run bytes plus their headers) stand in for the run bytes.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/poly_hash.hpp"
#include "common/rng.hpp"
#include "core/client.hpp"
#include "net/tcp.hpp"
#include "server/server_runtime.hpp"
#include "soap/workload.hpp"

namespace {

using namespace bsoap;
using namespace bsoap::bench;

/// Request payload size. BSOAP_BENCH_MAX_N caps it for quick runs, but with
/// a floor of 256: the 0.1x patch/full gate compares whole requests, and on
/// a tiny body the fixed HTTP head would dominate both sides.
std::size_t payload_size() {
  std::size_t n = 1000;
  if (const char* cap = std::getenv("BSOAP_BENCH_MAX_N")) {
    const auto max_n = static_cast<std::size_t>(std::atoll(cap));
    if (max_n >= 1 && max_n < n) n = std::max<std::size_t>(max_n, 256);
  }
  return n;
}

constexpr int kRequestsPerIter = 64;
constexpr int kClearEvery = 16;  ///< nackstorm: replica wipe cadence

enum class Mode { kFull, kPatch, kNackStorm, kShift };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kFull: return "full";
    case Mode::kPatch: return "patch";
    case Mode::kNackStorm: return "nackstorm";
    case Mode::kShift: return "shift";
  }
  return "?";
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

Result<soap::Value> sum_handler(const soap::RpcCall& call) {
  double total = 0;
  for (const double v : call.params[0].value.doubles()) total += v;
  return soap::Value::from_double(total);
}

/// Sums the runs and payload bytes of the patch frames a client sends.
class PatchTally final : public core::SendObserver {
 public:
  void on_stage(core::SendStage, std::int64_t, std::size_t) override {}
  void on_send(const core::SendReport& report) override {
    if (!report.patch_send) return;
    runs += report.patch_runs;
    frame_bytes += report.envelope_bytes;
  }
  std::uint64_t runs = 0;
  std::uint64_t frame_bytes = 0;
};

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
  if (mode != Mode::kShift) {
    // Stuffed numeric fields keep value rewrites in place — perfect
    // structural matches (same config the server uses for its response
    // templates). The shift series keeps exact widths so fields move.
    config.tmpl.stuffing.mode = core::StuffingPolicy::Mode::kTypeMax;
    config.tmpl.stuffing.stuff_on_expand = true;
  }
  config.diffwire = mode != Mode::kFull;
  core::BsoapClient client(dial, config);

  const std::size_t n = payload_size();
  const std::size_t dirty = std::max<std::size_t>(
      1, n * static_cast<std::size_t>(permille) / 1000);
  std::vector<double> values = soap::doubles_with_serialized_length(n, 17, 7);
  // Seeded by permille only: full and patch series mutate identical
  // positions with identical replacement values.
  bsoap::Rng rng(static_cast<std::uint64_t>(permille) * 7919 + 17);

  // Warmup: first send builds the template and (patch modes) pins + acks.
  // The shift series also sends one patch, which hashes the template and
  // the replica once; from there on only the pieces splices land in may
  // be hashed.
  const std::uint64_t signature =
      soap::make_double_array_call(values).structure_signature();
  must(client.invoke(soap::make_double_array_call(values)));
  if (mode == Mode::kShift) {
    values[1] = soap::double_with_serialized_length(rng, 17);
    must(client.invoke(soap::make_double_array_call(values)));
  }
  sent_bytes.store(0, std::memory_order_relaxed);
  const diffwire::ClientDiffStats start =
      config.diffwire ? *client.diffwire_stats() : diffwire::ClientDiffStats{};
  const server::ServerStats server_start = server->stats();
  const diffwire::ReplicaStore::Stats replica_start =
      server->replicas()->stats();
  PatchTally tally;
  client.pipeline().set_observer(&tally);

  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t client_hashed = 0;  // shift: client bytes hashed, in window
  for (auto _ : state) {
    for (int i = 0; i < kRequestsPerIter; ++i) {
      for (std::size_t d = 0; d < dirty; ++d) {
        const std::size_t at = rng.next_below(n);
        const int width = mode == Mode::kShift
                              ? 1 + static_cast<int>(rng.next_below(24))
                              : 17;
        values[at] = soap::double_with_serialized_length(rng, width);
      }
      if (mode == Mode::kNackStorm && i % kClearEvery == 0) {
        server->replicas()->clear();
      }
      const core::MessageTemplate* tmpl = client.store().find(signature);
      const std::uint64_t hashed_before =
          tmpl != nullptr ? tmpl->buffer().hashed_bytes() : 0;
      if (!client.invoke(soap::make_double_array_call(values)).ok()) ++failed;
      ++requests;
      if (tmpl != nullptr && tmpl == client.store().find(signature)) {
        client_hashed += tmpl->buffer().hashed_bytes() - hashed_before;
      }
    }
  }
  client.pipeline().set_observer(nullptr);

  state.SetItemsProcessed(static_cast<std::int64_t>(requests));
  state.counters["n"] = static_cast<double>(n);
  state.counters["dirty"] = static_cast<double>(dirty);
  state.counters["failed"] = static_cast<double>(failed);
  state.counters["wire_bytes_per_req"] =
      requests > 0 ? static_cast<double>(sent_bytes.load()) /
                         static_cast<double>(requests)
                   : 0;
  if (const diffwire::ClientDiffStats* ds = client.diffwire_stats()) {
    state.counters["patch_sends"] = static_cast<double>(ds->patch_sends);
    state.counters["patch_replays"] = static_cast<double>(ds->patch_replays);
    state.counters["patch_nacks"] = static_cast<double>(ds->patch_nacks);
    state.counters["fallback_full"] =
        static_cast<double>(ds->fallback_full_sends);
    state.counters["bytes_saved"] = static_cast<double>(ds->bytes_saved);

    const diffwire::ReplicaStore::Stats rs = server->replicas()->stats();
    state.counters["full_hashes"] = static_cast<double>(rs.full_hashes);
    state.counters["pins"] = static_cast<double>(rs.pins);
    state.counters["repins"] = static_cast<double>(rs.repins);
    if (const core::MessageTemplate* tmpl = client.store().find(signature)) {
      state.counters["client_hashed_bytes"] =
          static_cast<double>(tmpl->buffer().hashed_bytes());
      state.counters["body_bytes"] =
          static_cast<double>(tmpl->buffer().total_size());
    }
    if (mode == Mode::kShift) {
      const server::ServerStats ss = server->stats();
      state.counters["requests"] = static_cast<double>(requests);
      state.counters["window_patch_sends"] =
          static_cast<double>(ds->patch_sends - start.patch_sends);
      state.counters["demotions"] = static_cast<double>(
          ss.deser_demotions - server_start.deser_demotions);
      state.counters["piece_bytes"] = static_cast<double>(poly::kPiece);
      state.counters["window_runs"] = static_cast<double>(tally.runs);
      state.counters["window_frame_bytes"] =
          static_cast<double>(tally.frame_bytes);
      state.counters["window_client_hashed"] =
          static_cast<double>(client_hashed);
      state.counters["window_server_hashed"] =
          static_cast<double>(rs.hashed_bytes - replica_start.hashed_bytes);
      state.counters["window_full_hashes"] =
          static_cast<double>(rs.full_hashes - replica_start.full_hashes);
      const double per_req = requests > 0 ? static_cast<double>(requests) : 1;
      state.counters["client_hashed_per_req"] =
          static_cast<double>(client_hashed) / per_req;
      state.counters["server_hashed_per_req"] =
          static_cast<double>(rs.hashed_bytes - replica_start.hashed_bytes) /
          per_req;
    }
  }
  server->stop();
}

void register_bench() {
  for (const Mode mode : {Mode::kFull, Mode::kPatch}) {
    for (const int permille : {1, 10, 100}) {
      // Mode before the numeric suffix: the JSON reporter parses the
      // trailing "/N" as the series point.
      const std::string name = std::string("DiffWire/") + mode_name(mode) +
                               "/" + std::to_string(permille);
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
  benchmark::RegisterBenchmark(
      "DiffWire/nackstorm/10",
      [](benchmark::State& state) { bench_point(state, 10, Mode::kNackStorm); })
      ->Iterations(2)
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime();
  for (const int permille : {10, 100}) {
    benchmark::RegisterBenchmark(
        ("DiffWire/shift/" + std::to_string(permille)).c_str(),
        [permille](benchmark::State& state) {
          bench_point(state, permille, Mode::kShift);
        })
        ->Iterations(2)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
}

}  // namespace

BSOAP_BENCH_MAIN(register_bench)
