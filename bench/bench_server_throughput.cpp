// Server throughput: requests/second against the bounded worker-pool
// runtime, workers x {full re-serialization, differential responses on the
// blocking engine, differential responses on the reactor engine}. Every
// differential series runs the default per-worker template stores.
//
// Each point runs one persistent keep-alive client connection per worker
// (on the blocking engine a keep-alive connection pins its worker, so this
// saturates the pool), every client performing full RPC round trips (send
// + parse response) over kShapes distinct RPC shapes, staggered so
// different clients are on different shapes at any instant. The handler
// returns a fixed double array per shape, so steady-state responses leave
// via the content-match fast path. A warmup phase populates the template
// stores before the timed loop. The counters check_match_kinds.py gates:
//
//   steady_first_time — responses serialized from scratch after warmup.
//     On the blocking engine every worker has met every shape during
//     warmup, so this stays within `shapes`.
//   first_time_total — responses serialized from scratch over the whole
//     run. Reactor dispatch does not pin connections, so a worker may
//     first meet a shape after warmup; but each worker serializes a shape
//     at most once while it stays stored, so this is <= workers x shapes.
//   template_evictions — store evictions over the run; 0 here, since each
//     store's capacity exceeds `shapes`. A warm template is only ever
//     rebuilt after an eviction.
//   retained_bytes — template memory at the end of the run (workers x
//     shapes templates).
//
// The acceptance bar is diff >= full at every worker count (items_per_second
// column; higher is better).
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/client.hpp"
#include "server/server_runtime.hpp"
#include "soap/workload.hpp"

namespace {

using namespace bsoap;
using namespace bsoap::bench;

/// Response payload baseline: large enough that response serialization
/// dominates the handler cost. BSOAP_BENCH_MAX_N caps it for quick runs.
std::size_t response_array_size() {
  std::size_t n = 500;
  if (const char* cap = std::getenv("BSOAP_BENCH_MAX_N")) {
    const auto max_n = static_cast<std::size_t>(std::atoll(cap));
    if (max_n >= 1 && max_n < n) n = max_n;
  }
  return n;
}

constexpr std::size_t kShapes = 4;
constexpr int kRequestsPerClient = 40;
constexpr int kWarmupRounds = 2;

enum class Mode { kFull, kPerWorker, kReactor };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kFull: return "full";
    case Mode::kPerWorker: return "perworker";
    case Mode::kReactor: return "reactor";
  }
  return "?";
}

void bench_point(benchmark::State& state, std::size_t workers, Mode mode) {
  // kShapes distinct response array lengths -> distinct response structure
  // signatures, so the server juggles several templates, not one.
  const std::size_t base = response_array_size();
  std::vector<std::vector<double>> payloads;
  for (std::size_t s = 0; s < kShapes; ++s) {
    payloads.push_back(soap::random_doubles(base + 7 * s, 7 + s));
  }

  server::ServerRuntimeOptions options;
  options.workers = workers;
  options.diff_responses = mode != Mode::kFull;
  // The reactor series is the "perworker" differential setup on the epoll
  // engine, so the delta between the two isolates the connection core.
  options.io_model = mode == Mode::kReactor ? server::IoModel::kReactor
                                            : server::IoModel::kBlocking;
  auto server = must(server::ServerRuntime::start(
      [&payloads](const soap::RpcCall& call) -> Result<soap::Value> {
        const std::size_t shape =
            static_cast<std::size_t>(call.params[0].value.as_int()) % kShapes;
        return soap::Value::from_double_array(payloads[shape]);
      },
      options));

  std::vector<soap::RpcCall> calls(kShapes);
  for (std::size_t s = 0; s < kShapes; ++s) {
    calls[s].method = "fetch";
    calls[s].service_namespace = "urn:bsoap-bench";
    calls[s].params.push_back(
        soap::Param{"key", soap::Value::from_int(static_cast<std::int32_t>(s))});
  }

  struct ClientSlot {
    std::unique_ptr<net::Transport> transport;
    std::unique_ptr<core::BsoapClient> client;
  };
  const std::size_t client_count = workers;
  std::vector<ClientSlot> slots(client_count);
  for (ClientSlot& slot : slots) {
    slot.transport = must(net::tcp_connect(server->port()));
    slot.client = std::make_unique<core::BsoapClient>(*slot.transport);
  }

  std::atomic<int> errors{0};
  // Client c starts at shape c, so at any instant the pool is spread across
  // shapes.
  const auto run_rounds = [&](int rounds) {
    std::vector<std::thread> threads;
    threads.reserve(client_count);
    for (std::size_t c = 0; c < client_count; ++c) {
      threads.emplace_back([&, c] {
        ClientSlot& slot = slots[c];
        for (int i = 0; i < rounds; ++i) {
          const std::size_t shape = (c + static_cast<std::size_t>(i)) % kShapes;
          if (!slot.client->invoke(calls[shape]).ok()) {
            errors.fetch_add(1);
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  };

  // Warmup: every client touches every shape under full concurrency, so
  // the first-time builds land before the steady-state snapshot.
  run_rounds(kWarmupRounds * static_cast<int>(kShapes));
  const server::ServerStats warm = server->stats();

  const auto timed_start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    run_rounds(kRequestsPerClient);
  }
  const double timed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    timed_start)
          .count();
  if (errors.load() != 0) {
    state.SkipWithError("request failed");
  }
  const server::ServerStats done = server->stats();

  const std::int64_t total_requests = state.iterations() *
                                      static_cast<std::int64_t>(client_count) *
                                      kRequestsPerClient;
  state.SetItemsProcessed(total_requests);
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["shapes"] = static_cast<double>(kShapes);
  state.counters["diff"] = mode != Mode::kFull ? 1 : 0;
  state.counters["reactor"] = mode == Mode::kReactor ? 1 : 0;
  // Explicit rate for the cross-engine gate in check_match_kinds.py (the
  // JSON reporter records counters, not google-benchmark's derived rates).
  state.counters["req_per_s"] =
      timed_seconds > 0 ? static_cast<double>(total_requests) / timed_seconds
                        : 0;
  state.counters["steady_first_time"] =
      static_cast<double>(done.response_first_time - warm.response_first_time);
  state.counters["first_time_total"] =
      static_cast<double>(done.response_first_time);
  state.counters["template_evictions"] =
      static_cast<double>(done.response_template_evictions);
  state.counters["retained_bytes"] =
      static_cast<double>(done.response_template_bytes);
  server->stop();
}

// ---------------------------------------------------------------------------
// Idle-connection axis: req/s for a handful of active clients while a fleet
// of mostly-idle keep-alive connections sits on the server. The blocking
// engine's workers are pinned by whichever idle connections got them (and
// its queue fills with more), so active clients starve as the fleet grows;
// the reactor parks the fleet in epoll and keeps serving. Measured over a
// fixed wall-clock window (a fixed request count would never finish on the
// starved engine).
//
// Both engines run in the SAME benchmark, measured in alternating windows
// within every iteration: the reactor-vs-blocking ratio is what
// check_match_kinds.py gates, and on a busy single-core box two series run
// seconds apart see different machine conditions — interleaving makes the
// ratio drift-immune. The quiescent engine costs nothing meaningful while
// the other is measured (epoll sleeps; blocked workers poll 20 ms slices).

constexpr std::size_t kIdleWorkers = 4;
constexpr int kActiveClients = 4;
constexpr auto kWindow = std::chrono::milliseconds(250);

void bench_idle_pair(benchmark::State& state, std::size_t idle_conns) {
  const std::vector<double> payload =
      soap::random_doubles(response_array_size(), 7);

  const auto start_server = [&](server::IoModel model) {
    server::ServerRuntimeOptions options;
    options.workers = kIdleWorkers;
    options.io_model = model;
    options.max_connections = idle_conns + 64;
    return must(server::ServerRuntime::start(
        [&payload](const soap::RpcCall&) -> Result<soap::Value> {
          return soap::Value::from_double_array(payload);
        },
        options));
  };
  auto blocking_server = start_server(server::IoModel::kBlocking);
  auto reactor_server = start_server(server::IoModel::kReactor);

  // One idle fleet per engine: connect and go silent. On the blocking
  // engine most of these are answered 503 or sit in the accept queue —
  // that is the pathology being measured, not a setup error.
  const auto open_fleet = [&](std::uint16_t port) {
    std::vector<std::unique_ptr<net::Transport>> fleet;
    fleet.reserve(idle_conns);
    for (std::size_t i = 0; i < idle_conns; ++i) {
      Result<std::unique_ptr<net::Transport>> conn = net::tcp_connect(port);
      if (conn.ok()) fleet.push_back(std::move(conn.value()));
    }
    return fleet;
  };
  const auto blocking_fleet = open_fleet(blocking_server->port());
  const auto reactor_fleet = open_fleet(reactor_server->port());

  soap::RpcCall call;
  call.method = "fetch";
  call.service_namespace = "urn:bsoap-bench";
  call.params.push_back(soap::Param{"key", soap::Value::from_int(0)});

  // Runs one fixed window of active clients against `port`; returns
  // completed round trips.
  const auto run_window = [&](std::uint16_t port) {
    std::atomic<long> completed{0};
    const auto deadline = std::chrono::steady_clock::now() + kWindow;
    std::vector<std::thread> threads;
    threads.reserve(kActiveClients);
    for (int c = 0; c < kActiveClients; ++c) {
      threads.emplace_back([&] {
        std::unique_ptr<net::Transport> transport;
        std::unique_ptr<core::BsoapClient> client;
        while (std::chrono::steady_clock::now() < deadline) {
          if (client == nullptr) {
            Result<std::unique_ptr<net::Transport>> conn =
                net::tcp_connect(port);
            if (!conn.ok()) continue;
            transport = std::move(conn.value());
            client = std::make_unique<core::BsoapClient>(*transport);
          }
          if (client->invoke(call).ok()) {
            completed.fetch_add(1);
          } else {
            client.reset();  // rejected/starved: reconnect and keep trying
            transport.reset();
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return completed.load();
  };

  long blocking_completed = 0;
  long reactor_completed = 0;
  double blocking_seconds = 0;
  double reactor_seconds = 0;
  const auto timed_window = [&](std::uint16_t port, long& completed,
                                double& seconds) {
    const auto begin = std::chrono::steady_clock::now();
    completed += run_window(port);
    seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             begin)
                   .count();
  };
  for (auto _ : state) {
    timed_window(blocking_server->port(), blocking_completed,
                 blocking_seconds);
    timed_window(reactor_server->port(), reactor_completed, reactor_seconds);
  }

  state.SetItemsProcessed(blocking_completed + reactor_completed);
  state.counters["idle_conns"] = static_cast<double>(idle_conns);
  state.counters["req_per_s_blocking"] =
      blocking_seconds > 0
          ? static_cast<double>(blocking_completed) / blocking_seconds
          : 0;
  state.counters["req_per_s_reactor"] =
      reactor_seconds > 0
          ? static_cast<double>(reactor_completed) / reactor_seconds
          : 0;
  const server::ServerStats blocking_stats = blocking_server->stats();
  const server::ServerStats reactor_stats = reactor_server->stats();
  state.counters["held_conns_blocking"] =
      static_cast<double>(blocking_stats.active);
  state.counters["held_conns_reactor"] =
      static_cast<double>(reactor_stats.active);
  state.counters["rejected_blocking"] =
      static_cast<double>(blocking_stats.rejected);
  state.counters["rejected_reactor"] =
      static_cast<double>(reactor_stats.rejected);
  blocking_server->stop();
  reactor_server->stop();
}

void register_bench() {
  for (const Mode mode : {Mode::kFull, Mode::kPerWorker, Mode::kReactor}) {
    for (const std::size_t workers :
         {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      // Mode before the numeric suffix: the JSON reporter parses the
      // trailing "/N" as the series point, so workers must come last.
      const std::string name = std::string("ServerThroughput/") +
                               mode_name(mode) + "/workers/" +
                               std::to_string(workers);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [workers, mode](benchmark::State& state) {
            bench_point(state, workers, mode);
          })
          ->Iterations(3)
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
    }
  }
  for (const std::size_t idle_conns : {std::size_t{0}, std::size_t{1000}}) {
    const std::string name =
        std::string("ServerIdleConnections/paired/idle/") +
        std::to_string(idle_conns);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [idle_conns](benchmark::State& state) {
          bench_idle_pair(state, idle_conns);
        })
        ->Iterations(4)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
}

}  // namespace

BSOAP_BENCH_MAIN(register_bench)
