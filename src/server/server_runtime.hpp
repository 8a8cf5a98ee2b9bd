// Production-shaped SOAP server runtime.
//
// Replaces the thread-per-connection test harness with the pool model a
// heavily loaded service needs (the ROADMAP's "millions of users" north
// star, and where related work locates the win — response serialization
// dominates service cost in the measurements of arXiv:0911.0488 and
// arXiv:1903.07001):
//
//   accept thread ──► bounded AcceptQueue ──► N worker threads
//        │503 when full / over max_connections       │
//        ▼                                           ▼
//   overload is an HTTP answer,        each worker serves one connection
//   not an unbounded thread            at a time (keep-alive loop) through
//                                      a PacedTransport (idle/read
//                                      deadlines, drain wakeup)
//
// Response-side differential serialization: every worker owns a
// core::SendPipeline whose TemplateStore keys response templates by the
// response's structure signature (which covers method + namespace + shape),
// so a repeated RPC's response leaves via the paper's MCM/PSM fast paths —
// the Section 6 future work, applied on the way *out*. The stores are
// private to their workers (no locking on the send path), so each worker
// serializes a given response shape from scratch at most once while the
// shape stays in its store. ServerStats exposes the per-match-kind counts
// so tests and dashboards can see the hit rate.
//
// Lifecycle: stop() drains gracefully — accepting ends, queued-but-unserved
// connections get 503, idle keep-alive connections end at their next poll
// slice, and every request already being processed is answered before its
// worker exits. No accepted in-flight request is dropped.
//
// Two connection engines sit in front of the same worker pool, selected by
// ServerRuntimeOptions::io_model:
//
//   kBlocking — the pool model above: a worker owns one connection at a
//     time and blocks in paced reads between its requests.
//   kReactor  — an epoll loop (server/reactor.hpp) owns every connection;
//     workers only ever see complete requests (via a bounded DispatchQueue)
//     and serialize responses into a capture buffer the loop drains by
//     readiness. Idle keep-alive connections cost a registered fd instead
//     of a blocked worker, so thousands of them no longer starve the pool.
//
// Both engines share the request parser, the deadline policy, the fault
// rendering, and this class's per-request core (answer_request), so a given
// request sequence produces byte-identical responses on either.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/send_pipeline.hpp"
#include "diffwire/replica_store.hpp"
#include "http/content_coding.hpp"
#include "server/accept_queue.hpp"
#include "server/reactor.hpp"
#include "server/recv_observer.hpp"
#include "server/server_stats.hpp"
#include "soap/soap_server.hpp"

namespace bsoap::net {
class TcpListener;
}  // namespace bsoap::net

namespace bsoap::server {

/// Which connection engine fronts the worker pool.
enum class IoModel {
  kBlocking,  ///< thread-per-served-connection, paced blocking reads
  kReactor,   ///< epoll readiness loop, workers see only complete requests
};

struct ServerRuntimeOptions {
  /// Fixed worker pool size: at most this many connections are served
  /// concurrently.
  std::size_t workers = 4;
  /// Connections waiting for a worker beyond that; the next one is answered
  /// 503.
  std::size_t accept_backlog = 64;
  /// Cap on open connections (queued + serving); admission beyond it is 503.
  std::size_t max_connections = 128;

  /// Connection engine. kReactor multiplexes every connection onto one
  /// epoll loop; mostly-idle keep-alive fleets scale with fds, not worker
  /// threads. Request/response bytes are identical either way.
  IoModel io_model = IoModel::kBlocking;

  std::chrono::milliseconds idle_timeout{30000};  ///< between requests
  std::chrono::milliseconds read_timeout{10000};  ///< whole-request arrival
  std::chrono::milliseconds poll_slice{20};       ///< drain/deadline latency

  /// Serialize responses differentially through each worker's saved
  /// templates; false re-serializes every response from scratch (the
  /// baseline the throughput bench compares against).
  bool diff_responses = true;
  core::TemplateConfig response_tmpl;
  std::size_t response_templates = 16;       ///< per-worker LRU capacity
  std::size_t response_template_bytes = 0;   ///< per-worker byte budget (0 = off)

  /// Accept the diff-wire patch protocol: pin request bodies clients offer
  /// (X-BSoap-Diff: v1), apply patch frames onto the pinned replicas, and
  /// NACK (HTTP 409) anything unusable so the client falls back to full
  /// sends. Non-negotiating clients are unaffected either way.
  bool diffwire = true;
  std::size_t diffwire_replicas = 64;      ///< pinned bodies retained (LRU)
  /// Byte budget over pinned bodies, preset dictionaries and cached parses
  /// (0 = unlimited).
  std::size_t diffwire_replica_bytes = 0;

  /// Differential deserialization: each pinned replica carries a cached
  /// parse (core::ParsedReplica), so a patch send re-parses only the
  /// leaves its dirty runs touch and a header-only replay serves the
  /// handler with zero parse work. Requires diffwire. Non-diff-wire
  /// requests always take the ordinary full parse; false full-parses every
  /// request (the reference the differential path is checked against).
  bool diff_deserialize = true;

  /// Optional receive-side stage observer (decode / patch-apply / parse),
  /// the mirror of core::SendObserver. Null (default) skips all timing.
  /// Must outlive the runtime; called from worker threads.
  RecvObserver* recv_observer = nullptr;

  /// Content codings the server participates in. Responses are coded per
  /// the request's Accept-Encoding (deflate preferred over gzip when both
  /// are offered and enabled); kDeflatePreset additionally acks client
  /// preset-coding offers and decodes preset-coded request bodies against
  /// the pinned replica's dictionary (requires diffwire). Clients that
  /// negotiate nothing are unaffected, so all three default on.
  std::vector<http::ContentCoding> codings{http::ContentCoding::kGzip,
                                           http::ContentCoding::kDeflate,
                                           http::ContentCoding::kDeflatePreset};
  /// Request-body bound: the most any request body may hold — as framed
  /// (Content-Length or chunked), inflated (gzip, deflate or
  /// deflate-preset), or reconstructed from a diff-wire patch. An oversized
  /// body is answered 413 Payload Too Large with a Client fault.
  std::size_t max_inflate_bytes = 1u << 30;

  ServerRuntimeOptions() {
    // Responses repeat with value changes; stuffed numeric fields keep those
    // rewrites in place (perfect structural matches instead of shifts).
    response_tmpl.stuffing.mode = core::StuffingPolicy::Mode::kTypeMax;
    response_tmpl.stuffing.stuff_on_expand = true;
  }
};

class ServerRuntime {
 public:
  /// Binds an ephemeral loopback port, starts the accept thread and the
  /// worker pool.
  static Result<std::unique_ptr<ServerRuntime>> start(
      soap::RpcHandler handler, ServerRuntimeOptions options = {});

  ~ServerRuntime();

  std::uint16_t port() const { return port_; }

  ServerStats stats() const;

  /// The diff-wire replica store, or nullptr when options.diffwire is off.
  /// Exposed so tests can invalidate replicas to force NACK fallbacks.
  diffwire::ReplicaStore* replicas() { return replicas_.get(); }

  /// Graceful drain: stops accepting, answers queued connections 503,
  /// finishes every in-flight request, joins all threads. Idempotent.
  void stop();

 private:
  /// One worker's private serving state: the response pipeline (templates
  /// are per-worker so the hot path takes no lock) plus a gauge the stats
  /// thread may read while the worker serves.
  struct Worker {
    std::unique_ptr<core::SendPipeline> pipeline;
    std::thread thread;
    std::atomic<std::uint64_t> template_bytes{0};
    std::atomic<std::uint64_t> template_evictions{0};
  };

  ServerRuntime() = default;

  void accept_loop(net::TcpListener& listener);
  void worker_loop(Worker& worker);
  void reactor_worker_loop(Worker& worker);
  void serve_connection(Worker& worker,
                        std::unique_ptr<net::Transport> transport);
  /// The per-request core both engines share: SOAP parse (400 + fault on
  /// failure), handler dispatch (500 + fault on failure), differential
  /// response serialization, stats. Writes into `transport` — the live
  /// socket on the blocking path, a DirectSliceTransport over the parked
  /// socket on the reactor path — so the bytes are identical by
  /// construction. Returns false when the write failed and the connection
  /// must close.
  /// An offered body is moved out of `request` into the replica store.
  bool answer_request(Worker& worker, http::HttpRequest& request,
                      net::Transport& transport);
  /// Serializes a SOAP fault and sends it with the given HTTP status.
  /// Returns false if the write failed (connection is dead).
  bool send_fault(net::Transport& transport, int status, const char* reason,
                  const char* fault_code, const std::string& detail);
  void reject_with_503(std::unique_ptr<net::Transport> transport);

  soap::RpcHandler handler_;
  ServerRuntimeOptions options_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> draining_{false};
  std::unique_ptr<AcceptQueue> queue_;    ///< kBlocking engine
  std::unique_ptr<DispatchQueue> dispatch_;  ///< kReactor engine
  std::unique_ptr<Reactor> reactor_;         ///< kReactor engine
  StatsCollector stats_;
  /// Diff-wire pinned request bodies (options.diffwire). Thread-safe;
  /// shared by every worker. Declared before workers_ so it outlives them.
  std::unique_ptr<diffwire::ReplicaStore> replicas_;
  std::thread accept_thread_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace bsoap::server
