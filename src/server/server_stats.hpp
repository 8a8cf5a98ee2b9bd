// Runtime observability: a consistent-enough snapshot of what the server
// runtime is doing, cheap enough to sample from a monitoring thread while
// workers are serving.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/diff_serializer.hpp"

namespace bsoap::server {

/// Point-in-time counters. Individual fields are exact (atomic); the
/// snapshot as a whole is not fenced against in-flight requests.
struct ServerStats {
  // Connection lifecycle.
  std::uint64_t accepted = 0;      ///< connections admitted into the queue
  std::uint64_t rejected = 0;      ///< connections answered 503 (overload)
  std::uint64_t active = 0;        ///< currently open (queued + serving)
  std::uint64_t idle_closed = 0;   ///< closed by the idle timeout
  std::uint64_t read_timeouts = 0; ///< closed mid-request by the read timeout
  std::uint64_t drained = 0;       ///< queued connections closed at stop()

  // Accept queue (blocking path) / dispatch queue (reactor path).
  std::uint64_t queue_depth = 0;      ///< connections/requests waiting for a worker
  std::uint64_t queue_high_water = 0; ///< deepest the queue has been

  // Reactor core (io_model = Reactor; all zero on the blocking path).
  std::uint64_t epoll_wakeups = 0;    ///< epoll_wait returns (events or timeout)
  std::uint64_t ready_events = 0;     ///< readiness events delivered
  std::uint64_t partial_reads = 0;    ///< read rounds that left a request incomplete
  std::uint64_t partial_writes = 0;   ///< write rounds that left response bytes queued
  std::uint64_t write_copied_bytes = 0; ///< response bytes copied for EPOLLOUT drain
                                        ///< (EAGAIN tails; 0 = fully zero-copy)
  std::uint64_t completion_queue_depth_hw = 0; ///< deepest the completion queue has been
  // Per-state connection gauges (point-in-time).
  std::uint64_t conns_idle = 0;       ///< keep-alive, between requests
  std::uint64_t conns_reading = 0;    ///< mid-request (head or body)
  std::uint64_t conns_dispatched = 0; ///< request handed to the worker pool
  std::uint64_t conns_writing = 0;    ///< response draining via readiness

  // Requests.
  std::uint64_t requests = 0;     ///< answered with a result envelope
  std::uint64_t faults = 0;       ///< answered with a SOAP fault envelope
  std::uint64_t bad_requests = 0; ///< answered HTTP 400 (unparseable)

  // Response-side differential serialization (per paper match kind).
  std::uint64_t response_first_time = 0;
  std::uint64_t response_content_match = 0;
  std::uint64_t response_perfect_match = 0;
  std::uint64_t response_partial_match = 0;
  std::uint64_t response_template_bytes = 0;     ///< retained across workers
  std::uint64_t response_template_evictions = 0; ///< count + byte evictions

  // Diff-wire patch protocol (request side; all zero with diffwire off or
  // no negotiating clients).
  std::uint64_t patch_sends = 0;     ///< patch frames applied onto a replica
  std::uint64_t patch_replays = 0;   ///< of those, header-only replay frames
  std::uint64_t patch_nacks = 0;     ///< frames answered 409 (replica unusable)
  std::uint64_t fallback_full_sends = 0; ///< full-body re-offers after a pin
  std::uint64_t bytes_saved = 0;     ///< logical body bytes minus patch bytes
  std::uint64_t diff_pinned_replicas = 0; ///< gauge: replicas currently pinned
  std::uint64_t diff_pinned_bytes = 0;    ///< gauge: bytes those replicas hold
                                          ///< (incl. their cached parses)

  // Differential deserialization (receive side; all zero when
  // diff_deserialize is off or no client negotiated diff-wire).
  std::uint64_t deser_content_hits = 0;  ///< replays served with zero parsing
  std::uint64_t deser_fast_parses = 0;   ///< only touched leaves re-parsed
  std::uint64_t deser_full_parses = 0;   ///< whole-envelope parses (offers,
                                         ///< resyncs and demotions)
  std::uint64_t deser_leaves_reparsed = 0;
  std::uint64_t deser_demotions = 0;     ///< fast-parse-eligible requests
                                         ///< that fell back to a full parse

  // Wire compression (response content coding; all zero when no client
  // offers Accept-Encoding or every coded attempt fell back to identity).
  std::uint64_t compressed_sends = 0;    ///< responses sent content-coded
  std::uint64_t coding_bytes_saved = 0;  ///< raw minus coded payload bytes
  std::uint64_t coding_cpu_ns = 0;       ///< CPU spent compressing payloads

  std::uint64_t responses_total() const {
    return response_first_time + response_content_match +
           response_perfect_match + response_partial_match;
  }
  /// Responses that reused a saved template (any non-first-time kind).
  std::uint64_t response_diff_hits() const {
    return response_content_match + response_perfect_match +
           response_partial_match;
  }
};

/// The runtime's shared counter block. All relaxed atomics: counters are
/// monotonic tallies, not synchronization.
class StatsCollector {
 public:
  void record_response(core::MatchKind match) {
    switch (match) {
      case core::MatchKind::kFirstTime:
        response_first_time.fetch_add(1, std::memory_order_relaxed);
        break;
      case core::MatchKind::kContentMatch:
        response_content_match.fetch_add(1, std::memory_order_relaxed);
        break;
      case core::MatchKind::kPerfectStructural:
        response_perfect_match.fetch_add(1, std::memory_order_relaxed);
        break;
      case core::MatchKind::kPartialStructural:
        response_partial_match.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }

  /// Everything except the queue and template gauges, which the runtime
  /// owns (they live with the queue / the worker pipelines).
  ServerStats snapshot() const {
    ServerStats s;
    s.accepted = accepted.load(std::memory_order_relaxed);
    s.rejected = rejected.load(std::memory_order_relaxed);
    s.active = active.load(std::memory_order_relaxed);
    s.idle_closed = idle_closed.load(std::memory_order_relaxed);
    s.read_timeouts = read_timeouts.load(std::memory_order_relaxed);
    s.drained = drained.load(std::memory_order_relaxed);
    s.requests = requests.load(std::memory_order_relaxed);
    s.faults = faults.load(std::memory_order_relaxed);
    s.bad_requests = bad_requests.load(std::memory_order_relaxed);
    s.epoll_wakeups = epoll_wakeups.load(std::memory_order_relaxed);
    s.ready_events = ready_events.load(std::memory_order_relaxed);
    s.partial_reads = partial_reads.load(std::memory_order_relaxed);
    s.partial_writes = partial_writes.load(std::memory_order_relaxed);
    s.write_copied_bytes =
        write_copied_bytes.load(std::memory_order_relaxed);
    s.response_first_time =
        response_first_time.load(std::memory_order_relaxed);
    s.response_content_match =
        response_content_match.load(std::memory_order_relaxed);
    s.response_perfect_match =
        response_perfect_match.load(std::memory_order_relaxed);
    s.response_partial_match =
        response_partial_match.load(std::memory_order_relaxed);
    s.patch_sends = patch_sends.load(std::memory_order_relaxed);
    s.patch_replays = patch_replays.load(std::memory_order_relaxed);
    s.patch_nacks = patch_nacks.load(std::memory_order_relaxed);
    s.fallback_full_sends =
        fallback_full_sends.load(std::memory_order_relaxed);
    s.bytes_saved = bytes_saved.load(std::memory_order_relaxed);
    s.deser_content_hits =
        deser_content_hits.load(std::memory_order_relaxed);
    s.deser_fast_parses = deser_fast_parses.load(std::memory_order_relaxed);
    s.deser_full_parses = deser_full_parses.load(std::memory_order_relaxed);
    s.deser_leaves_reparsed =
        deser_leaves_reparsed.load(std::memory_order_relaxed);
    s.deser_demotions = deser_demotions.load(std::memory_order_relaxed);
    s.compressed_sends = compressed_sends.load(std::memory_order_relaxed);
    s.coding_bytes_saved =
        coding_bytes_saved.load(std::memory_order_relaxed);
    s.coding_cpu_ns = coding_cpu_ns.load(std::memory_order_relaxed);
    return s;
  }

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> active{0};
  std::atomic<std::uint64_t> idle_closed{0};
  std::atomic<std::uint64_t> read_timeouts{0};
  std::atomic<std::uint64_t> drained{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> faults{0};
  std::atomic<std::uint64_t> bad_requests{0};
  std::atomic<std::uint64_t> epoll_wakeups{0};
  std::atomic<std::uint64_t> ready_events{0};
  std::atomic<std::uint64_t> partial_reads{0};
  std::atomic<std::uint64_t> partial_writes{0};
  std::atomic<std::uint64_t> write_copied_bytes{0};
  std::atomic<std::uint64_t> response_first_time{0};
  std::atomic<std::uint64_t> response_content_match{0};
  std::atomic<std::uint64_t> response_perfect_match{0};
  std::atomic<std::uint64_t> response_partial_match{0};
  std::atomic<std::uint64_t> patch_sends{0};
  std::atomic<std::uint64_t> patch_replays{0};
  std::atomic<std::uint64_t> patch_nacks{0};
  std::atomic<std::uint64_t> fallback_full_sends{0};
  std::atomic<std::uint64_t> bytes_saved{0};
  std::atomic<std::uint64_t> deser_content_hits{0};
  std::atomic<std::uint64_t> deser_fast_parses{0};
  std::atomic<std::uint64_t> deser_full_parses{0};
  std::atomic<std::uint64_t> deser_leaves_reparsed{0};
  std::atomic<std::uint64_t> deser_demotions{0};
  std::atomic<std::uint64_t> compressed_sends{0};
  std::atomic<std::uint64_t> coding_bytes_saved{0};
  std::atomic<std::uint64_t> coding_cpu_ns{0};
};

}  // namespace bsoap::server
