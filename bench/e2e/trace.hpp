// Probes for the end-to-end benchmark: per-request counters on every run,
// plus spans at each layer boundary on the traced run.
//
// Every probe sits on a public surface of a library layer; nothing inside
// src/ is instrumented:
//
//   client thread                       server worker thread
//   client.invoke (BsoapClient::invoke, the request's root span)
//     core.resolve / core.update /        compress.decode  ┐ RecvObserver
//     core.frame / core.write             diffwire.apply   │ stages, buffered
//       (SendObserver stages)             soap.parse       ┘ thread-locally
//     compress.encode (SendReport::       server.handler — the benchmark's
//       coding_ns, inside core.frame)       handler, which stamps the buffered
//     net.send (Transport send calls,       stages with the request id it
//       inside core.write)                  reads from element 0
//     net.wait (Transport recv calls;
//       the server's work happens here)
//
// Spans of one request share its request id, and server spans name the
// client's root span as parent, so the two sides join. Per-layer totals are
// accumulated for every request in the traced window; span records are kept
// only for a bounded prefix of it, so memory stays flat on fast workloads.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/send_pipeline.hpp"
#include "net/transport.hpp"
#include "server/recv_observer.hpp"

namespace bsoap::e2e {

enum class Layer : std::uint8_t {
  kInvoke,
  kResolve,
  kUpdate,
  kFrame,
  kEncode,
  kWrite,
  kSend,
  kWait,
  kDecode,
  kApply,
  kParse,
  kHandler,
};
inline constexpr std::size_t kLayerCount = 12;

/// Span name of a layer ("core.update", "net.wait", ...).
const char* layer_name(Layer layer);

/// steady_clock nanoseconds.
std::int64_t now_ns();

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request_id = 0;
  std::uint16_t thread = 0;  ///< < kServerThreadBase: client thread index
  Layer layer = Layer::kInvoke;
};

inline constexpr std::uint16_t kServerThreadBase = 100;

/// Time and call count per layer.
struct LayerTotals {
  std::array<std::int64_t, kLayerCount> ns{};
  std::array<std::uint64_t, kLayerCount> calls{};

  void add(Layer layer, std::int64_t dur_ns) {
    ns[static_cast<std::size_t>(layer)] += dur_ns;
    calls[static_cast<std::size_t>(layer)] += 1;
  }
  void merge(const LayerTotals& other);
  std::int64_t ns_of(Layer layer) const {
    return ns[static_cast<std::size_t>(layer)];
  }
  std::uint64_t calls_of(Layer layer) const {
    return calls[static_cast<std::size_t>(layer)];
  }
};

/// Which requests are being traced. Shared by the client and server probes
/// of one traced session; the benchmark opens it for the measured window.
struct TraceWindow {
  std::atomic<bool> recording{false};
  /// Requests with ids in [keep_from, keep_below) also keep span records.
  std::atomic<std::uint64_t> keep_from{0};
  std::atomic<std::uint64_t> keep_below{0};

  bool keep(std::uint64_t request_id) const {
    return request_id >= keep_from.load(std::memory_order_relaxed) &&
           request_id < keep_below.load(std::memory_order_relaxed);
  }
};

/// One thread's spans and totals. Span ids are unique across threads.
class SpanLog {
 public:
  explicit SpanLog(std::uint16_t thread) : thread_(thread) {}

  std::uint64_t next_id() {
    return (static_cast<std::uint64_t>(thread_) + 1) << 40 | ++issued_;
  }

  /// Adds the span to the totals, and to the records when `keep`.
  void add(std::uint64_t id, Layer layer, std::int64_t start_ns,
           std::int64_t end_ns, std::uint64_t parent, std::uint64_t request_id,
           bool keep) {
    totals_.add(layer, end_ns - start_ns);
    if (keep) {
      spans_.push_back(
          Span{start_ns, end_ns, id, parent, request_id, thread_, layer});
    }
  }

  const LayerTotals& totals() const { return totals_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint16_t thread_;
  std::uint64_t issued_ = 0;
  LayerTotals totals_;
  std::vector<Span> spans_;
};

/// Client-side counters, always on. Indexes into ClientCounts.
enum ClientCounter : std::size_t {
  kSends,            ///< pipeline sends (on_send), NACK retries included
  kFirstTimeSends,
  kContentMatchSends,
  kPsmSends,         ///< perfect structural matches
  kPartialSends,     ///< partial structural matches
  kValuesRewritten,
  kPatchSends,       ///< crossed the wire as diff-wire patch frames
  kCodedSends,       ///< content-coded payloads
  kCodedBytes,       ///< payload bytes of coded sends
  kCodedRawBytes,    ///< the same payloads before coding
  kReqBytes,         ///< bytes written to the transport, heads included
  kRespBytes,        ///< bytes read from the transport
  kSendCalls,
  kRecvCalls,
  kClientCounterCount,
};
using ClientCounts = std::array<std::uint64_t, kClientCounterCount>;
const char* client_counter_name(std::size_t counter);

/// One client thread's probe: SendObserver on the client's pipeline and
/// sink for its transport's byte counts. Counters are always kept; spans
/// only while the window (if any) is recording. Single-threaded, like the
/// client it observes.
class ClientProbe final : public core::SendObserver {
 public:
  /// `window` null = untraced: counters only, no clock reads of its own.
  ClientProbe(TraceWindow* window, std::uint16_t thread)
      : window_(window), log_(thread) {}

  /// Opens a request; decides whether its spans are recorded.
  void begin_request(std::uint64_t request_id);
  /// Closes it with the invoke() span (recorded when tracing).
  void end_request(std::int64_t start_ns, std::int64_t end_ns);

  void on_stage(core::SendStage stage, std::int64_t elapsed_ns,
                std::size_t bytes) override;
  void on_send(const core::SendReport& report) override;

  /// Clock read for a transport call, 0 when the request is not traced.
  std::int64_t io_begin() const { return tracing_ ? now_ns() : 0; }
  /// A transport call finished having moved `bytes`.
  void io_end(Layer layer, std::int64_t start_ns, std::size_t bytes);

  const ClientCounts& counts() const { return counts_; }
  const SpanLog& log() const { return log_; }

 private:
  TraceWindow* window_;
  SpanLog log_;
  ClientCounts counts_{};
  // The open request.
  bool tracing_ = false;
  bool keep_ = false;
  std::uint64_t request_id_ = 0;
  std::uint64_t frame_id_ = 0;
  std::int64_t frame_start_ = 0;
  std::uint64_t write_id_ = 0;  ///< pre-issued: sends name it as parent
  bool in_write_ = false;
};

/// Client transport wrapper: counts bytes and calls, and times each call on
/// traced requests. Returned by the client's net::Dialer.
class ProbedTransport final : public net::Transport {
 public:
  using Transport::send;
  ProbedTransport(std::unique_ptr<net::Transport> inner, ClientProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  Status send(const char* data, std::size_t n) override;
  Status send_slices(std::span<const net::ConstSlice> slices) override;
  Result<std::size_t> recv(char* out, std::size_t n) override;
  void shutdown_send() override { inner_->shutdown_send(); }
  void shutdown_both() override { inner_->shutdown_both(); }
  /// The pool's liveness probe peeks at the socket directly.
  int native_handle() const override { return inner_->native_handle(); }

 private:
  std::unique_ptr<net::Transport> inner_;
  ClientProbe& probe_;
};

/// Server-side probe: the runtime's RecvObserver plus the handler's hook.
/// Receive stages run on a worker thread before the handler and do not know
/// the request id, so they wait in a thread-local buffer until the handler
/// (same thread) stamps them.
class ServerProbe final : public server::RecvObserver {
 public:
  explicit ServerProbe(TraceWindow& window) : window_(window) {}

  void on_stage(server::RecvStage stage, std::int64_t elapsed_ns,
                std::size_t bytes) override;

  /// Called by the handler with its own span; stamps the buffered stages.
  void on_handler(std::uint64_t request_id, std::int64_t start_ns,
                  std::int64_t end_ns);

  /// Merged totals and handler calls over all worker threads. Call once
  /// the server has stopped.
  LayerTotals totals() const;
  std::uint64_t requests() const;
  void append_spans(std::vector<Span>* out) const;

 private:
  struct Pending {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  struct ThreadState {
    explicit ThreadState(std::uint16_t thread) : log(thread) {}
    SpanLog log;
    std::vector<Pending> pending;
    std::uint64_t requests = 0;
  };
  ThreadState& local();

  TraceWindow& window_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;  ///< guarded by mu_
};

/// Writes spans as JSON lines, sorted by start, times relative to the
/// earliest span.
Status write_spans_jsonl(const std::string& path, std::vector<Span> spans);

}  // namespace bsoap::e2e
