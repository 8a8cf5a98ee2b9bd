// Event-driven reactor connection engine: one thread, epoll readiness,
// thousands of mostly-idle keep-alive connections.
//
// The blocking engine pins one worker thread per open connection; the
// reactor inverts that. A single loop owns the listen socket and every
// connection fd, drives each connection through an explicit state machine
//
//   Idle ──first byte──► ReadingHead ──head parsed──► ReadingBody
//     ▲                       │  (RequestParser, resumable at any byte)
//     │                       ▼ request complete
//     │                  Dispatched ──► bounded DispatchQueue ──► workers
//     │                       │             (SOAP parse, handler, response
//     │                       ▼              serialization + direct write)
//     │                   Writing ◄── completion queue + eventfd wakeup
//     └──response drained──┘         (unwritten EAGAIN tail comes back)
//
// and parks idle connections in epoll where they cost one registered fd,
// not one thread. Reads are non-blocking and incremental (a request split
// across any number of packets resumes where it left off); writes drain the
// serialized response via EPOLLOUT readiness instead of blocking sends.
// Idle/read timeouts come from the same ConnDeadline policy the blocking
// path's PacedTransport polls on, enforced here by a DeadlineHeap keyed
// into epoll_wait's timeout.
//
// Workers serialize the response through the identical per-worker
// SendPipeline path as the blocking engine, straight onto the parked
// connection's socket through a DirectSliceTransport (exclusive while
// Dispatched — the reactor holds no epoll interest there): the pipeline's
// slice list goes out as one gathered writev with no flatten, keeping the
// loop off the client's latency path; only an EAGAIN tail is copied and
// rides the eventfd-signaled completion queue back for readiness-driven
// drain.
// Overload (admission cap, full dispatch queue) and drain answers reuse
// the blocking path's rendered fault bytes, so every response is
// byte-for-byte identical across engines.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>

#include "http/request_parser.hpp"
#include "net/event_poller.hpp"
#include "net/tcp.hpp"
#include "net/transport.hpp"
#include "server/deadline.hpp"
#include "server/server_stats.hpp"

namespace bsoap::server {

/// Transport that buffers instead of writing (tests capture wire bytes
/// through it; the reactor workers now write directly via
/// DirectSliceTransport below).
class CaptureTransport final : public net::Transport {
 public:
  using net::Transport::send;
  Status send(const char* data, std::size_t n) override {
    buf_.append(data, n);
    return Status{};
  }
  Status send_slices(std::span<const net::ConstSlice> slices) override {
    for (const net::ConstSlice& s : slices) buf_.append(s.data, s.len);
    return Status{};
  }
  Result<std::size_t> recv(char* /*out*/, std::size_t /*n*/) override {
    return Error{ErrorCode::kUnsupported, "capture transport is write-only"};
  }
  void shutdown_send() override {}

  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Zero-copy worker→socket handoff. Wraps the parked connection's
/// non-blocking socket; the send pipeline's write stage lands here before
/// the worker's next send can touch the template, so the response's
/// ConstSlice list — head, template chunks, framing — goes to the socket as
/// one gathered writev with no intermediate flatten. Only what the socket
/// buffer refuses (EAGAIN) is copied: the template mutates on the worker's
/// next send, so the unwritten tail must be snapshotted for the reactor's
/// EPOLLOUT drain. `copied_bytes()` counts exactly those bytes — zero on
/// the happy path.
///
/// A socket error fails the send like the blocking path's transport would;
/// later sends on the same (now dead) connection short-circuit.
class DirectSliceTransport final : public net::Transport {
 public:
  using net::Transport::send;
  explicit DirectSliceTransport(net::Transport& inner) : inner_(inner) {}

  Status send(const char* data, std::size_t n) override {
    const net::ConstSlice slice{data, n};
    return send_slices(std::span<const net::ConstSlice>(&slice, 1));
  }
  Status send_slices(std::span<const net::ConstSlice> slices) override {
    if (write_error_) {
      return Error{ErrorCode::kIoError, "connection write already failed"};
    }
    std::size_t skip = 0;
    if (tail_.empty()) {
      Result<net::IoResult> sent = inner_.send_slices_some(slices);
      if (!sent.ok()) {
        write_error_ = true;
        return sent.error();
      }
      if (!sent.value().would_block) return Status{};
      skip = sent.value().n;
    }
    // Socket buffer full: copy the unwritten suffix for readiness-driven
    // drain. Once a tail exists every later byte must queue behind it.
    for (const net::ConstSlice& s : slices) {
      if (skip >= s.len) {
        skip -= s.len;
        continue;
      }
      tail_.append(s.data + skip, s.len - skip);
      skip = 0;
    }
    return Status{};
  }
  Result<std::size_t> recv(char* /*out*/, std::size_t /*n*/) override {
    return Error{ErrorCode::kUnsupported, "direct transport is write-only"};
  }
  void shutdown_send() override {}

  bool write_error() const { return write_error_; }
  std::size_t copied_bytes() const { return tail_.size(); }
  std::string take_tail() { return std::move(tail_); }

 private:
  net::Transport& inner_;
  std::string tail_;
  bool write_error_ = false;
};

/// One fully-received request on its way to the worker pool. The transport
/// is owned by the connection, which the reactor keeps alive while its
/// request is in flight; a connection serves one request at a time and the
/// reactor never touches a Dispatched connection's socket, so worker access
/// to it is exclusive (handed off through the queue mutex, handed back
/// through the completion mutex).
///
/// The transport lets the worker write the serialized response directly
/// while the connection is parked — the common whole-response write then
/// skips a reactor wakeup on the client's latency path, and only an EAGAIN
/// remainder rides the completion back for readiness-driven drain.
struct DispatchJob {
  std::uint64_t conn_id = 0;
  /// The complete parsed request. Workers need the head as well as the
  /// body: the diff-wire content type and negotiation headers decide
  /// whether the body is a SOAP envelope or a patch frame.
  http::HttpRequest request;
  net::Transport* transport = nullptr;
};

/// A serialized response (or its unwritten tail) on its way back to the
/// reactor.
struct Completion {
  std::uint64_t conn_id = 0;
  std::string bytes;  ///< remainder to drain via EPOLLOUT; empty if written
  bool keep_alive = true;
  bool write_error = false;  ///< the worker's direct write failed: close
};

/// Bounded handoff queue, reactor → workers. The reactor never blocks: a
/// full queue is the overload signal (the connection is answered 503).
/// After close(), poppers drain what remains — a queued job is a fully
/// received request, and graceful drain answers every one of them — then
/// get nullopt.
class DispatchQueue {
 public:
  explicit DispatchQueue(std::size_t capacity) : capacity_(capacity) {}

  /// False when full or closed: the caller answers 503.
  bool try_push(DispatchJob job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || queue_.size() >= capacity_) return false;
      queue_.push_back(std::move(job));
      if (queue_.size() > high_water_) high_water_ = queue_.size();
    }
    ready_.notify_one();
    return true;
  }

  std::optional<DispatchJob> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [this] { return closed_ || !queue_.empty(); });
    if (queue_.empty()) return std::nullopt;  // closed and drained
    DispatchJob job = std::move(queue_.front());
    queue_.pop_front();
    return job;
  }

  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }
  std::size_t high_water() const {
    std::lock_guard<std::mutex> lock(mu_);
    return high_water_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<DispatchJob> queue_;
  std::size_t high_water_ = 0;
  bool closed_ = false;
};

class Reactor {
 public:
  struct Options {
    std::size_t max_connections = 128;
    Timeouts timeouts;
    /// Request-body bound (framed or inflated), plumbed into every
    /// connection's RequestParser; an oversized body answers 413.
    std::size_t max_inflate_bytes = 1u << 30;
    /// Prebuilt overload answer (render_overload_response()), written with
    /// Connection: close to connections the reactor refuses.
    std::string overload_response;
  };

  /// Takes ownership of the bound listener and starts the loop thread.
  /// Counters land in `stats`; ready requests go to `dispatch`.
  static Result<std::unique_ptr<Reactor>> start(net::TcpListener listener,
                                                Options options,
                                                DispatchQueue* dispatch,
                                                StatsCollector* stats);

  ~Reactor();

  /// Worker threads hand serialized responses back here; the eventfd wakes
  /// the loop. Safe from any thread.
  void complete(Completion completion);

  /// Begins graceful drain: accepting stops, idle connections close, every
  /// in-flight request (reading, dispatched, or writing) is finished and
  /// answered, then the loop exits. Safe from any thread; join() after.
  void begin_drain();

  /// Joins the loop thread (returns once drain has emptied the map).
  void join();

  /// Gauges the runtime folds into ServerStats. Safe from any thread.
  std::uint64_t completion_queue_high_water() const;
  struct StateGauges {
    std::uint64_t idle = 0;
    std::uint64_t reading = 0;
    std::uint64_t dispatched = 0;
    std::uint64_t writing = 0;
  };
  StateGauges state_gauges() const;

 private:
  enum class ConnState { kIdle, kReadingHead, kReadingBody, kDispatched, kWriting };

  struct Conn {
    std::uint64_t id = 0;
    std::unique_ptr<net::Transport> transport;
    int fd = -1;
    ConnState state = ConnState::kIdle;
    http::RequestParser parser;
    ConnDeadline deadline;
    std::string outbuf;
    std::size_t out_off = 0;
    bool close_after_write = false;
    bool admitted = false;   ///< counted in active / the admission cap
    bool want_write = false; ///< current EPOLLOUT registration

    Conn(const Timeouts& timeouts) : deadline(timeouts) {}
  };

  Reactor(net::TcpListener listener, Options options, DispatchQueue* dispatch,
          StatsCollector* stats, net::EventPoller poller, net::WakeupFd wakeup);

  void loop();
  void do_accept();
  void add_connection(std::unique_ptr<net::Transport> transport,
                      bool admitted);
  void drive_read(Conn& conn);
  void drive_write(Conn& conn);
  void finish_write(Conn& conn);
  void start_write(Conn& conn, std::string bytes, bool keep_alive);
  void dispatch_request(Conn& conn);
  void process_completions();
  void expire_deadlines(std::chrono::steady_clock::time_point now);
  void enter_drain();
  void set_state(Conn& conn, ConnState next);
  void update_interest(Conn& conn, bool read, bool write);
  void close_conn(Conn& conn);
  void arm_deadline(Conn& conn);

  net::TcpListener listener_;
  Options options_;
  DispatchQueue* dispatch_;
  StatsCollector* stats_;
  net::EventPoller poller_;
  net::WakeupFd wakeup_;

  // Loop-thread state.
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  DeadlineHeap deadlines_;
  std::uint64_t next_conn_id_ = 2;  // 0 = listener tag, 1 = wakeup tag
  std::size_t admitted_count_ = 0;
  bool drain_entered_ = false;
  bool listener_open_ = true;

  // Cross-thread state.
  std::atomic<bool> draining_{false};
  mutable std::mutex completions_mu_;
  std::deque<Completion> completions_;
  std::uint64_t completions_high_water_ = 0;
  std::atomic<std::uint64_t> gauge_idle_{0};
  std::atomic<std::uint64_t> gauge_reading_{0};
  std::atomic<std::uint64_t> gauge_dispatched_{0};
  std::atomic<std::uint64_t> gauge_writing_{0};

  std::thread thread_;
};

}  // namespace bsoap::server
