#include "server/reactor.hpp"

#include <array>
#include <utility>
#include <vector>

#include "server/fault_render.hpp"

namespace bsoap::server {

using Clock = std::chrono::steady_clock;

Result<std::unique_ptr<Reactor>> Reactor::start(net::TcpListener listener,
                                                Options options,
                                                DispatchQueue* dispatch,
                                                StatsCollector* stats) {
  BSOAP_RETURN_IF_ERROR(listener.set_nonblocking());
  Result<net::EventPoller> poller = net::EventPoller::create();
  if (!poller.ok()) return poller.error();
  Result<net::WakeupFd> wakeup = net::WakeupFd::create();
  if (!wakeup.ok()) return wakeup.error();

  BSOAP_RETURN_IF_ERROR(poller.value().add(listener.native_handle(),
                                           /*tag=*/0, /*read=*/true,
                                           /*write=*/false));
  BSOAP_RETURN_IF_ERROR(poller.value().add(wakeup.value().fd(), /*tag=*/1,
                                           /*read=*/true, /*write=*/false));

  auto reactor = std::unique_ptr<Reactor>(
      new Reactor(std::move(listener), std::move(options), dispatch, stats,
                  std::move(poller.value()), std::move(wakeup.value())));
  reactor->thread_ = std::thread([r = reactor.get()] { r->loop(); });
  return reactor;
}

Reactor::Reactor(net::TcpListener listener, Options options,
                 DispatchQueue* dispatch, StatsCollector* stats,
                 net::EventPoller poller, net::WakeupFd wakeup)
    : listener_(std::move(listener)),
      options_(std::move(options)),
      dispatch_(dispatch),
      stats_(stats),
      poller_(std::move(poller)),
      wakeup_(std::move(wakeup)) {}

Reactor::~Reactor() {
  begin_drain();
  join();
}

void Reactor::complete(Completion completion) {
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back(std::move(completion));
    if (completions_.size() > completions_high_water_) {
      completions_high_water_ = completions_.size();
    }
  }
  wakeup_.signal();
}

void Reactor::begin_drain() {
  draining_.store(true, std::memory_order_release);
  wakeup_.signal();
}

void Reactor::join() {
  if (thread_.joinable()) thread_.join();
}

std::uint64_t Reactor::completion_queue_high_water() const {
  std::lock_guard<std::mutex> lock(completions_mu_);
  return completions_high_water_;
}

Reactor::StateGauges Reactor::state_gauges() const {
  StateGauges g;
  g.idle = gauge_idle_.load(std::memory_order_relaxed);
  g.reading = gauge_reading_.load(std::memory_order_relaxed);
  g.dispatched = gauge_dispatched_.load(std::memory_order_relaxed);
  g.writing = gauge_writing_.load(std::memory_order_relaxed);
  return g;
}

void Reactor::loop() {
  std::array<net::EventPoller::Event, 128> events;
  for (;;) {
    if (!drain_entered_ && draining_.load(std::memory_order_acquire)) {
      enter_drain();
    }
    if (drain_entered_ && conns_.empty()) break;

    const auto now = Clock::now();
    expire_deadlines(now);
    if (drain_entered_ && conns_.empty()) break;

    const int timeout_ms =
        deadlines_.wait_ms(Clock::now(), options_.timeouts.slice);
    Result<std::size_t> n = poller_.wait(events, timeout_ms);
    if (!n.ok()) break;  // epoll itself failed; nothing sane to do
    stats_->epoll_wakeups.fetch_add(1, std::memory_order_relaxed);
    stats_->ready_events.fetch_add(n.value(), std::memory_order_relaxed);

    for (std::size_t i = 0; i < n.value(); ++i) {
      const net::EventPoller::Event& ev = events[i];
      if (ev.tag == 0) {
        if (listener_open_) do_accept();
        continue;
      }
      if (ev.tag == 1) {
        wakeup_.drain();
        process_completions();
        continue;
      }
      // Connection event. Re-look up after each drive: either drive may
      // close (and erase) the connection.
      if (ev.writable || ev.hangup) {
        auto it = conns_.find(ev.tag);
        if (it != conns_.end() && it->second->state == ConnState::kWriting) {
          drive_write(*it->second);
        }
      }
      if (ev.readable || ev.hangup) {
        auto it = conns_.find(ev.tag);
        if (it != conns_.end() && (it->second->state == ConnState::kIdle ||
                                   it->second->state == ConnState::kReadingHead ||
                                   it->second->state == ConnState::kReadingBody)) {
          drive_read(*it->second);
        }
      }
    }
  }
}

void Reactor::do_accept() {
  for (;;) {
    Result<std::unique_ptr<net::Transport>> conn = listener_.try_accept();
    if (!conn.ok()) return;  // transient accept failure: retry on readiness
    if (conn.value() == nullptr) return;  // accept backlog drained

    const bool admit = admitted_count_ < options_.max_connections;
    if (!admit) stats_->rejected.fetch_add(1, std::memory_order_relaxed);
    add_connection(std::move(conn.value()), admit);
  }
}

void Reactor::add_connection(std::unique_ptr<net::Transport> transport,
                             bool admitted) {
  if (!transport->set_nonblocking(true).ok()) return;  // drop: cannot serve

  auto conn = std::make_unique<Conn>(options_.timeouts);
  conn->id = next_conn_id_++;
  conn->fd = transport->native_handle();
  conn->transport = std::move(transport);
  conn->admitted = admitted;
  conn->parser.set_max_inflate_bytes(options_.max_inflate_bytes);

  Conn& ref = *conn;
  if (!poller_.add(ref.fd, ref.id, /*read=*/true, /*write=*/false).ok()) {
    return;  // conn destroyed: fd closes, client sees RST-ish close
  }
  conns_.emplace(ref.id, std::move(conn));
  gauge_idle_.fetch_add(1, std::memory_order_relaxed);

  if (!admitted) {
    // Refused at the admission cap: answer the same 503 bytes the blocking
    // path sends and close once they drain.
    start_write(ref, options_.overload_response, /*keep_alive=*/false);
    return;
  }
  admitted_count_++;
  stats_->active.fetch_add(1, std::memory_order_relaxed);
  stats_->accepted.fetch_add(1, std::memory_order_relaxed);
  ref.deadline.begin_idle(Clock::now());
  arm_deadline(ref);
  // The client may have sent its first request in the same packet burst as
  // the connect; level-triggered epoll would report it, but reading now
  // saves one loop turn.
  drive_read(ref);
}

void Reactor::drive_read(Conn& conn) {
  char tmp[16 * 1024];
  for (;;) {
    // Pipelined bytes buffered past the previous request parse first.
    Status resumed = conn.parser.resume();
    if (!resumed.ok()) {
      stats_->bad_requests.fetch_add(1, std::memory_order_relaxed);
      start_write(conn, render_parse_failure_response(resumed.error()),
                  /*keep_alive=*/false);
      return;
    }
    if (conn.parser.done()) {
      dispatch_request(conn);
      return;
    }

    Result<net::IoResult> got = conn.transport->recv_some(tmp, sizeof(tmp));
    if (!got.ok()) {
      close_conn(conn);
      return;
    }
    if (got.value().would_block) {
      if (conn.parser.started()) {
        stats_->partial_reads.fetch_add(1, std::memory_order_relaxed);
        set_state(conn, conn.parser.state() == http::RequestParser::State::kBody
                            ? ConnState::kReadingBody
                            : ConnState::kReadingHead);
      } else {
        set_state(conn, ConnState::kIdle);
      }
      return;  // stay registered for EPOLLIN; resume on the next event
    }
    if (got.value().n == 0) {
      // End of stream: same taxonomy as the blocking reader. A half-closed
      // client that stopped mid-head still gets its 400 (it can still read).
      const Error eof = conn.parser.eof_error();
      if (eof.code == ErrorCode::kProtocolError) {
        stats_->bad_requests.fetch_add(1, std::memory_order_relaxed);
        start_write(conn, render_parse_failure_response(eof),
                    /*keep_alive=*/false);
      } else {
        close_conn(conn);  // kClosed: keep-alive (or mid-body) ended cleanly
      }
      return;
    }

    if (conn.deadline.idle_phase()) {
      // First byte of a request: idle deadline becomes the read deadline,
      // exactly as PacedTransport switches phases.
      conn.deadline.begin_read(Clock::now());
      arm_deadline(conn);
    }
    Status fed = conn.parser.feed(tmp, got.value().n);
    if (!fed.ok()) {
      stats_->bad_requests.fetch_add(1, std::memory_order_relaxed);
      start_write(conn, render_parse_failure_response(fed.error()),
                  /*keep_alive=*/false);
      return;
    }
    if (conn.parser.done()) {
      dispatch_request(conn);
      return;
    }
  }
}

void Reactor::dispatch_request(Conn& conn) {
  DispatchJob job;
  job.conn_id = conn.id;
  job.request = conn.parser.take();
  job.transport = conn.transport.get();
  if (!dispatch_->try_push(std::move(job))) {
    // Every worker busy and the queue full: same overload answer the
    // blocking path's accept loop gives when its queue overflows.
    stats_->rejected.fetch_add(1, std::memory_order_relaxed);
    start_write(conn, options_.overload_response, /*keep_alive=*/false);
    return;
  }
  set_state(conn, ConnState::kDispatched);
  update_interest(conn, /*read=*/false, /*write=*/false);
}

void Reactor::process_completions() {
  std::deque<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& c : batch) {
    auto it = conns_.find(c.conn_id);
    if (it == conns_.end()) continue;  // connection closed while dispatched
    if (c.write_error) {
      close_conn(*it->second);
      continue;
    }
    // Usually c.bytes is empty (the worker wrote the whole response
    // directly) and this falls straight through drive_write to
    // finish_write; a non-empty remainder drains via EPOLLOUT.
    start_write(*it->second, std::move(c.bytes), c.keep_alive);
  }
}

void Reactor::start_write(Conn& conn, std::string bytes, bool keep_alive) {
  conn.outbuf = std::move(bytes);
  conn.out_off = 0;
  conn.close_after_write = !keep_alive;
  set_state(conn, ConnState::kWriting);
  drive_write(conn);
}

void Reactor::drive_write(Conn& conn) {
  while (conn.out_off < conn.outbuf.size()) {
    Result<net::IoResult> sent = conn.transport->send_some(
        conn.outbuf.data() + conn.out_off, conn.outbuf.size() - conn.out_off);
    if (!sent.ok()) {
      close_conn(conn);
      return;
    }
    conn.out_off += sent.value().n;
    if (sent.value().would_block) {
      stats_->partial_writes.fetch_add(1, std::memory_order_relaxed);
      update_interest(conn, /*read=*/false, /*write=*/true);
      return;  // resume on EPOLLOUT
    }
  }
  finish_write(conn);
}

void Reactor::finish_write(Conn& conn) {
  conn.outbuf.clear();
  conn.out_off = 0;
  if (conn.close_after_write ||
      draining_.load(std::memory_order_acquire)) {
    // Mirrors the blocking loop's post-answer drain check: the response the
    // client is owed went out; the keep-alive stops here.
    close_conn(conn);
    return;
  }
  set_state(conn, ConnState::kIdle);
  conn.deadline.begin_idle(Clock::now());
  arm_deadline(conn);
  update_interest(conn, /*read=*/true, /*write=*/false);
  // A pipelined next request may be fully buffered already; parse it now
  // rather than waiting for bytes that may never come.
  drive_read(conn);
}

void Reactor::expire_deadlines(Clock::time_point now) {
  deadlines_.expire(now, [&](std::uint64_t tag, Clock::time_point at) {
    auto it = conns_.find(tag);
    if (it == conns_.end()) return;  // closed since arming: stale entry
    Conn& conn = *it->second;
    if (conn.state == ConnState::kDispatched ||
        conn.state == ConnState::kWriting) {
      return;  // no read deadline applies while answering
    }
    if (conn.deadline.at() != at) return;  // re-armed since: stale entry
    if (!conn.deadline.expired(now)) return;
    if (conn.deadline.idle_phase()) {
      stats_->idle_closed.fetch_add(1, std::memory_order_relaxed);
    } else {
      stats_->read_timeouts.fetch_add(1, std::memory_order_relaxed);
    }
    // Timeouts close without an answer, exactly like the blocking path.
    close_conn(conn);
  });
}

void Reactor::enter_drain() {
  drain_entered_ = true;
  if (listener_open_) {
    (void)poller_.remove(listener_.native_handle());
    listener_open_ = false;
  }
  // Idle connections have no request in progress: close them now, the same
  // clean EOF PacedTransport turns its next poll slice into. Connections
  // mid-read, dispatched, or writing finish their request first and close
  // in finish_write.
  std::vector<std::uint64_t> idle;
  for (const auto& [id, conn] : conns_) {
    if (conn->state == ConnState::kIdle) idle.push_back(id);
  }
  for (std::uint64_t id : idle) {
    auto it = conns_.find(id);
    if (it != conns_.end()) close_conn(*it->second);
  }
}

void Reactor::set_state(Conn& conn, ConnState next) {
  if (conn.state == next) return;
  const auto gauge = [this](ConnState s) -> std::atomic<std::uint64_t>* {
    switch (s) {
      case ConnState::kIdle:
        return &gauge_idle_;
      case ConnState::kReadingHead:
      case ConnState::kReadingBody:
        return &gauge_reading_;
      case ConnState::kDispatched:
        return &gauge_dispatched_;
      case ConnState::kWriting:
        return &gauge_writing_;
    }
    return nullptr;
  };
  std::atomic<std::uint64_t>* from = gauge(conn.state);
  std::atomic<std::uint64_t>* to = gauge(next);
  if (from != to) {
    from->fetch_sub(1, std::memory_order_relaxed);
    to->fetch_add(1, std::memory_order_relaxed);
  }
  conn.state = next;
}

void Reactor::update_interest(Conn& conn, bool read, bool write) {
  (void)poller_.modify(conn.fd, conn.id, read, write);
  conn.want_write = write;
}

void Reactor::close_conn(Conn& conn) {
  (void)poller_.remove(conn.fd);
  const auto gauge_of = [this](ConnState s) -> std::atomic<std::uint64_t>& {
    switch (s) {
      case ConnState::kReadingHead:
      case ConnState::kReadingBody:
        return gauge_reading_;
      case ConnState::kDispatched:
        return gauge_dispatched_;
      case ConnState::kWriting:
        return gauge_writing_;
      case ConnState::kIdle:
      default:
        return gauge_idle_;
    }
  };
  gauge_of(conn.state).fetch_sub(1, std::memory_order_relaxed);
  if (conn.admitted) {
    admitted_count_--;
    stats_->active.fetch_sub(1, std::memory_order_relaxed);
  }
  conns_.erase(conn.id);  // destroys conn; the fd closes with the transport
}

void Reactor::arm_deadline(Conn& conn) {
  deadlines_.arm(conn.deadline.at(), conn.id);
}

}  // namespace bsoap::server
