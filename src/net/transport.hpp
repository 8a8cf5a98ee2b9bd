// Transport abstraction over which SOAP messages travel.
//
// The benchmark harness mirrors the paper's setup — a client sending to a
// dummy server that drains bytes without parsing — but lets the medium vary:
// loopback TCP (default), a Unix socketpair, an in-memory pipe for
// deterministic unit tests, or a simulated-bandwidth wrapper that adds the
// size-proportional wire cost of the paper's Gigabit Ethernet link.
#pragma once

#include <memory>
#include <span>

#include "common/error.hpp"
#include "net/socket.hpp"

namespace bsoap::net {

class Transport {
 public:
  virtual ~Transport() = default;

  virtual Status send(const char* data, std::size_t n) = 0;
  virtual Status send_slices(std::span<const ConstSlice> slices) = 0;
  virtual Result<std::size_t> recv(char* out, std::size_t n) = 0;

  /// Switches the transport to (or from) non-blocking mode, arming the
  /// EAGAIN-aware recv_some/send_some below. Transports without a readiness
  /// notion report kUnsupported; callers fall back to the blocking path.
  virtual Status set_nonblocking(bool enabled) {
    (void)enabled;
    return Error{ErrorCode::kUnsupported, "transport has no non-blocking mode"};
  }

  /// One read attempt: would_block instead of blocking when no bytes are
  /// buffered. On a blocking transport this degenerates to recv().
  virtual Result<IoResult> recv_some(char* out, std::size_t n) {
    Result<std::size_t> got = recv(out, n);
    if (!got.ok()) return got.error();
    return IoResult{got.value(), false};
  }

  /// One write attempt: transfers as much as the peer window accepts and
  /// reports the shortfall via would_block. On a blocking transport this
  /// writes everything.
  virtual Result<IoResult> send_some(const char* data, std::size_t n) {
    BSOAP_RETURN_IF_ERROR(send(data, n));
    return IoResult{n, false};
  }

  /// Slice-preserving send_some: drains as many of the slices as the peer
  /// window accepts (n = total bytes written, in slice order) and reports
  /// the shortfall via would_block. Socket transports gather the slices
  /// into one writev; the default walks them through send_some.
  virtual Result<IoResult> send_slices_some(
      std::span<const ConstSlice> slices) {
    std::size_t total = 0;
    for (const ConstSlice& s : slices) {
      std::size_t off = 0;
      while (off < s.len) {
        Result<IoResult> sent = send_some(s.data + off, s.len - off);
        if (!sent.ok()) return sent.error();
        off += sent.value().n;
        total += sent.value().n;
        if (sent.value().would_block) return IoResult{total, true};
      }
    }
    return IoResult{total, false};
  }

  /// Closes the write side so the peer sees end-of-stream.
  virtual void shutdown_send() = 0;

  /// Aborts both directions: a thread blocked in recv() on this transport
  /// wakes with end-of-stream. Used to stop server workers.
  virtual void shutdown_both() { shutdown_send(); }

  /// Underlying socket descriptor, or -1 for non-socket transports.
  virtual int native_handle() const { return -1; }

  Status send(std::string_view text) { return send(text.data(), text.size()); }
};

/// Transport backed by a connected socket (TCP or Unix). Every write copies
/// through the socket buffer: send_slices is one blocking gathered writev,
/// so the caller may mutate the slices' bytes as soon as it returns.
class SocketTransport final : public Transport {
 public:
  using Transport::send;
  explicit SocketTransport(Fd fd) : fd_(std::move(fd)) {}

  Status send(const char* data, std::size_t n) override {
    return write_all(fd_.get(), data, n);
  }
  Status send_slices(std::span<const ConstSlice> slices) override {
    return writev_all(fd_.get(), slices);
  }
  Result<std::size_t> recv(char* out, std::size_t n) override {
    return read_some(fd_.get(), out, n);
  }
  Status set_nonblocking(bool enabled) override {
    return net::set_nonblocking(fd_.get(), enabled);
  }
  Result<IoResult> recv_some(char* out, std::size_t n) override {
    return read_nonblocking(fd_.get(), out, n);
  }
  Result<IoResult> send_some(const char* data, std::size_t n) override {
    return write_nonblocking(fd_.get(), data, n);
  }
  Result<IoResult> send_slices_some(
      std::span<const ConstSlice> slices) override {
    return writev_nonblocking(fd_.get(), slices);
  }
  void shutdown_send() override;
  void shutdown_both() override;
  int native_handle() const override { return fd_.get(); }

  int fd() const { return fd_.get(); }

 private:
  Fd fd_;
};

/// Creates a connected AF_UNIX socketpair with the paper's socket options.
Result<std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>>
make_socketpair_transports();

}  // namespace bsoap::net
