// Thin RAII wrappers over POSIX sockets.
//
// The paper's measurement endpoint is the final send() system call on a
// socket configured with SO_KEEPALIVE, TCP_NODELAY and 32 KiB send/receive
// buffers; apply_paper_socket_options reproduces that configuration.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "common/error.hpp"

namespace bsoap::net {

/// Owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset();
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

/// Socket options used in the paper's performance study (Section 4):
/// SO_KEEPALIVE and TCP_NODELAY always; the paper's fixed 32 KiB
/// SO_SNDBUF/SO_RCVBUF only when BSOAP_PAPER_SOCKBUF=1 is exported (fixed
/// tiny windows cause pathological zero-window stalls on loopback — see the
/// implementation note).
Status apply_paper_socket_options(int fd);

/// Arms TCP_QUICKACK (Linux resets it after use, so re-arm per read). The
/// paper's server is a separate machine whose NIC ACKs promptly; on loopback
/// the 32 KiB sends are below the huge loopback MSS, so without quickack the
/// receiver defers ACKs ~40 ms and send() stalls on a full SO_SNDBUF —
/// an artifact of the substrate, not of the system under test. No-op for
/// non-TCP sockets.
void arm_quickack(int fd) noexcept;

/// Outcome of one non-blocking I/O attempt on a readiness-driven socket.
/// `would_block` distinguishes EAGAIN (retry when the poller reports the fd
/// ready again) from real progress; on reads, n == 0 with would_block ==
/// false is end-of-stream.
struct IoResult {
  std::size_t n = 0;
  bool would_block = false;
};

/// Sets (or clears) O_NONBLOCK on the descriptor.
Status set_nonblocking(int fd, bool enabled = true);

/// One read attempt that reports EAGAIN instead of blocking. The fd should
/// be non-blocking; on a blocking fd this simply blocks like read_some.
Result<IoResult> read_nonblocking(int fd, char* out, std::size_t n);

/// One write attempt: writes as much as the socket buffer accepts and
/// reports the shortfall via would_block rather than spinning.
Result<IoResult> write_nonblocking(int fd, const char* data, std::size_t n);

/// Blocking write of the whole buffer, retrying on EINTR / short writes.
Status write_all(int fd, const char* data, std::size_t n);

/// Scatter-gather write of all slices (writev loop). Used to send chunked
/// message templates without first linearizing them.
struct ConstSlice {
  const char* data;
  std::size_t len;
};
Status writev_all(int fd, std::span<const ConstSlice> slices);

/// Scatter-gather write that drains as much as the socket buffer accepts
/// and reports the shortfall via would_block instead of spinning. `n` is
/// the total bytes written across slices; on would_block the caller owns
/// the unwritten suffix (resume from byte n of the logical stream). The
/// slice-preserving counterpart of write_nonblocking.
Result<IoResult> writev_nonblocking(int fd, std::span<const ConstSlice> slices);

/// Blocking read; returns 0 at end of stream.
Result<std::size_t> read_some(int fd, char* out, std::size_t n);

/// Reads exactly n bytes or fails.
Status read_exact(int fd, char* out, std::size_t n);

}  // namespace bsoap::net
