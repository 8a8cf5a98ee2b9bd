#include "net/socket.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace bsoap::net {
namespace {

Error errno_error(const char* what) {
  return Error{ErrorCode::kIoError,
               std::string(what) + ": " + std::strerror(errno)};
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status apply_paper_socket_options(int fd) {
  const int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one)) < 0) {
    return errno_error("setsockopt(SO_KEEPALIVE)");
  }
  // TCP_NODELAY only applies to TCP sockets; ignore failures on AF_UNIX.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  // The paper additionally pins SO_SNDBUF = SO_RCVBUF = 32768. That is
  // faithful on a real Gigabit link (their setup), but on loopback the tiny
  // fixed windows interact with zero-window probing and turn >32 KiB sends
  // into multi-second stalls on some kernels — a substrate artifact that
  // would swamp every measurement. Default to the kernel's auto-tuned
  // buffers; export BSOAP_PAPER_SOCKBUF=1 to force the paper's values.
  static const bool use_paper_buffers = [] {
    const char* env = std::getenv("BSOAP_PAPER_SOCKBUF");
    return env != nullptr && env[0] == '1';
  }();
  if (use_paper_buffers) {
    const int buf_size = 32768;
    if (::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf_size, sizeof(buf_size)) < 0) {
      return errno_error("setsockopt(SO_SNDBUF)");
    }
    if (::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf_size, sizeof(buf_size)) < 0) {
      return errno_error("setsockopt(SO_RCVBUF)");
    }
  }
  return Status{};
}

void arm_quickack(int fd) noexcept {
#ifdef TCP_QUICKACK
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
#else
  (void)fd;
#endif
}

Status set_nonblocking(int fd, bool enabled) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return errno_error("fcntl(F_GETFL)");
  const int want = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd, F_SETFL, want) < 0) {
    return errno_error("fcntl(F_SETFL)");
  }
  return Status{};
}

Result<IoResult> read_nonblocking(int fd, char* out, std::size_t n) {
  for (;;) {
    const ssize_t got = ::read(fd, out, n);
    if (got < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return IoResult{0, /*would_block=*/true};
      }
      return errno_error("read");
    }
    return IoResult{static_cast<std::size_t>(got), false};
  }
}

Result<IoResult> write_nonblocking(int fd, const char* data, std::size_t n) {
  for (;;) {
    const ssize_t written = ::write(fd, data, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return IoResult{0, /*would_block=*/true};
      }
      return errno_error("write");
    }
    return IoResult{static_cast<std::size_t>(written), false};
  }
}

Status write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t written = ::write(fd, data, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      return errno_error("write");
    }
    data += written;
    n -= static_cast<std::size_t>(written);
  }
  return Status{};
}

Status writev_all(int fd, std::span<const ConstSlice> slices) {
  // Build an iovec array once; advance through it on short writes.
  std::vector<iovec> iov;
  iov.reserve(slices.size());
  for (const ConstSlice& s : slices) {
    if (s.len == 0) continue;
    iov.push_back(iovec{const_cast<char*>(s.data), s.len});
  }
  std::size_t index = 0;
  while (index < iov.size()) {
    constexpr std::size_t kMaxIov = 64;  // below IOV_MAX everywhere
    const std::size_t batch = std::min(iov.size() - index, kMaxIov);
    const ssize_t written = ::writev(fd, iov.data() + index, static_cast<int>(batch));
    if (written < 0) {
      if (errno == EINTR) continue;
      return errno_error("writev");
    }
    std::size_t remaining = static_cast<std::size_t>(written);
    while (remaining > 0 && index < iov.size()) {
      if (remaining >= iov[index].iov_len) {
        remaining -= iov[index].iov_len;
        ++index;
      } else {
        iov[index].iov_base = static_cast<char*>(iov[index].iov_base) + remaining;
        iov[index].iov_len -= remaining;
        remaining = 0;
      }
    }
  }
  return Status{};
}

Result<IoResult> writev_nonblocking(int fd,
                                    std::span<const ConstSlice> slices) {
  std::vector<iovec> iov;
  iov.reserve(slices.size());
  for (const ConstSlice& s : slices) {
    if (s.len == 0) continue;
    iov.push_back(iovec{const_cast<char*>(s.data), s.len});
  }
  std::size_t total = 0;
  std::size_t index = 0;
  while (index < iov.size()) {
    constexpr std::size_t kMaxIov = 64;  // below IOV_MAX everywhere
    const std::size_t batch = std::min(iov.size() - index, kMaxIov);
    const ssize_t written =
        ::writev(fd, iov.data() + index, static_cast<int>(batch));
    if (written < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return IoResult{total, /*would_block=*/true};
      }
      return errno_error("writev");
    }
    total += static_cast<std::size_t>(written);
    std::size_t remaining = static_cast<std::size_t>(written);
    while (remaining > 0 && index < iov.size()) {
      if (remaining >= iov[index].iov_len) {
        remaining -= iov[index].iov_len;
        ++index;
      } else {
        iov[index].iov_base =
            static_cast<char*>(iov[index].iov_base) + remaining;
        iov[index].iov_len -= remaining;
        remaining = 0;
      }
    }
  }
  return IoResult{total, false};
}

Result<std::size_t> read_some(int fd, char* out, std::size_t n) {
  for (;;) {
    const ssize_t got = ::read(fd, out, n);
    if (got < 0) {
      if (errno == EINTR) continue;
      return errno_error("read");
    }
    return static_cast<std::size_t>(got);
  }
}

Status read_exact(int fd, char* out, std::size_t n) {
  while (n > 0) {
    Result<std::size_t> got = read_some(fd, out, n);
    if (!got.ok()) return got.error();
    if (got.value() == 0) {
      return Error{ErrorCode::kClosed, "connection closed mid-read"};
    }
    out += got.value();
    n -= got.value();
  }
  return Status{};
}

}  // namespace bsoap::net
