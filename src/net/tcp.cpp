#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace bsoap::net {
namespace {

Error errno_error(const char* what) {
  return Error{ErrorCode::kIoError,
               std::string(what) + ": " + std::strerror(errno)};
}

}  // namespace

Result<TcpListener> TcpListener::bind(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return errno_error("socket");
  const int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return errno_error("bind");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return errno_error("getsockname");
  }
  // Backlog sized for bursts of keep-alive clients (the reactor admits
  // thousands of connections; the kernel queue must not be the bottleneck).
  if (::listen(fd.get(), 128) < 0) return errno_error("listen");
  return TcpListener(std::move(fd), ntohs(addr.sin_port));
}

Result<std::unique_ptr<Transport>> TcpListener::accept() {
  for (;;) {
    const int client = ::accept(fd_.get(), nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      return errno_error("accept");
    }
    Fd cfd(client);
    BSOAP_RETURN_IF_ERROR(apply_paper_socket_options(cfd.get()));
    return {std::make_unique<SocketTransport>(std::move(cfd))};
  }
}

Result<std::unique_ptr<Transport>> TcpListener::try_accept() {
  for (;;) {
    const int client = ::accept(fd_.get(), nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return std::unique_ptr<Transport>{};  // nothing pending
      }
      return errno_error("accept");
    }
    Fd cfd(client);
    BSOAP_RETURN_IF_ERROR(apply_paper_socket_options(cfd.get()));
    return {std::make_unique<SocketTransport>(std::move(cfd))};
  }
}

Result<std::unique_ptr<Transport>> tcp_connect(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return errno_error("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  for (;;) {
    if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      break;
    }
    if (errno == EINTR) continue;
    return errno_error("connect");
  }
  BSOAP_RETURN_IF_ERROR(apply_paper_socket_options(fd.get()));
  return {std::make_unique<SocketTransport>(std::move(fd))};
}

}  // namespace bsoap::net
