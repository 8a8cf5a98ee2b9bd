// Buffered HTTP connection: request/response exchange over a Transport.
//
// Supports keep-alive (many exchanges per connection — the paper's clients
// reuse one connection for all sends), Content-Length and chunked framing in
// both directions, and zero-copy scatter-gather sends of chunked bodies.
#pragma once

#include <span>
#include <string>

#include "common/error.hpp"
#include "http/content_coding.hpp"
#include "http/framer.hpp"
#include "http/http_message.hpp"
#include "http/request_parser.hpp"
#include "net/transport.hpp"

namespace bsoap::http {

class HttpConnection {
 public:
  explicit HttpConnection(net::Transport& transport) : transport_(transport) {}

  /// Caps what any compressed (gzip/deflate) body read on this connection
  /// may inflate to — the decompression-bomb bound, plumbed from server
  /// options — and every request body as framed (RequestParser). Oversized
  /// bodies fail with kOutOfRange.
  void set_max_inflate_bytes(std::size_t bound) {
    max_inflate_bytes_ = bound;
    request_parser_.set_max_inflate_bytes(bound);
  }

  /// Sends `head` with `body` slices. The framer adds its framing headers
  /// (Content-Length or Transfer-Encoding) and wraps the body for the wire;
  /// the default frames with Content-Length.
  Status send_request(HttpRequest head, std::span<const net::ConstSlice> body,
                      const Framer& framer = content_length_framer());

  /// Sends `head` with `body` encoded under `coding` (gSOAP's transport
  /// compression, complementary to differential serialization — paper
  /// Section 5). Adds the Content-Encoding header for any coding but
  /// identity; `dict` feeds the preset coding's dictionary.
  Status send_request(HttpRequest head, std::string_view body,
                      ContentCoding coding, std::string_view dict = {});

  Status send_response(HttpResponse head, std::string_view body);

  /// Reads one request via the resumable RequestParser (shared with the
  /// reactor's readiness-driven path). Error code kClosed indicates the
  /// peer closed the connection cleanly between requests (keep-alive end).
  Result<HttpRequest> read_request();

  Result<HttpResponse> read_response();

 private:
  /// Reads and strips one head (through the blank line) from the stream.
  Result<std::string> read_head();
  /// Fills `body` according to the framing headers; transparently inflates
  /// a gzip or deflate Content-Encoding (bounded by max_inflate_bytes).
  Status read_body(const std::vector<Header>& headers, bool is_request,
                   std::string* body);
  Status read_body_raw(const std::vector<Header>& headers, bool is_request,
                       std::string* body);
  /// Ensures at least `n` bytes are buffered.
  Status buffer_at_least(std::size_t n);

  std::size_t max_inflate_bytes_ = 1u << 30;
  net::Transport& transport_;
  std::string inbuf_;            ///< response-side read buffer
  RequestParser request_parser_; ///< request-side incremental parser
};

}  // namespace bsoap::http
