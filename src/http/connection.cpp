#include "http/connection.hpp"

#include <vector>

#include "compress/deflate.hpp"
#include "http/chunked_coding.hpp"
#include "textconv/parse.hpp"

namespace bsoap::http {

Status HttpConnection::send_request(HttpRequest head,
                                    std::span<const net::ConstSlice> body,
                                    const Framer& framer) {
  std::size_t body_size = 0;
  for (const net::ConstSlice& s : body) body_size += s.len;

  framer.add_headers(head.headers, body_size);
  const std::string head_text = serialize_request_head(head);
  std::vector<std::string> scratch;
  std::vector<net::ConstSlice> wire;
  wire.push_back(net::ConstSlice{head_text.data(), head_text.size()});
  framer.frame_body(body, &wire, &scratch);
  return transport_.send_slices(wire);
}

Status HttpConnection::send_request(HttpRequest head, std::string_view body,
                                    ContentCoding coding,
                                    std::string_view dict) {
  if (coding == ContentCoding::kIdentity) {
    const net::ConstSlice slices[] = {net::ConstSlice{body.data(), body.size()}};
    return send_request(std::move(head), slices);
  }
  const ContentCoder& coder = coding_for(coding);
  const std::string encoded = coder.encode(body, dict);
  head.headers.push_back(Header{"Content-Encoding", coder.name()});
  const net::ConstSlice slices[] = {
      net::ConstSlice{encoded.data(), encoded.size()}};
  return send_request(std::move(head), slices);
}

Status HttpConnection::send_response(HttpResponse head, std::string_view body) {
  content_length_framer().add_headers(head.headers, body.size());
  const std::string head_text = serialize_response_head(head);
  const net::ConstSlice slices[] = {
      net::ConstSlice{head_text.data(), head_text.size()},
      net::ConstSlice{body.data(), body.size()},
  };
  return transport_.send_slices(slices);
}

Status HttpConnection::buffer_at_least(std::size_t n) {
  char tmp[16 * 1024];
  while (inbuf_.size() < n) {
    Result<std::size_t> got = transport_.recv(tmp, sizeof(tmp));
    if (!got.ok()) return got.error();
    if (got.value() == 0) {
      return Error{ErrorCode::kClosed, "connection closed mid-message"};
    }
    inbuf_.append(tmp, got.value());
  }
  return Status{};
}

Result<std::string> HttpConnection::read_head() {
  std::size_t search_from = 0;
  for (;;) {
    const std::size_t blank = inbuf_.find("\r\n\r\n", search_from);
    if (blank != std::string::npos) {
      std::string head = inbuf_.substr(0, blank + 4);
      inbuf_.erase(0, blank + 4);
      return head;
    }
    search_from = inbuf_.size() > 3 ? inbuf_.size() - 3 : 0;
    char tmp[16 * 1024];
    Result<std::size_t> got = transport_.recv(tmp, sizeof(tmp));
    if (!got.ok()) return got.error();
    if (got.value() == 0) {
      if (inbuf_.empty()) {
        return Error{ErrorCode::kClosed, "connection closed"};
      }
      return Error{ErrorCode::kProtocolError, "EOF inside message head"};
    }
    inbuf_.append(tmp, got.value());
  }
}

Status HttpConnection::read_body(const std::vector<Header>& headers,
                                 bool is_request, std::string* body) {
  BSOAP_RETURN_IF_ERROR(read_body_raw(headers, is_request, body));
  if (const Header* encoding = find_header(headers, "Content-Encoding")) {
    Result<std::string> inflated{std::string{}};
    if (encoding->value == "gzip") {
      inflated = compress::gzip_decompress(*body, max_inflate_bytes_);
    } else if (encoding->value == "deflate") {
      inflated = compress::zlib_decompress(*body, max_inflate_bytes_);
    } else {
      // Unknown codings (including deflate-preset, which needs a dictionary
      // only the diff-wire layer holds) pass through undecoded.
      return Status{};
    }
    if (!inflated.ok()) return inflated.error();
    *body = std::move(inflated.value());
  }
  return Status{};
}

Status HttpConnection::read_body_raw(const std::vector<Header>& headers,
                                     bool is_request, std::string* body) {
  body->clear();
  if (const Header* te = find_header(headers, "Transfer-Encoding");
      te != nullptr && te->value == "chunked") {
    ChunkedDecoder decoder;
    for (;;) {
      if (inbuf_.empty()) {
        BSOAP_RETURN_IF_ERROR(buffer_at_least(1));
      }
      std::size_t consumed = 0;
      BSOAP_RETURN_IF_ERROR(decoder.feed(inbuf_, body, &consumed));
      inbuf_.erase(0, consumed);
      if (decoder.done()) return Status{};
    }
  }
  if (const Header* cl = find_header(headers, "Content-Length")) {
    Result<std::uint64_t> n = textconv::parse_u64(cl->value);
    if (!n.ok()) {
      return Error{ErrorCode::kProtocolError,
                   "bad Content-Length: " + cl->value};
    }
    BSOAP_RETURN_IF_ERROR(buffer_at_least(static_cast<std::size_t>(n.value())));
    body->assign(inbuf_, 0, static_cast<std::size_t>(n.value()));
    inbuf_.erase(0, static_cast<std::size_t>(n.value()));
    return Status{};
  }
  if (is_request) {
    // A request without framing headers has no body (RFC 2616 4.3).
    return Status{};
  }
  // Response without framing: body extends to end of stream (HTTP/1.0).
  char tmp[16 * 1024];
  for (;;) {
    Result<std::size_t> got = transport_.recv(tmp, sizeof(tmp));
    if (!got.ok()) return got.error();
    if (got.value() == 0) break;
    body->append(tmp, got.value());
  }
  body->insert(0, inbuf_);
  inbuf_.clear();
  return Status{};
}

Result<HttpRequest> HttpConnection::read_request() {
  // Requests go through the shared resumable parser (the same one the
  // reactor drives from readiness events), fed one recv at a time: no part
  // of the server assumes a request arrives in one read.
  char tmp[16 * 1024];
  for (;;) {
    BSOAP_RETURN_IF_ERROR(request_parser_.resume());
    if (request_parser_.done()) return request_parser_.take();
    Result<std::size_t> got = transport_.recv(tmp, sizeof(tmp));
    if (!got.ok()) return got.error();
    if (got.value() == 0) return request_parser_.eof_error();
    BSOAP_RETURN_IF_ERROR(request_parser_.feed(tmp, got.value()));
    if (request_parser_.done()) return request_parser_.take();
  }
}

Result<HttpResponse> HttpConnection::read_response() {
  Result<std::string> head = read_head();
  if (!head.ok()) return head.error();
  Result<HttpResponse> response = parse_response_head(head.value());
  if (!response.ok()) return response.error();
  BSOAP_RETURN_IF_ERROR(
      read_body(response.value().headers, /*is_request=*/false,
                &response.value().body));
  return response;
}

}  // namespace bsoap::http
