#include "http/request_parser.hpp"

#include "compress/deflate.hpp"
#include "textconv/parse.hpp"

namespace bsoap::http {

Status RequestParser::feed(const char* data, std::size_t n) {
  buf_.append(data, n);
  return advance();
}

Error RequestParser::eof_error() const {
  if (state_ == State::kHead) {
    if (buf_.empty()) return Error{ErrorCode::kClosed, "connection closed"};
    return Error{ErrorCode::kProtocolError, "EOF inside message head"};
  }
  return Error{ErrorCode::kClosed, "connection closed mid-message"};
}

HttpRequest RequestParser::take() {
  BSOAP_ASSERT(state_ == State::kDone);
  HttpRequest out = std::move(request_);
  request_ = HttpRequest{};
  state_ = State::kHead;
  head_scanned_ = 0;
  chunked_ = false;
  content_length_ = 0;
  chunked_decoder_ = ChunkedDecoder{};
  return out;
}

Status RequestParser::advance() {
  if (state_ == State::kHead) {
    BSOAP_RETURN_IF_ERROR(advance_head());
  }
  if (state_ == State::kBody) {
    BSOAP_RETURN_IF_ERROR(advance_body());
  }
  return Status{};
}

Status RequestParser::advance_head() {
  const std::size_t blank = buf_.find("\r\n\r\n", head_scanned_);
  if (blank == std::string::npos) {
    // Resume the blank-line scan where it can first match next time.
    head_scanned_ = buf_.size() > 3 ? buf_.size() - 3 : 0;
    return Status{};
  }
  Result<HttpRequest> head =
      parse_request_head(std::string_view(buf_).substr(0, blank + 4));
  if (!head.ok()) return head.error();
  request_ = std::move(head.value());
  buf_.erase(0, blank + 4);
  head_scanned_ = 0;

  if (const Header* te = find_header(request_.headers, "Transfer-Encoding");
      te != nullptr && te->value == "chunked") {
    chunked_ = true;
  } else if (const Header* cl =
                 find_header(request_.headers, "Content-Length")) {
    Result<std::uint64_t> n = textconv::parse_u64(cl->value);
    if (!n.ok()) {
      return Error{ErrorCode::kProtocolError,
                   "bad Content-Length: " + cl->value};
    }
    if (n.value() > max_inflate_bytes_) {
      return Error{ErrorCode::kOutOfRange, "Content-Length: body limit"};
    }
    content_length_ = static_cast<std::size_t>(n.value());
  } else {
    // A request without framing headers has no body (RFC 2616 4.3).
    state_ = State::kBody;
    return finish_body();
  }
  state_ = State::kBody;
  return Status{};
}

Status RequestParser::advance_body() {
  if (chunked_) {
    if (!buf_.empty()) {
      std::size_t consumed = 0;
      BSOAP_RETURN_IF_ERROR(
          chunked_decoder_.feed(buf_, &request_.body, &consumed));
      buf_.erase(0, consumed);
      if (request_.body.size() > max_inflate_bytes_) {
        return Error{ErrorCode::kOutOfRange, "chunked: body limit"};
      }
    }
    if (!chunked_decoder_.done()) return Status{};
    return finish_body();
  }
  if (buf_.size() < content_length_) return Status{};
  request_.body.assign(buf_, 0, content_length_);
  buf_.erase(0, content_length_);
  return finish_body();
}

Status RequestParser::finish_body() {
  if (const Header* encoding =
          find_header(request_.headers, "Content-Encoding")) {
    if (encoding->value == "gzip") {
      Result<std::string> inflated =
          compress::gzip_decompress(request_.body, max_inflate_bytes_);
      if (!inflated.ok()) return inflated.error();
      request_.body = std::move(inflated.value());
    } else if (encoding->value == "deflate") {
      Result<std::string> inflated =
          compress::zlib_decompress(request_.body, max_inflate_bytes_);
      if (!inflated.ok()) return inflated.error();
      request_.body = std::move(inflated.value());
    }
    // Other codings (deflate-preset needs a dictionary only the diff-wire
    // layer holds) pass through undecoded for the upper layer.
  }
  state_ = State::kDone;
  return Status{};
}

}  // namespace bsoap::http
