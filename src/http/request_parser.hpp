// Resumable, incremental HTTP request parser.
//
// Both connection engines parse requests through this one state machine, so
// a request split at any byte boundary — one byte per read, a slowloris
// client, a whole pipelined burst — parses identically everywhere:
//
//   * the blocking path (HttpConnection::read_request) feeds it whatever
//     each recv returns and keeps reading until a request completes;
//   * the reactor feeds it whatever each readiness-driven read drains and
//     suspends mid-request when the socket runs dry, resuming on the next
//     EPOLLIN without re-scanning consumed bytes.
//
// The parser owns its input buffer: bytes beyond the current request
// (pipelined next requests) are retained and consumed by the next cycle.
// Framing matches HttpConnection's historical behavior exactly — head
// through the blank line, then Content-Length or chunked body, transparent
// gzip/deflate Content-Encoding — including error codes and messages, so the 400
// responses the server sends are byte-identical whichever engine parsed.
#pragma once

#include <string>

#include "common/error.hpp"
#include "http/chunked_coding.hpp"
#include "http/http_message.hpp"

namespace bsoap::http {

class RequestParser {
 public:
  enum class State {
    kHead,  ///< accumulating the request line + headers
    kBody,  ///< head parsed; accumulating the framed body
    kDone,  ///< a complete request is ready via take()
  };

  State state() const { return state_; }
  bool done() const { return state_ == State::kDone; }

  /// Caps every request body, plumbed from server options: a
  /// Content-Length past it fails as soon as the head is parsed, a chunked
  /// body as soon as it grows past it, and a compressed (gzip/deflate) body
  /// when it would inflate past it (the decompression-bomb bound). Each
  /// fails the feed with kOutOfRange, which the engines answer with 413
  /// instead of 400.
  void set_max_inflate_bytes(std::size_t bound) { max_inflate_bytes_ = bound; }

  /// True once any byte of the current request has been buffered — the
  /// idle→read deadline transition (a connection with a started request is
  /// no longer idle).
  bool started() const { return state_ != State::kHead || !buf_.empty(); }

  /// Consumes `data` (all of it — leftovers beyond the current request are
  /// buffered for the next one) and advances as far as the bytes allow.
  /// After a successful feed, check done(). An error means the stream is
  /// unparseable and out of sync: the caller answers 400 and closes.
  Status feed(const char* data, std::size_t n);

  /// The error a clean end-of-stream means in the current state — matches
  /// the blocking reader: kClosed "connection closed" between requests,
  /// kProtocolError mid-head, kClosed "connection closed mid-message"
  /// mid-body.
  Error eof_error() const;

  /// Moves out the completed request and re-arms for the next one. Buffered
  /// pipelined bytes are kept but not parsed yet — call resume() to advance
  /// through them, so an error in the *next* request surfaces on the next
  /// read cycle, not on this one's take.
  HttpRequest take();

  /// Advances through bytes already buffered (pipelined requests). No-op
  /// when nothing is buffered; after it, done() may be true without any new
  /// feed.
  Status resume() { return advance(); }

 private:
  Status advance();
  Status advance_head();
  Status advance_body();
  Status finish_body();

  State state_ = State::kHead;
  std::size_t max_inflate_bytes_ = 1u << 30;
  std::string buf_;            ///< unconsumed input
  std::size_t head_scanned_ = 0;  ///< blank-line search resume point
  HttpRequest request_;
  // Body framing, valid in kBody:
  bool chunked_ = false;
  std::size_t content_length_ = 0;
  ChunkedDecoder chunked_decoder_;
};

}  // namespace bsoap::http
