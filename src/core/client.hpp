// bSOAP client stub: the user-facing API of differential serialization.
//
// Two usage styles:
//
//  1. Transparent (`send_call`) — pass a plain RpcCall every time; the stub
//     finds the saved template for the call's structure and rewrites only
//     the fields whose values differ from the previous send (detected by
//     comparing against the DUT shadow copies).
//
//  2. Tracked (`bind` + BoundMessage setters) — the paper's envisioned
//     "get/set methods whose implementation will update the DUT table
//     transparently": setters mark dirty bits, send() rewrites exactly the
//     dirty fields with no comparisons, and an unchanged message short-
//     circuits to a resend of the stored bytes.
//
// Connections and resilience: a client constructed with a net::Dialer owns
// a keep-alive ConnectionPool and retries failed sends per its RetryPolicy,
// repairing template state between attempts (rollback or invalidation — see
// resilience/resilient_sender.hpp for the state machine). The legacy
// single-transport constructor still works: the pool is fixed to that one
// transport and sends never retry. Every surface — send_call, invoke,
// BoundMessage::send — runs through the same internal SendOutcome path.
//
// Retryable errors (default policy): kIoError, kClosed, kTimeout,
// kUnavailable. A send that exhausts its retry budget fails with
// kRetryExhausted, carrying the last underlying error in its message.
#pragma once

#include <memory>
#include <string>

#include "common/error.hpp"
#include "core/diff_serializer.hpp"
#include "core/send_pipeline.hpp"
#include "core/template_store.hpp"
#include "net/connection_pool.hpp"
#include "net/transport.hpp"
#include "resilience/resilient_sender.hpp"
#include "soap/value.hpp"

namespace bsoap::core {

/// Client configuration. An aggregate with named fluent setters — build it
/// as BsoapClientConfig{}.with_max_templates(8).with_framing(
/// http::Framing::kChunked) rather than by positional initialization, which
/// silently misassigns when fields are added or reordered.
struct BsoapClientConfig {
  TemplateConfig tmpl;
  /// false = "bSOAP Full Serialization" from the paper's figures: the
  /// template machinery runs, but every send re-serializes from scratch.
  bool differential = true;
  /// Saved templates retained across call structures (LRU; the paper keeps
  /// one per call type, Section 6 proposes several).
  std::size_t max_templates = 8;
  /// Byte budget across saved templates (0 = unlimited); least recently
  /// used templates are evicted first once exceeded.
  std::size_t max_template_bytes = 0;
  std::string endpoint_path = "/";
  /// Wire framing of the request body (Content-Length or HTTP/1.1 chunked).
  http::Framing framing = http::Framing::kContentLength;
  /// Retry/backoff for pooled (dialer-constructed) clients. Ignored by the
  /// legacy single-transport constructor, which never retries.
  resilience::RetryPolicy retry;
  /// Idle keep-alive connections the pool retains.
  std::size_t max_idle_connections = 4;
  /// Negotiate the diff-wire patch protocol: full sends offer the call's
  /// template for pinning, and once the server acks, non-structural updates
  /// cross the wire as binary patch frames (dirty runs only). Acks and
  /// nacks ride on responses, so only invoke() completes the negotiation;
  /// send_call never reads responses and keeps sending full bodies.
  bool diffwire = false;
  /// Content coding for request payloads. kGzip/kDeflate compress every
  /// full body; kDeflatePreset — the second differential layer — presets
  /// the DEFLATE window from the diff-wire replica, so full re-offers
  /// shrink against bytes the server already holds; patch frames go
  /// uncoded (requires diffwire and invoke(), which reads the server's
  /// coding ack; without them it degrades to identity). Any coded send falls back to
  /// identity per message when compression does not shrink the payload.
  http::ContentCoding coding = http::ContentCoding::kIdentity;
  /// Request payloads smaller than this are never compressed.
  std::size_t coding_min_bytes = 256;

  // --- named fluent setters ---
  BsoapClientConfig& with_template_config(TemplateConfig t) {
    tmpl = std::move(t);
    return *this;
  }
  BsoapClientConfig& with_differential(bool on) {
    differential = on;
    return *this;
  }
  BsoapClientConfig& with_max_templates(std::size_t n) {
    max_templates = n;
    return *this;
  }
  BsoapClientConfig& with_max_template_bytes(std::size_t n) {
    max_template_bytes = n;
    return *this;
  }
  BsoapClientConfig& with_framing(http::Framing f) {
    framing = f;
    return *this;
  }
  BsoapClientConfig& with_endpoint_path(std::string p) {
    endpoint_path = std::move(p);
    return *this;
  }
  BsoapClientConfig& with_retry(resilience::RetryPolicy p) {
    retry = std::move(p);
    return *this;
  }
  BsoapClientConfig& with_max_idle_connections(std::size_t n) {
    max_idle_connections = n;
    return *this;
  }
  BsoapClientConfig& with_diffwire(bool on) {
    diffwire = on;
    return *this;
  }
  BsoapClientConfig& with_compression(http::ContentCoding c,
                                      std::size_t min_body_bytes = 256) {
    coding = c;
    coding_min_bytes = min_body_bytes;
    return *this;
  }
};

class BoundMessage;

class BsoapClient {
 public:
  /// Pooled client: connections are dialed on demand, kept alive in a
  /// bounded idle pool, reconnected when the peer closes, and failed sends
  /// retry per config.retry with template-state recovery.
  BsoapClient(net::Dialer dial, BsoapClientConfig config);

  /// Legacy single-connection client: the transport must outlive the
  /// client. The pool is fixed to this one transport and sends never retry
  /// (a retry over a stream holding partial bytes would interleave them).
  explicit BsoapClient(net::Transport& transport, BsoapClientConfig config);
  explicit BsoapClient(net::Transport& transport)
      : BsoapClient(transport, BsoapClientConfig{}) {}

  /// Sends `call`, reusing a saved template when one matches. Does not read
  /// a response (the paper's Send Time protocol). The report carries how
  /// many attempts were made and what recovery, if any, was applied.
  Result<SendReport> send_call(const soap::RpcCall& call);

  /// Full RPC: send (with retry), then read and decode the response from
  /// the same pooled connection the send succeeded on. The response read
  /// itself is not retried — the request may have been acted on.
  Result<soap::Value> invoke(const soap::RpcCall& call);

  /// Creates a tracked message bound to this client. The template is built
  /// (first-time send happens on the first send()).
  std::unique_ptr<BoundMessage> bind(soap::RpcCall call);

  const BsoapClientConfig& config() const { return config_; }
  TemplateStore& store() { return pipeline_.store(); }

  /// The staged send path this client sends through. Exposed so callers can
  /// attach a SendObserver or override the framing strategy.
  SendPipeline& pipeline() { return pipeline_; }

  /// This client's connection pool (reconnect/reuse counters for tests and
  /// benchmarks).
  net::ConnectionPool& pool() { return pool_; }

  /// Diff-wire negotiation counters, or nullptr when config.diffwire is off.
  const diffwire::ClientDiffStats* diffwire_stats() const {
    return diffwire_ != nullptr ? &diffwire_->stats() : nullptr;
  }

 private:
  friend class BoundMessage;

  BsoapClientConfig config_;
  SendPipeline pipeline_;
  net::ConnectionPool pool_;
  resilience::ResilientSender sender_;
  /// Per-client diff-wire session (templates this client believes the
  /// server has pinned). Owns a unique wire-ID token so two clients sending
  /// the same call shape pin distinct replicas.
  std::unique_ptr<diffwire::ClientSession> diffwire_;
};

/// A message with explicit update tracking. Mutations go through setters
/// that update the in-memory value and set the matching DUT dirty bit.
class BoundMessage {
 public:
  const soap::RpcCall& call() const { return call_; }
  MessageTemplate& tmpl() { return *tmpl_; }

  /// Leaf index of the first leaf of parameter `param` (document order).
  std::size_t param_leaf_base(std::size_t param) const {
    return leaf_base_[param];
  }

  // --- scalar parameters -------------------------------------------------
  void set_double(std::size_t param, double v);
  void set_int(std::size_t param, std::int32_t v);
  void set_string(std::size_t param, std::string v);

  // --- array parameters --------------------------------------------------
  void set_double_element(std::size_t param, std::size_t index, double v);
  void set_int_element(std::size_t param, std::size_t index, std::int32_t v);
  void set_mio_element(std::size_t param, std::size_t index,
                       const soap::Mio& v);
  /// Updates only the field value (the double) of an MIO element.
  void set_mio_field_value(std::size_t param, std::size_t index, double v);

  double get_double_element(std::size_t param, std::size_t index) const;

  /// Marks an arbitrary leaf dirty (escape hatch for struct members).
  void mark_leaf_dirty(std::size_t leaf_index) {
    tmpl_->dut().mark_dirty(leaf_index);
  }

  std::size_t dirty_count() const { return tmpl_->dut().dirty_count(); }

  /// Sends the message: a clean DUT resends the stored bytes (content
  /// match); otherwise only dirty fields are rewritten first. Retries per
  /// the client's policy; if recovery had to invalidate the template it is
  /// rebuilt in place and the send reports kFirstTime.
  Result<SendReport> send();

 private:
  friend class BsoapClient;
  BoundMessage(BsoapClient& client, soap::RpcCall call);

  soap::Value& param_value(std::size_t param) {
    BSOAP_ASSERT(param < call_.params.size());
    return call_.params[param].value;
  }

  BsoapClient& client_;
  soap::RpcCall call_;
  std::unique_ptr<MessageTemplate> tmpl_;
  std::vector<std::size_t> leaf_base_;
};

}  // namespace bsoap::core
