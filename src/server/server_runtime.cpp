#include "server/server_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "core/parsed_replica.hpp"
#include "diffwire/wire_format.hpp"
#include "http/connection.hpp"
#include "net/tcp.hpp"
#include "server/fault_render.hpp"
#include "server/paced_transport.hpp"
#include "soap/envelope_reader.hpp"

namespace bsoap::server {

namespace {

bool coding_enabled(const std::vector<http::ContentCoding>& codings,
                    http::ContentCoding coding) {
  return std::find(codings.begin(), codings.end(), coding) != codings.end();
}

/// Picks the response coding from the request's Accept-Encoding ∩ the
/// server's enabled codings; deflate wins over gzip (smaller framing, same
/// compressor). Unknown tokens and q-values are ignored — absent or
/// unusable offers mean identity, never an error.
http::ContentCoding negotiate_response_coding(
    const http::HttpRequest& request,
    const std::vector<http::ContentCoding>& codings) {
  const http::Header* accept = request.find("Accept-Encoding");
  if (accept == nullptr) return http::ContentCoding::kIdentity;
  bool wants_gzip = false;
  bool wants_deflate = false;
  std::string_view rest = accept->value;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view token = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    // Strip any ";q=..." parameter; a q=0 refusal is rare enough that
    // treating it as an offer only costs a per-message fallback check.
    const std::size_t semi = token.find(';');
    if (semi != std::string_view::npos) token = token.substr(0, semi);
    http::ContentCoding coding;
    if (!http::parse_coding(token, &coding)) continue;
    wants_gzip |= coding == http::ContentCoding::kGzip;
    wants_deflate |= coding == http::ContentCoding::kDeflate;
  }
  if (wants_deflate && coding_enabled(codings, http::ContentCoding::kDeflate)) {
    return http::ContentCoding::kDeflate;
  }
  if (wants_gzip && coding_enabled(codings, http::ContentCoding::kGzip)) {
    return http::ContentCoding::kGzip;
  }
  return http::ContentCoding::kIdentity;
}

}  // namespace

Result<std::unique_ptr<ServerRuntime>> ServerRuntime::start(
    soap::RpcHandler handler, ServerRuntimeOptions options) {
  BSOAP_ASSERT(options.workers >= 1);
  Result<net::TcpListener> listener = net::TcpListener::bind();
  if (!listener.ok()) return listener.error();

  auto server = std::unique_ptr<ServerRuntime>(new ServerRuntime());
  server->handler_ = std::move(handler);
  server->options_ = std::move(options);
  server->port_ = listener.value().port();
  const bool reactor_mode = server->options_.io_model == IoModel::kReactor;
  if (reactor_mode) {
    server->dispatch_ =
        std::make_unique<DispatchQueue>(server->options_.accept_backlog);
  } else {
    server->queue_ =
        std::make_unique<AcceptQueue>(server->options_.accept_backlog);
  }

  core::SendPipeline::Options pipeline_options;
  pipeline_options.tmpl = server->options_.response_tmpl;
  pipeline_options.differential = server->options_.diff_responses;
  pipeline_options.max_templates = server->options_.response_templates;
  pipeline_options.max_template_bytes =
      server->options_.response_template_bytes;
  if (server->options_.diffwire) {
    diffwire::ReplicaStore::Options replica_options;
    replica_options.max_replicas = server->options_.diffwire_replicas;
    replica_options.max_bytes = server->options_.diffwire_replica_bytes;
    replica_options.retain_dictionaries = coding_enabled(
        server->options_.codings, http::ContentCoding::kDeflatePreset);
    server->replicas_ =
        std::make_unique<diffwire::ReplicaStore>(replica_options);
  }
  for (std::size_t i = 0; i < server->options_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->pipeline = std::make_unique<core::SendPipeline>(pipeline_options);
    server->workers_.push_back(std::move(worker));
  }
  if (reactor_mode) {
    Reactor::Options reactor_options;
    reactor_options.max_connections = server->options_.max_connections;
    reactor_options.timeouts.idle = server->options_.idle_timeout;
    reactor_options.timeouts.read = server->options_.read_timeout;
    reactor_options.timeouts.slice = server->options_.poll_slice;
    reactor_options.max_inflate_bytes = server->options_.max_inflate_bytes;
    reactor_options.overload_response = render_overload_response();
    Result<std::unique_ptr<Reactor>> reactor =
        Reactor::start(std::move(listener.value()), std::move(reactor_options),
                       server->dispatch_.get(), &server->stats_);
    if (!reactor.ok()) {
      server->dispatch_->close();
      return reactor.error();
    }
    server->reactor_ = std::move(reactor.value());
    for (auto& worker : server->workers_) {
      worker->thread = std::thread([srv = server.get(), w = worker.get()] {
        srv->reactor_worker_loop(*w);
      });
    }
    return server;
  }
  for (auto& worker : server->workers_) {
    worker->thread = std::thread(
        [srv = server.get(), w = worker.get()] { srv->worker_loop(*w); });
  }
  server->accept_thread_ = std::thread(
      [srv = server.get(), l = std::make_shared<net::TcpListener>(std::move(
                               listener.value()))] { srv->accept_loop(*l); });
  return server;
}

ServerRuntime::~ServerRuntime() { stop(); }

void ServerRuntime::accept_loop(net::TcpListener& listener) {
  for (;;) {
    Result<std::unique_ptr<net::Transport>> conn = listener.accept();
    if (!conn.ok() || stopping_.load(std::memory_order_acquire)) return;

    if (stats_.active.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      stats_.rejected.fetch_add(1, std::memory_order_relaxed);
      reject_with_503(std::move(conn.value()));
      continue;
    }
    // Count the connection as active before the handoff so the admission
    // check above never undercounts; roll back if the queue was full.
    stats_.active.fetch_add(1, std::memory_order_relaxed);
    std::unique_ptr<net::Transport> back =
        queue_->try_push(std::move(conn.value()));
    if (back != nullptr) {
      stats_.active.fetch_sub(1, std::memory_order_relaxed);
      stats_.rejected.fetch_add(1, std::memory_order_relaxed);
      reject_with_503(std::move(back));
      continue;
    }
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
  }
}

void ServerRuntime::worker_loop(Worker& worker) {
  for (;;) {
    std::unique_ptr<net::Transport> transport = queue_->pop();
    if (transport == nullptr) return;  // queue closed: drain complete
    serve_connection(worker, std::move(transport));
  }
}

void ServerRuntime::reactor_worker_loop(Worker& worker) {
  for (;;) {
    std::optional<DispatchJob> job = dispatch_->pop();
    if (!job.has_value()) return;  // queue closed and drained
    // Serialize through the identical pipeline the blocking path uses,
    // writing directly while the connection is parked in Dispatched — the
    // reactor holds no epoll interest on it, so this thread has the socket
    // to itself. The pipeline's write stage gathers the response slices
    // (head + template chunks) into writev calls with no flatten; only an
    // EAGAIN remainder is copied and rides the completion back for
    // EPOLLOUT-driven drain. A false return means the response could not
    // be fully produced; whatever prefix reached the socket matches what
    // the blocking path would have written, so the engines' wire behavior
    // stays aligned.
    DirectSliceTransport direct(*job->transport);
    const bool keep = answer_request(worker, job->request, direct);
    Completion completion;
    completion.conn_id = job->conn_id;
    completion.keep_alive = keep;
    if (direct.write_error()) {
      completion.write_error = true;
    } else if (direct.copied_bytes() > 0) {
      stats_.partial_writes.fetch_add(1, std::memory_order_relaxed);
      stats_.write_copied_bytes.fetch_add(direct.copied_bytes(),
                                          std::memory_order_relaxed);
      completion.bytes = direct.take_tail();
    }
    reactor_->complete(std::move(completion));
  }
}

void ServerRuntime::serve_connection(
    Worker& worker, std::unique_ptr<net::Transport> raw_transport) {
  PacedTransport::Timeouts timeouts;
  timeouts.idle = options_.idle_timeout;
  timeouts.read = options_.read_timeout;
  timeouts.slice = options_.poll_slice;
  PacedTransport transport(std::move(raw_transport), timeouts, &draining_,
                           &stats_.partial_writes);
  http::HttpConnection conn(transport);
  conn.set_max_inflate_bytes(options_.max_inflate_bytes);

  for (;;) {
    transport.begin_idle();
    Result<http::HttpRequest> request = conn.read_request();
    if (!request.ok()) {
      const ErrorCode code = request.error().code;
      if (code == ErrorCode::kTimeout) {
        if (transport.timed_out_idle()) {
          stats_.idle_closed.fetch_add(1, std::memory_order_relaxed);
        } else {
          stats_.read_timeouts.fetch_add(1, std::memory_order_relaxed);
        }
      } else if (code != ErrorCode::kClosed) {
        // Unparseable HTTP head or framing: the stream is out of sync, so
        // answer 400 (or 413 when the decompression bound tripped) with a
        // fault envelope and close.
        stats_.bad_requests.fetch_add(1, std::memory_order_relaxed);
        (void)transport.send(render_parse_failure_response(request.error()));
      }
      break;  // kClosed: keep-alive ended cleanly
    }

    if (!answer_request(worker, request.value(), transport)) {
      break;  // the write failed: the connection is dead
    }
    if (draining_.load(std::memory_order_acquire)) break;
  }
  stats_.active.fetch_sub(1, std::memory_order_relaxed);
}

bool ServerRuntime::answer_request(Worker& worker, http::HttpRequest& request,
                                   net::Transport& transport) {
  std::string_view body = request.body;
  std::string preset_decoded;  // preset-coded sends: the inflated body
  std::string* owned_body = &request.body;  // what an offer pins
  // Diff-wire: reconstruct patch frames against the pinned replica, and pin
  // (or re-pin) full bodies the client offers. The ack rides back on this
  // request's response via extra_headers.
  std::vector<http::Header> diff_headers;
  const std::vector<http::Header>* extra_headers = nullptr;
  // Receive-side stage timing, paid only when an observer is installed.
  RecvObserver* const obs = options_.recv_observer;
  using Clock = std::chrono::steady_clock;
  const auto elapsed_ns = [](Clock::time_point begin) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                begin)
        .count();
  };

  // Produce the handler's RpcCall. Diff-wire requests go through the
  // replica's cached parse (ParsedReplica, in the replica's slot) when
  // differential deserialization is on; everything else is a full parse
  // into a request-local call. The lease must outlive the handler AND the
  // response write — on the uncontended path the call points into the
  // shared deserializer the lease's lock protects. An offer is parsed
  // inside ReplicaStore::pin and a patch inside ReplicaStore::apply, both
  // from the replica's body in place.
  const bool fused = replicas_ != nullptr && options_.diff_deserialize;
  core::ParsedReplica::Lease lease;
  soap::RpcCall full_call;
  const auto record_deser = [this](
                                const core::ParsedReplica::ServeReport& r) {
    switch (r.path) {
      case core::DiffDeserializer::ApplyPath::kContentHit:
        stats_.deser_content_hits.fetch_add(1, std::memory_order_relaxed);
        break;
      case core::DiffDeserializer::ApplyPath::kFastParse:
        stats_.deser_fast_parses.fetch_add(1, std::memory_order_relaxed);
        stats_.deser_leaves_reparsed.fetch_add(r.leaves_reparsed,
                                               std::memory_order_relaxed);
        break;
      case core::DiffDeserializer::ApplyPath::kFullParse:
        stats_.deser_full_parses.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    if (r.demoted) {
      stats_.deser_demotions.fetch_add(1, std::memory_order_relaxed);
    }
  };
  // `slot` is set for a body served from its replica, `runs` for a patch.
  const auto parse = [&](std::string_view text,
                         std::shared_ptr<diffwire::ReplicaAttachment>* slot,
                         std::span<const diffwire::PatchRun> runs)
      -> Result<const soap::RpcCall*> {
    const Clock::time_point parse_begin =
        obs != nullptr ? Clock::now() : Clock::time_point{};
    Result<const soap::RpcCall*> parsed =
        [&]() -> Result<const soap::RpcCall*> {
      if (fused && slot != nullptr) {
        core::ParsedReplica::ServeReport report;
        Result<core::ParsedReplica::Lease> served =
            core::ParsedReplica::serve(core::ParsedReplica::in(*slot), text,
                                       runs, &report);
        if (!served.ok()) return served.error();
        record_deser(report);
        lease = std::move(served.value());
        return &lease.call();
      }
      Result<soap::RpcCall> full = soap::read_rpc_envelope(text);
      if (!full.ok()) return full.error();
      full_call = std::move(full.value());
      return &full_call;
    }();
    if (obs != nullptr) {
      obs->on_stage(RecvStage::kParse, elapsed_ns(parse_begin), text.size());
    }
    return parsed;
  };
  std::optional<Result<const soap::RpcCall*>> call;

  if (replicas_ != nullptr) {
    // Second differential layer: a preset-coded body (full re-offer or
    // patch frame) decodes against the pinned generation's dictionary
    // before any of the logic below sees it. Anything undecodable — no
    // template header, coding disabled, replica evicted, dictionary drift,
    // bound exceeded — NACKs, which makes the client fall back to an
    // identity full send and re-pin.
    if (const http::Header* encoding = request.find("Content-Encoding");
        encoding != nullptr &&
        encoding->value == diffwire::kCodingPresetValue) {
      const http::Header* id_header = request.find(diffwire::kTemplateHeader);
      std::uint64_t id = 0;
      if (!coding_enabled(options_.codings,
                          http::ContentCoding::kDeflatePreset) ||
          id_header == nullptr ||
          !diffwire::parse_template_id(id_header->value, &id)) {
        stats_.patch_nacks.fetch_add(1, std::memory_order_relaxed);
        return transport
            .send(diffwire::render_nack_response(id, "preset coding unusable"))
            .ok();
      }
      const Clock::time_point decode_begin =
          obs != nullptr ? Clock::now() : Clock::time_point{};
      Result<std::string> decoded =
          replicas_->decode_preset(id, body, options_.max_inflate_bytes);
      if (obs != nullptr) {
        obs->on_stage(RecvStage::kDecode, elapsed_ns(decode_begin),
                      decoded.ok() ? decoded.value().size() : 0);
      }
      if (!decoded.ok()) {
        stats_.patch_nacks.fetch_add(1, std::memory_order_relaxed);
        return transport
            .send(diffwire::render_nack_response(id,
                                                 decoded.error().message))
            .ok();
      }
      preset_decoded = std::move(decoded.value());
      body = preset_decoded;
      owned_body = &preset_decoded;
    }
    const http::Header* content_type = request.find("Content-Type");
    if (content_type != nullptr &&
        content_type->value == diffwire::kPatchContentType) {
      const Clock::time_point apply_begin =
          obs != nullptr ? Clock::now() : Clock::time_point{};
      Result<diffwire::PatchFrame> frame = diffwire::decode_patch(body);
      if (!frame.ok()) {
        // Malformed frame. The HTTP framing was intact, so the connection
        // stays usable; the 409 tells the sender to fall back to full.
        stats_.patch_nacks.fetch_add(1, std::memory_order_relaxed);
        return transport
            .send(diffwire::render_nack_response(0, frame.error().message))
            .ok();
      }
      const diffwire::PatchFrame& patch = frame.value();
      const diffwire::PatchHeader& header = patch.header;
      if (header.body_len > options_.max_inflate_bytes) {
        // A patch reconstructs a body of body_len bytes regardless of the
        // frame's own size, so it must honor the same inflation bound
        // coded full bodies do: 413, not a NACK (the frame may be valid —
        // the server just refuses to materialize the result).
        stats_.bad_requests.fetch_add(1, std::memory_order_relaxed);
        return transport
            .send(render_parse_failure_response(
                Error{ErrorCode::kOutOfRange,
                      "patch body_len exceeds max_inflate_bytes"}))
            .ok();
      }
      const Status applied = replicas_->apply(
          patch, [&](std::string_view replica_body,
                     std::shared_ptr<diffwire::ReplicaAttachment>& slot) {
            if (obs != nullptr) {
              obs->on_stage(RecvStage::kPatchApply, elapsed_ns(apply_begin),
                            replica_body.size());
            }
            call = parse(replica_body, &slot, patch.runs);
          });
      if (!applied.ok()) {
        // Unknown template, epoch gap, bad bounds or checksum: the replica
        // (if any) has been dropped; the sender re-offers on its fallback.
        stats_.patch_nacks.fetch_add(1, std::memory_order_relaxed);
        return transport
            .send(diffwire::render_nack_response(header.template_id,
                                                 applied.error().message))
            .ok();
      }
      stats_.patch_sends.fetch_add(1, std::memory_order_relaxed);
      if (header.replay()) {
        stats_.patch_replays.fetch_add(1, std::memory_order_relaxed);
      }
      if (header.body_len > request.body.size()) {
        // Against the actual wire payload, so a preset-coded frame's
        // compression saving counts too.
        stats_.bytes_saved.fetch_add(header.body_len - request.body.size(),
                                     std::memory_order_relaxed);
      }
    } else {
      const http::Header* diff = request.find(diffwire::kDiffHeader);
      const http::Header* id_header = request.find(diffwire::kTemplateHeader);
      std::uint64_t id = 0;
      if (diff != nullptr && diff->value == diffwire::kOfferValue &&
          id_header != nullptr &&
          diffwire::parse_template_id(id_header->value, &id)) {
        // The offer's full body moves into the replica; its parse serves
        // this request and primes the replica's cached parse for the
        // patches that follow.
        const bool repin = replicas_->pin(
            id, std::move(*owned_body),
            [&](std::string_view pinned,
                std::shared_ptr<diffwire::ReplicaAttachment>& slot) {
              call = parse(pinned, &slot, {});
            });
        if (repin) {
          // Re-pin of a known template: the client fell back to a full
          // send after a nack or a structural update.
          stats_.fallback_full_sends.fetch_add(1, std::memory_order_relaxed);
        }
        diff_headers.push_back(
            http::Header{diffwire::kDiffHeader, diffwire::kAckValue});
        diff_headers.push_back(http::Header{
            diffwire::kTemplateHeader, diffwire::format_template_id(id)});
        // Ack the preset-coding offer when enabled: subsequent sends under
        // this pin may arrive deflate-preset coded. Re-acked on every
        // re-offer (the client's coding state survives re-pins).
        const http::Header* coding_offer =
            request.find(diffwire::kCodingHeader);
        if (coding_offer != nullptr &&
            coding_offer->value == diffwire::kCodingPresetValue &&
            coding_enabled(options_.codings,
                           http::ContentCoding::kDeflatePreset)) {
          diff_headers.push_back(http::Header{diffwire::kCodingHeader,
                                              diffwire::kCodingPresetValue});
        }
        extra_headers = &diff_headers;
      }
    }
  }
  if (!call.has_value()) call = parse(body, nullptr, {});
  if (!call->ok()) {
    // The HTTP framing was intact, so the connection stays usable: answer
    // 400 + fault and keep serving.
    stats_.bad_requests.fetch_add(1, std::memory_order_relaxed);
    stats_.faults.fetch_add(1, std::memory_order_relaxed);
    return send_fault(transport, 400, "Bad Request", "SOAP-ENV:Client",
                      call->error().to_string());
  }
  const soap::RpcCall& rpc = *call->value();

  Result<soap::Value> result = handler_(rpc);
  if (!result.ok()) {
    stats_.faults.fetch_add(1, std::memory_order_relaxed);
    return send_fault(transport, 500, "Internal Server Error",
                      "SOAP-ENV:Server", result.error().to_string());
  }

  soap::RpcCall response;
  response.method = rpc.method + "Response";
  response.service_namespace = rpc.service_namespace;
  response.params.push_back(soap::Param{"return", std::move(result.value())});

  core::SendDestination dest;
  dest.transport = &transport;
  dest.extra_headers = extra_headers;
  dest.coding = negotiate_response_coding(request, options_.codings);
  // Count before the write: once the client has read its response, the
  // request is visible in stats() (tests rely on that ordering).
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  Result<core::SendReport> sent =
      worker.pipeline->send_response(response, dest);
  if (!sent.ok()) {
    stats_.requests.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  stats_.record_response(sent.value().match);
  if (sent.value().coding != http::ContentCoding::kIdentity) {
    stats_.compressed_sends.fetch_add(1, std::memory_order_relaxed);
  }
  if (sent.value().coding_bytes_saved > 0) {
    stats_.coding_bytes_saved.fetch_add(sent.value().coding_bytes_saved,
                                        std::memory_order_relaxed);
  }
  if (sent.value().coding_ns > 0) {
    stats_.coding_cpu_ns.fetch_add(
        static_cast<std::uint64_t>(sent.value().coding_ns),
        std::memory_order_relaxed);
  }
  const core::TemplateStore& store = worker.pipeline->store();
  worker.template_bytes.store(store.bytes_retained(),
                              std::memory_order_relaxed);
  worker.template_evictions.store(store.evictions() + store.byte_evictions(),
                                  std::memory_order_relaxed);
  return true;
}

bool ServerRuntime::send_fault(net::Transport& transport, int status,
                               const char* reason, const char* fault_code,
                               const std::string& detail) {
  // Rendered through the same helper the reactor queues on its write drain,
  // so a fault is byte-identical whichever engine answered.
  return transport
      .send(render_fault_response(status, reason, fault_code, detail))
      .ok();
}

void ServerRuntime::reject_with_503(
    std::unique_ptr<net::Transport> transport) {
  (void)transport->send(render_overload_response());
  transport->shutdown_send();
}

ServerStats ServerRuntime::stats() const {
  ServerStats s = stats_.snapshot();
  if (reactor_ != nullptr) {
    s.queue_depth = dispatch_->depth();
    s.queue_high_water = dispatch_->high_water();
    s.completion_queue_depth_hw = reactor_->completion_queue_high_water();
    const Reactor::StateGauges g = reactor_->state_gauges();
    s.conns_idle = g.idle;
    s.conns_reading = g.reading;
    s.conns_dispatched = g.dispatched;
    s.conns_writing = g.writing;
  } else {
    s.queue_depth = queue_->depth();
    s.queue_high_water = queue_->high_water();
  }
  if (replicas_ != nullptr) {
    const diffwire::ReplicaStore::Stats r = replicas_->stats();
    s.diff_pinned_replicas = r.pinned_replicas;
    s.diff_pinned_bytes = r.pinned_bytes;
  }
  for (const auto& worker : workers_) {
    s.response_template_bytes +=
        worker->template_bytes.load(std::memory_order_relaxed);
    s.response_template_evictions +=
        worker->template_evictions.load(std::memory_order_relaxed);
  }
  return s;
}

void ServerRuntime::stop() {
  if (stopping_.exchange(true)) return;
  draining_.store(true, std::memory_order_release);
  if (reactor_ != nullptr) {
    // Order matters: the reactor exits only once every connection is gone,
    // and dispatched connections wait for worker completions — so workers
    // must keep running until the reactor has finished. Then closing the
    // dispatch queue (already empty) releases the workers.
    reactor_->begin_drain();
    reactor_->join();
    dispatch_->close();
    for (auto& worker : workers_) {
      if (worker->thread.joinable()) worker->thread.join();
    }
    return;
  }
  // Wake the blocking accept(); the loop observes stopping_ and exits.
  (void)net::tcp_connect(port_);
  if (accept_thread_.joinable()) accept_thread_.join();
  // Close the queue: workers finish the connection they are on (answering
  // any request already being processed) and exit; connections still
  // queued never started a request, so a 503 is honest.
  for (std::unique_ptr<net::Transport>& transport : queue_->close()) {
    stats_.drained.fetch_add(1, std::memory_order_relaxed);
    stats_.active.fetch_sub(1, std::memory_order_relaxed);
    reject_with_503(std::move(transport));
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

}  // namespace bsoap::server
