#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace bsoap::e2e {

namespace {

constexpr const char* kLayerNames[kLayerCount] = {
    "client.invoke", "core.resolve",    "core.update",    "core.frame",
    "compress.encode", "core.write",    "net.send",       "net.wait",
    "compress.decode", "diffwire.apply", "soap.parse",    "server.handler",
};

constexpr const char* kClientCounterNames[kClientCounterCount] = {
    "sends",         "first_time_sends", "content_match_sends",
    "psm_sends",     "partial_sends",    "values_rewritten",
    "patch_sends",   "coded_sends",      "coded_bytes",
    "coded_raw_bytes", "req_bytes",      "resp_bytes",
    "send_calls",    "recv_calls",
};

Layer layer_of(core::SendStage stage) {
  switch (stage) {
    case core::SendStage::kResolve:
      return Layer::kResolve;
    case core::SendStage::kUpdate:
      return Layer::kUpdate;
    case core::SendStage::kFrame:
      return Layer::kFrame;
    case core::SendStage::kWrite:
      return Layer::kWrite;
  }
  return Layer::kWrite;
}

Layer layer_of(server::RecvStage stage) {
  switch (stage) {
    case server::RecvStage::kDecode:
      return Layer::kDecode;
    case server::RecvStage::kPatchApply:
      return Layer::kApply;
    case server::RecvStage::kParse:
      return Layer::kParse;
  }
  return Layer::kParse;
}

/// The calling thread's state in the probe that registered it. Worker
/// threads are created per server, so a thread only ever meets one probe;
/// the owner check keeps a stale pointer from crossing probes regardless.
struct ServerTls {
  const void* owner = nullptr;
  void* state = nullptr;
};
thread_local ServerTls tls;

}  // namespace

const char* layer_name(Layer layer) {
  return kLayerNames[static_cast<std::size_t>(layer)];
}

const char* client_counter_name(std::size_t counter) {
  return kClientCounterNames[counter];
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void LayerTotals::merge(const LayerTotals& other) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    ns[i] += other.ns[i];
    calls[i] += other.calls[i];
  }
}

// --- client ----------------------------------------------------------------

void ClientProbe::begin_request(std::uint64_t request_id) {
  tracing_ = window_ != nullptr &&
             window_->recording.load(std::memory_order_relaxed);
  keep_ = tracing_ && window_->keep(request_id);
  request_id_ = request_id;
  in_write_ = false;
}

void ClientProbe::end_request(std::int64_t start_ns, std::int64_t end_ns) {
  if (!tracing_) return;
  // The root span's id is the request id, which server spans name as their
  // parent.
  log_.add(request_id_, Layer::kInvoke, start_ns, end_ns, 0, request_id_,
           keep_);
  tracing_ = false;
}

void ClientProbe::on_stage(core::SendStage stage, std::int64_t elapsed_ns,
                           std::size_t bytes) {
  (void)bytes;
  if (!tracing_) return;
  const std::int64_t end = now_ns();
  const std::int64_t start = end - elapsed_ns;
  const Layer layer = layer_of(stage);
  std::uint64_t id = 0;
  if (layer == Layer::kWrite) {
    id = write_id_;
    in_write_ = false;
  } else {
    id = log_.next_id();
  }
  log_.add(id, layer, start, end, request_id_, request_id_, keep_);
  if (layer == Layer::kFrame) {
    frame_id_ = id;
    frame_start_ = start;
    write_id_ = log_.next_id();
    in_write_ = true;
  }
}

void ClientProbe::on_send(const core::SendReport& report) {
  counts_[kSends] += 1;
  switch (report.match) {
    case core::MatchKind::kFirstTime:
      counts_[kFirstTimeSends] += 1;
      break;
    case core::MatchKind::kContentMatch:
      counts_[kContentMatchSends] += 1;
      break;
    case core::MatchKind::kPerfectStructural:
      counts_[kPsmSends] += 1;
      break;
    case core::MatchKind::kPartialStructural:
      counts_[kPartialSends] += 1;
      break;
  }
  counts_[kValuesRewritten] += report.update.values_rewritten;
  if (report.patch_send) counts_[kPatchSends] += 1;
  if (report.coding != http::ContentCoding::kIdentity) {
    counts_[kCodedSends] += 1;
    counts_[kCodedBytes] += report.envelope_bytes;
    counts_[kCodedRawBytes] += report.envelope_bytes + report.coding_bytes_saved;
  }
  if (tracing_ && report.coding_ns > 0) {
    // Compression runs inside the frame stage; the report gives its
    // duration only, so the span is placed at the stage's start.
    log_.add(log_.next_id(), Layer::kEncode, frame_start_,
             frame_start_ + report.coding_ns, frame_id_, request_id_, keep_);
  }
}

void ClientProbe::io_end(Layer layer, std::int64_t start_ns,
                         std::size_t bytes) {
  if (layer == Layer::kSend) {
    counts_[kReqBytes] += bytes;
    counts_[kSendCalls] += 1;
  } else {
    counts_[kRespBytes] += bytes;
    counts_[kRecvCalls] += 1;
  }
  if (!tracing_) return;
  const std::uint64_t parent =
      layer == Layer::kSend && in_write_ ? write_id_ : request_id_;
  log_.add(log_.next_id(), layer, start_ns, now_ns(), parent, request_id_,
           keep_);
}

Status ProbedTransport::send(const char* data, std::size_t n) {
  const std::int64_t start = probe_.io_begin();
  Status status = inner_->send(data, n);
  probe_.io_end(Layer::kSend, start, status.ok() ? n : 0);
  return status;
}

Status ProbedTransport::send_slices(std::span<const net::ConstSlice> slices) {
  const std::int64_t start = probe_.io_begin();
  Status status = inner_->send_slices(slices);
  std::size_t n = 0;
  if (status.ok()) {
    for (const net::ConstSlice& s : slices) n += s.len;
  }
  probe_.io_end(Layer::kSend, start, n);
  return status;
}

Result<std::size_t> ProbedTransport::recv(char* out, std::size_t n) {
  const std::int64_t start = probe_.io_begin();
  Result<std::size_t> got = inner_->recv(out, n);
  probe_.io_end(Layer::kWait, start, got.ok() ? got.value() : 0);
  return got;
}

// --- server ----------------------------------------------------------------

ServerProbe::ThreadState& ServerProbe::local() {
  if (tls.owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<ThreadState>(
        static_cast<std::uint16_t>(kServerThreadBase + threads_.size())));
    tls.owner = this;
    tls.state = threads_.back().get();
  }
  return *static_cast<ThreadState*>(tls.state);
}

void ServerProbe::on_stage(server::RecvStage stage, std::int64_t elapsed_ns,
                           std::size_t bytes) {
  (void)bytes;
  const std::int64_t end = now_ns();
  local().pending.push_back(Pending{layer_of(stage), end - elapsed_ns, end});
}

void ServerProbe::on_handler(std::uint64_t request_id, std::int64_t start_ns,
                             std::int64_t end_ns) {
  ThreadState& state = local();
  if (window_.recording.load(std::memory_order_relaxed)) {
    const bool keep = window_.keep(request_id);
    for (const Pending& p : state.pending) {
      state.log.add(state.log.next_id(), p.layer, p.start_ns, p.end_ns,
                    request_id, request_id, keep);
    }
    state.log.add(state.log.next_id(), Layer::kHandler, start_ns, end_ns,
                  request_id, request_id, keep);
    state.requests += 1;
  }
  state.pending.clear();
}

LayerTotals ServerProbe::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  LayerTotals out;
  for (const auto& t : threads_) out.merge(t->log.totals());
  return out;
}

std::uint64_t ServerProbe::requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& t : threads_) n += t->requests;
  return n;
}

void ServerProbe::append_spans(std::vector<Span>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : threads_) {
    out->insert(out->end(), t->log.spans().begin(), t->log.spans().end());
  }
}

// --- output ----------------------------------------------------------------

Status write_spans_jsonl(const std::string& path, std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Error{ErrorCode::kIoError, "cannot open " + path};
  }
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) {
    char thread[32];
    if (s.thread < kServerThreadBase) {
      std::snprintf(thread, sizeof(thread), "client-%u", s.thread);
    } else {
      std::snprintf(thread, sizeof(thread), "server-%u",
                    s.thread - kServerThreadBase);
    }
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request_id\":%llu,\"thread\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 layer_name(s.layer), static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id), thread,
                 static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0));
  }
  const bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    return Error{ErrorCode::kIoError, "cannot write " + path};
  }
  return Status{};
}

}  // namespace bsoap::e2e
