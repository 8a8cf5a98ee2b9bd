#include "core/send_pipeline.hpp"

#include <algorithm>
#include <utility>

#include "common/timing.hpp"
#include "diffwire/wire_format.hpp"

namespace bsoap::core {
namespace {

/// DEFLATE window size: the dictionary a preset re-offer compresses against
/// (and the tail of the body recorded for the next generation).
constexpr std::size_t kDictTailBytes = 32 * 1024;

std::string_view dict_tail(std::string_view body) {
  if (body.size() <= kDictTailBytes) return body;
  return body.substr(body.size() - kDictTailBytes);
}

/// dict_tail of a chunked body, copied into `out`.
void copy_dict_tail(const buffer::ChunkedBuffer& buf, std::string& out) {
  std::size_t skip = buf.total_size() > kDictTailBytes
                         ? buf.total_size() - kDictTailBytes
                         : 0;
  out.clear();
  for (std::size_t i = 0; i < buf.chunk_count(); ++i) {
    const std::string_view chunk = buf.chunk_view(i);
    if (skip >= chunk.size()) {
      skip -= chunk.size();
      continue;
    }
    out.append(chunk.substr(skip));
    skip = 0;
  }
}

/// Times the stages only when an observer is installed: the unobserved hot
/// path pays no clock reads beyond one at construction.
class StageClock {
 public:
  explicit StageClock(SendObserver* observer) : observer_(observer) {}

  void lap(SendStage stage, std::size_t bytes) {
    if (observer_ == nullptr) return;
    observer_->on_stage(stage, watch_.elapsed_ns(), bytes);
    watch_.reset();
  }

 private:
  SendObserver* observer_;
  StopWatch watch_;
};

}  // namespace

const char* recovery_name(Recovery recovery) noexcept {
  switch (recovery) {
    case Recovery::kNone:
      return "none";
    case Recovery::kRolledBack:
      return "rolled-back";
    case Recovery::kInvalidated:
      return "invalidated";
  }
  return "?";
}

const char* send_stage_name(SendStage stage) noexcept {
  switch (stage) {
    case SendStage::kResolve:
      return "resolve";
    case SendStage::kUpdate:
      return "update";
    case SendStage::kFrame:
      return "frame";
    case SendStage::kWrite:
      return "write";
  }
  return "?";
}

SendPipeline::SendPipeline(Options options)
    : options_(std::move(options)),
      store_(options_.max_templates, options_.max_template_bytes) {}

template <typename Clock>
MessageTemplate* SendPipeline::resolve_and_update(const soap::RpcCall& call,
                                                  SendReport* report,
                                                  Clock& clock) {
  SendReport& r = *report;
  MessageTemplate* tmpl = nullptr;
  recovery_ctx_ = RecoveryContext::kNone;
  recovery_tmpl_ = nullptr;

  if (!options_.differential) {
    // Full-serialization mode reuses one scratch template so chunk
    // allocations stay warm (like gSOAP's reusable send buffer); resolution
    // never consults the store.
    clock.lap(SendStage::kResolve, 0);
    if (full_mode_scratch_ == nullptr) {
      full_mode_scratch_ = build_template(call, options_.tmpl);
    } else {
      rebuild_template(*full_mode_scratch_, call);
    }
    tmpl = full_mode_scratch_.get();
    r.match = MatchKind::kFirstTime;
    clock.lap(SendStage::kUpdate, tmpl->buffer().total_size());
  } else {
    end_checkout(/*drop=*/false);  // a failed send left without recovery
    tmpl = store_.find(call.structure_signature());
    clock.lap(SendStage::kResolve, 0);
    if (tmpl == nullptr) {
      tmpl = store_.insert(build_template(call, options_.tmpl));
      checkout_ = tmpl;
      checkout_bytes_ = tmpl->buffer().total_size();
      if (journal_ != nullptr) {
        // The fresh template enters the store as if the send completed; a
        // failed write must drop it (the peer's view is unknowable).
        recovery_ctx_ = RecoveryContext::kFirstTime;
      }
      r.match = MatchKind::kFirstTime;
      clock.lap(SendStage::kUpdate, tmpl->buffer().total_size());
    } else {
      checkout_ = tmpl;
      checkout_bytes_ = tmpl->buffer().total_size();
      if (journal_ != nullptr) {
        journal_->begin(*tmpl);
        recovery_ctx_ = RecoveryContext::kDiff;
        recovery_tmpl_ = tmpl;
      }
      const std::uint64_t before = tmpl->stats().bytes_rewritten;
      r.update = update_template(*tmpl, call);
      r.match = r.update.match;
      clock.lap(SendStage::kUpdate,
                static_cast<std::size_t>(tmpl->stats().bytes_rewritten - before));
    }
  }
  return tmpl;
}

void SendPipeline::end_checkout(bool drop) {
  if (checkout_ == nullptr) return;
  MessageTemplate* tmpl = std::exchange(checkout_, nullptr);
  store_.note_growth(static_cast<std::ptrdiff_t>(tmpl->buffer().total_size()) -
                     static_cast<std::ptrdiff_t>(checkout_bytes_));
  if (drop) {
    store_.erase(tmpl->signature);  // subtracts the now-current size
  } else {
    store_.enforce_byte_budget();
  }
}

Result<SendReport> SendPipeline::send(const soap::RpcCall& call,
                                      const SendDestination& dest) {
  SendReport report;
  StageClock clock(observer_);
  MessageTemplate* tmpl = resolve_and_update(call, &report, clock);
  const Status written =
      frame_and_write(*tmpl, call.method, dest, HeadKind::kRequest, &report);
  if (!written.ok()) {
    // With a journal armed the template stays checked out until
    // recover_failed_send() decides rollback-and-keep vs drop; without one,
    // return it now (a retrying sender without a journal gets no
    // guarantees).
    if (recovery_ctx_ == RecoveryContext::kNone) end_checkout(/*drop=*/false);
    return written.error();
  }
  if (journal_ != nullptr && journal_->armed()) journal_->commit(*tmpl);
  recovery_ctx_ = RecoveryContext::kNone;
  // Returning the checkout folds the update's growth into the store's byte
  // accounting and enforces its budget after the bytes are on the wire (a
  // partial structural match may have grown the template past it).
  end_checkout(/*drop=*/false);
  if (observer_ != nullptr) observer_->on_send(report);
  return report;
}

Result<SendReport> SendPipeline::send_response(const soap::RpcCall& call,
                                               const SendDestination& dest) {
  SendReport report;
  StageClock clock(observer_);
  MessageTemplate* tmpl = resolve_and_update(call, &report, clock);
  const Status written =
      frame_and_write(*tmpl, call.method, dest, HeadKind::kResponse, &report);
  if (!written.ok()) {
    if (recovery_ctx_ == RecoveryContext::kNone) end_checkout(/*drop=*/false);
    return written.error();
  }
  if (journal_ != nullptr && journal_->armed()) journal_->commit(*tmpl);
  recovery_ctx_ = RecoveryContext::kNone;
  end_checkout(/*drop=*/false);
  if (observer_ != nullptr) observer_->on_send(report);
  return report;
}

Result<SendReport> SendPipeline::send_tracked(MessageTemplate& tmpl,
                                              const soap::RpcCall& call,
                                              const SendDestination& dest) {
  SendReport report;
  StageClock clock(observer_);
  // The template is bound to the message: resolution is a no-op.
  clock.lap(SendStage::kResolve, 0);
  recovery_ctx_ = RecoveryContext::kNone;
  recovery_tmpl_ = nullptr;

  if (!tmpl.dut().any_dirty()) {
    // Paper Section 3.1: "If none of the dirty bits are set, the message
    // has not changed and can be resent as is."
    report.match = MatchKind::kContentMatch;
    clock.lap(SendStage::kUpdate, 0);
  } else {
    if (journal_ != nullptr) {
      journal_->begin(tmpl);
      recovery_ctx_ = RecoveryContext::kTracked;
      recovery_tmpl_ = &tmpl;
    }
    const std::uint64_t before = tmpl.stats().bytes_rewritten;
    report.update = update_dirty_fields(tmpl, call);
    report.match = report.update.match;
    clock.lap(SendStage::kUpdate,
              static_cast<std::size_t>(tmpl.stats().bytes_rewritten - before));
  }

  BSOAP_RETURN_IF_ERROR(
      frame_and_write(tmpl, call.method, dest, HeadKind::kRequest, &report));
  if (journal_ != nullptr && journal_->armed()) journal_->commit(tmpl);
  recovery_ctx_ = RecoveryContext::kNone;
  if (observer_ != nullptr) observer_->on_send(report);
  return report;
}

Recovery SendPipeline::recover_failed_send() {
  const RecoveryContext ctx = recovery_ctx_;
  MessageTemplate* tmpl = recovery_tmpl_;
  recovery_ctx_ = RecoveryContext::kNone;
  recovery_tmpl_ = nullptr;
  switch (ctx) {
    case RecoveryContext::kNone:
      return Recovery::kNone;
    case RecoveryContext::kFirstTime:
      // The freshly built template's bytes may never have reached the peer.
      end_checkout(/*drop=*/true);
      return Recovery::kInvalidated;
    case RecoveryContext::kDiff: {
      BSOAP_ASSERT(journal_ != nullptr && journal_->armed());
      const bool untouched = journal_->empty();
      if (journal_->rollback(*tmpl)) {
        // Restored exactly: the template is safe to keep.
        end_checkout(/*drop=*/false);
        return untouched ? Recovery::kNone : Recovery::kRolledBack;
      }
      end_checkout(/*drop=*/true);
      return Recovery::kInvalidated;
    }
    case RecoveryContext::kTracked: {
      BSOAP_ASSERT(journal_ != nullptr && journal_->armed());
      const bool untouched = journal_->empty();
      if (journal_->rollback(*tmpl)) {
        return untouched ? Recovery::kNone : Recovery::kRolledBack;
      }
      // The caller owns the template; it must rebuild before reuse.
      return Recovery::kInvalidated;
    }
  }
  return Recovery::kNone;
}

std::string_view SendPipeline::build_patch_frame(MessageTemplate& tmpl,
                                                 std::uint64_t wire_id,
                                                 std::uint32_t epoch,
                                                 SendReport* report) {
  const buffer::ChunkedBuffer& buf = tmpl.buffer();

  patch_runs_.clear();
  if (report->match != MatchKind::kContentMatch) {
    // A BufPos is chunk-relative; absolute body offsets need the chunks'
    // base offsets. Prefix-sum every chunk (append_slices skips empty ones,
    // so slice order cannot be reused here).
    chunk_offsets_.clear();
    chunk_offsets_.reserve(buf.chunk_count());
    std::size_t running = 0;
    for (std::size_t i = 0; i < buf.chunk_count(); ++i) {
      chunk_offsets_.push_back(running);
      running += buf.chunk_view(i).size();
    }

    // Every byte the update changed lies in a touched field's final region
    // or in a steal's span; every shift grew the region of its field. So
    // the spans, merged in body order, are the runs in new-body offsets,
    // and a span's growth is the sum of the shifts inside it.
    const auto abs_of = [&](std::uint32_t idx) {
      const DutEntry& e = tmpl.dut()[idx];
      return static_cast<std::uint32_t>(chunk_offsets_[e.pos.chunk] +
                                        e.pos.offset);
    };
    const auto region_end = [&](std::uint32_t idx) {
      const DutEntry& e = tmpl.dut()[idx];
      return abs_of(idx) + e.field_width + e.close_tag_len;
    };
    const auto push_span = [&](std::uint32_t first, std::uint32_t last) {
      patch_runs_.push_back(PatchRunScratch{abs_of(first), region_end(last), 0,
                                            tmpl.dut()[first].pos});
    };
    journal_->touched_fields(touched_scratch_);
    for (const std::uint32_t idx : touched_scratch_) push_span(idx, idx);
    // A steal's span runs from its field to the end of its donor's region.
    for (const UpdateJournal::StealRecord& st : journal_->steals()) {
      push_span(st.idx, st.donor);
    }
    std::sort(patch_runs_.begin(), patch_runs_.end(),
              [](const PatchRunScratch& a, const PatchRunScratch& b) {
                return a.offset < b.offset;
              });
    // Adjacent, overlapping and repeated spans coalesce; read_at crosses
    // chunk boundaries, so a merged run only needs the first span's
    // position.
    std::size_t out = 0;
    for (std::size_t i = 1; i < patch_runs_.size(); ++i) {
      if (patch_runs_[i].offset <= patch_runs_[out].end) {
        patch_runs_[out].end =
            std::max(patch_runs_[out].end, patch_runs_[i].end);
      } else {
        patch_runs_[++out] = patch_runs_[i];
      }
    }
    if (!patch_runs_.empty()) patch_runs_.resize(out + 1);
    for (const UpdateJournal::ShiftRecord& sh : journal_->shifts()) {
      PatchRunScratch& run = *std::prev(std::upper_bound(
          patch_runs_.begin(), patch_runs_.end(), abs_of(sh.idx),
          [](std::uint32_t at, const PatchRunScratch& r) {
            return at < r.offset;
          }));
      run.growth += sh.new_region - sh.old_region;
    }
  }

  diffwire::PatchHeader header;
  header.flags = patch_runs_.empty() ? diffwire::kFlagReplay : std::uint8_t{0};
  header.template_id = wire_id;
  header.epoch = epoch;
  header.run_count = static_cast<std::uint32_t>(patch_runs_.size());
  header.body_len = static_cast<std::uint32_t>(buf.total_size());
  // The root is the buffer's, maintained by its writes — never derived from
  // the journal, so a write the journal missed NACKs instead of serving a
  // stale replica.
  header.checksum = tmpl.buffer().root();

  // Header, run headers and run bytes are copied into one buffer, so the
  // frame is one body slice: one write, and one chunk under chunked framing.
  patch_buf_.clear();
  diffwire::append_patch_header(patch_buf_, header);
  // Run offsets are in the receiver's (old) body: each run sits earlier by
  // the growth of the runs before it.
  std::uint32_t growth = 0;
  for (const PatchRunScratch& r : patch_runs_) {
    const std::uint32_t old_offset = r.offset - growth;
    if (r.growth == 0) {
      diffwire::append_run_header(patch_buf_, old_offset, r.length());
    } else {
      diffwire::append_splice_header(patch_buf_, old_offset, r.length(),
                                     r.length() - r.growth);
    }
    growth += r.growth;
    const std::size_t at = patch_buf_.size();
    patch_buf_.resize(at + r.length());
    buf.read_at(r.pos, patch_buf_.data() + at, r.length());
  }

  report->patch_send = true;
  report->patch_replay = patch_runs_.empty();
  report->patch_runs = header.run_count;
  return patch_buf_;
}

bool SendPipeline::encode_payload(http::ContentCoding coding,
                                  std::string_view raw, std::string_view dict,
                                  SendReport* report) {
  if (raw.size() < options_.coding_min_bytes) return false;
  StopWatch watch;
  if (coding == http::ContentCoding::kDeflatePreset) {
    deflate_stream_.preset(dict);
    coded_buf_ = compress::zlib_compress(deflate_stream_, raw);
  } else {
    coded_buf_ = http::coding_for(coding).encode(raw);
  }
  report->coding_ns += watch.elapsed_ns();
  if (coded_buf_.size() >= raw.size()) return false;  // identity fallback
  report->coding = coding;
  report->coding_bytes_saved += raw.size() - coded_buf_.size();
  return true;
}

Status SendPipeline::frame_and_write(MessageTemplate& tmpl,
                                     const std::string& method,
                                     const SendDestination& dest,
                                     HeadKind head_kind, SendReport* report) {
  BSOAP_ASSERT(dest.transport != nullptr);
  StageClock clock(observer_);

  const std::size_t envelope_bytes = tmpl.buffer().total_size();
  report->body_bytes_logical = envelope_bytes;

  const http::Framer& framing = framer();

  // Diff-wire: decide patch vs full+offer. A content match always patches
  // (a header-only replay). A perfect or partial structural match patches
  // when the armed journal recorded the whole update: its touched fields,
  // steals and shifts give the overwrite and splice runs. Everything else
  // (first-time sends, updates without a journal) falls back to a full send
  // that re-offers.
  std::uint64_t wire_id = 0;
  bool offer = false;
  if (diffwire_ != nullptr && head_kind == HeadKind::kRequest) {
    wire_id = diffwire_->wire_id(tmpl.signature);
    std::uint32_t epoch = 0;
    const bool patch_safe =
        report->match == MatchKind::kContentMatch ||
        (report->match != MatchKind::kFirstTime && journal_ != nullptr &&
         journal_->armed() && journal_->patchable());
    if (patch_safe && diffwire_->should_patch(wire_id, &epoch)) {
      // Patch frames go uncoded: a preset stream indexes its whole
      // dictionary per frame, which costs more than the frame's few hundred
      // bytes would save. Preset coding is for full re-offers.
      const std::string_view frame =
          build_patch_frame(tmpl, wire_id, epoch, report);
      const std::size_t payload_bytes = frame.size();

      http::HttpRequest head;
      head.method = "POST";
      head.target = std::string(dest.path);
      head.headers.push_back(http::Header{"Host", "localhost"});
      head.headers.push_back(
          http::Header{"Content-Type", diffwire::kPatchContentType});
      head.headers.push_back(http::Header{"SOAPAction", "\"" + method + "\""});
      head.headers.push_back(
          http::Header{diffwire::kDiffHeader, diffwire::kPatchValue});
      if (options_.coding != http::ContentCoding::kIdentity) {
        head.headers.push_back(
            http::Header{"Accept-Encoding", "deflate, gzip"});
      }
      if (dest.extra_headers != nullptr) {
        for (const http::Header& h : *dest.extra_headers) {
          head.headers.push_back(h);
        }
      }
      framing.add_headers(head.headers, payload_bytes);
      head_text_ = http::serialize_request_head(head);

      body_slices_.assign(1, net::ConstSlice{frame.data(), frame.size()});
      wire_slices_.clear();
      wire_slices_.push_back(
          net::ConstSlice{head_text_.data(), head_text_.size()});
      framing.frame_body(body_slices_, &wire_slices_, &frame_scratch_);

      std::size_t wire_bytes = 0;
      for (const net::ConstSlice& s : wire_slices_) wire_bytes += s.len;
      clock.lap(SendStage::kFrame, wire_bytes);

      BSOAP_RETURN_IF_ERROR(dest.transport->send_slices(wire_slices_));
      clock.lap(SendStage::kWrite, wire_bytes);

      // The frame left the socket: advance the epoch optimistically. If the
      // server never applies it, the resulting epoch gap NACKs the next
      // patch and the sender falls back to a full send.
      diffwire_->note_patch_sent(wire_id, envelope_bytes, payload_bytes,
                                 report->patch_replay);
      if (!report->patch_replay && diffwire_->coding_ready(wire_id)) {
        // The server's replica now holds this body, so the next re-offer
        // compresses against its tail, as it would after an offer. The
        // tail is copied once, into scratch that is then swapped in.
        copy_dict_tail(tmpl.buffer(), flat_buf_);
        diffwire_->set_dictionary(wire_id, std::move(flat_buf_));
      }
      report->envelope_bytes = payload_bytes;
      report->wire_bytes = wire_bytes;
      return Status{};
    }
    offer = true;
  }

  body_slices_.clear();
  tmpl.buffer().append_slices(body_slices_);

  // Wire compression. dest.coding (the server's per-request Accept-Encoding
  // pick) overrides the configured coding; preset coding only applies to
  // diff-wire offers (it needs a pinned replica on both sides) and
  // otherwise degrades to identity. A preset offer flattens the body even
  // before the coding is acked — the flat bytes seed the dictionary either
  // way.
  http::ContentCoding coding = dest.coding != http::ContentCoding::kIdentity
                                   ? dest.coding
                                   : options_.coding;
  const bool preset_offer =
      offer && options_.coding == http::ContentCoding::kDeflatePreset;
  if (coding == http::ContentCoding::kDeflatePreset && !preset_offer) {
    coding = http::ContentCoding::kIdentity;
  }
  bool coded = false;
  if (coding != http::ContentCoding::kIdentity || preset_offer) {
    const buffer::ChunkedBuffer& buf = tmpl.buffer();
    flat_buf_.clear();
    for (std::size_t i = 0; i < buf.chunk_count(); ++i) {
      flat_buf_.append(buf.chunk_view(i));
    }
    if (preset_offer) {
      if (diffwire_->coding_ready(wire_id)) {
        coded = encode_payload(http::ContentCoding::kDeflatePreset, flat_buf_,
                               diffwire_->dictionary(wire_id), report);
      }
    } else {
      coded = encode_payload(coding, flat_buf_, {}, report);
    }
    if (coded) {
      body_slices_.clear();
      body_slices_.push_back(
          net::ConstSlice{coded_buf_.data(), coded_buf_.size()});
    }
  }
  const std::size_t payload_bytes = coded ? coded_buf_.size() : envelope_bytes;

  if (head_kind == HeadKind::kRequest) {
    http::HttpRequest head;
    head.method = "POST";
    head.target = std::string(dest.path);
    head.headers.push_back(http::Header{"Host", "localhost"});
    head.headers.push_back(
        http::Header{"Content-Type", "text/xml; charset=utf-8"});
    head.headers.push_back(http::Header{"SOAPAction", "\"" + method + "\""});
    if (options_.coding != http::ContentCoding::kIdentity) {
      // A coding-configured client also accepts coded responses.
      head.headers.push_back(
          http::Header{"Accept-Encoding", "deflate, gzip"});
    }
    if (offer) {
      head.headers.push_back(
          http::Header{diffwire::kDiffHeader, diffwire::kOfferValue});
      head.headers.push_back(http::Header{
          diffwire::kTemplateHeader, diffwire::format_template_id(wire_id)});
      if (preset_offer) {
        // Ask the server to ack preset coding for this pin.
        head.headers.push_back(http::Header{diffwire::kCodingHeader,
                                            diffwire::kCodingPresetValue});
      }
    }
    if (coded) {
      head.headers.push_back(http::Header{
          "Content-Encoding", http::coding_name(report->coding)});
    }
    if (dest.extra_headers != nullptr) {
      for (const http::Header& h : *dest.extra_headers) {
        head.headers.push_back(h);
      }
    }
    framing.add_headers(head.headers, payload_bytes);
    head_text_ = http::serialize_request_head(head);
  } else {
    http::HttpResponse head;
    head.headers.push_back(
        http::Header{"Content-Type", "text/xml; charset=utf-8"});
    if (coded) {
      head.headers.push_back(http::Header{
          "Content-Encoding", http::coding_name(report->coding)});
    }
    if (dest.extra_headers != nullptr) {
      for (const http::Header& h : *dest.extra_headers) {
        head.headers.push_back(h);
      }
    }
    framing.add_headers(head.headers, payload_bytes);
    head_text_ = http::serialize_response_head(head);
  }
  wire_slices_.clear();
  wire_slices_.push_back(
      net::ConstSlice{head_text_.data(), head_text_.size()});
  framing.frame_body(body_slices_, &wire_slices_, &frame_scratch_);

  std::size_t wire_bytes = 0;
  for (const net::ConstSlice& s : wire_slices_) wire_bytes += s.len;
  clock.lap(SendStage::kFrame, wire_bytes);

  BSOAP_RETURN_IF_ERROR(dest.transport->send_slices(wire_slices_));
  clock.lap(SendStage::kWrite, wire_bytes);

  if (offer) {
    diffwire_->note_offer_sent(wire_id);
    if (preset_offer) {
      // This offer's body is what the server just (re)pinned: its tail is
      // the dictionary both sides preset until the next send moves it.
      diffwire_->set_dictionary(wire_id, dict_tail(flat_buf_));
    }
  }
  report->envelope_bytes = payload_bytes;
  report->wire_bytes = wire_bytes;
  return Status{};
}

}  // namespace bsoap::core
