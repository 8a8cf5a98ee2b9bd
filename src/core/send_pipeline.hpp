// The staged send path every sender shares.
//
// The paper's cost model (Section 2) is that a SOAP send is dominated by
// serialize → frame → write; differential serialization (Section 3) attacks
// the first stage by reusing a saved template. SendPipeline makes those
// stages explicit so the whole system has exactly one send path:
//
//   1. resolve — find the saved template for the call's structure signature
//                in the TemplateStore (Section 3's per-call-type templates);
//   2. update  — serialize: build the template on a first-time send, rewrite
//                changed fields on a match (by comparison in transparent
//                mode, by dirty bits in tracked mode — Sections 3.1/3.2);
//   3. frame   — construct the HTTP head and wrap the template's chunks via
//                an http::Framer (Content-Length or chunked, Section 2's
//                transport framing);
//   4. write   — one scatter-gather write to the destination Transport (the
//                paper's "Send Time" endpoint: the final send() return).
//
// BsoapClient::send_call, BoundMessage::send and MultiEndpointClient all
// sit on this pipeline. A SendObserver sees each stage's wall time and byte
// count, so benchmarks and tracing attach without touching the hot path;
// with no observer installed the stages are not timed at all.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "compress/deflate.hpp"
#include "core/diff_serializer.hpp"
#include "core/template_builder.hpp"
#include "core/template_store.hpp"
#include "diffwire/negotiator.hpp"
#include "http/content_coding.hpp"
#include "http/framer.hpp"
#include "net/transport.hpp"
#include "soap/value.hpp"

namespace bsoap::core {

/// The four stages of one send, in pipeline order.
enum class SendStage { kResolve = 0, kUpdate = 1, kFrame = 2, kWrite = 3 };
inline constexpr std::size_t kSendStageCount = 4;

const char* send_stage_name(SendStage stage) noexcept;

/// How a retrying sender repaired template state after a failed attempt
/// (kNone on the common untroubled send).
enum class Recovery {
  kNone,        ///< no attempt failed, or the failure touched no state
  kRolledBack,  ///< the update journal restored the template exactly;
                ///< changed fields were dirty again for the retry
  kInvalidated, ///< the template was dropped/rebuilt (first-time or
                ///< structural update); the retry was a clean first-time send
};

const char* recovery_name(Recovery recovery) noexcept;

/// What a send did — which of the paper's four cases applied and how much
/// work the differential path performed.
struct SendReport {
  MatchKind match = MatchKind::kFirstTime;
  UpdateResult update;
  /// HTTP body payload bytes actually sent: the serialized envelope on a
  /// full send, the patch frame on a diff-wire patch send.
  std::size_t envelope_bytes = 0;
  /// Actual on-wire bytes: HTTP head + framing + the payload above. A patch
  /// send reports the patch frame's wire cost, not the logical envelope.
  std::size_t wire_bytes = 0;
  /// Size of the serialized envelope the receiver observes — identical for
  /// full and patch sends, so benches can report logical vs wire bytes.
  std::size_t body_bytes_logical = 0;
  /// Diff-wire: this send crossed the wire as a patch frame (replay = a
  /// content match's header-only frame carrying zero runs).
  bool patch_send = false;
  bool patch_replay = false;
  std::uint32_t patch_runs = 0;  ///< dirty runs the patch frame carried
  /// Send attempts a retrying sender made (1 = first try succeeded; always
  /// 1 when sent through a bare SendPipeline).
  std::uint32_t attempts = 1;
  /// Worst recovery applied across failed attempts of this send.
  Recovery recovery = Recovery::kNone;
  /// Content coding the payload actually went out under. kIdentity covers
  /// the per-message fallback: a body whose compressed form was not smaller
  /// ships raw even when a coding was configured.
  http::ContentCoding coding = http::ContentCoding::kIdentity;
  /// Raw payload bytes minus coded payload bytes (0 on identity sends).
  std::size_t coding_bytes_saved = 0;
  /// CPU spent compressing this send's payload (includes attempts that
  /// fell back to identity — the cost was paid either way).
  std::int64_t coding_ns = 0;
};

/// Hook through the pipeline stages. Observers must not throw; they run on
/// the send path of whichever thread is sending.
class SendObserver {
 public:
  virtual ~SendObserver() = default;

  /// One call per completed stage: wall time and the bytes the stage
  /// handled (resolve: 0; update: bytes rewritten or serialized; frame and
  /// write: total wire bytes).
  virtual void on_stage(SendStage stage, std::int64_t elapsed_ns,
                        std::size_t bytes) = 0;

  /// Called once after the write stage with the final report.
  virtual void on_send(const SendReport& report) { (void)report; }
};

/// SendObserver accumulating per-stage totals (tests, benchmarks).
class StageTimings final : public SendObserver {
 public:
  struct Totals {
    std::int64_t ns = 0;
    std::uint64_t bytes = 0;
    std::uint64_t count = 0;
  };

  void on_stage(SendStage stage, std::int64_t elapsed_ns,
                std::size_t bytes) override {
    Totals& t = totals_[static_cast<std::size_t>(stage)];
    t.ns += elapsed_ns;
    t.bytes += bytes;
    t.count += 1;
  }

  /// Update-stage substage breakdown: the bulk fast path reports how much of
  /// the stage went to locating dirty runs vs rewriting them.
  struct UpdateBreakdown {
    std::int64_t scan_ns = 0;
    std::int64_t rewrite_ns = 0;
    std::uint64_t bulk_runs = 0;
    std::uint64_t bulk_leaves = 0;
  };

  void on_send(const SendReport& report) override {
    sends_ += 1;
    last_ = report;
    update_breakdown_.scan_ns += report.update.scan_ns;
    update_breakdown_.rewrite_ns += report.update.rewrite_ns;
    update_breakdown_.bulk_runs += report.update.bulk_runs;
    update_breakdown_.bulk_leaves += report.update.bulk_leaves;
  }

  const Totals& totals(SendStage stage) const {
    return totals_[static_cast<std::size_t>(stage)];
  }
  std::uint64_t sends() const { return sends_; }
  const SendReport& last_report() const { return last_; }
  const UpdateBreakdown& update_breakdown() const { return update_breakdown_; }

  void reset() {
    totals_ = {};
    sends_ = 0;
    last_ = SendReport{};
    update_breakdown_ = UpdateBreakdown{};
  }

 private:
  std::array<Totals, kSendStageCount> totals_{};
  std::uint64_t sends_ = 0;
  SendReport last_;
  UpdateBreakdown update_breakdown_{};
};

/// Where one send goes: a connected transport plus the HTTP request target.
/// The referents must outlive the call.
struct SendDestination {
  net::Transport* transport = nullptr;
  std::string_view path = "/";
  /// Appended to the HTTP head verbatim (after the standard headers, before
  /// framing). The server runtime rides diff-wire acks on its responses
  /// through this. Null = none.
  const std::vector<http::Header>* extra_headers = nullptr;
  /// Per-send coding override (kIdentity = use Options::coding). The server
  /// runtime sets this from the request's Accept-Encoding so each response
  /// is coded per what its client advertised.
  http::ContentCoding coding = http::ContentCoding::kIdentity;
};

class SendPipeline {
 public:
  struct Options {
    TemplateConfig tmpl;
    /// false = the paper's "bSOAP Full Serialization": the template
    /// machinery runs but every send re-serializes from scratch.
    bool differential = true;
    /// Saved templates retained across call structures (LRU).
    std::size_t max_templates = 8;
    /// Byte budget across all saved templates (0 = unlimited). A server
    /// keeping response templates for many RPC shapes bounds memory by
    /// bytes, not count; least recently used templates are evicted first.
    std::size_t max_template_bytes = 0;
    /// How template chunks are delimited on the wire (Content-Length or
    /// HTTP/1.1 chunked transfer encoding).
    http::Framing framing = http::Framing::kContentLength;
    /// Content coding for payloads (kIdentity = none). kGzip/kDeflate
    /// compress every full body; kDeflatePreset additionally presets the
    /// DEFLATE window from the body the diff-wire replica holds, so full
    /// re-offers shrink against what the receiver already has (requires a
    /// diff-wire session; without one it degrades to identity). Patch
    /// frames go uncoded. Every coded send falls back to identity when
    /// compression does not shrink the payload.
    http::ContentCoding coding = http::ContentCoding::kIdentity;
    /// Payloads smaller than this skip compression outright — the coding
    /// header plus stream overhead dominates tiny bodies.
    std::size_t coding_min_bytes = 256;
  };

  explicit SendPipeline(Options options);

  /// Transparent send: resolve from the store, update by comparing leaves
  /// against the template's shadow copies, frame, write.
  Result<SendReport> send(const soap::RpcCall& call,
                          const SendDestination& dest);

  /// Response-side differential serialization (the paper's Section 6 future
  /// work, realized by the server runtime): identical resolve/update stages,
  /// but the frame stage builds an HTTP 200 response head instead of a POST
  /// request. `call` is the response envelope (method "...Response" with a
  /// <return> param); dest.path is ignored.
  Result<SendReport> send_response(const soap::RpcCall& call,
                                   const SendDestination& dest);

  /// Tracked send (BoundMessage): the caller owns the template; the update
  /// stage rewrites exactly the DUT's dirty entries (a clean DUT resends the
  /// stored bytes — the paper's content match).
  Result<SendReport> send_tracked(MessageTemplate& tmpl,
                                  const soap::RpcCall& call,
                                  const SendDestination& dest);

  /// Installs (or clears, with nullptr) the per-stage observer.
  void set_observer(SendObserver* observer) { observer_ = observer; }

  /// Overrides the framing strategy; nullptr restores the one selected by
  /// Options::framing.
  void set_framer(const http::Framer* framer) { framer_override_ = framer; }
  const http::Framer& framer() const {
    return framer_override_ != nullptr ? *framer_override_
                                       : http::framer_for(options_.framing);
  }

  /// Installs (or clears, with nullptr) the diff-wire negotiation session.
  /// While set, request-kind sends participate in the diff-wire protocol:
  /// full sends carry the pinning offer headers, and a send whose update
  /// stayed non-structural against a pinned template goes out as a binary
  /// patch frame (dirty runs only) instead of the full envelope. The
  /// session must outlive the sends it covers.
  void set_diffwire(diffwire::ClientSession* session) { diffwire_ = session; }

  /// Installs (or clears, with nullptr) the recovery journal a retrying
  /// sender provides. While installed, the update stage records pre-rewrite
  /// state through it so a failed send can be undone by
  /// recover_failed_send(). The journal must outlive the sends it covers.
  void set_journal(UpdateJournal* journal) { journal_ = journal; }

  /// Repairs template state after send/send_response/send_tracked returned
  /// an error with a journal installed. Returns what was done:
  ///   kNone       — the failure touched no template state (nothing sent
  ///                 differentially, or a full-serialization send);
  ///   kRolledBack — the journal restored the template exactly; every field
  ///                 the failed update rewrote is dirty again;
  ///   kInvalidated — the stored template was erased (first-time send whose
  ///                 bytes the peer may not have seen, or a structural
  ///                 update that cannot be unwound); the next send of this
  ///                 call structure is a clean first-time send. For tracked
  ///                 sends the caller owns the template and must rebuild it
  ///                 (see ResilientSender).
  Recovery recover_failed_send();

  TemplateStore& store() { return store_; }
  const Options& options() const { return options_; }

 private:
  /// Which HTTP head the frame stage constructs.
  enum class HeadKind { kRequest, kResponse };

  /// Stages 1 and 2: resolves the call's template (store lookup or
  /// first-time build / full-serialization rebuild) and rewrites changed
  /// fields; fills the report's match classification. `clock` is the
  /// caller's stage clock so lap attribution stays with the send.
  template <typename Clock>
  MessageTemplate* resolve_and_update(const soap::RpcCall& call,
                                      SendReport* report, Clock& clock);

  /// Stages 3 and 4: frames `tmpl`'s chunks behind the configured framer and
  /// writes them to `dest`; fills the report's byte counts.
  Status frame_and_write(MessageTemplate& tmpl, const std::string& method,
                         const SendDestination& dest, HeadKind head_kind,
                         SendReport* report);

  /// What the current/last send would need for recovery.
  enum class RecoveryContext {
    kNone,       ///< no stateful update happened (or no journal installed)
    kDiff,       ///< differential update against a stored template (journal armed)
    kFirstTime,  ///< freshly built template inserted into the store
    kTracked,    ///< differential update against a caller-owned template
  };

  /// Ends the current checkout (no-op when nothing is checked out): folds
  /// the stored template's growth since checkout into the store's byte
  /// accounting, then either enforces the store's byte budget or, with
  /// `drop`, erases the template so the next send of its call structure is
  /// first-time.
  void end_checkout(bool drop);

  /// Builds the patch frame for a diff-wire patch send in patch_buf_ —
  /// overwrite and splice runs derived from the armed journal, or a
  /// header-only replay frame — and returns it. Run bytes are copied out of
  /// the template, so the frame is one contiguous payload.
  std::string_view build_patch_frame(MessageTemplate& tmpl,
                                     std::uint64_t wire_id,
                                     std::uint32_t epoch, SendReport* report);

  /// Compresses `raw` into coded_buf_ under `coding` (kDeflatePreset runs
  /// the reusable DeflateStream preset with `dict`). Returns true when the
  /// coded bytes should replace the raw payload — false when the payload is
  /// under coding_min_bytes or compression did not shrink it (per-message
  /// identity fallback). Fills the report's coding fields either way.
  bool encode_payload(http::ContentCoding coding, std::string_view raw,
                      std::string_view dict, SendReport* report);

  Options options_;
  TemplateStore store_;
  SendObserver* observer_ = nullptr;
  const http::Framer* framer_override_ = nullptr;
  UpdateJournal* journal_ = nullptr;
  diffwire::ClientSession* diffwire_ = nullptr;
  RecoveryContext recovery_ctx_ = RecoveryContext::kNone;
  MessageTemplate* recovery_tmpl_ = nullptr;
  /// The stored template the current differential send resolved to, and
  /// its serialized size when resolved. Held across the write so a failed
  /// attempt can be recovered (rollback returns it, a structural failure
  /// drops it); returned when the send completes.
  MessageTemplate* checkout_ = nullptr;
  std::size_t checkout_bytes_ = 0;
  /// Recycled template for non-differential (full-serialization) mode.
  std::unique_ptr<MessageTemplate> full_mode_scratch_;
  // Per-send scratch, reused so steady-state sends allocate nothing:
  std::vector<net::ConstSlice> body_slices_;
  std::vector<net::ConstSlice> wire_slices_;
  std::vector<std::string> frame_scratch_;
  std::string head_text_;
  // Diff-wire patch scratch:
  struct PatchRunScratch {
    std::uint32_t offset = 0;  ///< absolute offset into the updated body
    std::uint32_t end = 0;
    std::uint32_t growth = 0;  ///< bytes the shifts inside the run added
    buffer::BufPos pos;        ///< where the run's bytes start in the buffer

    std::uint32_t length() const { return end - offset; }
  };
  std::string patch_buf_;
  // Wire-compression scratch (reused like the buffers above):
  compress::DeflateStream deflate_stream_;
  std::string flat_buf_;   ///< body flattened for compression / dict capture
  std::string coded_buf_;  ///< compressed payload when coding applies
  std::vector<std::uint32_t> touched_scratch_;
  std::vector<PatchRunScratch> patch_runs_;
  std::vector<std::size_t> chunk_offsets_;
};

}  // namespace bsoap::core
