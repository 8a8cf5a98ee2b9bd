// Diff-wire protocol: frame format and negotiation header constants.
//
// Differential serialization (the paper) saves serialization CPU, but every
// send still ships the full envelope; the diff-wire protocol extends the
// saving to the socket. Client and server pin a template by ID (negotiated
// over HTTP headers on a full send), after which an update crosses the wire
// as a binary patch frame carrying only the runs the update stage already
// journaled — the Jelly-Patch idea applied to bSOAP's DUT runs. A content
// match degenerates to a header-only "replay" frame.
//
// Negotiation rides custom headers on the normal SOAP POST / response:
//
//   full send   C→S   X-BSoap-Diff: v1          offer: pin this body under
//                     X-BSoap-Template: <16hex> the given template ID
//   response    S→C   X-BSoap-Diff: ack         replica pinned (epoch 0)
//                     X-BSoap-Template: <16hex>
//   patch send  C→S   Content-Type: application/x-bsoap-patch
//                     X-BSoap-Diff: patch       body = one PatchFrame
//   nack        S→C   HTTP 409 +
//                     X-BSoap-Diff: nack        replica unusable: sender
//                     X-BSoap-Template: <16hex> must fall back to full+offer
//
// Every full send (first-time or fallback) re-offers, so the replica is
// re-pinned at epoch 0 whenever the patch chain breaks. Patch frames carry
// an epoch the receiver checks strictly (+1 per applied frame); a lost or
// replayed frame therefore NACKs instead of silently corrupting the
// replica, and the whole-body checksum backstops the epoch chain.
//
// Runs (version 3). A run replaces a byte range of the receiver's replica
// (the old body) with new bytes, at an offset in old-body coordinates:
//
//   overwrite   same length: a perfect structural match's dirty fields;
//   splice      old_len old bytes become `length` new ones: a partial
//               structural match (paper's shifting), where a field widened
//               and everything after it moved. The sender's update journal
//               records each shift, so one splice covers the widened field
//               and the receiver moves the rest of the body, not the sender.
//
// Runs are sorted and disjoint in old-body coordinates; body_len is the
// length after the patch, so the receiver checks
// old length + Σ(length − old_len) == body_len before applying anything.
//
// Checksum: the integrity root of the reconstructed body,
//
//   root = Σ bᵢ · rⁱ  mod 2^61 − 1     (i = absolute body offset,
//                                       r = poly::kRadix)
//
// computed by poly::hash (common/poly_hash.hpp). The root is linear and
// position-weighted, so both sides maintain it incrementally: the sender's
// ChunkedBuffer moves a chunk's hash on every in-place write and folds the
// chunk hashes by base offset; the receiver moves its replica's root by
// r^offset · (H(new run) − H(old bytes)) per overwrite run and, past the
// first splice, by each moved segment's change of weight. Because the root
// is defined on absolute offsets, neither side needs the other's chunk
// layout and nothing beyond the 36-byte header travels. A frame of another
// version fails decoding (NACK → full send), so peers that disagree on the
// frame's meaning degrade to full sends, never corrupt a replica.
//
// Binary frame layout (all integers little-endian):
//
//   offset  size  field
//        0     4  magic "BSDP"
//        4     1  version (3)
//        5     1  flags (bit0 = replay: run_count is 0, body unchanged)
//        6     2  reserved (0)
//        8     8  template_id
//       16     4  epoch
//       20     4  run_count
//       24     4  body_len      (body size after the patch)
//       28     8  checksum      (integrity root of the reconstructed body)
//       36   ...  run_count × run, each
//                   offset u32   (old-body offset)
//                   length u32   (new bytes; top bit set = splice)
//                   old_len u32  (splice only: old bytes replaced)
//                   bytes[length & 0x7fffffff]
//
// An overwrite run's header is 8 bytes, as in version 2; a splice's is 12.
//
// This layer is deliberately core-free: it knows HTTP headers and bytes,
// not templates. SendPipeline extracts runs from its update journal and
// hands generic (offset, length) records down here.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace bsoap::diffwire {

// --- negotiation headers ---------------------------------------------------

inline constexpr const char* kDiffHeader = "X-BSoap-Diff";
inline constexpr const char* kTemplateHeader = "X-BSoap-Template";
inline constexpr const char* kOfferValue = "v1";
inline constexpr const char* kAckValue = "ack";
inline constexpr const char* kNackValue = "nack";
inline constexpr const char* kPatchValue = "patch";
inline constexpr const char* kPatchContentType = "application/x-bsoap-patch";

// Second differential layer: template-preset wire compression. A client
// willing to preset-code adds `X-BSoap-Coding: deflate-preset` to its
// offers; the server echoes the header on the ack when the coding is
// enabled. Once acked, full re-offers go out zlib-compressed with the
// DEFLATE window preset from the tail of the body the server's replica holds
// (the last offer or applied patch); the receiver also still accepts the
// pin generation's tail, and the RFC 1950 FDICT DICTID names which, committing
// both sides to the same dictionary bytes. Patch frames
// go uncoded: indexing a 32 KiB dictionary costs more per frame than the
// few hundred bytes it would save. A preset-coded body carries its
// template ID in kTemplateHeader, since the in-band ID is unreadable before
// decoding; a body the receiver cannot decode (replica evicted, dictionary
// drift) NACKs like any other replica conflict, so the coding inherits the
// protocol's full-send self-healing.
inline constexpr const char* kCodingHeader = "X-BSoap-Coding";
inline constexpr const char* kCodingPresetValue = "deflate-preset";

/// HTTP status a NACK answer carries (the patch conflicted with the
/// receiver's replica state).
inline constexpr int kNackStatus = 409;

/// Template IDs travel as fixed-width 16-digit lowercase hex.
std::string format_template_id(std::uint64_t id);
/// Parses a 16-digit hex template ID; false on malformed input.
bool parse_template_id(std::string_view text, std::uint64_t* id);

// --- patch frames ----------------------------------------------------------

inline constexpr char kMagic[4] = {'B', 'S', 'D', 'P'};
inline constexpr std::uint8_t kVersion = 3;
inline constexpr std::uint8_t kFlagReplay = 0x01;
inline constexpr std::size_t kFrameHeaderSize = 36;
inline constexpr std::size_t kRunHeaderSize = 8;
inline constexpr std::size_t kSpliceHeaderSize = 12;
/// Set in a run's length word to mark a splice (an old_len word follows).
inline constexpr std::uint32_t kSpliceBit = 0x80000000u;

struct PatchHeader {
  std::uint8_t version = kVersion;
  std::uint8_t flags = 0;
  std::uint64_t template_id = 0;
  std::uint32_t epoch = 0;
  std::uint32_t run_count = 0;
  std::uint32_t body_len = 0;
  std::uint64_t checksum = 0;

  bool replay() const { return (flags & kFlagReplay) != 0; }
};

/// One decoded run record; `data` points into the frame the patch was
/// decoded from and is valid only while that buffer lives. `offset` is in
/// old-body coordinates; the run replaces old_length() old bytes with
/// `length` new ones.
struct PatchRun {
  std::uint32_t offset = 0;
  std::uint32_t length = 0;
  const char* data = nullptr;
  bool splice = false;
  std::uint32_t spliced_len = 0;  ///< old bytes a splice replaces

  std::uint32_t old_length() const { return splice ? spliced_len : length; }
};

struct PatchFrame {
  PatchHeader header;
  std::vector<PatchRun> runs;
};

/// Appends the 36-byte frame header. The writer appends run records after
/// it: a run header then exactly `length` payload bytes each.
void append_patch_header(std::string& out, const PatchHeader& header);
void append_run_header(std::string& out, std::uint32_t offset,
                       std::uint32_t length);
void append_splice_header(std::string& out, std::uint32_t offset,
                          std::uint32_t length, std::uint32_t old_len);

/// Decodes a complete frame (an HTTP request body). Validates magic,
/// version, exact length, and that runs are sorted and disjoint in
/// old-body coordinates; whether they fit the replica is the
/// ReplicaStore's check (it owns the replica the offsets index).
Result<PatchFrame> decode_patch(std::string_view body);

/// The length of the body `frame`'s runs apply to:
/// body_len − Σ(length − old_length()). Fails when the runs are unsorted,
/// overlap, or do not fit inside that length.
Result<std::size_t> old_body_length(const PatchFrame& frame);

// --- canned responses ------------------------------------------------------

/// Renders the full HTTP 409 NACK answer (headers above + a short plain
/// text body), Content-Length framed so the sender's response reader stays
/// in sync and the connection survives.
std::string render_nack_response(std::uint64_t template_id,
                                 std::string_view reason);

}  // namespace bsoap::diffwire
