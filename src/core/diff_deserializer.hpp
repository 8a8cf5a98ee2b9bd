// Differential DEserialization — the paper's Section 6 (future work),
// implemented here as an extension.
//
// A server receiving a stream of similar messages can cache the parse of the
// previous message. When the sender proves which bytes changed — the
// diff-wire patch frame's runs, backed by its whole-body checksum — the
// server re-parses just the leaves those runs touch instead of the whole
// envelope, and an unchanged document costs nothing at all.
//
//   prime(document)       — full parse; (re)builds the cached call and,
//                           in the same pass, the leaf-region map
//                           (absolute body offsets of every typed-array
//                           leaf) and the structure pieces between leaves.
//   apply_runs(doc, runs) — trusts the caller that `doc` is the previous
//                           document with `runs` applied (overwrites and
//                           splices, in previous-document offsets), so the
//                           fast path touches only the run windows: the
//                           leaves each run meets are re-scanned in the
//                           new bytes with the `<n>text</n>` rule and
//                           re-parsed, and when a splice changed the
//                           length every later region moves by the running
//                           delta in one pass. The full message is never
//                           walked.
//
// The cache keeps no copy of the document: the caller owns it (the server's
// diff-wire replica). The window re-scan only needs the old structure
// between two leaf texts, so the full parse records, per leaf, an id into a
// small table of distinct structure pieces — the bytes from the leaf's text
// end to the next leaf's text begin (or the document end). Pieces that hold
// the same tokens share an entry whatever the whitespace between them, and
// an entry keeps the raw bytes most of them have, so an unchanged padding
// still matches with one compare.
//
// apply_runs degrades gracefully: a window whose new bytes hold another
// number of leaves or other tag bytes (whitespace between tags may differ:
// that is the sender's padding), a run outside every leaf window, or an
// unsupported shape demotes to a full parse (which re-primes the cache and
// rebuilds the region map). The ApplyReport says which path served the
// request.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "diffwire/wire_format.hpp"
#include "soap/envelope_reader.hpp"
#include "soap/value.hpp"

namespace bsoap::core {

class DiffDeserializer {
 public:
  /// One leaf's byte span in the current document (text content of a
  /// typed-array leaf, absolute body offsets, [begin, end)), recorded by
  /// the full parse itself and moved by apply_runs(). Regions are in slot
  /// order, sorted by begin.
  using LeafRegion = soap::LeafSpan;

  /// How apply_runs() satisfied a request.
  enum class ApplyPath : std::uint8_t {
    kContentHit,  ///< no dirty bytes: cached call returned untouched
    kFastParse,   ///< only touched leaves re-parsed
    kFullParse,   ///< whole envelope parsed (first sight or demotion)
  };

  struct ApplyReport {
    ApplyPath path = ApplyPath::kFullParse;
    std::size_t leaves_reparsed = 0;
    bool demoted = false;  ///< a usable cache had to be thrown away
  };

  /// Unconditional full parse that (re)primes the cache.
  Status prime(std::string_view document);

  /// Updates the cached parse for `document`, which must be the previously
  /// parsed document with `runs` applied (byte-verified upstream — the
  /// diff-wire patch checksum covers the whole reconstructed body). Run
  /// offsets are in the previous document; a run's `data` is not read. An
  /// unprimed cache full-parses `document` (not a demotion). Runs that are
  /// unsorted, overlapping, out of bounds or whose lengths do not add up
  /// to `document`'s demote to a full parse, as does a window whose new
  /// bytes do not re-scan to the same leaves and tags. Empty `runs` is a
  /// content hit.
  Result<ApplyReport> apply_runs(std::string_view document,
                                 std::span<const diffwire::PatchRun> runs);

  /// The cached call; valid only when primed(). Stays put until the next
  /// prime()/apply_runs() call.
  const soap::RpcCall& call() const { return cached_call_; }
  bool primed() const { return cache_valid_; }
  bool fast_path_usable() const { return fast_path_usable_; }

  /// Leaf-region map of the current document (absolute offsets, sorted).
  std::span<const LeafRegion> regions() const { return regions_; }

  /// Heap bytes the cache holds: the parsed call, the region/slot tables
  /// and the structure pieces (not the document, which the caller owns).
  std::size_t bytes() const;

  /// Forgets the cached message.
  void reset();

 private:
  /// Typed mutable locator of one leaf inside cached_call_.
  struct LeafSlot {
    enum class Kind : std::uint8_t { kInt32, kDouble };
    Kind kind;
    void* target;  ///< pointer into cached_call_ (stable storage)
  };

  Status full_parse(std::string_view document);
  Result<ApplyReport> demote(std::string_view document);
  Status reparse_slot(std::size_t index, std::string_view fresh);
  /// Rebuilds slots_; false when some leaf is not slot-addressable.
  bool collect_slots();
  /// Rebuilds pieces_ and piece_ids_ from `document` and regions_.
  void collect_pieces(std::string_view document);
#ifdef BSOAP_DEBUG_INVARIANTS
  void check_regions_against_walk(std::string_view document,
                                  bool exact) const;
  void check_against_full_parse(std::string_view document) const;
#endif

  soap::RpcCall cached_call_;
  std::vector<LeafRegion> regions_;
  std::vector<LeafSlot> slots_;
  /// Distinct structure pieces, each the most common raw form of its
  /// token sequence, and per leaf the id of the piece after its text.
  std::vector<std::string> pieces_;
  std::vector<std::uint32_t> piece_ids_;
  std::size_t doc_size_ = 0;  ///< the current document's length
  bool cache_valid_ = false;
  bool fast_path_usable_ = false;
};

}  // namespace bsoap::core
