// DEFLATE (RFC 1951), zlib (RFC 1950) and gzip (RFC 1952), from scratch.
//
// gSOAP ships transport compression and the paper lists it among the
// complementary optimizations ("they can be used when an RPC call must be
// serialized the first time; differential serialization can then be used for
// subsequent calls"). This module provides the substrate: an LZ77 +
// fixed-Huffman DEFLATE compressor (valid RFC 1951 output any inflater can
// read) and a full inflater (stored, fixed and dynamic Huffman blocks, so it
// can decode third-party streams too), plus the gzip framing with CRC-32 and
// the zlib framing with Adler-32.
//
// The zlib wrapper carries FDICT: a compressor primed with a preset
// dictionary (DeflateStream::preset) records the dictionary's Adler-32 as
// the stream's DICTID, and the inflater refuses to decode against a
// different dictionary — this is how the diff-wire layer guarantees both
// sides preset the window from the same pinned template bytes.
//
// The ablation bench compares gzip-compressed full serialization against
// differential serialization — quantifying the paper's claim that the two
// compose rather than compete.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace bsoap::compress {

/// Adler-32 (RFC 1950), the zlib checksum and FDICT dictionary id.
std::uint32_t adler32(std::string_view data,
                      std::uint32_t seed = 1) noexcept;

/// Reusable DEFLATE compressor. One instance amortizes the hash-chain
/// allocations across calls (the one-shot `deflate()` free function rebuilds
/// them per call), and can preset the LZ77 history window from a dictionary
/// so matches reach back into bytes that never enter the stream — the
/// differential trick at the compression layer: a body near-identical to the
/// dictionary compresses to almost nothing.
class DeflateStream {
 public:
  /// Presets the history window. Only the last 32 KiB matter (the LZ77
  /// window); longer dictionaries are tail-truncated. Clears any previous
  /// dictionary when called with an empty view.
  void preset(std::string_view dict);

  /// Adler-32 of the effective (possibly tail-truncated) dictionary — the
  /// DICTID both sides must agree on. 0 when no dictionary is set.
  std::uint32_t dictionary_id() const noexcept { return dict_id_; }

  bool has_dictionary() const noexcept { return !dict_.empty(); }

  /// Compresses `input` into one raw DEFLATE stream (fixed-Huffman, single
  /// final block), with matches allowed to reference the preset dictionary.
  /// The dictionary persists across calls; each call is an independent
  /// stream.
  std::string compress(std::string_view input);

 private:
  std::string dict_;
  std::uint32_t dict_id_ = 0;
  std::vector<std::int32_t> head_;
  std::vector<std::int32_t> prev_;
  std::string work_;  // dict + input, contiguous so matches can span the seam
};

/// Raw DEFLATE stream (no zlib/gzip wrapper).
std::string deflate(std::string_view input);

/// Inflates a raw DEFLATE stream. `max_output` bounds decompression bombs.
/// A non-empty `dict` seeds the back-reference window (the counterpart of
/// DeflateStream::preset); the returned string contains only the stream's
/// own output, never the dictionary bytes.
Result<std::string> inflate(std::string_view input,
                            std::size_t max_output = 1u << 30,
                            std::string_view dict = {});

/// CRC-32 (IEEE 802.3, as used by gzip).
std::uint32_t crc32(std::string_view data,
                    std::uint32_t seed = 0) noexcept;

/// zlib stream (RFC 1950): 2-byte header + deflate body + Adler-32. With a
/// preset dictionary the header carries FDICT and the dictionary's Adler-32
/// as DICTID, so the receiving side can verify it holds the same bytes.
std::string zlib_compress(std::string_view input, std::string_view dict = {});
std::string zlib_compress(DeflateStream& stream, std::string_view input);

/// Decodes a zlib stream. If the stream carries FDICT, `dict` must hash to
/// the recorded DICTID (kInvalidArgument "zlib: dictionary mismatch"
/// otherwise — a clean error, never garbage output). A stream without FDICT
/// ignores `dict`.
Result<std::string> zlib_decompress(std::string_view input,
                                    std::size_t max_output = 1u << 30,
                                    std::string_view dict = {});

/// The DICTID a zlib stream's header names, or nullopt when the stream is
/// too short or carries no FDICT.
std::optional<std::uint32_t> zlib_dictionary_id(std::string_view input);

/// gzip member: header + deflate body + CRC32 + ISIZE.
std::string gzip_compress(std::string_view input);
Result<std::string> gzip_decompress(std::string_view input,
                                    std::size_t max_output = 1u << 30);

}  // namespace bsoap::compress
