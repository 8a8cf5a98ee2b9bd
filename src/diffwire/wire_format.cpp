#include "diffwire/wire_format.hpp"

#include <cstring>

#include "http/http_message.hpp"

namespace bsoap::diffwire {

namespace {

void append_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint32_t read_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

std::uint64_t read_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

}  // namespace

std::string format_template_id(std::uint64_t id) {
  static const char* hex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = hex[id & 0xf];
    id >>= 4;
  }
  return out;
}

bool parse_template_id(std::string_view text, std::uint64_t* id) {
  if (text.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : text) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *id = v;
  return true;
}

void append_patch_header(std::string& out, const PatchHeader& header) {
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(header.version));
  out.push_back(static_cast<char>(header.flags));
  append_u16(out, 0);  // reserved
  append_u64(out, header.template_id);
  append_u32(out, header.epoch);
  append_u32(out, header.run_count);
  append_u32(out, header.body_len);
  append_u64(out, header.checksum);
}

void append_run_header(std::string& out, std::uint32_t offset,
                       std::uint32_t length) {
  append_u32(out, offset);
  append_u32(out, length);
}

void append_splice_header(std::string& out, std::uint32_t offset,
                          std::uint32_t length, std::uint32_t old_len) {
  append_u32(out, offset);
  append_u32(out, length | kSpliceBit);
  append_u32(out, old_len);
}

Result<PatchFrame> decode_patch(std::string_view body) {
  if (body.size() < kFrameHeaderSize) {
    return Error{ErrorCode::kProtocolError, "patch frame truncated"};
  }
  const char* p = body.data();
  if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
    return Error{ErrorCode::kProtocolError, "patch frame bad magic"};
  }
  PatchFrame frame;
  frame.header.version = static_cast<std::uint8_t>(p[4]);
  if (frame.header.version != kVersion) {
    return Error{ErrorCode::kProtocolError,
                 "patch frame version " +
                     std::to_string(frame.header.version) + " unsupported"};
  }
  frame.header.flags = static_cast<std::uint8_t>(p[5]);
  frame.header.template_id = read_u64(p + 8);
  frame.header.epoch = read_u32(p + 16);
  frame.header.run_count = read_u32(p + 20);
  frame.header.body_len = read_u32(p + 24);
  frame.header.checksum = read_u64(p + 28);

  // run_count is wire-supplied: bound it by the run headers the body can
  // actually hold before it sizes an allocation.
  if (frame.header.run_count >
      (body.size() - kFrameHeaderSize) / kRunHeaderSize) {
    return Error{ErrorCode::kProtocolError,
                 "patch run count exceeds frame size"};
  }
  std::size_t pos = kFrameHeaderSize;
  frame.runs.reserve(frame.header.run_count);
  // Each run must start at or past the previous run's old end (64-bit: a
  // u32 offset plus a u32 length cannot overflow).
  std::uint64_t old_end = 0;
  for (std::uint32_t i = 0; i < frame.header.run_count; ++i) {
    if (body.size() - pos < kRunHeaderSize) {
      return Error{ErrorCode::kProtocolError, "patch run header truncated"};
    }
    PatchRun run;
    run.offset = read_u32(p + pos);
    run.length = read_u32(p + pos + 4);
    pos += kRunHeaderSize;
    if ((run.length & kSpliceBit) != 0) {
      if (body.size() - pos < kSpliceHeaderSize - kRunHeaderSize) {
        return Error{ErrorCode::kProtocolError, "patch run header truncated"};
      }
      run.length &= ~kSpliceBit;
      run.splice = true;
      run.spliced_len = read_u32(p + pos);
      pos += kSpliceHeaderSize - kRunHeaderSize;
    }
    if (body.size() - pos < run.length) {
      return Error{ErrorCode::kProtocolError, "patch run payload truncated"};
    }
    if (run.offset < old_end) {
      return Error{ErrorCode::kProtocolError,
                   "patch runs overlap or are out of order"};
    }
    old_end = std::uint64_t{run.offset} + run.old_length();
    run.data = p + pos;
    pos += run.length;
    frame.runs.push_back(run);
  }
  if (pos != body.size()) {
    return Error{ErrorCode::kProtocolError,
                 "patch frame has trailing bytes"};
  }
  return frame;
}

Result<std::size_t> old_body_length(const PatchFrame& frame) {
  std::uint64_t old_end = 0;
  std::int64_t growth = 0;
  for (const PatchRun& run : frame.runs) {
    if (run.offset < old_end) {
      return Error{ErrorCode::kProtocolError,
                   "patch runs overlap or are out of order"};
    }
    old_end = std::uint64_t{run.offset} + run.old_length();
    growth += static_cast<std::int64_t>(run.length) -
              static_cast<std::int64_t>(run.old_length());
  }
  const std::int64_t old_len =
      static_cast<std::int64_t>(frame.header.body_len) - growth;
  if (old_len < 0 || static_cast<std::uint64_t>(old_len) < old_end) {
    return Error{ErrorCode::kProtocolError, "run out of bounds"};
  }
  return static_cast<std::size_t>(old_len);
}

std::string render_nack_response(std::uint64_t template_id,
                                 std::string_view reason) {
  std::string body = "diff-wire nack: ";
  body.append(reason);
  body.push_back('\n');
  http::HttpResponse response;
  response.status = kNackStatus;
  response.reason = "Conflict";
  response.headers.push_back(http::Header{kDiffHeader, kNackValue});
  response.headers.push_back(
      http::Header{kTemplateHeader, format_template_id(template_id)});
  response.headers.push_back(http::Header{"Content-Type", "text/plain"});
  response.headers.push_back(
      http::Header{"Content-Length", std::to_string(body.size())});
  return http::serialize_response_head(response) + body;
}

}  // namespace bsoap::diffwire
