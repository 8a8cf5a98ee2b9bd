#include "buffer/chunked_buffer.hpp"

#include <algorithm>
#include <cstring>

namespace bsoap::buffer {

ChunkedBuffer::ChunkedBuffer(ChunkConfig config) : config_(config) {
  BSOAP_ASSERT(config_.chunk_size > 0);
  BSOAP_ASSERT(config_.payload_limit() > 0);
}

ChunkedBuffer::Chunk ChunkedBuffer::make_chunk(std::size_t capacity) const {
  Chunk c;
  c.data = std::make_unique<char[]>(capacity);
  c.capacity = capacity;
  c.size = 0;
  return c;
}

void ChunkedBuffer::append(const char* data, std::size_t n) {
  BSOAP_ASSERT(reserved_ == 0);
  while (n > 0) {
    if (chunks_.empty() || last().size >= config_.payload_limit()) {
      chunks_.push_back(make_chunk(config_.chunk_size));
    }
    Chunk& c = last();
    const std::size_t room = config_.payload_limit() - c.size;
    const std::size_t take = std::min(room, n);
    std::memcpy(c.data.get() + c.size, data, take);
    c.size += take;
    stale(c);
    total_size_ += take;
    data += take;
    n -= take;
  }
}

char* ChunkedBuffer::reserve_contiguous(std::size_t n) {
  BSOAP_ASSERT(reserved_ == 0);
  BSOAP_ASSERT(n <= config_.payload_limit());
  if (chunks_.empty() || config_.payload_limit() - last().size < n) {
    chunks_.push_back(make_chunk(config_.chunk_size));
  }
  reserved_ = n;
  return last().data.get() + last().size;
}

void ChunkedBuffer::commit(std::size_t written) {
  BSOAP_ASSERT(written <= reserved_);
  last().size += written;
  stale(last());
  total_size_ += written;
  reserved_ = 0;
}

BufPos ChunkedBuffer::end_pos() const {
  if (chunks_.empty()) return BufPos{0, 0};
  return BufPos{static_cast<std::uint32_t>(chunks_.size() - 1),
                static_cast<std::uint32_t>(chunks_.back().size)};
}

std::string_view ChunkedBuffer::chunk_view(std::size_t i) const {
  BSOAP_ASSERT(i < chunks_.size());
  return std::string_view(chunks_[i].data.get(), chunks_[i].size);
}

std::size_t ChunkedBuffer::chunk_capacity(std::size_t i) const {
  BSOAP_ASSERT(i < chunks_.size());
  return chunks_[i].capacity;
}

const char* ChunkedBuffer::at(BufPos pos) const {
  BSOAP_ASSERT(pos.chunk < chunks_.size());
  const Chunk& c = chunks_[pos.chunk];
  BSOAP_ASSERT(pos.offset <= c.size);
  return c.data.get() + pos.offset;
}

std::string ChunkedBuffer::linearize() const {
  std::string out;
  out.reserve(total_size_);
  for (const Chunk& c : chunks_) out.append(c.data.get(), c.size);
  return out;
}

void ChunkedBuffer::read_at(BufPos pos, char* out, std::size_t n) const {
  std::size_t chunk = pos.chunk;
  std::size_t offset = pos.offset;
  while (n > 0) {
    BSOAP_ASSERT(chunk < chunks_.size());
    const Chunk& c = chunks_[chunk];
    const std::size_t take = std::min(n, c.size - offset);
    std::memcpy(out, c.data.get() + offset, take);
    out += take;
    n -= take;
    ++chunk;
    offset = 0;
  }
}

void ChunkedBuffer::write_at(BufPos pos, const char* data, std::size_t n) {
  const Edit edit(*this, pos, n);
  std::memcpy(edit.data(), data, n);
}

void ChunkedBuffer::grow(Chunk& c, std::size_t capacity) {
  auto data = std::make_unique<char[]>(capacity);
  std::memcpy(data.get(), c.data.get(), c.size);
  c.data = std::move(data);
  c.capacity = capacity;
}

void ChunkedBuffer::splice_pieces(Chunk& c, std::size_t offset,
                                  std::size_t old_len, std::size_t new_len) {
  if (!c.pieces.built()) return;
  c.pieces.splice(offset, old_len, new_len);
  c.folded = false;
}

ExpandResult ChunkedBuffer::expand_at(BufPos pos, std::size_t old_len,
                                      std::size_t new_len) {
  BSOAP_ASSERT(new_len >= old_len);
  BSOAP_ASSERT(pos.chunk < chunks_.size());
  ExpandResult result;
  const std::size_t delta = new_len - old_len;
  if (delta == 0) return result;

  Chunk* c = &chunks_[pos.chunk];
  const std::size_t region_end = pos.offset + old_len;
  BSOAP_ASSERT(region_end <= c->size);
  const std::size_t tail_len = c->size - region_end;

  if (c->size + delta <= c->capacity) {
    // Fast path: enough slack at the end of the chunk; shift the tail.
    result.outcome = ExpandOutcome::kSlack;
  } else if (c->size + delta <= config_.split_threshold) {
    // Reallocate this chunk into a larger memory region.
    grow(*c, std::max(c->size + delta + config_.tail_reserve,
                      c->capacity * 2));
    result.outcome = ExpandOutcome::kRealloc;
  } else {
    // Split: the tail after the expanded region moves to a new chunk
    // inserted right after this one, with its pieces.
    Chunk tail_chunk = make_chunk(
        std::max(config_.chunk_size, tail_len + config_.tail_reserve));
    std::memcpy(tail_chunk.data.get(), c->data.get() + region_end, tail_len);
    tail_chunk.size = tail_len;
    if (c->pieces.built()) {
      hashed_bytes_ +=
          c->pieces.split(c->data.get(), region_end, &tail_chunk.pieces);
      c->folded = false;
    }
    c->size = region_end;
    chunks_.insert(chunks_.begin() + pos.chunk + 1, std::move(tail_chunk));
    c = &chunks_[pos.chunk];  // vector may have reallocated
    result.outcome = ExpandOutcome::kSplit;
    result.split_offset = region_end;
    // If even the region alone no longer fits, grow this chunk too.
    if (pos.offset + new_len > c->capacity) {
      grow(*c, pos.offset + new_len + config_.tail_reserve);
    }
    c->size = pos.offset + new_len;
    total_size_ += delta;
    splice_pieces(*c, pos.offset, old_len, new_len);
    return result;
  }

  // kSlack / kRealloc: shift the tail right by delta.
  char* base = c->data.get();
  std::memmove(base + region_end + delta, base + region_end, tail_len);
  c->size += delta;
  total_size_ += delta;
  splice_pieces(*c, pos.offset, old_len, new_len);
  return result;
}

void ChunkedBuffer::contract_at(BufPos pos, std::size_t old_len,
                                std::size_t new_len) {
  BSOAP_ASSERT(new_len <= old_len);
  BSOAP_ASSERT(pos.chunk < chunks_.size());
  Chunk& c = chunks_[pos.chunk];
  const std::size_t region_end = pos.offset + old_len;
  BSOAP_ASSERT(region_end <= c.size);
  const std::size_t delta = old_len - new_len;
  if (delta == 0) return;
  char* base = c.data.get();
  std::memmove(base + region_end - delta, base + region_end,
               c.size - region_end);
  c.size -= delta;
  total_size_ -= delta;
  splice_pieces(c, pos.offset, old_len, new_len);
}

std::vector<ChunkedBuffer::Slice> ChunkedBuffer::slices() const {
  std::vector<Slice> out;
  out.reserve(chunks_.size());
  for (const Chunk& c : chunks_) {
    if (c.size > 0) out.push_back(Slice{c.data.get(), c.size});
  }
  return out;
}

void ChunkedBuffer::clear() {
  chunks_.clear();
  total_size_ = 0;
  reserved_ = 0;
}

std::uint64_t ChunkedBuffer::root() {
  std::uint64_t root = 0;
  std::size_t base = 0;
  for (Chunk& c : chunks_) {
    if (!c.pieces.built()) {
      hashed_bytes_ += c.pieces.build(c.data.get(), c.size);
    }
    if (!c.folded) {
      hashed_bytes_ += c.pieces.refresh(c.data.get());
      c.hash = c.pieces.fold();
      c.folded = true;
    }
    if (c.size > 0) root = poly::add(root, poly::mul(poly::pow(base), c.hash));
    base += c.size;
  }
#ifdef BSOAP_DEBUG_INVARIANTS
  BSOAP_ASSERT(check_invariants());
  BSOAP_ASSERT(root == poly::hash(linearize()));
#endif
  return root;
}

bool ChunkedBuffer::check_invariants() const {
  std::size_t sum = 0;
  for (const Chunk& c : chunks_) {
    if (c.size > c.capacity) return false;
    if (c.capacity == 0 || c.data == nullptr) return false;
    if (!c.pieces.check(c.data.get(), c.size)) return false;
    if (c.folded && (!c.pieces.built() ||
                     c.hash != poly::hash(c.data.get(), c.size))) {
      return false;
    }
    sum += c.size;
  }
  return sum == total_size_ && reserved_ == 0;
}

}  // namespace bsoap::buffer
