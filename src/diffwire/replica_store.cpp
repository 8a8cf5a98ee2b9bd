#include "diffwire/replica_store.hpp"

#include <cstring>
#include <optional>

#include "common/poly_hash.hpp"
#include "compress/deflate.hpp"

namespace bsoap::diffwire {

namespace {
/// DEFLATE window size: a preset dictionary beyond this is unreachable.
constexpr std::size_t kMaxDictBytes = 32 * 1024;

std::string_view dict_tail(std::string_view body) {
  if (body.size() <= kMaxDictBytes) return body;
  return body.substr(body.size() - kMaxDictBytes);
}
}  // namespace

bool ReplicaStore::pin(std::uint64_t id, std::string_view body,
                       std::uint64_t* generation) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t gen = ++generation_counter_;
  if (generation != nullptr) *generation = gen;
  const auto it = index_.find(id);
  if (it != index_.end()) {
    Replica& replica = *it->second;
    bytes_ -= replica.bytes();
    replica.body.assign(body);
    replica.epoch = 0;
    replica.dict.assign(options_.retain_dictionaries ? dict_tail(body)
                                                     : std::string_view{});
    replica.dict_id = 0;
    replica.generation = gen;
    replica.attachment.reset();  // it described the replaced body
    replica.attachment_bytes = 0;
    replica.pieces.reset();
    bytes_ += replica.bytes();
    lru_.splice(lru_.begin(), lru_, it->second);
    ++counters_.repins;
    enforce_budget_locked();
    return true;
  }
  lru_.push_front(Replica{id, std::string(body), 0,
                          options_.retain_dictionaries
                              ? std::string(dict_tail(body))
                              : std::string{},
                          0, gen, nullptr, 0, 0, {}});
  index_[id] = lru_.begin();
  bytes_ += lru_.front().bytes();
  ++counters_.pins;
  enforce_budget_locked();
  return false;
}

bool ReplicaStore::attach(std::uint64_t id, std::uint64_t generation,
                          std::shared_ptr<ReplicaAttachment> attachment) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(id);
  if (it == index_.end() || it->second->generation != generation) return false;
  Replica& replica = *it->second;
  bytes_ -= replica.attachment_bytes;
  replica.attachment_bytes = attachment != nullptr ? attachment->bytes() : 0;
  replica.attachment = std::move(attachment);
  bytes_ += replica.attachment_bytes;
  enforce_budget_locked();
  return true;
}

std::shared_ptr<ReplicaAttachment> ReplicaStore::attachment(
    std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(id);
  if (it == index_.end()) return nullptr;
  return it->second->attachment;
}

Result<std::string> ReplicaStore::decode_preset(std::uint64_t id,
                                                std::string_view body,
                                                std::size_t max_output) {
  std::string dict;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(id);
    if (it == index_.end()) {
      ++counters_.nacks;
      return Error{ErrorCode::kNotFound, "template not pinned"};
    }
    // Copies: the inflate runs outside the lock.
    Replica& replica = *it->second;
    if (replica.dict_id == 0 && !replica.dict.empty()) {
      replica.dict_id = compress::adler32(replica.dict);
    }
    const std::optional<std::uint32_t> wanted =
        compress::zlib_dictionary_id(body);
    if (options_.retain_dictionaries && wanted.has_value() &&
        *wanted != replica.dict_id) {
      dict.assign(dict_tail(replica.body));
    } else {
      dict = replica.dict;
    }
  }
  Result<std::string> decoded = compress::zlib_decompress(body, max_output, dict);
  if (decoded.ok()) return decoded;
  // Undecodable preset body: same treatment as a bad patch frame — erase
  // the replica so the NACK answer drives the sender's full-send re-pin.
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(id);
    if (it != index_.end()) remove_locked(it->second);
    ++counters_.nacks;
  }
  return decoded.error();
}

Status ReplicaStore::apply(const PatchFrame& frame, std::string* reconstructed,
                           ApplyInfo* info) {
  const PatchHeader& h = frame.header;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(h.template_id);
  if (it == index_.end()) {
    ++counters_.nacks;
    return Error{ErrorCode::kNotFound, "template not pinned"};
  }
  Replica& replica = *it->second;
  if (h.epoch != replica.epoch + 1) {
    return nack_locked(it->second, h.template_id,
                       "epoch " + std::to_string(h.epoch) + " != expected " +
                           std::to_string(replica.epoch + 1));
  }
  const Result<std::size_t> old_len = old_body_length(frame);
  if (!old_len.ok()) {
    return nack_locked(it->second, h.template_id, old_len.error().message);
  }
  if (old_len.value() != replica.body.size()) {
    return nack_locked(it->second, h.template_id, "body length mismatch");
  }
  bool resizes = false;
  for (const PatchRun& run : frame.runs) {
    resizes = resizes || run.length != run.old_length();
  }
  // Overwrite-only frames patch in place, each run moving the root by the
  // delta of its bytes and marking them in the piece table, whose pieces
  // are rehashed only once a splice frame needs them. A frame with splices
  // builds the new body in one pass (old segments and new bytes in order),
  // swaps it in, rehashes the pieces its runs (and earlier overwrites)
  // landed in and refolds the root. The first patch after a pin builds the
  // pieces from scratch.
  const bool hashed = replica.pieces.built();
  std::uint64_t root = replica.root;
  if (!resizes) {
    char* body = replica.body.data();
    for (const PatchRun& run : frame.runs) {
      if (hashed) {
        root = poly::add(
            root, poly::move_by(run.offset,
                                poly::hash(body + run.offset, run.length),
                                poly::hash(run.data, run.length)));
        replica.pieces.overwrite(run.offset, run.length);
      }
      std::memcpy(body + run.offset, run.data, run.length);
    }
  } else {
    const char* old = replica.body.data();
    splice_scratch_.clear();
    splice_scratch_.reserve(h.body_len);
    std::size_t cursor = 0;    // old-body offset
    std::ptrdiff_t shift = 0;  // new offset − old offset at the cursor
    for (const PatchRun& run : frame.runs) {
      splice_scratch_.append(old + cursor, run.offset - cursor);
      splice_scratch_.append(run.data, run.length);
      if (hashed) {
        replica.pieces.splice(run.offset + shift, run.old_length(),
                              run.length);
      }
      cursor = run.offset + run.old_length();
      shift += static_cast<std::ptrdiff_t>(run.length) -
               static_cast<std::ptrdiff_t>(run.old_length());
    }
    splice_scratch_.append(old + cursor, replica.body.size() - cursor);
    bytes_ -= replica.bytes();
    replica.body.swap(splice_scratch_);
    bytes_ += replica.bytes();
    if (hashed) {
      counters_.hashed_bytes += replica.pieces.refresh(replica.body.data());
      root = replica.pieces.fold();
    }
  }
  if (!hashed) {
    counters_.hashed_bytes +=
        replica.pieces.build(replica.body.data(), replica.body.size());
    root = replica.pieces.fold();
    ++counters_.full_hashes;
  }
  replica.root = root;
#ifdef BSOAP_DEBUG_INVARIANTS
  BSOAP_ASSERT(replica.body.size() == h.body_len);
  BSOAP_ASSERT(replica.pieces.check(replica.body.data(), replica.body.size()));
  BSOAP_ASSERT(replica.root == poly::hash(replica.body));
#endif
  if (replica.root != h.checksum) {
    return nack_locked(it->second, h.template_id, "checksum mismatch");
  }
  replica.epoch = h.epoch;
  reconstructed->assign(replica.body);
  if (info != nullptr) {
    info->attachment = replica.attachment;
    info->generation = replica.generation;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++counters_.applies;
  if (h.replay() || frame.runs.empty()) ++counters_.replays;
  if (resizes) enforce_budget_locked();  // never evicts the MRU replica
  return Status{};
}

bool ReplicaStore::invalidate(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  remove_locked(it->second);
  return true;
}

void ReplicaStore::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
}

ReplicaStore::Stats ReplicaStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = counters_;
  s.pinned_replicas = lru_.size();
  s.pinned_bytes = bytes_;
  return s;
}

Status ReplicaStore::nack_locked(LruIter it, std::uint64_t id,
                                 const std::string& reason) {
  (void)id;
  remove_locked(it);
  ++counters_.nacks;
  return Error{ErrorCode::kProtocolError, reason};
}

void ReplicaStore::remove_locked(LruIter it) {
  bytes_ -= it->bytes();
  index_.erase(it->id);
  lru_.erase(it);
}

void ReplicaStore::enforce_budget_locked() {
  while (lru_.size() > 1 &&
         (lru_.size() > options_.max_replicas ||
          (options_.max_bytes != 0 && bytes_ > options_.max_bytes))) {
    remove_locked(std::prev(lru_.end()));
    ++counters_.evictions;
  }
}

}  // namespace bsoap::diffwire
