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

std::shared_ptr<ReplicaStore::Replica> ReplicaStore::make_replica(
    std::uint64_t id, std::string body) {
  const std::size_t dict_len =
      options_.retain_dictionaries ? dict_tail(body).size() : 0;
  return std::make_shared<Replica>(id, std::move(body), dict_len);
}

bool ReplicaStore::publish(std::shared_ptr<Replica> replica) {
  // Swapped in for a re-pin, which drops the previous slot with the
  // previous replica.
  replica->charged = replica->footprint();
  std::shared_ptr<Replica> replaced;  // released after the lock
  std::lock_guard<std::mutex> lock(mu_);
  bytes_ += replica->charged;
  const auto it = index_.find(replica->id);
  const bool repin = it != index_.end();
  if (repin) {
    replaced = std::move(*it->second);
    bytes_ -= replaced->charged;
    lru_.erase(it->second);
    ++counters_.repins;
  } else {
    ++counters_.pins;
  }
  const std::uint64_t id = replica->id;
  lru_.push_front(std::move(replica));
  index_[id] = lru_.begin();
  enforce_budget_locked();
  return repin;
}

std::shared_ptr<ReplicaStore::Replica> ReplicaStore::find(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(id);
  if (it == index_.end()) return nullptr;
  return *it->second;
}

Result<std::string> ReplicaStore::decode_preset(std::uint64_t id,
                                                std::string_view body,
                                                std::size_t max_output) {
  const std::shared_ptr<Replica> replica = find(id);
  if (replica == nullptr) {
    ++counters_.nacks;
    return Error{ErrorCode::kNotFound, "template not pinned"};
  }
  Result<std::string> decoded = [&] {
    std::lock_guard<std::mutex> lock(replica->mu);
    if (replica->dict_id == 0 && !replica->dict.empty()) {
      replica->dict_id = compress::adler32(replica->dict);
    }
    const std::optional<std::uint32_t> wanted =
        compress::zlib_dictionary_id(body);
    const std::string_view dict =
        options_.retain_dictionaries && wanted.has_value() &&
                *wanted != replica->dict_id
            ? dict_tail(replica->body)
            : std::string_view(replica->dict);
    return compress::zlib_decompress(body, max_output, dict);
  }();
  // Undecodable preset body: same treatment as a bad patch frame — erase
  // the replica so the NACK answer drives the sender's full-send re-pin.
  if (!decoded.ok()) nack(*replica);
  return decoded;
}

Status ReplicaStore::patch(const PatchFrame& frame, Applied* out) {
  const PatchHeader& h = frame.header;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(h.template_id);
    if (it == index_.end()) {
      ++counters_.nacks;
      return Error{ErrorCode::kNotFound, "template not pinned"};
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    out->replica = *it->second;
  }
  Replica& replica = *out->replica;
  out->lock = std::unique_lock<std::mutex>(replica.mu);
  const auto reject = [&](std::string reason) -> Status {
    nack(replica);
    return Error{ErrorCode::kProtocolError, std::move(reason)};
  };
  if (h.epoch != replica.epoch + 1) {
    return reject("epoch " + std::to_string(h.epoch) + " != expected " +
                  std::to_string(replica.epoch + 1));
  }
  const Result<std::size_t> old_len = old_body_length(frame);
  if (!old_len.ok()) return reject(old_len.error().message);
  if (old_len.value() != replica.body.size()) {
    return reject("body length mismatch");
  }
  bool resizes = false;
  for (const PatchRun& run : frame.runs) {
    resizes = resizes || run.length != run.old_length();
  }
  // Overwrite-only frames patch in place, each run moving the root by the
  // delta of its bytes and marking them in the piece table, whose pieces
  // are rehashed only once a splice frame needs them. A frame with splices
  // builds the new body in one pass (old segments and new bytes in order)
  // in a per-thread scratch, swaps it in (the old body's buffer serves the
  // thread's next splice), rehashes the pieces its runs (and earlier
  // overwrites) landed in and refolds the root. The first patch after a pin
  // builds the pieces from scratch.
  const bool hashed = replica.pieces.built();
  std::uint64_t root = replica.root;
  if (!resizes) {
    char* body = replica.body.data();
    for (const PatchRun& run : frame.runs) {
      if (hashed) {
        root = poly::add(
            root, poly::move_by(run.offset,
                                poly::hash_change(body + run.offset, run.data,
                                                  run.length)));
        replica.pieces.overwrite(run.offset, run.length);
      }
      std::memcpy(body + run.offset, run.data, run.length);
    }
  } else {
    thread_local std::string splice_scratch;
    const char* old = replica.body.data();
    splice_scratch.clear();
    splice_scratch.reserve(h.body_len);
    std::size_t cursor = 0;    // old-body offset
    std::ptrdiff_t shift = 0;  // new offset − old offset at the cursor
    for (const PatchRun& run : frame.runs) {
      splice_scratch.append(old + cursor, run.offset - cursor);
      splice_scratch.append(run.data, run.length);
      if (hashed) {
        replica.pieces.splice(run.offset + shift, run.old_length(),
                              run.length);
      }
      cursor = run.offset + run.old_length();
      shift += static_cast<std::ptrdiff_t>(run.length) -
               static_cast<std::ptrdiff_t>(run.old_length());
    }
    splice_scratch.append(old + cursor, replica.body.size() - cursor);
    replica.body.swap(splice_scratch);
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
  if (replica.root != h.checksum) return reject("checksum mismatch");
  replica.epoch = h.epoch;
  ++counters_.applies;
  if (h.replay() || frame.runs.empty()) ++counters_.replays;
  return Status{};
}

void ReplicaStore::recharge(Replica& replica) {
  const std::size_t now = replica.footprint();
  if (now == replica.charged) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(replica.id);
  if (it != index_.end() && it->second->get() == &replica) {
    bytes_ = bytes_ - replica.charged + now;
    replica.charged = now;
    enforce_budget_locked();
  }
}

bool ReplicaStore::invalidate(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  remove_locked(it->second);
  return true;
}

void ReplicaStore::clear() {
  std::list<std::shared_ptr<Replica>> dropped;  // released after the lock
  std::lock_guard<std::mutex> lock(mu_);
  dropped.swap(lru_);
  index_.clear();
  bytes_ = 0;
}

ReplicaStore::Stats ReplicaStore::stats() const {
  Stats s;
  s.pins = counters_.pins;
  s.repins = counters_.repins;
  s.applies = counters_.applies;
  s.replays = counters_.replays;
  s.nacks = counters_.nacks;
  s.full_hashes = counters_.full_hashes;
  s.hashed_bytes = counters_.hashed_bytes;
  s.evictions = counters_.evictions;
  std::lock_guard<std::mutex> lock(mu_);
  s.pinned_replicas = lru_.size();
  s.pinned_bytes = bytes_;
  return s;
}

void ReplicaStore::nack(const Replica& replica) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(replica.id);
  if (it != index_.end() && it->second->get() == &replica) {
    remove_locked(it->second);
  }
  ++counters_.nacks;
}

void ReplicaStore::remove_locked(LruIter it) {
  bytes_ -= (*it)->charged;
  index_.erase((*it)->id);
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
