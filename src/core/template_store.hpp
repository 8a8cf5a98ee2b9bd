// Saved-template store.
//
// The paper keeps one saved template per remote service per call type;
// Section 6 (future work) suggests storing several. TemplateStore
// generalizes both: templates are keyed by structure signature with an LRU
// bound on the total number retained (capacity 1 reproduces the paper's
// behaviour) and an optional byte budget on the serialized bytes retained —
// a long-running server keeping response templates for many RPC shapes
// bounds its memory rather than its template count.
//
// Every SendPipeline owns one store, used from the pipeline's thread only,
// so the store does no locking. The pipeline resolves with find (a hit) or
// insert (a first-time send); after the send it reports the size delta the
// update produced through note_growth, which keeps byte accounting O(1)
// instead of a per-eviction walk. A server worker owns its own pipeline, so
// each worker serializes a given response shape at most once while the
// shape stays stored.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>

#include "core/message_template.hpp"

namespace bsoap::core {

class TemplateStore {
 public:
  /// `max_bytes` == 0 means no byte budget (count-only LRU).
  explicit TemplateStore(std::size_t capacity = 8, std::size_t max_bytes = 0)
      : capacity_(capacity), max_bytes_(max_bytes) {
    BSOAP_ASSERT(capacity_ >= 1);
  }

  /// Returns the template for `signature` (refreshing its LRU position), or
  /// nullptr if none is stored.
  MessageTemplate* find(std::uint64_t signature) {
    const auto it = index_.find(signature);
    if (it == index_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);  // move to front
    return it->second->get();
  }

  /// Stores a template (keyed by its signature), evicting least recently
  /// used ones while over the count or byte budget. Returns the stored
  /// pointer (always valid: the newest template is never evicted).
  MessageTemplate* insert(std::unique_ptr<MessageTemplate> tmpl) {
    const std::uint64_t signature = tmpl->signature;
    const std::size_t incoming = tmpl->buffer().total_size();
    if (MessageTemplate* existing = find(signature)) {
      bytes_ -= existing->buffer().total_size();
      bytes_ += incoming;
      *lru_.begin() = std::move(tmpl);
      return lru_.begin()->get();
    }
    lru_.push_front(std::move(tmpl));
    index_[signature] = lru_.begin();
    bytes_ += incoming;
    while (lru_.size() > capacity_) {
      evict_back();
      ++evictions_;
    }
    enforce_byte_budget();
    return lru_.begin()->get();
  }

  /// Serialized bytes retained across all stored templates. O(1): a cached
  /// total maintained by insert/erase/eviction plus the growth deltas the
  /// send path reports through note_growth (templates grow in place on
  /// partial structural matches). Debug builds cross-check against a walk.
  std::size_t bytes_retained() const {
#ifdef BSOAP_DEBUG_INVARIANTS
    BSOAP_ASSERT(bytes_ == walked_bytes_retained());
#endif
    return bytes_;
  }

  /// Applies the size delta of an in-place update to a stored template.
  /// SendPipeline reports this after every send; code that mutates a stored
  /// template behind the store's back must report it too, or the debug
  /// cross-check trips.
  void note_growth(std::ptrdiff_t delta) {
    bytes_ = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(bytes_) +
                                      delta);
  }

  /// Evicts least recently used templates while over the byte budget. The
  /// most recent template always survives (it is the one in use), so a
  /// single oversized template can exceed the budget. Call after updates
  /// that may have grown a template.
  void enforce_byte_budget() {
    if (max_bytes_ == 0) return;
    while (lru_.size() > 1 && bytes_retained() > max_bytes_) {
      evict_back();
      ++byte_evictions_;
    }
  }

  /// Drops the template for `signature`, if stored. Returns true if one was
  /// removed. Used by recovery when a failed send left a template whose
  /// agreement with the peer's view is unknowable (forces a first-time send).
  bool erase(std::uint64_t signature) {
    const auto it = index_.find(signature);
    if (it == index_.end()) return false;
    remove(it->second);
    ++invalidations_;
    return true;
  }

  std::size_t size() const { return lru_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::size_t max_bytes() const { return max_bytes_; }
  /// Retunes the byte budget (0 disables). Takes effect at the next
  /// enforcement pass; it does not evict by itself.
  void set_max_bytes(std::size_t max_bytes) { max_bytes_ = max_bytes; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t byte_evictions() const { return byte_evictions_; }
  std::uint64_t invalidations() const { return invalidations_; }

  /// Drops every stored template through the same removal path evictions
  /// use, so the byte accounting and index stay consistent (eviction and
  /// invalidation tallies are history, not contents — they survive).
  void clear() {
    while (!lru_.empty()) remove(std::prev(lru_.end()));
  }

 private:
  using LruIter = std::list<std::unique_ptr<MessageTemplate>>::iterator;

  /// The one removal path: keeps index and cached byte total consistent.
  void remove(LruIter it) {
    bytes_ -= (*it)->buffer().total_size();
    index_.erase((*it)->signature);
    lru_.erase(it);
  }

  void evict_back() { remove(std::prev(lru_.end())); }

#ifdef BSOAP_DEBUG_INVARIANTS
  /// The pre-cache O(n) walk, kept as the oracle for the cached total.
  std::size_t walked_bytes_retained() const {
    std::size_t total = 0;
    for (const auto& t : lru_) total += t->buffer().total_size();
    return total;
  }
#endif

  std::size_t capacity_;
  std::size_t max_bytes_;
  std::size_t bytes_ = 0;
  std::list<std::unique_ptr<MessageTemplate>> lru_;
  std::unordered_map<std::uint64_t, LruIter> index_;
  std::uint64_t evictions_ = 0;
  std::uint64_t byte_evictions_ = 0;
  std::uint64_t invalidations_ = 0;
};

}  // namespace bsoap::core
