// Sender-side diff-wire negotiation state.
//
// One ClientSession per client instance tracks, per wire template ID, where
// the pinning handshake stands:
//
//     kNew ──full send + offer──► kOffered ──ack read──► kPinned(epoch 1)
//       ▲                            │                        │
//       │                            │full send re-offers     │patch sent:
//       │                            ▼ (stays offered)        ▼ epoch+1
//       └────────── nack read / unpin ◄───────────────────────┘
//
// Only kPinned sends patch frames; an offered-but-unacked ID keeps sending
// full bodies (offers are free — two headers). The state machine never
// blocks a send: any doubt resolves to a full send, and the receiver's
// epoch/checksum validation plus NACK fallback make that always correct.
//
// Wire IDs are the call's structure signature mixed with a per-session
// token, so two clients sending the same call shape pin distinct replicas
// server-side instead of clobbering each other's (a collision is not a
// correctness problem — the epoch chain NACKs and both fall back — just a
// performance one). Tokens are process-locally unique; across processes a
// collision degrades to the same NACK fallback.
//
// Not thread-safe, matching BsoapClient: one client, one sending thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

namespace bsoap::diffwire {

/// Client-side diff-wire counters (the satellite dashboard numbers).
struct ClientDiffStats {
  std::uint64_t offers_sent = 0;     ///< full sends carrying the offer header
  std::uint64_t acks = 0;            ///< offers the receiver acknowledged
  std::uint64_t patch_sends = 0;     ///< patch frames sent (incl. replays)
  std::uint64_t patch_replays = 0;   ///< header-only frames (content match)
  std::uint64_t patch_nacks = 0;     ///< NACKs read back (replica conflict)
  std::uint64_t fallback_full_sends = 0;  ///< full resends a NACK forced
  std::uint64_t bytes_saved = 0;     ///< Σ (logical body − patch frame) bytes
};

class ClientSession {
 public:
  ClientSession() : token_(next_token()) {}
  /// Fixed token (tests that need reproducible wire IDs).
  explicit ClientSession(std::uint64_t token) : token_(token) {}

  /// The on-wire template ID for a call structure signature.
  std::uint64_t wire_id(std::uint64_t signature) const {
    return mix(signature ^ token_);
  }

  /// True when `id` is pinned; `*epoch` receives the epoch the next patch
  /// frame must carry.
  bool should_patch(std::uint64_t id, std::uint32_t* epoch) const {
    const auto it = states_.find(id);
    if (it == states_.end() || it->second.state != State::kPinned) {
      return false;
    }
    *epoch = it->second.next_epoch;
    return true;
  }

  /// A full send carrying the offer header went out: the ID is offered
  /// (pinned state resets — the receiver re-pinned at epoch 0 and must ack
  /// again before patches resume).
  void note_offer_sent(std::uint64_t id) {
    Entry& e = states_[id];
    e.state = State::kOffered;
    e.next_epoch = 1;
    last_offer_ = id;
    ++stats_.offers_sent;
  }

  /// A patch frame was written in full: advance the epoch optimistically.
  /// If the receiver never processed it, the next frame's epoch gap NACKs
  /// and the sender falls back — never silently diverges.
  void note_patch_sent(std::uint64_t id, std::size_t logical_bytes,
                       std::size_t frame_bytes, bool replay) {
    Entry& e = states_[id];
    ++e.next_epoch;
    ++stats_.patch_sends;
    if (replay) ++stats_.patch_replays;
    if (logical_bytes > frame_bytes) {
      stats_.bytes_saved += logical_bytes - frame_bytes;
    }
  }

  /// An ack for `id` was read: offered → pinned. Ignored unless offered
  /// (a stale ack must not resurrect an unpinned ID).
  void note_ack(std::uint64_t id) {
    const auto it = states_.find(id);
    if (it == states_.end() || it->second.state != State::kOffered) return;
    it->second.state = State::kPinned;
    it->second.next_epoch = 1;
    ++stats_.acks;
  }

  /// A NACK for `id` was read: forget the pin; the caller resends full.
  void note_nack(std::uint64_t id) {
    states_.erase(id);
    ++stats_.patch_nacks;
    ++stats_.fallback_full_sends;
  }

  /// The wire ID the most recent offer went out under (0 = none yet) —
  /// lets the response reader ack without re-deriving the signature.
  std::uint64_t last_offer() const { return last_offer_; }

  // --- preset wire compression (the second differential layer) -----------

  /// Records the dictionary for `id`: the tail of the body that last went
  /// out under it (an offer, or a patch the server applies to its replica),
  /// i.e. the bytes the server's replica holds. Both sides preset the
  /// DEFLATE window from it, so a re-offer compresses against the body the
  /// server already has. No-op for an unknown ID (call after
  /// note_offer_sent).
  void set_dictionary(std::uint64_t id, std::string_view dict) {
    const auto it = states_.find(id);
    if (it == states_.end()) return;
    it->second.dict.assign(dict);
  }
  /// set_dictionary without the copy: swaps `dict` in, so `dict` comes back
  /// holding the previous dictionary's buffer (reusable scratch).
  void set_dictionary(std::uint64_t id, std::string&& dict) {
    const auto it = states_.find(id);
    if (it == states_.end()) return;
    it->second.dict.swap(dict);
  }

  /// The server acked preset coding for `id` (kCodingHeader on a response).
  void note_coding_ack(std::uint64_t id) {
    const auto it = states_.find(id);
    if (it == states_.end()) return;
    it->second.coding_acked = true;
  }

  /// True when sends under `id` may go out preset-coded: the server acked
  /// the coding and a dictionary is held. A NACK erases the entry
  /// (note_nack), so a stale dictionary can never outlive its pin; a patch
  /// the server never applied leaves the two dictionaries apart, and the
  /// next coded body fails its DICTID check and NACKs.
  bool coding_ready(std::uint64_t id) const {
    const auto it = states_.find(id);
    return it != states_.end() && it->second.coding_acked &&
           !it->second.dict.empty();
  }

  /// The current dictionary (empty view when none).
  std::string_view dictionary(std::uint64_t id) const {
    const auto it = states_.find(id);
    return it != states_.end() ? std::string_view(it->second.dict)
                               : std::string_view{};
  }

  const ClientDiffStats& stats() const { return stats_; }

 private:
  enum class State { kOffered, kPinned };
  struct Entry {
    State state = State::kOffered;
    std::uint32_t next_epoch = 1;
    /// Preset-coding state: the dictionary bytes and whether the server
    /// acked the coding. coding_acked survives re-offers
    /// (the server re-acks on every offer response; if its replica is gone
    /// the preset body NACKs and note_nack clears everything).
    std::string dict;
    bool coding_acked = false;
  };

  /// splitmix64 finalizer: spreads signature ^ token over all 64 bits.
  static std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  static std::uint64_t next_token() {
    static std::atomic<std::uint64_t> counter{0};
    return mix(counter.fetch_add(1, std::memory_order_relaxed) + 1);
  }

  std::uint64_t token_;
  std::unordered_map<std::uint64_t, Entry> states_;
  std::uint64_t last_offer_ = 0;
  ClientDiffStats stats_;
};

}  // namespace bsoap::diffwire
