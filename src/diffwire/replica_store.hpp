// Receiver-side pinned replicas for the diff-wire protocol.
//
// The receiver's half of template pinning: the last full body seen for each
// template ID, kept verbatim so a patch frame reconstructs the sender's
// current envelope by overwriting dirty runs in place. The store is shared
// by every worker (blocking pool or reactor dispatch). Each replica keeps
// its integrity root as a piece table over the body (common/poly_hash.hpp):
// an overwrite-only frame costs O(run bytes), each run's memcpy plus the
// root delta of the bytes it overwrites (wire_format.hpp) and a bit in the
// table; a frame with splices rebuilds the body in one pass, rehashes only
// the pieces its runs (and overwrites since the last splice frame) landed
// in and refolds the root, O(pieces) beyond those bytes. Only the first
// patch after a pin hashes the whole body.
//
// Each replica also carries one slot for per-replica state a higher layer
// derives from its body — the server's cached parse — and the body lives
// only in the replica: pin() moves the offered body in, and every serve
// callback reads it in place.
//
// Locking. Each replica has its own mutex and lives behind a shared_ptr;
// the store mutex guards only the index, the LRU and the byte budget.
// apply() finds the replica under the store mutex, takes a reference, drops
// the store mutex and locks the replica: validation, the patch and the
// caller's serve callback — which reads the body and updates the slot —
// run under that replica's lock alone, so a long parse of one replica never
// stalls another, and the slot always describes the body it is served
// with. pin() serves the new replica before publishing it, when no other
// thread can see it. A re-pin publishes a new replica (with an empty
// slot), and an eviction, NACK or clear only drops the store's reference,
// so a body being served stays valid until its serve returns. The store
// mutex is a leaf: code holding it never waits on a replica's mutex (or
// anything a serve callback locks). A NACK, and the budget update after a
// serve that changed the replica's size, take it briefly while they hold
// the replica's lock.
//
// Every validation failure is a NACK, and a NACK erases the replica: the
// sender's next send is a full body with a fresh offer, which re-pins at
// epoch 0. That makes the protocol self-healing — worst case it degrades to
// today's full-body sends, never to a corrupted reconstruction:
//
//   unknown ID          the offer was evicted or never arrived
//   epoch mismatch      a patch was lost, replayed, or another sender
//                       re-pinned the ID
//   body_len mismatch   the runs do not turn the replica's length into
//                       body_len (a frame for another body)
//   checksum mismatch   any divergence the epoch chain missed
//
// Replicas are LRU-bounded by count and bytes, like TemplateStore: a pin
// past the budget evicts the least recently used replica, whose sender
// simply falls back to a full send on its next patch (NACK → re-pin).
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/poly_hash.hpp"
#include "diffwire/wire_format.hpp"

namespace bsoap::diffwire {

/// Opaque per-replica state a higher layer hangs off a pinned replica's
/// slot — e.g. the server's cached parse of the replica body. It lives and
/// dies with the replica (a re-pin starts with an empty slot), while
/// in-flight holders keep theirs via the shared_ptr.
class ReplicaAttachment {
 public:
  virtual ~ReplicaAttachment() = default;
  /// Heap bytes the attachment holds, charged to the store's byte budget
  /// after each serve. Called under the replica's lock; must not block.
  virtual std::size_t bytes() const = 0;
};

class ReplicaStore {
 public:
  struct Options {
    std::size_t max_replicas = 64;
    /// Budget over bodies, dictionaries, piece tables and slots; 0 = no
    /// budget.
    std::size_t max_bytes = 0;
    /// Keep a preset-compression dictionary (the pin-generation body tail,
    /// ≤ 32 KiB) alongside each replica so preset-coded bodies can be
    /// decoded. Dictionary bytes count against max_bytes. Enabled by the
    /// server when the deflate-preset coding is on.
    bool retain_dictionaries = false;
  };

  ReplicaStore() = default;
  explicit ReplicaStore(const Options& options) : options_(options) {}

  /// Pins (or re-pins) `body` under `id` at epoch 0, moving it in. Before
  /// the replica is published, calls `serve(std::string_view body,
  /// std::shared_ptr<ReplicaAttachment>& slot)` with the pinned body and
  /// the new replica's empty slot; the body, its dictionary and whatever
  /// the slot then holds are charged to the budget as the replica is
  /// published. Pins whatever serve did. Returns true when the ID was
  /// already pinned — a re-offer, i.e. the sender fell back to a full send
  /// after a NACK, invalidation or structural update.
  template <typename Serve>
  bool pin(std::uint64_t id, std::string body, Serve&& serve) {
    std::shared_ptr<Replica> replica = make_replica(id, std::move(body));
    std::forward<Serve>(serve)(std::string_view(replica->body),
                               replica->slot);
    return publish(std::move(replica));
  }
  bool pin(std::uint64_t id, std::string body) {
    return pin(id, std::move(body),
               [](std::string_view, std::shared_ptr<ReplicaAttachment>&) {});
  }

  /// Applies a decoded patch frame onto the pinned replica: validates ID,
  /// epoch, the length rule (replica length + Σ(new − old) == body_len) and
  /// the body's integrity root (kept by the replica's piece table, built
  /// from scratch on the first patch after a pin), advances the replica's
  /// epoch and calls `serve(std::string_view body,
  /// std::shared_ptr<ReplicaAttachment>& slot)` with a view of the
  /// replica's own body and its slot, still under the replica's lock. The
  /// view is valid only during the call; an eviction or re-pin while it
  /// runs leaves it intact. The replica is then re-charged to the budget if
  /// its body, piece table or slot changed size. On any validation failure
  /// the replica is erased, `serve` is not called, and an error describing
  /// the NACK reason is returned (kNotFound for an unknown ID,
  /// kProtocolError otherwise).
  template <typename Serve>
  Status apply(const PatchFrame& frame, Serve&& serve) {
    Applied applied;
    BSOAP_RETURN_IF_ERROR(patch(frame, &applied));
    std::forward<Serve>(serve)(std::string_view(applied.replica->body),
                               applied.replica->slot);
    recharge(*applied.replica);
    return Status{};
  }

  /// Decodes a preset-coded (zlib FDICT) body against one of `id`'s two
  /// dictionaries, whichever the body's DICTID names: the pin generation's
  /// (the offer's tail, fixed until the next re-pin), or the tail of the
  /// replica as it stands after its patches — the last body both sides
  /// agreed on, which a sender that records the tail after every patch
  /// codes against. The inflate reads the dictionary in place under the
  /// replica's lock, so it never stalls another replica's workers. Any
  /// failure — unknown ID (kNotFound), dictionary mismatch, corrupt stream,
  /// `max_output` exceeded — erases the replica and counts a NACK, exactly
  /// like a bad patch frame: the sender falls back to an identity full send
  /// and re-pins.
  Result<std::string> decode_preset(std::uint64_t id, std::string_view body,
                                    std::size_t max_output);

  /// Drops one replica (true if it was pinned). Test/ops hook: the next
  /// patch for the ID NACKs, driving the sender's full-send fallback.
  bool invalidate(std::uint64_t id);

  /// Drops every replica (NACK-storm injection for tests and benches).
  void clear();

  struct Stats {
    std::uint64_t pins = 0;     ///< offers accepted (first pin per ID)
    std::uint64_t repins = 0;   ///< offers that replaced a pinned replica
    std::uint64_t applies = 0;  ///< patch frames applied (incl. replays)
    std::uint64_t replays = 0;  ///< header-only frames (run_count 0)
    std::uint64_t nacks = 0;    ///< rejected frames (replica erased)
    /// Whole-body root computations: at most one per pin generation (the
    /// first patch after a pin); steady patches move the root by deltas.
    std::uint64_t full_hashes = 0;
    /// Bytes hashed from scratch: whole-body builds and the pieces a splice
    /// frame rehashes (those its runs, and overwrite runs since the last
    /// splice frame, landed in). The region hashes of overwrite runs are
    /// not counted.
    std::uint64_t hashed_bytes = 0;
    std::uint64_t evictions = 0;
    std::uint64_t pinned_replicas = 0;  ///< gauge
    /// Gauge: bodies, dictionaries, piece tables and slots.
    std::uint64_t pinned_bytes = 0;
  };
  Stats stats() const;

 private:
  struct Replica {
    /// Keeps the last `dict_len` bytes of the body as the dictionary.
    Replica(std::uint64_t id_in, std::string body_in, std::size_t dict_len)
        : id(id_in),
          dict(body_in, body_in.size() - dict_len),
          body(std::move(body_in)) {}

    // Fixed once published: a re-pin publishes a new Replica.
    const std::uint64_t id;
    /// Pin-generation dictionary: the tail (≤ 32 KiB) of the body as it was
    /// pinned, while `body` moves under patches; decode_preset serves
    /// either.
    const std::string dict;

    // Guarded by `mu`.
    std::mutex mu;
    std::string body;
    std::uint32_t epoch = 0;
    std::uint32_t dict_id = 0;  ///< Adler-32 of `dict`, 0 until computed
    /// Integrity root of `body` and its piece hashes, valid once `pieces`
    /// is built (lazily, from the first patch after a pin: a replica that
    /// only re-offers never hashes).
    std::uint64_t root = 0;
    poly::PieceTable pieces;
    std::shared_ptr<ReplicaAttachment> slot;

    /// Bytes charged to the budget. Written under `mu` and the store's
    /// `mu_`, so either lock reads it.
    std::size_t charged = 0;

    /// The bytes to charge now; under `mu` (or before publishing).
    std::size_t footprint() const {
      return body.size() + dict.size() + pieces.heap_bytes() +
             (slot != nullptr ? slot->bytes() : 0);
    }
  };
  using LruIter = std::list<std::shared_ptr<Replica>>::iterator;

  /// A patched replica, locked, for apply() to serve from. `lock` is
  /// released before `replica`'s reference.
  struct Applied {
    std::shared_ptr<Replica> replica;
    std::unique_lock<std::mutex> lock;
  };

  std::shared_ptr<Replica> make_replica(std::uint64_t id, std::string body);
  /// pin() after the serve: charges and publishes `replica`.
  bool publish(std::shared_ptr<Replica> replica);
  /// apply() up to the serve: finds, locks, validates and patches.
  Status patch(const PatchFrame& frame, Applied* out);
  std::shared_ptr<Replica> find(std::uint64_t id);
  /// Erases `replica` if the index still holds it and counts the NACK.
  void nack(const Replica& replica);
  /// Charges `replica`'s footprint while the index still holds it; takes
  /// the store mutex only when the footprint changed. Under its lock.
  void recharge(Replica& replica);
  void remove_locked(LruIter it);
  void enforce_budget_locked();

  Options options_;
  mutable std::mutex mu_;
  std::list<std::shared_ptr<Replica>> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, LruIter> index_;
  std::size_t bytes_ = 0;
  /// Counters bumped under either lock, so atomics.
  struct Counters {
    std::atomic<std::uint64_t> pins{0}, repins{0}, applies{0}, replays{0},
        nacks{0}, full_hashes{0}, hashed_bytes{0}, evictions{0};
  } counters_;
};

}  // namespace bsoap::diffwire
