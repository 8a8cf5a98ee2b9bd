// The server's cached parse of a diff-wire replica body.
//
// A ParsedReplica hangs off a pinned replica as its ReplicaAttachment and
// fuses the diff-wire state machine with DiffDeserializer: the offer's full
// body is parsed once, and every subsequent patch re-parses only the leaves
// its runs touch, overwrites and splices alike (header-only replays return
// the cached call with zero parse work). The patch checksum has already
// proven that the body is the pinned one with the runs applied, so the fast
// path never scans the skeleton.
//
// Concurrency — clone-or-lock. Requests for one replica normally arrive
// serialized (the epoch chain NACKs concurrent patches at the store), but
// distinct connections sharing a wire ID can race a serve against a lease
// still held across a handler. One mutex guards the deserializer:
//
//   uncontended  try_lock succeeds; the parse state is updated and the
//                Lease keeps the lock across the handler, serving the
//                cached RpcCall zero-copy.
//   contended    block until the holder's lease drops (bounded by its
//                handler + response write), update the parse state, clone
//                the cached call into the Lease, and release the lock
//                before the handler runs.
//
// Either way the handler sees an immutable call and TSan sees every access
// ordered by the mutex. The Lease also holds a shared_ptr to the
// ParsedReplica so an eviction or re-pin mid-request cannot destroy state
// a handler is reading.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "core/diff_deserializer.hpp"
#include "diffwire/replica_store.hpp"
#include "diffwire/wire_format.hpp"
#include "soap/value.hpp"

namespace bsoap::core {

class ParsedReplica final : public diffwire::ReplicaAttachment {
 public:
  /// How a serve satisfied the request, for server stats aggregation.
  struct ServeReport {
    DiffDeserializer::ApplyPath path = DiffDeserializer::ApplyPath::kFullParse;
    std::size_t leaves_reparsed = 0;
    bool demoted = false;  ///< a usable cached parse had to be rebuilt
    bool cloned = false;   ///< lock was contended; served from a clone
  };

  /// Read access to the served call for the duration of one request.
  /// Holds either the replica mutex (uncontended path — the call points
  /// into the shared deserializer) or an owned clone. Keep it alive until
  /// the response is written; it is movable but not copyable.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&&) = default;
    Lease& operator=(Lease&&) = default;

    const soap::RpcCall& call() const {
      return owned_ != nullptr ? *owned_ : *shared_;
    }
    bool valid() const { return owned_ != nullptr || shared_ != nullptr; }

   private:
    friend class ParsedReplica;
    // Order matters: lock_ must release before keepalive_ can destroy the
    // replica that owns the mutex.
    std::shared_ptr<ParsedReplica> keepalive_;
    std::unique_lock<std::mutex> lock_;
    const soap::RpcCall* shared_ = nullptr;
    std::unique_ptr<soap::RpcCall> owned_;
  };

  /// Serves a request whose full body is in hand (offer pin, or a patch
  /// that found no usable attachment): full parse, re-priming the cache.
  /// `epoch` is the replica's epoch after this request (0 for an offer).
  static Result<Lease> serve_full(std::shared_ptr<ParsedReplica> self,
                                  std::string_view body, std::uint32_t epoch,
                                  ServeReport* report);

  /// Serves a patch request: `body` is the reconstructed replica at
  /// `epoch`, `runs` the frame's runs (empty for a replay). When the
  /// cached parse is exactly one epoch behind, only touched leaves are
  /// re-parsed; otherwise (attach raced a re-pin, a prior serve failed, a
  /// run hit structural bytes, ...) the request demotes to a full parse.
  static Result<Lease> serve_patch(std::shared_ptr<ParsedReplica> self,
                                   std::string_view body, std::uint32_t epoch,
                                   std::span<const diffwire::PatchRun> runs,
                                   ServeReport* report);

  /// The cached parse's heap bytes as of the last full parse (the cache's
  /// size only changes when it is re-primed). Lock-free: the replica store
  /// reads it while the serving lease may still hold the mutex.
  std::size_t bytes() const override {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  static Lease make_lease(std::shared_ptr<ParsedReplica> self,
                          std::unique_lock<std::mutex> lock, bool contended,
                          ServeReport* report);
  /// Full parse under the held mutex; refreshes bytes_.
  Status prime_locked(std::string_view body);

  std::mutex mu_;
  DiffDeserializer deser_;
  std::uint32_t epoch_ = 0;
  bool epoch_valid_ = false;  ///< epoch_ matches the parse state
  std::atomic<std::size_t> bytes_{0};
};

}  // namespace bsoap::core
