// The server's cached parse of a diff-wire replica body.
//
// A ParsedReplica lives in a pinned replica's slot and fuses the diff-wire
// state machine with DiffDeserializer: the offer's full body is parsed
// once, and every subsequent patch re-parses only the leaves its runs
// touch, overwrites and splices alike (header-only replays return the
// cached call with zero parse work). The patch checksum has already proven
// that the body is the pinned one with the runs applied, so the fast path
// never scans the skeleton. The body itself stays in the replica: the
// cached parse keeps no copy of it.
//
// Order. The replica store hands the slot to a serve only under the
// replica's lock (or, for an offer, before the replica is published), and
// every patch the replica takes is served, so the cached parse always
// describes the body the previous serve saw. No epoch of its own is needed.
//
// Concurrency — clone-or-lock. A lease can outlive the replica lock: it is
// held across the handler and the response write, while the next patch of
// the same replica (another connection sharing the wire ID) may already be
// served. One mutex guards the deserializer:
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

  /// The ParsedReplica in a replica's slot, made there when the slot is
  /// empty. The slot must hold a ParsedReplica or nothing.
  static std::shared_ptr<ParsedReplica> in(
      std::shared_ptr<diffwire::ReplicaAttachment>& slot);

  /// Serves a request: `body` is the replica's body, the previously served
  /// body with `runs` applied (an offer passes no runs). A primed cache
  /// re-parses only touched leaves, or demotes to a full parse when a run
  /// hit structural bytes; an unprimed one (an offer, or after a failed
  /// serve) full-parses `body`.
  static Result<Lease> serve(std::shared_ptr<ParsedReplica> self,
                             std::string_view body,
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

  std::mutex mu_;
  DiffDeserializer deser_;
  std::atomic<std::size_t> bytes_{0};
};

}  // namespace bsoap::core
