#include "core/parsed_replica.hpp"

namespace bsoap::core {

ParsedReplica::Lease ParsedReplica::make_lease(
    std::shared_ptr<ParsedReplica> self, std::unique_lock<std::mutex> lock,
    bool contended, ServeReport* report) {
  Lease lease;
  if (contended) {
    // Another worker still holds a lease on this replica: clone the call
    // under the lock and release it so the two handlers run concurrently.
    lease.owned_ = std::make_unique<soap::RpcCall>(self->deser_.call());
    lock.unlock();
    if (report != nullptr) report->cloned = true;
  } else {
    lease.shared_ = &self->deser_.call();
    lease.keepalive_ = std::move(self);
    lease.lock_ = std::move(lock);
  }
  return lease;
}

std::shared_ptr<ParsedReplica> ParsedReplica::in(
    std::shared_ptr<diffwire::ReplicaAttachment>& slot) {
  if (slot == nullptr) slot = std::make_shared<ParsedReplica>();
  return std::static_pointer_cast<ParsedReplica>(slot);
}

Result<ParsedReplica::Lease> ParsedReplica::serve(
    std::shared_ptr<ParsedReplica> self, std::string_view body,
    std::span<const diffwire::PatchRun> runs, ServeReport* report) {
  ParsedReplica& p = *self;
  std::unique_lock<std::mutex> lock(p.mu_, std::try_to_lock);
  const bool contended = !lock.owns_lock();
  if (contended) lock.lock();
  Result<DiffDeserializer::ApplyReport> applied =
      p.deser_.apply_runs(body, runs);
  if (!applied.ok() ||
      applied.value().path == DiffDeserializer::ApplyPath::kFullParse) {
    p.bytes_.store(p.deser_.bytes(), std::memory_order_relaxed);
  }
  if (!applied.ok()) return applied.error();
  if (report != nullptr) {
    report->path = applied.value().path;
    report->leaves_reparsed = applied.value().leaves_reparsed;
    report->demoted = applied.value().demoted;
  }
  return make_lease(std::move(self), std::move(lock), contended, report);
}

}  // namespace bsoap::core
