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

Status ParsedReplica::prime_locked(std::string_view body) {
  const Status st = deser_.prime(body);
  if (!st.ok()) {
    epoch_valid_ = false;
    return st;
  }
  bytes_.store(deser_.bytes(), std::memory_order_relaxed);
  return st;
}

Result<ParsedReplica::Lease> ParsedReplica::serve_full(
    std::shared_ptr<ParsedReplica> self, std::string_view body,
    std::uint32_t epoch, ServeReport* report) {
  ParsedReplica& p = *self;
  std::unique_lock<std::mutex> lock(p.mu_, std::try_to_lock);
  const bool contended = !lock.owns_lock();
  if (contended) lock.lock();
  BSOAP_RETURN_IF_ERROR(p.prime_locked(body));
  p.epoch_ = epoch;
  p.epoch_valid_ = true;
  if (report != nullptr) {
    report->path = DiffDeserializer::ApplyPath::kFullParse;
    report->leaves_reparsed = 0;
    report->demoted = false;
  }
  return make_lease(std::move(self), std::move(lock), contended, report);
}

Result<ParsedReplica::Lease> ParsedReplica::serve_patch(
    std::shared_ptr<ParsedReplica> self, std::string_view body,
    std::uint32_t epoch, std::span<const diffwire::PatchRun> runs,
    ServeReport* report) {
  ParsedReplica& p = *self;
  std::unique_lock<std::mutex> lock(p.mu_, std::try_to_lock);
  const bool contended = !lock.owns_lock();
  if (contended) lock.lock();

  DiffDeserializer::ApplyReport applied;
  if (!p.epoch_valid_ || p.epoch_ + 1 != epoch) {
    // The parse state lags the replica (attach raced a re-pin, or a prior
    // serve failed): resynchronize with a full parse. Not a demotion — the
    // cache never covered this epoch chain.
    BSOAP_RETURN_IF_ERROR(p.prime_locked(body));
    applied.path = DiffDeserializer::ApplyPath::kFullParse;
  } else {
    Result<DiffDeserializer::ApplyReport> r = p.deser_.apply_runs(body, runs);
    if (!r.ok()) {
      p.epoch_valid_ = false;
      return r.error();
    }
    applied = r.value();
  }
  p.epoch_ = epoch;
  p.epoch_valid_ = true;
  if (report != nullptr) {
    report->path = applied.path;
    report->leaves_reparsed = applied.leaves_reparsed;
    report->demoted = applied.demoted;
  }
  return make_lease(std::move(self), std::move(lock), contended, report);
}

}  // namespace bsoap::core
