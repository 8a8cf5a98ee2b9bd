// Copying wrapper over diffwire::ReplicaStore::apply for tests: the store
// serves a patched body only as a view inside its callback, so tests that
// inspect the body afterwards copy it out there.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "diffwire/replica_store.hpp"
#include "diffwire/wire_format.hpp"

namespace bsoap::testing {

/// Applies `frame` and copies the served body into `*body`, which is left
/// untouched on a NACK.
inline Status apply_copy(diffwire::ReplicaStore& store,
                         const diffwire::PatchFrame& frame, std::string* body) {
  return store.apply(
      frame, [&](std::string_view served,
                 std::shared_ptr<diffwire::ReplicaAttachment>&) {
        body->assign(served);
      });
}

}  // namespace bsoap::testing
