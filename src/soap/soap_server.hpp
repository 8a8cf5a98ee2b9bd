// SOAP-over-HTTP service surface: the handler signature and the envelope
// helpers a service and its clients share.
//
// The server itself is server::ServerRuntime (src/server/server_runtime.hpp):
// a bounded worker pool behind one of two connection engines, with
// connection lifecycle management, response-side differential
// serialization, the diff-wire patch protocol and differential
// deserialization of patched requests. The paper's dummy drain server,
// which reads and discards bytes without parsing, is net/drain_server.hpp.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "soap/value.hpp"

namespace bsoap::soap {

/// Computes the response value for a parsed RPC request. Handlers run on
/// the runtime's worker pool: they must be safe to call concurrently.
using RpcHandler = std::function<Result<Value>(const RpcCall&)>;

/// Serializes a response envelope: <methodResponse><return>value</return>.
std::string serialize_rpc_response(const std::string& method,
                                   const std::string& service_namespace,
                                   const Value& result);

/// Serializes a SOAP 1.1 Fault envelope.
std::string serialize_rpc_fault(std::string_view fault_code,
                                std::string_view fault_string);

/// Extracts the <return> value from a parsed response call; checks that the
/// method name is `method` + "Response".
Result<Value> extract_rpc_result(const RpcCall& response,
                                 std::string_view method);

}  // namespace bsoap::soap
