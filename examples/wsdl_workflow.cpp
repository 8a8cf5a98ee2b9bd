// WSDL workflow: describe -> publish -> validate -> call.
//
// Shows the toolchain role WSDL plays around differential serialization
// (paper Section 1): the service interface is described once; the client
// validates every outgoing call against it, which guarantees the structural
// stability that template reuse depends on. Also prints the generated C++
// stub (what `tools/wsdl2cpp` emits).
#include <cstdio>

#include "core/client.hpp"
#include "net/tcp.hpp"
#include "server/server_runtime.hpp"
#include "wsdl/codegen.hpp"
#include "wsdl/parser.hpp"
#include "wsdl/validator.hpp"
#include "wsdl/writer.hpp"

using namespace bsoap;

int main() {
  // 1. Describe the service.
  const wsdl::WsdlDocument description =
      wsdl::ServiceBuilder("MeshExchange", "urn:mesh")
          .add_struct_type("MIO", {wsdl::TypedField{"x", wsdl::XsdType::kInt, ""},
                                   wsdl::TypedField{"y", wsdl::XsdType::kInt, ""},
                                   wsdl::TypedField{"v", wsdl::XsdType::kDouble, ""}})
          .add_array_type("DoubleArray", "xsd:double")
          .add_operation(
              "exchangeBoundary",
              {wsdl::TypedField{"data", wsdl::XsdType::kArray, "xsd:double"}},
              wsdl::TypedField{"return", wsdl::XsdType::kDouble, ""})
          .set_location("http://localhost:0/mesh")
          .build();

  // 2. Publish the WSDL and round-trip it through the parser.
  const std::string wsdl_text = wsdl::write_wsdl(description);
  std::printf("WSDL (%zu bytes):\n%.240s...\n\n", wsdl_text.size(),
              wsdl_text.c_str());
  Result<wsdl::WsdlDocument> parsed = wsdl::parse_wsdl(wsdl_text);
  parsed.value_or_die();
  std::printf("parsed back: service with %zu operation(s)\n\n",
              parsed.value().port_types.front().operations.size());

  // 3. Generate the typed C++ client stub (wsdl2cpp output).
  Result<std::string> stub =
      wsdl::generate_client_stub(parsed.value(), wsdl::CodegenOptions{});
  stub.value_or_die();
  std::printf("generated stub (%zu bytes), first lines:\n%.300s...\n\n",
              stub.value().size(), stub.value().c_str());

  // 4. Run the service and make WSDL-validated differential calls.
  auto server = server::ServerRuntime::start(
      [](const soap::RpcCall& call) -> Result<soap::Value> {
        double sum = 0;
        for (const double v : call.params[0].value.doubles()) sum += v;
        return soap::Value::from_double(sum);
      });
  server.value_or_die();
  auto transport = net::tcp_connect(server.value()->port());
  transport.value_or_die();
  core::BsoapClient client(*transport.value());

  Result<soap::RpcCall> call =
      wsdl::make_call_skeleton(parsed.value(), "exchangeBoundary", 8);
  call.value_or_die();
  for (int round = 0; round < 3; ++round) {
    call.value().params[0].value.doubles()[0] = 1.5 * (round + 1);
    // Gate the send on WSDL validation: a structurally valid call is safe
    // to serialize differentially.
    wsdl::validate_call(parsed.value(), call.value()).check();
    Result<soap::Value> result = client.invoke(call.value());
    result.value_or_die();
    std::printf("exchangeBoundary round %d -> sum %.3f\n", round + 1,
                result.value().as_double());
  }

  // A structurally invalid call is rejected before it can pollute the
  // template store.
  soap::RpcCall bad = call.value();
  bad.params[0].value = soap::Value::from_int_array({1, 2, 3});
  const Status rejected = wsdl::validate_call(parsed.value(), bad);
  std::printf("invalid call rejected: %s\n", rejected.error().message.c_str());

  server.value()->stop();
  return 0;
}
