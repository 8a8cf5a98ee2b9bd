#include "soap/soap_server.hpp"

#include "buffer/sinks.hpp"
#include "soap/envelope_writer.hpp"

namespace bsoap::soap {

std::string serialize_rpc_response(const std::string& method,
                                   const std::string& service_namespace,
                                   const Value& result) {
  RpcCall response;
  response.method = method + "Response";
  response.service_namespace = service_namespace;
  response.params.push_back(Param{"return", result});
  buffer::StringSink sink;
  write_rpc_envelope(sink, response);
  return sink.take();
}

std::string serialize_rpc_fault(std::string_view fault_code,
                                std::string_view fault_string) {
  buffer::StringSink sink;
  xml::XmlWriter<buffer::StringSink> writer(sink);
  writer.declaration();
  writer.start_element(kEnvelopeTag);
  writer.attribute("xmlns:SOAP-ENV", kSoapEnvelopeNs);
  writer.start_element(kBodyTag);
  writer.start_element(kFaultTag);
  writer.start_element("faultcode");
  writer.text(fault_code);
  writer.end_element();
  writer.start_element("faultstring");
  writer.text(fault_string);
  writer.end_element();
  writer.end_element();  // Fault
  writer.end_element();  // Body
  writer.end_element();  // Envelope
  writer.finish();
  return sink.take();
}

Result<Value> extract_rpc_result(const RpcCall& response,
                                 std::string_view method) {
  if (response.method == "Fault") {
    std::string detail = "SOAP fault";
    for (const Param& p : response.params) {
      if (p.name == "faultstring" && p.value.kind() == ValueKind::kString) {
        detail = p.value.as_string();
      }
    }
    return Error{ErrorCode::kProtocolError, detail};
  }
  if (response.method != std::string(method) + "Response") {
    return Error{ErrorCode::kProtocolError,
                 "unexpected response method: " + response.method};
  }
  for (const Param& p : response.params) {
    if (p.name == "return") return p.value;
  }
  return Error{ErrorCode::kProtocolError, "response without <return>"};
}

}  // namespace bsoap::soap
