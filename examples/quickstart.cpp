// Quickstart: the bSOAP client in five minutes.
//
// Starts an in-process SOAP service, makes the same call three times with
// small changes, and prints which of the paper's matching cases each send
// hit — first-time send, message content match, perfect structural match.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "core/client.hpp"
#include "http/connection.hpp"
#include "net/tcp.hpp"
#include "server/server_runtime.hpp"

using namespace bsoap;

int main() {
  // 1. A SOAP service: averages an array of doubles.
  auto server = server::ServerRuntime::start(
      [](const soap::RpcCall& call) -> Result<soap::Value> {
        const auto& data = call.params[0].value.doubles();
        double sum = 0;
        for (const double v : data) sum += v;
        return soap::Value::from_double(
            data.empty() ? 0.0 : sum / static_cast<double>(data.size()));
      });
  if (!server.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 server.error().to_string().c_str());
    return 1;
  }
  std::printf("service listening on 127.0.0.1:%u\n", server.value()->port());

  // 2. A bSOAP client with differential serialization (the default).
  auto transport = net::tcp_connect(server.value()->port());
  transport.value_or_die();
  core::BsoapClient client(*transport.value());
  http::HttpConnection responses(*transport.value());

  // 3. Build a call: average(data = [...]).
  soap::RpcCall call;
  call.method = "average";
  call.service_namespace = "urn:quickstart";
  call.params.push_back(soap::Param{
      "data", soap::Value::from_double_array({1.5, 2.5, 3.5, 4.5})});

  // First send: full serialization; the client saves the message template.
  for (int round = 0; round < 3; ++round) {
    Result<core::SendReport> report = client.send_call(call);
    report.value_or_die();
    // (invoke() wraps send+receive; done manually here to show the report.)
    Result<http::HttpResponse> response = responses.read_response();
    if (!response.ok()) {
      std::fprintf(stderr, "no response: %s\n",
                   response.error().to_string().c_str());
      return 1;
    }
    std::printf(
        "send %d: %-26s values rewritten: %llu, envelope bytes: %zu\n",
        round + 1, core::match_kind_name(report.value().match),
        static_cast<unsigned long long>(report.value().update.values_rewritten),
        report.value().envelope_bytes);

    // Tweak one element: the next send is a perfect structural match that
    // rewrites exactly one field in the saved template.
    call.params[0].value.doubles()[1] += 1.0;
  }

  // 4. The explicit-tracking API (the paper's DUT get/set accessors):
  auto message = client.bind(call);
  message->set_double_element(/*param=*/0, /*index=*/2, 99.5);
  Result<core::SendReport> tracked = message->send();
  tracked.value_or_die();
  (void)responses.read_response();
  std::printf("tracked send: %s (dirty fields rewritten: %llu)\n",
              core::match_kind_name(tracked.value().match),
              static_cast<unsigned long long>(
                  tracked.value().update.values_rewritten));

  server.value()->stop();
  std::printf("done.\n");
  return 0;
}
