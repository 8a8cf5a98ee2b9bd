// Build-time code generation demo: examples/calc_service.wsdl is compiled
// into calc_stub.hpp by wsdl2cpp during the build (see CMakeLists.txt), and
// this program calls the service through the generated typed stub — the
// gSOAP wsdl2h/soapcpp2 workflow, with differential serialization under the
// hood of every repeated call.
#include <cstdio>

#include "calc_stub.hpp"  // generated into the build tree
#include "net/tcp.hpp"
#include "server/server_runtime.hpp"

using namespace bsoap;

int main() {
  auto server = server::ServerRuntime::start(
      [](const soap::RpcCall& call) -> Result<soap::Value> {
        if (call.method == "add") {
          return soap::Value::from_double(call.params[0].value.as_double() +
                                          call.params[1].value.as_double());
        }
        if (call.method == "dot") {
          const auto& x = call.params[0].value.doubles();
          const auto& y = call.params[1].value.doubles();
          if (x.size() != y.size()) {
            return Error{ErrorCode::kInvalidArgument, "length mismatch"};
          }
          double sum = 0;
          for (std::size_t i = 0; i < x.size(); ++i) sum += x[i] * y[i];
          return soap::Value::from_double(sum);
        }
        return Error{ErrorCode::kNotFound, "unknown operation"};
      });
  server.value_or_die();

  auto transport = net::tcp_connect(server.value()->port());
  transport.value_or_die();

  // The generated class: typed methods straight from the WSDL.
  bsoap_stubs::CalcServiceStub calc(*transport.value());

  Result<double> sum = calc.add(1.5, 2.25);
  sum.value_or_die();
  std::printf("add(1.5, 2.25) = %.4f\n", sum.value());

  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {10, 20, 30, 40};
  for (int round = 0; round < 3; ++round) {
    // Repeated calls reuse the saved template inside the stub's client.
    Result<double> dot = calc.dot(x, y);
    dot.value_or_die();
    std::printf("dot round %d = %.1f\n", round + 1, dot.value());
    x[0] += 1.0;
  }

  // Both directions are differential: the stub's client reuses its request
  // template, and the server runtime reuses its response templates.
  const server::ServerStats stats = server.value()->stats();
  std::printf("server: %llu requests, response diff hits %llu/%llu\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.response_diff_hits()),
              static_cast<unsigned long long>(stats.responses_total()));

  server.value()->stop();
  std::printf("done.\n");
  return 0;
}
