// Metadata Catalog Service scenario (paper Section 3.4).
//
// MCS manages metadata attributes for files produced by data-intensive
// applications. Every request conforms to the same metadata schema, so "the
// format of the SOAP payload is the same for each request" — perfect
// structural matches with string/int fields rather than numeric arrays.
//
// This example runs an in-process catalog service (add / query backed by an
// in-memory map standing in for the paper's MySQL backend) and a client that
// registers a stream of logical files through ONE bound message, mutating
// only the fields that change between requests.
#include <cstdio>
#include <map>
#include <mutex>
#include <string>

#include "core/client.hpp"
#include "http/connection.hpp"
#include "net/tcp.hpp"
#include "server/server_runtime.hpp"
#include "soap/envelope_reader.hpp"
#include "soap/soap_server.hpp"

using namespace bsoap;

namespace {

struct CatalogEntry {
  std::string owner;
  std::string collection;
  std::int32_t size_mb = 0;
  std::int32_t replicas = 0;
};

}  // namespace

int main() {
  // Handlers run on the server runtime's worker pool, so the catalog is
  // shared mutable state: guard it.
  std::mutex catalog_mutex;
  std::map<std::string, CatalogEntry> catalog;

  auto server = server::ServerRuntime::start(
      [&catalog, &catalog_mutex](
          const soap::RpcCall& call) -> Result<soap::Value> {
        std::lock_guard<std::mutex> lock(catalog_mutex);
        auto param = [&](const char* name) -> const soap::Value* {
          for (const soap::Param& p : call.params) {
            if (p.name == name) return &p.value;
          }
          return nullptr;
        };
        if (call.method == "addMetadata") {
          const soap::Value* file = param("logicalFile");
          if (file == nullptr) {
            return Error{ErrorCode::kInvalidArgument, "missing logicalFile"};
          }
          CatalogEntry entry;
          entry.owner = param("owner")->as_string();
          entry.collection = param("collection")->as_string();
          entry.size_mb = param("sizeMB")->as_int();
          entry.replicas = param("replicas")->as_int();
          catalog[file->as_string()] = entry;
          return soap::Value::from_int(static_cast<std::int32_t>(catalog.size()));
        }
        if (call.method == "queryMetadata") {
          const auto it = catalog.find(param("logicalFile")->as_string());
          if (it == catalog.end()) {
            return Error{ErrorCode::kNotFound, "no such logical file"};
          }
          soap::Value result = soap::Value::make_struct();
          result.add_member("owner", soap::Value::from_string(it->second.owner));
          result.add_member("collection",
                            soap::Value::from_string(it->second.collection));
          result.add_member("sizeMB", soap::Value::from_int(it->second.size_mb));
          result.add_member("replicas",
                            soap::Value::from_int(it->second.replicas));
          return result;
        }
        return Error{ErrorCode::kNotFound, "unknown operation"};
      });
  server.value_or_die();
  std::printf("metadata catalog on 127.0.0.1:%u\n", server.value()->port());

  auto transport = net::tcp_connect(server.value()->port());
  transport.value_or_die();
  core::BsoapClient client(*transport.value());

  // One schema-conforming request template; every registration mutates only
  // the fields that differ (the paper's MCS perfect-structural-match case).
  soap::RpcCall add;
  add.method = "addMetadata";
  add.service_namespace = "urn:mcs";
  add.params.push_back(
      soap::Param{"logicalFile", soap::Value::from_string("lfn://dataset-000")});
  add.params.push_back(
      soap::Param{"owner", soap::Value::from_string("climate-group")});
  add.params.push_back(
      soap::Param{"collection", soap::Value::from_string("goals-ocean-atm")});
  add.params.push_back(soap::Param{"sizeMB", soap::Value::from_int(100)});
  add.params.push_back(soap::Param{"replicas", soap::Value::from_int(2)});

  std::printf("%-8s %-28s %-26s %s\n", "request", "logical file",
              "bSOAP match", "rewrites");
  for (int i = 0; i < 10; ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "lfn://dataset-%03d", i);
    add.params[0].value = soap::Value::from_string(name);
    add.params[3].value = soap::Value::from_int(100 + i);

    Result<core::SendReport> report = client.send_call(add);
    report.value_or_die();
    Result<soap::Value> count = [&]() -> Result<soap::Value> {
      // send_call doesn't read the response; fetch it via the raw HTTP path.
      http::HttpConnection conn(*transport.value());
      Result<http::HttpResponse> response = conn.read_response();
      if (!response.ok()) return response.error();
      Result<soap::RpcCall> envelope =
          soap::read_rpc_envelope(response.value().body);
      if (!envelope.ok()) return envelope.error();
      return soap::extract_rpc_result(envelope.value(), add.method);
    }();
    count.value_or_die();
    std::printf("%-8d %-28s %-26s %llu\n", i + 1, name,
                core::match_kind_name(report.value().match),
                static_cast<unsigned long long>(
                    report.value().update.values_rewritten));
  }

  // Query one back through the normal invoke() API.
  soap::RpcCall query;
  query.method = "queryMetadata";
  query.service_namespace = "urn:mcs";
  query.params.push_back(
      soap::Param{"logicalFile", soap::Value::from_string("lfn://dataset-007")});
  Result<soap::Value> entry = client.invoke(query);
  entry.value_or_die();
  std::printf("query dataset-007: owner=%s sizeMB=%d\n",
              entry.value().members()[0].value.as_string().c_str(),
              entry.value().members()[2].value.as_int());

  // The responses took the differential path too: every addMetadata reply
  // has the same shape (an int count), so after the first one the server
  // only rewrote the changed digits.
  const server::ServerStats stats = server.value()->stats();
  std::printf("server responses: first-time=%llu diff-hits=%llu/%llu\n",
              static_cast<unsigned long long>(stats.response_first_time),
              static_cast<unsigned long long>(stats.response_diff_hits()),
              static_cast<unsigned long long>(stats.responses_total()));

  server.value()->stop();
  return 0;
}
