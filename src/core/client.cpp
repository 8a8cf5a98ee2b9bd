#include "core/client.hpp"

#include "core/template_builder.hpp"
#include "diffwire/wire_format.hpp"
#include "http/connection.hpp"
#include "soap/envelope_reader.hpp"
#include "soap/soap_server.hpp"

namespace bsoap::core {

namespace {

SendPipeline::Options pipeline_options(const BsoapClientConfig& config) {
  return SendPipeline::Options{config.tmpl,
                               config.differential,
                               config.max_templates,
                               config.max_template_bytes,
                               config.framing,
                               config.coding,
                               config.coding_min_bytes};
}

}  // namespace

BsoapClient::BsoapClient(net::Dialer dial, BsoapClientConfig config)
    : config_(std::move(config)),
      pipeline_(pipeline_options(config_)),
      pool_(net::ConnectionPool::Options{config_.max_idle_connections,
                                         std::move(dial)}),
      sender_(pipeline_, pool_, config_.retry, config_.endpoint_path) {
  if (config_.diffwire) {
    diffwire_ = std::make_unique<diffwire::ClientSession>();
    pipeline_.set_diffwire(diffwire_.get());
  }
}

BsoapClient::BsoapClient(net::Transport& transport, BsoapClientConfig config)
    : config_(std::move(config)),
      pipeline_(pipeline_options(config_)),
      pool_(net::ConnectionPool::Options{/*max_idle=*/1, /*dial=*/nullptr}),
      sender_(pipeline_, pool_, config_.retry, config_.endpoint_path) {
  pool_.add(std::make_unique<net::BorrowedTransport>(transport));
  if (config_.diffwire) {
    diffwire_ = std::make_unique<diffwire::ClientSession>();
    pipeline_.set_diffwire(diffwire_.get());
  }
}

Result<SendReport> BsoapClient::send_call(const soap::RpcCall& call) {
  Result<resilience::SendOutcome> outcome = sender_.send(call);
  if (!outcome.ok()) return outcome.error();
  outcome.value().lease.checkin();
  return outcome.value().report;
}

Result<soap::Value> BsoapClient::invoke(const soap::RpcCall& call) {
  for (int attempt = 0;; ++attempt) {
    Result<resilience::SendOutcome> outcome = sender_.send(call);
    if (!outcome.ok()) return outcome.error();
    net::ConnectionPool::Lease& lease = outcome.value().lease;
    // Read the response off the connection the send succeeded on. A failed
    // read leaves the stream mid-response, so the lease is discarded (the
    // Lease destructor's default) rather than checked back in.
    http::HttpConnection connection(lease.transport());
    Result<http::HttpResponse> response = connection.read_response();
    if (!response.ok()) return response.error();
    lease.checkin();
    http::HttpResponse& resp = response.value();
    if (diffwire_ != nullptr) {
      const http::Header* diff = resp.find(diffwire::kDiffHeader);
      const http::Header* id_header = resp.find(diffwire::kTemplateHeader);
      std::uint64_t id = 0;
      const bool has_id = id_header != nullptr &&
                          diffwire::parse_template_id(id_header->value, &id);
      if (diff != nullptr && has_id) {
        if (diff->value == diffwire::kNackValue) {
          // The server cannot apply against its replica (evicted, epoch
          // gap, checksum). Unpin and resend the same call in full — the
          // retry re-offers, so the replica chain restarts cleanly. A
          // second nack means the server rejects even full sends: give up.
          diffwire_->note_nack(id);
          if (attempt == 0) continue;
          return Error{ErrorCode::kProtocolError,
                       "diff-wire nack after full-send fallback"};
        }
        if (diff->value == diffwire::kAckValue) {
          diffwire_->note_ack(id);
          // Preset-coding ack: re-offers under this pin may go out
          // compressed against the replica's dictionary.
          const http::Header* coding_ack = resp.find(diffwire::kCodingHeader);
          if (coding_ack != nullptr &&
              coding_ack->value == diffwire::kCodingPresetValue) {
            diffwire_->note_coding_ack(id);
          }
        }
      }
    }
    if (resp.status != 200) {
      return Error{ErrorCode::kProtocolError,
                   "HTTP status " + std::to_string(resp.status)};
    }
    Result<soap::RpcCall> envelope = soap::read_rpc_envelope(resp.body);
    if (!envelope.ok()) return envelope.error();
    return soap::extract_rpc_result(envelope.value(), call.method);
  }
}

std::unique_ptr<BoundMessage> BsoapClient::bind(soap::RpcCall call) {
  return std::unique_ptr<BoundMessage>(
      new BoundMessage(*this, std::move(call)));
}

BoundMessage::BoundMessage(BsoapClient& client, soap::RpcCall call)
    : client_(client), call_(std::move(call)) {
  tmpl_ = build_template(call_, client_.config().tmpl);
  leaf_base_.reserve(call_.params.size() + 1);
  std::size_t base = 0;
  for (const soap::Param& p : call_.params) {
    leaf_base_.push_back(base);
    base += p.value.leaf_count();
  }
  leaf_base_.push_back(base);
  BSOAP_ASSERT(base == tmpl_->dut().size());
}

void BoundMessage::set_double(std::size_t param, double v) {
  soap::Value& value = param_value(param);
  BSOAP_ASSERT(value.kind() == soap::ValueKind::kDouble);
  value = soap::Value::from_double(v);
  tmpl_->dut().mark_dirty(leaf_base_[param]);
}

void BoundMessage::set_int(std::size_t param, std::int32_t v) {
  soap::Value& value = param_value(param);
  BSOAP_ASSERT(value.kind() == soap::ValueKind::kInt32);
  value = soap::Value::from_int(v);
  tmpl_->dut().mark_dirty(leaf_base_[param]);
}

void BoundMessage::set_string(std::size_t param, std::string v) {
  soap::Value& value = param_value(param);
  BSOAP_ASSERT(value.kind() == soap::ValueKind::kString);
  value = soap::Value::from_string(std::move(v));
  tmpl_->dut().mark_dirty(leaf_base_[param]);
}

void BoundMessage::set_double_element(std::size_t param, std::size_t index,
                                      double v) {
  soap::Value& value = param_value(param);
  value.doubles()[index] = v;
  tmpl_->dut().mark_dirty(leaf_base_[param] + index);
}

void BoundMessage::set_int_element(std::size_t param, std::size_t index,
                                   std::int32_t v) {
  soap::Value& value = param_value(param);
  value.ints()[index] = v;
  tmpl_->dut().mark_dirty(leaf_base_[param] + index);
}

void BoundMessage::set_mio_element(std::size_t param, std::size_t index,
                                   const soap::Mio& v) {
  soap::Value& value = param_value(param);
  value.mios()[index] = v;
  const std::size_t base = leaf_base_[param] + index * 3;
  tmpl_->dut().mark_dirty(base);
  tmpl_->dut().mark_dirty(base + 1);
  tmpl_->dut().mark_dirty(base + 2);
}

void BoundMessage::set_mio_field_value(std::size_t param, std::size_t index,
                                       double v) {
  soap::Value& value = param_value(param);
  value.mios()[index].value = v;
  tmpl_->dut().mark_dirty(leaf_base_[param] + index * 3 + 2);
}

double BoundMessage::get_double_element(std::size_t param,
                                        std::size_t index) const {
  const soap::Value& value = call_.params[param].value;
  return value.doubles()[index];
}

Result<SendReport> BoundMessage::send() {
  Result<resilience::SendOutcome> outcome =
      client_.sender_.send_tracked(*tmpl_, call_);
  if (!outcome.ok()) return outcome.error();
  outcome.value().lease.checkin();
  return outcome.value().report;
}

}  // namespace bsoap::core
