// bsoap_e2e — closed-loop round-trip benchmark of the whole bSOAP stack.
//
// One process per workload runs a default server::ServerRuntime on loopback
// and two client threads, each with its own pooled core::BsoapClient and one
// keep-alive connection, sending with zero think time: SOAP RPC callers
// block in invoke(), so a closed loop is the honest load model. Every
// response is checked bit-exactly against the values the client sent, and
// the run fails when a workload leaves the regime it exists to exercise.
//
//   bsoap_e2e --workload NAME --seed N --seconds S [--trace DIR]
//   bsoap_e2e --selftest
//
// Without --trace the run times kSetupReps set-ups (a fresh server and
// fresh clients up to every client's first verified response), warms the
// last of those sessions up and measures it for S seconds, and reports the
// end-to-end metrics. With --trace, S is split between an untraced session,
// which gives the reference rps, and a traced one, which gives the
// per-layer metrics and writes the spans of its first requests to
// DIR/<workload>.jsonl. The last stdout line is "E2E_RESULT <json>"; run.py
// turns it into the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/client.hpp"
#include "histogram.hpp"
#include "net/tcp.hpp"
#include "server/server_runtime.hpp"
#include "soap/workload.hpp"
#include "textconv/dtoa.hpp"
#include "textconv/parse.hpp"
#include "trace.hpp"

namespace bsoap::e2e {
namespace {

constexpr int kClients = 2;
/// Warm-up before a measured window: every workload reaches its steady
/// state (templates built, replicas pinned, field widths settled) within a
/// few hundred requests.
constexpr double kWarmupSeconds = 2.0;
/// A measured window is recorded in slices of this length, and consecutive
/// slices are merged into groups of at least kGroupRequests verified round
/// trips, so a group's p99 has at least 20 samples beyond it. Rates,
/// latencies and CPU per request are reported as the best value any group
/// reached. Other tenants of a shared machine only ever slow a group down,
/// for seconds at a time; the best group is the closest reading of the
/// code's own cost, and it repeats across runs where the window's median
/// or mean moves with the neighbours.
constexpr double kSliceSeconds = 0.25;
constexpr std::uint64_t kGroupRequests = 2000;
/// Sessions started per untraced run, the measured one included; setup_s
/// is the median of their set-up times.
constexpr int kSetupReps = 25;
/// Requests of the traced window whose spans are written out.
constexpr std::uint64_t kKeptRequests = 4000;
/// shift_preset drops its template every this many requests per client.
/// Fields never shrink, so without the rebuild every expansion ratchets a
/// field toward the 24-character maximum and the workload drifts, over
/// tens of seconds, from shifting into plain patch sends. The cycle is
/// counted in requests, so the mix does not depend on how fast they run.
constexpr std::uint64_t kShiftCycle = 64;

// --- inputs ------------------------------------------------------------------

enum class Kind { kPatchSteady, kShiftPreset, kFreshPlain, kSmallRpc };

struct Workload {
  const char* name;
  Kind kind;
};

constexpr Workload kWorkloads[] = {
    {"patch_steady", Kind::kPatchSteady},
    {"shift_preset", Kind::kShiftPreset},
    {"fresh_plain", Kind::kFreshPlain},
    {"small_rpc", Kind::kSmallRpc},
};

/// Element 0 of every request carries its id: an 8-digit integer, so the
/// field keeps one width and the server reads the id back exactly.
constexpr std::uint64_t kFirstRequestId = 10'000'000;
constexpr std::uint64_t kLastRequestId = 99'999'999;
std::atomic<std::uint64_t> g_next_request_id{kFirstRequestId};

constexpr int kMinWidth = 10;
constexpr int kMaxWidth = 24;

/// A double whose shortest serialization is exactly `width` characters
/// (10..24). Below 24 characters the magnitude stays in [1e-4, 10), so every
/// element moves the handler's sum and a stale or misplaced value shows up
/// in the bit-exact check; 24 characters needs an exponent of -100 or less.
double value_with_width(Rng& rng, int width) {
  const auto digit = [&rng](bool nonzero) {
    return static_cast<char>(nonzero ? '1' + rng.next_below(9)
                                     : '0' + rng.next_below(10));
  };
  for (;;) {
    std::string text;
    int digits = 0;
    if (width <= 18) {
      text += digit(true);
      text += '.';
      digits = width - 2;
    } else if (width <= 23) {
      text = "-0.000";
      text += digit(true);
      digits = width - 7;
    } else {
      text = "-";
      text += digit(true);
      text += '.';
      digits = 16;
    }
    for (int i = 0; i < digits; ++i) text += digit(i == digits - 1);
    if (width == 24) {
      text += "e-1";
      text += digit(false);
      text += digit(false);
    }
    const Result<double> parsed = textconv::parse_double(text);
    if (parsed.ok() &&
        textconv::serialized_length_double(parsed.value()) == width) {
      return parsed.value();
    }
  }
}

/// Pre-generated values per width: requests draw from here, so input
/// generation stays cheap next to the round trip it feeds.
class ValuePool {
 public:
  static constexpr std::size_t kPerWidth = 4096;

  explicit ValuePool(std::uint64_t seed) {
    Rng rng(seed ^ 0x5bd1e995u);
    for (int w = kMinWidth; w <= kMaxWidth; ++w) {
      std::vector<double>& pool = pools_[static_cast<std::size_t>(w - kMinWidth)];
      pool.resize(kPerWidth);
      for (double& v : pool) v = value_with_width(rng, w);
    }
  }

  double pick(Rng& rng, int width) const {
    const std::vector<double>& pool =
        pools_[static_cast<std::size_t>(width - kMinWidth)];
    return pool[rng.next_below(pool.size())];
  }
  double pick_any_width(Rng& rng) const {
    return pick(rng, kMinWidth + static_cast<int>(rng.next_below(
                                     kMaxWidth - kMinWidth + 1)));
  }

 private:
  std::vector<double> pools_[kMaxWidth - kMinWidth + 1];
};

/// One client's request stream.
class RequestGen {
 public:
  RequestGen(Kind kind, const ValuePool& pool, std::uint64_t seed)
      : kind_(kind), pool_(pool), rng_(seed) {
    std::vector<double> values;
    if (kind_ == Kind::kPatchSteady) {
      values.resize(10000);
      for (double& v : values) v = pool_.pick(rng_, 17);
    } else if (kind_ == Kind::kShiftPreset) {
      values.resize(1000);
      for (double& v : values) v = pool_.pick_any_width(rng_);
    }
    call_ = soap::make_double_array_call(std::move(values));
  }

  /// The next request, stamped with `id` in element 0.
  const soap::RpcCall& next(std::uint64_t id) {
    switch (kind_) {
      case Kind::kPatchSteady:
        rewrite(100, [this] { return pool_.pick(rng_, 17); });
        break;
      case Kind::kShiftPreset:
        rewrite(10, [this] { return pool_.pick_any_width(rng_); });
        break;
      case Kind::kFreshPlain:
        fill(static_cast<std::size_t>(rng_.next_in(8000, 12000)));
        break;
      case Kind::kSmallRpc:
        fill(8);
        break;
    }
    call_.params[0].value.doubles()[0] = static_cast<double>(id);
    return call_;
  }

 private:
  /// Replaces `n` random elements (never element 0) in place.
  template <typename Draw>
  void rewrite(int n, Draw draw) {
    std::vector<double>& d = call_.params[0].value.doubles();
    for (int i = 0; i < n; ++i) d[1 + rng_.next_below(d.size() - 1)] = draw();
  }
  /// A new array of `n` new values.
  void fill(std::size_t n) {
    std::vector<double> values(n);
    for (double& v : values) v = pool_.pick_any_width(rng_);
    call_.params[0].value = soap::Value::from_double_array(std::move(values));
  }

  Kind kind_;
  const ValuePool& pool_;
  Rng rng_;
  soap::RpcCall call_;
};

core::BsoapClientConfig client_config(Kind kind) {
  core::BsoapClientConfig config;
  if (kind == Kind::kPatchSteady) {
    config.tmpl.stuffing.mode = core::StuffingPolicy::Mode::kTypeMax;
    config.tmpl.stuffing.stuff_on_expand = true;
    config.with_diffwire(true);
  } else if (kind == Kind::kShiftPreset) {
    config.with_diffwire(true).with_compression(
        http::ContentCoding::kDeflatePreset, 256);
  }
  return config;
}

/// small_rpc answers the element-wise doubled array, the others the sum in
/// element order. The client recomputes either from what it sent.
bool returns_array(Kind kind) { return kind == Kind::kSmallRpc; }

soap::RpcHandler make_handler(Kind kind, ServerProbe* probe) {
  return [kind, probe](const soap::RpcCall& call) -> Result<soap::Value> {
    const std::int64_t start = probe != nullptr ? now_ns() : 0;
    if (call.params.size() != 1 ||
        call.params[0].value.kind() != soap::ValueKind::kDoubleArray ||
        call.params[0].value.doubles().empty()) {
      return Error{ErrorCode::kInvalidArgument, "expected sendData(double[])"};
    }
    const std::vector<double>& d = call.params[0].value.doubles();
    soap::Value result;
    if (returns_array(kind)) {
      std::vector<double> doubled(d.size());
      for (std::size_t i = 0; i < d.size(); ++i) doubled[i] = d[i] * 2;
      result = soap::Value::from_double_array(std::move(doubled));
    } else {
      double total = 0;
      for (const double v : d) total += v;
      result = soap::Value::from_double(total);
    }
    if (probe != nullptr) {
      probe->on_handler(static_cast<std::uint64_t>(d[0]), start, now_ns());
    }
    return result;
  };
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bit-exact check of a response against the request it answers.
bool response_matches(Kind kind, const soap::RpcCall& sent,
                      const soap::Value& got) {
  const std::vector<double>& d = sent.params[0].value.doubles();
  if (returns_array(kind)) {
    if (got.kind() != soap::ValueKind::kDoubleArray ||
        got.doubles().size() != d.size()) {
      return false;
    }
    for (std::size_t i = 0; i < d.size(); ++i) {
      if (!same_bits(got.doubles()[i], d[i] * 2)) return false;
    }
    return true;
  }
  if (got.kind() != soap::ValueKind::kDouble) return false;
  double total = 0;
  for (const double v : d) total += v;
  return same_bits(got.as_double(), total);
}

// --- one server and its clients ------------------------------------------------

enum class Phase { kSetup, kWarmup, kMeasure, kStop };

/// What one client, or all of them, saw during one slice of a window.
struct WindowCounts {
  LatencyHistogram latency;  ///< verified round trips, ns
  ClientCounts client{};
  std::uint64_t attempted = 0;
  std::uint64_t verified = 0;
  std::uint64_t failed = 0;  ///< invoke() returned an error
  std::uint64_t wrong = 0;   ///< a response that does not match
  std::uint64_t nacks = 0;   ///< diff-wire NACKs read back
  std::string first_error;

  void merge(const WindowCounts& o) {
    latency.merge(o.latency);
    for (std::size_t i = 0; i < kClientCounterCount; ++i) client[i] += o.client[i];
    attempted += o.attempted;
    verified += o.verified;
    failed += o.failed;
    wrong += o.wrong;
    nacks += o.nacks;
    if (first_error.empty()) first_error = o.first_error;
  }
};

class Session;

class ClientRunner {
 public:
  ClientRunner(Session& session, int index, std::size_t slices,
               TraceWindow* window);

  void run();

  const ClientProbe& probe() const { return probe_; }
  const std::vector<WindowCounts>& slices() const { return slices_; }
  const WindowCounts& unmeasured() const { return unmeasured_; }

 private:
  enum class Outcome { kVerified, kFailed, kWrong };
  Outcome round_trip(core::BsoapClient& client, WindowCounts* into);

  Session& session_;
  RequestGen gen_;
  std::vector<WindowCounts> slices_;
  /// Round trips of the warm-up and of the window's ragged end: checked
  /// like the others, but not measured.
  WindowCounts unmeasured_;
  ClientProbe probe_;
  std::uint64_t requests_ = 0;
};

class Session {
 public:
  /// `slices`: how many slices the measured window, if any, is cut into.
  Session(const Workload& workload, const ValuePool& pool, std::uint64_t seed,
          std::size_t slices, bool traced)
      : workload_(workload), pool_(pool), seed_(seed), slices_(slices) {
    if (traced) probe_ = std::make_unique<ServerProbe>(window_);
  }
  ~Session() { stop(); }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Starts the server, then the clients one after another, each once the
  /// one before it holds a verified first response. setup_seconds() spans
  /// from the server's start to the last client's verified response, as
  /// that client saw it. Bringing the clients up in turn keeps their first
  /// (first-time) round trips from contending with each other, which would
  /// make the set-up time depend on where the scheduler put them.
  Status start() {
    for (int i = 0; i < kClients; ++i) {
      runners_.push_back(std::make_unique<ClientRunner>(
          *this, i, slices_, probe_ != nullptr ? &window_ : nullptr));
    }
    const std::int64_t t0 = now_ns();
    server::ServerRuntimeOptions options;
    options.recv_observer = probe_.get();
    Result<std::unique_ptr<server::ServerRuntime>> started =
        server::ServerRuntime::start(make_handler(workload_.kind, probe_.get()),
                                     options);
    if (!started.ok()) return started.error();
    server_ = std::move(started.value());
    for (int i = 0; i < kClients; ++i) {
      threads_.emplace_back([runner = runners_[static_cast<std::size_t>(i)].get()] {
        runner->run();
      });
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this, i] { return first_done_ == i + 1; });
    }
    setup_s_ = static_cast<double>(last_first_ns_ - t0) / 1e9;
    if (!setup_error_.empty()) {
      return Error{ErrorCode::kInternal, "set-up failed: " + setup_error_};
    }
    return Status{};
  }

  void set_phase(Phase phase) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      phase_.store(phase, std::memory_order_relaxed);
    }
    cv_.notify_all();
  }
  Phase phase() const { return phase_.load(std::memory_order_relaxed); }

  /// The slice the measured window is in; round trips that end in it count
  /// there.
  std::size_t slice() const { return slice_.load(std::memory_order_relaxed); }
  void set_slice(std::size_t slice) {
    slice_.store(slice, std::memory_order_relaxed);
  }

  /// Stops and joins the clients, then drains the server. Idempotent.
  void stop() {
    set_phase(Phase::kStop);
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    if (server_ != nullptr) server_->stop();
  }

  // Client-side hooks.
  void first_response(bool ok, const std::string& error, std::int64_t at_ns) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!ok && setup_error_.empty()) setup_error_ = error;
      last_first_ns_ = std::max(last_first_ns_, at_ns);
      ++first_done_;
    }
    cv_.notify_all();
  }
  void wait_past_setup() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return phase() != Phase::kSetup; });
  }

  Kind kind() const { return workload_.kind; }
  const ValuePool& pool() const { return pool_; }
  std::uint64_t seed() const { return seed_; }
  std::uint16_t port() const { return server_->port(); }
  server::ServerRuntime& server() { return *server_; }
  double setup_seconds() const { return setup_s_; }
  TraceWindow& trace_window() { return window_; }
  const ServerProbe* server_probe() const { return probe_.get(); }
  const std::vector<std::unique_ptr<ClientRunner>>& runners() const {
    return runners_;
  }

 private:
  const Workload& workload_;
  const ValuePool& pool_;
  std::uint64_t seed_;
  std::size_t slices_;
  TraceWindow window_;
  /// Declared before server_: the runtime holds it as its RecvObserver.
  std::unique_ptr<ServerProbe> probe_;
  std::unique_ptr<server::ServerRuntime> server_;
  std::vector<std::unique_ptr<ClientRunner>> runners_;
  std::vector<std::thread> threads_;
  std::atomic<Phase> phase_{Phase::kSetup};
  std::atomic<std::size_t> slice_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  int first_done_ = 0;          ///< guarded by mu_
  std::int64_t last_first_ns_ = 0;  ///< guarded by mu_
  std::string setup_error_;     ///< guarded by mu_
  double setup_s_ = 0;
};

ClientRunner::ClientRunner(Session& session, int index, std::size_t slices,
                           TraceWindow* window)
    : session_(session),
      gen_(session.kind(), session.pool(),
           session.seed() * 0x9e3779b97f4a7c15ull +
               static_cast<std::uint64_t>(index) + 1),
      slices_(slices),
      probe_(window, static_cast<std::uint16_t>(index)) {}

void ClientRunner::run() {
  const std::uint16_t port = session_.port();
  net::Dialer dial = [port, this]() -> Result<std::unique_ptr<net::Transport>> {
    Result<std::unique_ptr<net::Transport>> socket = net::tcp_connect(port);
    if (!socket.ok()) return socket.error();
    return std::unique_ptr<net::Transport>(
        std::make_unique<ProbedTransport>(std::move(socket.value()), probe_));
  };
  core::BsoapClient client(dial, client_config(session_.kind()));
  client.pipeline().set_observer(&probe_);

  WindowCounts setup;
  const bool first_ok = round_trip(client, &setup) == Outcome::kVerified;
  session_.first_response(first_ok, setup.first_error, now_ns());
  session_.wait_past_setup();
  while (session_.phase() != Phase::kStop) round_trip(client, nullptr);
}

ClientRunner::Outcome ClientRunner::round_trip(core::BsoapClient& client,
                                               WindowCounts* into) {
  const std::uint64_t id =
      g_next_request_id.fetch_add(1, std::memory_order_relaxed);
  BSOAP_ASSERT(id <= kLastRequestId);
  const soap::RpcCall& call = gen_.next(id);
  if (session_.kind() == Kind::kShiftPreset && ++requests_ % kShiftCycle == 0) {
    client.store().erase(call.structure_signature());
  }
  const ClientCounts before = probe_.counts();
  const diffwire::ClientDiffStats* diff = client.diffwire_stats();
  const std::uint64_t nacks_before = diff != nullptr ? diff->patch_nacks : 0;

  probe_.begin_request(id);
  const std::int64_t t0 = now_ns();
  Result<soap::Value> got = client.invoke(call);
  const std::int64_t t1 = now_ns();
  probe_.end_request(t0, t1);

  Outcome outcome = Outcome::kVerified;
  std::string error;
  if (!got.ok()) {
    outcome = Outcome::kFailed;
    error = got.error().to_string();
  } else if (!response_matches(session_.kind(), call, got.value())) {
    outcome = Outcome::kWrong;
    error = "response does not match request " + std::to_string(id);
  }

  if (into == nullptr) {
    const std::size_t slice = session_.slice();
    into = session_.phase() == Phase::kMeasure && slice < slices_.size()
               ? &slices_[slice]
               : &unmeasured_;
  }
  into->attempted += 1;
  for (std::size_t i = 0; i < kClientCounterCount; ++i) {
    into->client[i] += probe_.counts()[i] - before[i];
  }
  if (diff != nullptr) into->nacks += diff->patch_nacks - nacks_before;
  switch (outcome) {
    case Outcome::kVerified:
      into->verified += 1;
      into->latency.record(static_cast<std::uint64_t>(t1 - t0));
      break;
    case Outcome::kFailed:
      into->failed += 1;
      break;
    case Outcome::kWrong:
      into->wrong += 1;
      break;
  }
  if (outcome != Outcome::kVerified && into->first_error.empty()) {
    into->first_error = error;
  }
  return outcome;
}

// --- measurement ---------------------------------------------------------------

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Peak resident set of this process image, in MiB. VmHWM, not ru_maxrss:
/// Linux carries ru_maxrss across execve, so a benchmark started from a
/// larger parent (run.py's interpreter) would report the parent's peak.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f != nullptr) {
    char line[256];
    unsigned long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof(line), f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %lu kB", &kib) == 1;
    }
    std::fclose(f);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Server counters reported per window.
struct ServerCounter {
  const char* name;
  std::uint64_t server::ServerStats::*field;
};
constexpr ServerCounter kServerCounters[] = {
    {"requests", &server::ServerStats::requests},
    {"faults", &server::ServerStats::faults},
    {"bad_requests", &server::ServerStats::bad_requests},
    {"rejected", &server::ServerStats::rejected},
    {"response_first_time", &server::ServerStats::response_first_time},
    {"response_content_match", &server::ServerStats::response_content_match},
    {"response_perfect_match", &server::ServerStats::response_perfect_match},
    {"response_partial_match", &server::ServerStats::response_partial_match},
    {"patch_sends", &server::ServerStats::patch_sends},
    {"patch_replays", &server::ServerStats::patch_replays},
    {"patch_nacks", &server::ServerStats::patch_nacks},
    {"fallback_full_sends", &server::ServerStats::fallback_full_sends},
    {"deser_content_hits", &server::ServerStats::deser_content_hits},
    {"deser_fast_parses", &server::ServerStats::deser_fast_parses},
    {"deser_full_parses", &server::ServerStats::deser_full_parses},
    {"deser_leaves_reparsed", &server::ServerStats::deser_leaves_reparsed},
    {"deser_demotions", &server::ServerStats::deser_demotions},
    {"compressed_sends", &server::ServerStats::compressed_sends},
};
constexpr std::size_t kServerCounterCount = std::size(kServerCounters);
using ServerCounts = std::array<std::uint64_t, kServerCounterCount>;

ServerCounts server_counts(const server::ServerStats& s) {
  ServerCounts out{};
  for (std::size_t i = 0; i < kServerCounterCount; ++i) {
    out[i] = s.*kServerCounters[i].field;
  }
  return out;
}

std::uint64_t server_count(const ServerCounts& c, const char* name) {
  for (std::size_t i = 0; i < kServerCounterCount; ++i) {
    if (std::strcmp(kServerCounters[i].name, name) == 0) return c[i];
  }
  BSOAP_ASSERT(false && "unknown server counter");
  return 0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t k = values.size();
  return k % 2 ? values[k / 2] : (values[k / 2 - 1] + values[k / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Consecutive slices of a window, both clients together.
struct Group {
  double seconds = 0;
  double cpu_s = 0;  ///< process CPU time, clients and server
  WindowCounts counts;

  void merge(const Group& o) {
    seconds += o.seconds;
    cpu_s += o.cpu_s;
    counts.merge(o.counts);
  }
  double rps() const {
    return ratio(static_cast<double>(counts.verified), seconds);
  }
  double latency_us(double q) const {
    return static_cast<double>(counts.latency.percentile(q)) / 1e3;
  }
  double cpu_us_per_req() const {
    return ratio(cpu_s * 1e6, static_cast<double>(counts.verified));
  }
};

/// One measured window: its groups, everything it saw, and the server's
/// counters over it.
struct Window {
  std::vector<Group> groups;
  Group total;
  WindowCounts unmeasured;  ///< warm-up and ragged-end round trips
  ServerCounts server{};

  /// The best value of `f` over the groups, and the round trips behind it.
  template <typename F>
  std::pair<double, std::uint64_t> best(F f, bool higher_is_better) const {
    const Group* pick = &groups.front();
    for (const Group& g : groups) {
      if (higher_is_better ? f(g) > f(*pick) : f(g) < f(*pick)) pick = &g;
    }
    return {f(*pick), pick->counts.verified};
  }
  double best_rps() const {
    return best([](const Group& g) { return g.rps(); }, true).first;
  }
  template <typename F>
  std::vector<double> each_group(F f) const {
    std::vector<double> out;
    for (const Group& g : groups) out.push_back(f(g));
    return out;
  }
};

std::size_t slice_count(double seconds) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(seconds / kSliceSeconds)));
}

/// Merges consecutive slices into groups of at least kGroupRequests
/// verified round trips. A short tail is left out of the groups (not out of
/// the window's totals), unless the whole window is shorter than one group.
std::vector<Group> group_slices(const std::vector<Group>& slices) {
  std::vector<Group> groups;
  Group open;
  for (const Group& s : slices) {
    open.merge(s);
    if (open.counts.verified >= kGroupRequests) {
      groups.push_back(std::move(open));
      open = Group{};
    }
  }
  if (groups.empty()) groups.push_back(std::move(open));
  return groups;
}

/// Warm-up, then the measured window, slice by slice; stops the session.
Window measure(Session& session, std::size_t slices, double seconds) {
  using Clock = std::chrono::steady_clock;
  session.set_phase(Phase::kWarmup);
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  TraceWindow& trace = session.trace_window();
  const std::uint64_t next_id = g_next_request_id.load();
  trace.keep_from.store(next_id);
  trace.keep_below.store(next_id + kKeptRequests);

  std::vector<Group> per_slice(slices);
  const ServerCounts s0 = server_counts(session.server().stats());
  double cpu = cpu_seconds();
  std::int64_t t = now_ns();
  const Clock::time_point start = Clock::now();
  const auto slice_length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / static_cast<double>(slices)));
  trace.recording.store(true);
  session.set_phase(Phase::kMeasure);
  for (std::size_t i = 0; i < slices; ++i) {
    std::this_thread::sleep_until(start + slice_length * static_cast<int>(i + 1));
    const std::int64_t t1 = now_ns();
    const double cpu1 = cpu_seconds();
    session.set_slice(i + 1);
    per_slice[i].seconds = static_cast<double>(t1 - t) / 1e9;
    per_slice[i].cpu_s = cpu1 - cpu;
    t = t1;
    cpu = cpu1;
  }
  session.set_phase(Phase::kStop);
  trace.recording.store(false);
  const ServerCounts s1 = server_counts(session.server().stats());
  session.stop();

  Window w;
  for (const auto& r : session.runners()) {
    for (std::size_t i = 0; i < slices; ++i) per_slice[i].counts.merge(r->slices()[i]);
    w.unmeasured.merge(r->unmeasured());
  }
  for (const Group& s : per_slice) w.total.merge(s);
  w.groups = group_slices(per_slice);
  for (std::size_t i = 0; i < kServerCounterCount; ++i) w.server[i] = s1[i] - s0[i];
  return w;
}

// --- reporting -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::uint64_t samples;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Rates, latencies and CPU per request come from the window's best group,
/// with that group's round trips as their sample count. Byte counts depend
/// only on the seeded request stream and are pooled over the window.
std::vector<Metric> end_to_end_metrics(const Window& w,
                                       const std::vector<double>& setups) {
  const WindowCounts& c = w.total.counts;
  const auto n = static_cast<double>(c.verified);
  const auto metric = [&w](const char* name, const char* unit, bool higher,
                           auto f) {
    const auto [value, samples] = w.best(f, higher);
    return Metric{name, value, unit, samples};
  };
  return {
      metric("rps", "req/s", true, [](const Group& g) { return g.rps(); }),
      metric("latency_p50_us", "us", false,
             [](const Group& g) { return g.latency_us(0.50); }),
      metric("latency_p99_us", "us", false,
             [](const Group& g) { return g.latency_us(0.99); }),
      metric("cpu_us_per_req", "us", false,
             [](const Group& g) { return g.cpu_us_per_req(); }),
      {"req_bytes_per_req", ratio(static_cast<double>(c.client[kReqBytes]), n),
       "B", c.verified},
      {"resp_bytes_per_req",
       ratio(static_cast<double>(c.client[kRespBytes]), n), "B", c.verified},
      {"rss_peak_mb", peak_rss_mb(), "MB", 1},
      {"setup_s", median(setups), "s", setups.size()},
  };
}

/// Per-layer means per request from the traced window. Client layers divide
/// by the client's traced requests, server layers by the handler calls the
/// server traced; the two differ by at most the requests in flight at the
/// window's edges.
std::vector<Metric> per_layer_metrics(const Window& traced,
                                      const LayerTotals& client,
                                      std::uint64_t client_requests,
                                      const LayerTotals& server,
                                      std::uint64_t server_requests,
                                      double untraced_rps) {
  const WindowCounts& c = traced.total.counts;
  const auto nc = static_cast<double>(client_requests);
  const auto ns = static_cast<double>(server_requests);
  const auto cus = [&](Layer l) {
    return ratio(static_cast<double>(client.ns_of(l)) / 1e3, nc);
  };
  const auto sus = [&](Layer l) {
    return ratio(static_cast<double>(server.ns_of(l)) / 1e3, ns);
  };
  const double invoke = cus(Layer::kInvoke);
  const double resolve = cus(Layer::kResolve);
  const double update = cus(Layer::kUpdate);
  const double frame = cus(Layer::kFrame);
  const double encode = cus(Layer::kEncode);
  const double write = cus(Layer::kWrite);
  const double send = cus(Layer::kSend);
  const double wait = cus(Layer::kWait);
  const double decode = sus(Layer::kDecode);
  const double apply = sus(Layer::kApply);
  const double parse = sus(Layer::kParse);
  const double handler = sus(Layer::kHandler);

  const auto sends = static_cast<double>(c.client[kSends]);
  const auto cshare = [&](ClientCounter k) {
    return ratio(static_cast<double>(c.client[k]), sends);
  };
  const double patch_sends = static_cast<double>(c.client[kPatchSends]);
  const auto srv = [&](const char* name) {
    return static_cast<double>(server_count(traced.server, name));
  };
  const double server_patches = srv("patch_sends");
  const double responses =
      srv("response_first_time") + srv("response_content_match") +
      srv("response_perfect_match") + srv("response_partial_match");
  const double traced_rps = traced.best_rps();
  const double coded_raw = static_cast<double>(c.client[kCodedRawBytes]);

  return {
      {"client.invoke_us", invoke, "us", client_requests},
      {"core.resolve_us", resolve, "us", client_requests},
      {"core.update_us", update, "us", client_requests},
      {"core.frame_us", frame - encode, "us", client_requests},
      {"core.write_us", write - send, "us", client_requests},
      {"core.first_time_share", cshare(kFirstTimeSends), "ratio", c.client[kSends]},
      {"core.psm_share", cshare(kPsmSends), "ratio", c.client[kSends]},
      {"core.partial_share", cshare(kPartialSends), "ratio", c.client[kSends]},
      {"core.values_rewritten_per_req", cshare(kValuesRewritten), "count",
       c.client[kSends]},
      // Coding and patch apply do not run at all on some workloads. Their
      // times are printed in the ledger; BENCHMARK.json carries their share
      // of the round trip instead, so no timing in the result line reads
      // exactly 0 on every run.
      {"compress.encode_us", encode, "us", client_requests},
      {"compress.encode_share", ratio(encode, invoke), "ratio", client_requests},
      {"compress.decode_us", decode, "us", server_requests},
      {"compress.decode_share", ratio(decode, invoke), "ratio", server_requests},
      {"compress.coded_share", cshare(kCodedSends), "ratio", c.client[kSends]},
      {"compress.ratio",
       coded_raw > 0 ? static_cast<double>(c.client[kCodedBytes]) / coded_raw : 1.0,
       "ratio", c.client[kCodedSends]},
      {"diffwire.apply_us", apply, "us", server_requests},
      {"diffwire.apply_share", ratio(apply, invoke), "ratio", server_requests},
      {"diffwire.patch_share",
       ratio(patch_sends - static_cast<double>(c.nacks), sends), "ratio",
       c.client[kSends]},
      {"diffwire.nack_rate", ratio(static_cast<double>(c.nacks), patch_sends),
       "ratio", c.client[kPatchSends]},
      {"soap.parse_us", parse, "us", server_requests},
      {"server.fast_parse_share", ratio(srv("deser_fast_parses"), server_patches),
       "ratio", static_cast<std::uint64_t>(server_patches)},
      {"server.demotion_rate", ratio(srv("deser_demotions"), server_patches),
       "ratio", static_cast<std::uint64_t>(server_patches)},
      {"server.handler_us", handler, "us", server_requests},
      {"server.response_psm_share",
       ratio(srv("response_perfect_match"), responses), "ratio",
       static_cast<std::uint64_t>(responses)},
      {"server.other_us", wait - decode - apply - parse - handler, "us",
       server_requests},
      {"net.send_us", send, "us", client_requests},
      {"net.send_calls_per_req",
       ratio(static_cast<double>(client.calls_of(Layer::kSend)), nc), "count",
       client_requests},
      {"net.wait_us", wait, "us", client_requests},
      {"net.recv_calls_per_req",
       ratio(static_cast<double>(client.calls_of(Layer::kWait)), nc), "count",
       client_requests},
      {"client.other_us", invoke - resolve - update - frame - write - wait, "us",
       client_requests},
      {"trace.overhead_pct",
       untraced_rps > 0 ? (untraced_rps - traced_rps) / untraced_rps * 100 : 0,
       "%", c.verified},
  };
}

const Metric* find_metric(const std::vector<Metric>& metrics, const char* name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

/// The regime each workload exists to exercise; a run that leaves it fails
/// rather than reporting plausible numbers for the wrong code path.
std::vector<std::string> regime_violations(Kind kind, const Window& w) {
  std::vector<std::string> out;
  const ClientCounts& c = w.total.counts.client;
  const auto sends = static_cast<double>(c[kSends]);
  const auto share = [&](ClientCounter k) {
    return ratio(static_cast<double>(c[k]), sends);
  };
  const auto require = [&out](bool ok, const std::string& what) {
    if (!ok) out.push_back(what);
  };
  require(c[kSends] > 0, "no sends in the window");
  switch (kind) {
    case Kind::kPatchSteady:
      require(share(kPsmSends) >= 0.99, "psm share < 0.99");
      require(share(kPatchSends) >= 0.99, "patch share < 0.99");
      require(w.total.counts.nacks == 0, "diff-wire NACKs seen");
      break;
    case Kind::kShiftPreset:
      require(c[kPartialSends] > 0, "no partial structural matches");
      require(c[kCodedSends] > 0, "no content-coded sends");
      break;
    case Kind::kFreshPlain:
      require(share(kFirstTimeSends) >= 0.90, "first-time share < 0.90");
      break;
    case Kind::kSmallRpc:
      break;
  }
  require(server_count(w.server, "faults") == 0, "server answered faults");
  require(server_count(w.server, "bad_requests") == 0,
          "server answered bad requests");
  require(server_count(w.server, "rejected") == 0,
          "server rejected connections");
  return out;
}

void print_counters(const char* title, const Window& w) {
  std::printf("counters (%s, %.3f s window):\n", title, w.total.seconds);
  const WindowCounts& c = w.total.counts;
  std::printf("  client.attempted %llu  client.verified %llu  client.failed %llu"
              "  client.wrong %llu  client.nacks %llu\n",
              static_cast<unsigned long long>(c.attempted),
              static_cast<unsigned long long>(c.verified),
              static_cast<unsigned long long>(c.failed),
              static_cast<unsigned long long>(c.wrong),
              static_cast<unsigned long long>(c.nacks));
  std::printf("  unmeasured (warm-up) checked %llu  failed %llu  wrong %llu\n",
              static_cast<unsigned long long>(w.unmeasured.attempted),
              static_cast<unsigned long long>(w.unmeasured.failed),
              static_cast<unsigned long long>(w.unmeasured.wrong));
  for (std::size_t i = 0; i < kClientCounterCount; ++i) {
    std::printf("  client.%s %llu\n", client_counter_name(i),
                static_cast<unsigned long long>(c.client[i]));
  }
  for (std::size_t i = 0; i < kServerCounterCount; ++i) {
    std::printf("  server.%s %llu\n", kServerCounters[i].name,
                static_cast<unsigned long long>(w.server[i]));
  }
}

void print_series(const char* title, const std::vector<double>& values) {
  std::printf("%s:", title);
  for (const double v : values) std::printf(" %.6g", v);
  std::printf("\n");
}

/// The per-group readings behind the best-group metrics.
void print_groups(const Window& w) {
  std::printf("%zu groups of >= %llu round trips (%.2f s slices):\n",
              w.groups.size(), static_cast<unsigned long long>(kGroupRequests),
              kSliceSeconds);
  print_series("  rps", w.each_group([](const Group& g) { return g.rps(); }));
  print_series("  latency_p50_us",
               w.each_group([](const Group& g) { return g.latency_us(0.50); }));
  print_series("  latency_p99_us",
               w.each_group([](const Group& g) { return g.latency_us(0.99); }));
  print_series("  cpu_us_per_req",
               w.each_group([](const Group& g) { return g.cpu_us_per_req(); }));
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s:\n  %-30s %16s %-6s %10s\n", title, "metric", "value", "unit",
              "samples");
  for (const Metric& m : metrics) {
    std::printf("  %-30s %16.4f %-6s %10llu\n", m.name.c_str(), m.value, m.unit,
                static_cast<unsigned long long>(m.samples));
  }
}

/// Self time per layer as a share of the traced mean round trip, and the
/// check that layers plus residuals account for it.
bool print_ledger(const std::vector<Metric>& m) {
  const auto v = [&m](const char* name) { return find_metric(m, name)->value; };
  const double invoke = v("client.invoke_us");
  static constexpr const char* kParts[] = {
      "core.resolve_us", "core.update_us",   "core.frame_us",
      "compress.encode_us", "core.write_us", "net.send_us",
      "compress.decode_us", "diffwire.apply_us", "soap.parse_us",
      "server.handler_us", "server.other_us", "client.other_us",
  };
  std::printf("ledger (self time per request, traced window):\n");
  double sum = 0;
  for (const char* part : kParts) {
    sum += v(part);
    std::printf("  %-22s %12.3f us %6.1f%%\n", part, v(part),
                ratio(v(part), invoke) * 100);
  }
  const double off = ratio(sum - invoke, invoke) * 100;
  std::printf("  %-22s %12.3f us (sum %.3f us, %+.2f%%)\n", "client.invoke_us",
              invoke, sum, off);
  std::printf("  trace.overhead_pct %.2f%%\n", v("trace.overhead_pct"));
  const bool ok = off > -5.0 && off < 5.0 && v("server.other_us") >= 0 &&
                  v("client.other_us") >= 0;
  if (!ok) std::printf("  ledger does not account for the round trip\n");
  return ok;
}

void print_result(const Workload& w, std::uint64_t seed, bool traced,
                  bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::string>& errors,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"workload\":\"" + std::string(w.name) +
                     "\",\"seed\":" + std::to_string(seed) +
                     ",\"trace\":" + (traced ? "true" : "false") +
                     ",\"correct\":" + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed) + ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    json += (i ? ",\"" : "\"") + json_escape(errors[i]) + "\"";
  }
  json += "],\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ",\"" : "\"") + metrics[i].name + "\":{\"value\":" + value +
            ",\"unit\":\"" + metrics[i].unit +
            "\",\"samples\":" + std::to_string(metrics[i].samples) + "}";
  }
  json += "}}";
  std::printf("E2E_RESULT %s\n", json.c_str());
}

/// Errors of a window: failed or wrong round trips, regime violations.
void collect_errors(const Workload& w, const char* title, const Window& win,
                    std::vector<std::string>* errors) {
  const std::pair<const char*, const WindowCounts*> parts[] = {
      {"measured", &win.total.counts}, {"warm-up", &win.unmeasured}};
  for (const auto& [part, c] : parts) {
    if (c->failed + c->wrong > 0) {
      errors->push_back(std::string(title) + " " + part + ": " +
                        std::to_string(c->failed) + " failed and " +
                        std::to_string(c->wrong) +
                        " wrong round trips; first: " + c->first_error);
    }
  }
  for (const std::string& v : regime_violations(w.kind, win)) {
    errors->push_back(std::string(title) + ": " + w.name +
                      " left its regime: " + v);
  }
}

int run(const Workload& workload, std::uint64_t seed, double seconds,
        const std::string& trace_dir) {
  const bool traced = !trace_dir.empty();
  const ValuePool pool(seed);
  // A traced run measures an untraced and a traced session, half each.
  const double each = traced ? seconds / 2 : seconds;
  const std::size_t slices = slice_count(each);
  std::printf("workload %s  seed %llu  window %.1f s in %zu slices  warm-up "
              "%.1f s  clients %d  closed loop, loopback TCP, default "
              "ServerRuntime\n",
              workload.name, static_cast<unsigned long long>(seed), each,
              slices, kWarmupSeconds, kClients);
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Every round trip counts, measured or not.
  const auto tally = [&attempted, &failed](const Window& w) {
    for (const WindowCounts* c : {&w.total.counts, &w.unmeasured}) {
      attempted += c->attempted;
      failed += c->failed + c->wrong;
    }
  };

  // Every session starts a fresh server and fresh clients and samples one
  // set-up time; only the last is measured.
  const int reps = traced ? 1 : kSetupReps;
  std::vector<double> setups;
  Window plain;
  for (int rep = 0; rep < reps; ++rep) {
    Session session(workload, pool, seed, slices, false);
    const Status started = session.start();
    if (!started.ok()) {
      std::fprintf(stderr, "bsoap_e2e: %s\n", started.error().to_string().c_str());
      return 1;
    }
    setups.push_back(session.setup_seconds());
    if (rep + 1 == reps) plain = measure(session, slices, each);
  }
  print_series("setup_s per session", setups);
  print_groups(plain);
  print_counters(traced ? "untraced session" : "measured session", plain);
  collect_errors(workload, "untraced", plain, &errors);
  tally(plain);

  if (!traced) {
    metrics = end_to_end_metrics(plain, setups);
    print_metrics("end-to-end metrics", metrics);
  } else {
    Session traced_session(workload, pool, seed, slices, true);
    const Status started = traced_session.start();
    if (!started.ok()) {
      std::fprintf(stderr, "bsoap_e2e: %s\n", started.error().to_string().c_str());
      return 1;
    }
    const Window win = measure(traced_session, slices, each);
    print_counters("traced session", win);
    collect_errors(workload, "traced", win, &errors);
    tally(win);

    LayerTotals client;
    std::uint64_t client_requests = 0;
    std::vector<Span> spans;
    for (const auto& r : traced_session.runners()) {
      client.merge(r->probe().log().totals());
      client_requests += r->probe().log().totals().calls_of(Layer::kInvoke);
      spans.insert(spans.end(), r->probe().log().spans().begin(),
                   r->probe().log().spans().end());
    }
    const ServerProbe& sp = *traced_session.server_probe();
    sp.append_spans(&spans);
    metrics = per_layer_metrics(win, client, client_requests, sp.totals(),
                                sp.requests(), plain.best_rps());
    print_metrics("per-layer metrics", metrics);
    if (!print_ledger(metrics)) {
      errors.push_back("traced: per-layer times do not add up to the round trip");
    }
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    const std::string path = trace_dir + "/" + workload.name + ".jsonl";
    const std::size_t kept = spans.size();
    const Status written = write_spans_jsonl(path, std::move(spans));
    if (!written.ok()) {
      errors.push_back(written.error().to_string());
    } else {
      std::printf("spans: %zu written to %s (first %llu requests of the traced "
                  "window)\n",
                  kept, path.c_str(),
                  static_cast<unsigned long long>(kKeptRequests));
    }
  }

  for (const std::string& e : errors) std::printf("ERROR %s\n", e.c_str());
  const bool correct = errors.empty();
  print_result(workload, seed, traced, correct, attempted, failed, errors,
               metrics);
  return correct ? 0 : 1;
}

// --- self-test ------------------------------------------------------------------

/// Histogram percentiles against a sorted-vector oracle, bucket bounds, and
/// the workload value generator's widths.
int selftest() {
  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      std::printf("FAIL %s\n", what.c_str());
      ++failures;
    }
  };

  Rng rng(7);
  for (int i = 0; i < 200000; ++i) {
    // Every width from 40 bits (the histogram's range) down to 1.
    const std::uint64_t v = rng.next_u64() >> (rng.next_below(40) + 24);
    const std::size_t b = LatencyHistogram::bucket_of(v);
    const std::uint64_t lo = LatencyHistogram::bucket_low(b);
    const std::uint64_t hi = LatencyHistogram::bucket_high(b);
    check(b < LatencyHistogram::kBuckets && lo <= v && v <= hi &&
              static_cast<double>(hi - lo) <= static_cast<double>(lo) / 128.0,
          "bucket bounds of " + std::to_string(v));
  }
  check(LatencyHistogram::bucket_of(LatencyHistogram::kMaxValue) ==
                LatencyHistogram::kBuckets - 1 &&
            LatencyHistogram::bucket_of(~std::uint64_t{0}) ==
                LatencyHistogram::kBuckets - 1 &&
            LatencyHistogram::bucket_high(LatencyHistogram::kBuckets - 1) ==
                LatencyHistogram::kMaxValue,
        "values past the range land in the top bucket");

  struct Distribution {
    const char* name;
    std::uint64_t (*draw)(Rng&);
  };
  const Distribution distributions[] = {
      {"small-exact", [](Rng& r) { return r.next_below(128); }},
      {"uniform-us", [](Rng& r) { return 1000 + r.next_below(10'000'000); }},
      {"log-uniform", [](Rng& r) {
         return static_cast<std::uint64_t>(
             std::exp(r.next_unit_double() * std::log(1e10)));
       }},
      {"bimodal-tail", [](Rng& r) {
         return r.chance(99, 100) ? 20'000 + r.next_below(2'000)
                                  : 5'000'000 + r.next_below(50'000'000);
       }},
  };
  for (const Distribution& d : distributions) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{37},
                                std::size_t{1000}, std::size_t{250000}}) {
      LatencyHistogram a;
      LatencyHistogram b;
      std::vector<std::uint64_t> oracle;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t v = d.draw(rng);
        (i % 2 ? a : b).record(v);
        oracle.push_back(v);
      }
      a.merge(b);
      std::sort(oracle.begin(), oracle.end());
      check(a.count() == n, std::string(d.name) + " count");
      for (const double q : {0.01, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
        rank = std::clamp<std::size_t>(rank, 1, n);
        const double want = static_cast<double>(oracle[rank - 1]);
        const double got = static_cast<double>(a.percentile(q));
        const double err = want == 0 ? got : std::abs(got - want) / want;
        check(err <= 0.01, std::string(d.name) + " n=" + std::to_string(n) +
                               " q=" + std::to_string(q) + ": got " +
                               std::to_string(got) + " want " +
                               std::to_string(want));
      }
    }
  }

  const ValuePool pool(11);
  Rng pick(3);
  for (int w = kMinWidth; w <= kMaxWidth; ++w) {
    for (int i = 0; i < 64; ++i) {
      check(textconv::serialized_length_double(pool.pick(pick, w)) == w,
            "value width " + std::to_string(w));
    }
  }
  for (const std::uint64_t id : {kFirstRequestId, kLastRequestId}) {
    check(textconv::serialized_length_double(static_cast<double>(id)) == 8,
          "request id width");
  }

  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: bsoap_e2e --workload NAME --seed N --seconds S "
               "[--trace DIR]\n       bsoap_e2e --selftest\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 20;
  std::string trace_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return selftest();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) workload = &w;
      }
      if (workload == nullptr) return usage();
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace_dir = value;
    } else {
      return usage();
    }
  }
  if (workload == nullptr || !(seconds > 0)) return usage();
  return run(*workload, seed, seconds, trace_dir);
}

}  // namespace
}  // namespace bsoap::e2e

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return bsoap::e2e::main_impl(argc, argv);
}
