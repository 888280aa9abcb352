// The two data-plane workloads. Both drive a real BifrostProxy over
// loopback from the benchmark's own generator: 4 connections with one
// request in flight each, on cores disjoint from the proxy and its
// backends. A run is an open-loop phase (Poisson arrivals at a fixed
// offered rate, latency timed from each request's scheduled send)
// followed by a closed-loop phase (each connection sends as soon as its
// previous response arrives) that measures saturation throughput.
#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_set>

#include "client.hpp"
#include "engine/engine.hpp"
#include "engine/http_clients.hpp"
#include "http/client.hpp"
#include "json/json.hpp"
#include "loadgen/arrivals.hpp"
#include "proxy/proxy.hpp"
#include "proxy/session_table.hpp"
#include "runtime/event_loop.hpp"
#include "util/rng.hpp"
#include "util/uuid.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bifrost;
using namespace std::chrono_literals;

/// Load shape: at most 4 connections (and generator threads), one
/// request in flight on each.
constexpr std::size_t kConnections = 4;
constexpr int kSetupRepeats = 5;
/// Share of --seconds spent in the open-loop phase; the rest is the
/// closed-loop saturation phase.
constexpr double kOpenShare = 0.6;
constexpr std::size_t kPostBytes = 4096;
/// Pre-generated closed-loop draws per connection (cycled).
constexpr std::size_t kClosedDraws = 1 << 15;

struct Shape {
  const char* name;
  std::vector<std::string> live_versions;  ///< the split's two versions
  bool dark;                ///< shadow stable to a dark backend + ramp engine
  std::size_t sessions;     ///< returning-user population (Zipf)
  double zipf_exponent;
  double cookieless_share;  ///< arrivals without a cookie (new users)
  double post_share;        ///< 4 KiB POSTs
  double offered_rps;       ///< open-loop rate
};

/// One request of the generated stream; session -1 = no cookie.
struct Draw {
  std::int32_t session = -1;
  bool post = false;
};

struct Arrival {
  std::int64_t offset_ns = 0;
  Draw draw;
};

/// Session ids and their Zipf popularity.
class Population {
 public:
  Population(std::size_t size, double exponent, std::uint64_t seed) {
    ids_.reserve(size);
    cdf_.reserve(size);
    double total = 0.0;
    for (std::size_t i = 0; i < size; ++i) {
      ids_.push_back(util::uuid4_from(util::derive_seed(seed, i)));
      total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  Draw draw(util::Rng& rng, const Shape& shape) const {
    Draw d;
    d.post = rng.uniform() < shape.post_share;
    if (rng.uniform() < shape.cookieless_share) return d;
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    d.session = static_cast<std::int32_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(),
                                 static_cast<std::ptrdiff_t>(ids_.size()) - 1));
    return d;
  }

  [[nodiscard]] const std::string& id(std::int32_t session) const {
    return ids_[static_cast<std::size_t>(session)];
  }
  [[nodiscard]] std::size_t size() const { return ids_.size(); }

 private:
  std::vector<std::string> ids_;
  std::vector<double> cdf_;
};

/// What one generator thread saw in one phase.
struct Tally {
  std::vector<double> latency_us;  ///< open loop: from the scheduled send
  std::vector<double> rtt_us;      ///< open loop: from the actual send
  std::vector<double> late_us;     ///< actual send - scheduled send
  /// Open loop: scheduled send of each latency sample; closed loop:
  /// receipt of each response inside the window.
  std::vector<std::int64_t> at_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong_version = 0;
  std::uint64_t flips = 0;
  std::uint64_t missing_cookie = 0;
  std::uint64_t completed_in_window = 0;
  std::int64_t last_receipt_ns = 0;
  std::array<std::uint64_t, 2> served{};        ///< by live version index
  std::array<std::uint64_t, 2> new_sessions{};  ///< cookieless assignments
  Usage usage;                                  ///< this thread's CPU

  void merge(const Tally& other) {
    latency_us.insert(latency_us.end(), other.latency_us.begin(),
                      other.latency_us.end());
    rtt_us.insert(rtt_us.end(), other.rtt_us.begin(), other.rtt_us.end());
    late_us.insert(late_us.end(), other.late_us.begin(), other.late_us.end());
    at_ns.insert(at_ns.end(), other.at_ns.begin(), other.at_ns.end());
    attempted += other.attempted;
    failed += other.failed;
    wrong_version += other.wrong_version;
    flips += other.flips;
    missing_cookie += other.missing_cookie;
    completed_in_window += other.completed_in_window;
    last_receipt_ns = std::max(last_receipt_ns, other.last_receipt_ns);
    for (std::size_t i = 0; i < 2; ++i) {
      served[i] += other.served[i];
      new_sessions[i] += other.new_sessions[i];
    }
    usage += other.usage;
  }
};

void sleep_until_ns(std::int64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1000000000);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1000000000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// The proxy and its backends, plus (dark launch) the engine that
/// ramps the proxy's split.
class DataSut {
 public:
  DataSut(const Shape& shape, const RunConfig& config) {
    for (const std::string& version : shape.live_versions) {
      backends_.push_back(
          std::make_unique<Backend>(version, false, config.traced));
    }
    if (shape.dark) {
      backends_.push_back(
          std::make_unique<Backend>("dark", true, config.traced));
    }
    for (auto& backend : backends_) backend->start();

    service.name = "shop";
    for (const auto& backend : backends_) {
      service.versions.push_back(
          core::VersionDef{backend->version(), "127.0.0.1", backend->port()});
    }
    service.proxy_admin_host = "127.0.0.1";
    service.overload.enabled = shape.dark;

    proxy::BifrostProxy::Options options;
    options.rng_seed = util::derive_seed(config.seed, 0xb1f);
    proxy_ = std::make_unique<proxy::BifrostProxy>(
        options, initial_config(shape));
    proxy_->start();
    service.proxy_admin_port = proxy_->admin_port();

    if (shape.dark) {
      loop_ = std::make_unique<runtime::EventLoop>();
      loop_->start();
      runtime::Scheduler* scheduler = loop_.get();
      engine::ProxyController* controller = &proxy_controller_;
      if (config.traced) {
        traced_loop_ = std::make_unique<trace::TracingScheduler>(*loop_);
        traced_controller_ =
            std::make_unique<trace::TracingProxyController>(proxy_controller_);
        scheduler = traced_loop_.get();
        controller = traced_controller_.get();
      }
      engine_ = std::make_unique<engine::Engine>(*scheduler, metrics_client_,
                                                 *controller);
    }
  }

  ~DataSut() { shutdown(); }
  DataSut(const DataSut&) = delete;
  DataSut& operator=(const DataSut&) = delete;

  /// Stops the engine's loop first so no timer runs against a
  /// destroyed execution, then the proxy, then the backends.
  void shutdown() {
    if (loop_) loop_->stop();
    engine_.reset();
    if (proxy_) proxy_->stop();
    for (auto& backend : backends_) backend->stop();
  }

  /// Sticky split giving `second_percent` to the second live version,
  /// plus (dark launch) the stable -> dark shadow rule.
  core::ServiceRouting routing(const Shape& shape,
                               double second_percent) const {
    core::ServiceRouting r;
    r.service = service.name;
    r.sticky = true;
    r.splits = {
        core::VersionSplit{shape.live_versions[0], 100.0 - second_percent,
                           "", ""},
        core::VersionSplit{shape.live_versions[1], second_percent, "", ""}};
    if (shape.dark) {
      r.shadows = {core::ShadowRule{shape.live_versions[0], "dark", 100.0}};
    }
    return r;
  }

  [[nodiscard]] proxy::BifrostProxy& proxy() { return *proxy_; }
  [[nodiscard]] engine::Engine& engine() { return *engine_; }
  [[nodiscard]] runtime::EventLoop& loop() { return *loop_; }
  [[nodiscard]] Backend& backend(std::size_t i) { return *backends_[i]; }

  core::ServiceDef service;
  /// Canary share of the initial (and first ramp) state.
  static constexpr double kFirstCanaryPercent = 5.0;

 private:
  proxy::ProxyConfig initial_config(const Shape& shape) const {
    const double second = shape.dark ? kFirstCanaryPercent : 50.0;
    auto config = engine::build_proxy_config(service, routing(shape, second));
    if (!config.ok()) {
      throw std::runtime_error("proxy config: " + config.error_message());
    }
    return std::move(config).value();
  }

  std::vector<std::unique_ptr<Backend>> backends_;
  std::unique_ptr<proxy::BifrostProxy> proxy_;
  std::unique_ptr<runtime::EventLoop> loop_;
  engine::HttpMetricsClient metrics_client_;
  engine::HttpProxyController proxy_controller_;
  std::unique_ptr<trace::TracingScheduler> traced_loop_;
  std::unique_ptr<trace::TracingProxyController> traced_controller_;
  std::unique_ptr<engine::Engine> engine_;
};

/// Version index of a reply among the live versions; -1 otherwise.
int version_index(const Shape& shape, const Reply& reply) {
  for (std::size_t i = 0; i < shape.live_versions.size(); ++i) {
    if (reply.version == shape.live_versions[i]) return static_cast<int>(i);
  }
  return -1;
}

/// Scores one response against what the workload promises: 2xx, served
/// by a live version of the split, a returning session by its pinned
/// version, a new user with a fresh session cookie.
void score(const Shape& shape, const Draw& draw, bool ok, const Reply& reply,
           const std::vector<std::int8_t>& pins, Tally& tally) {
  ++tally.attempted;
  if (!ok || reply.status < 200 || reply.status >= 300) {
    ++tally.failed;
    return;
  }
  const int version = version_index(shape, reply);
  if (version < 0) {
    ++tally.wrong_version;
    ++tally.failed;
    return;
  }
  ++tally.served[static_cast<std::size_t>(version)];
  if (draw.session >= 0) {
    if (pins[static_cast<std::size_t>(draw.session)] != version) {
      ++tally.flips;
      ++tally.failed;
    }
  } else if (reply.new_session.empty()) {
    ++tally.missing_cookie;
    ++tally.failed;
  } else {
    ++tally.new_sessions[static_cast<std::size_t>(version)];
  }
}

/// Runs `body(index, connection, tally)` on one generator thread per
/// connection, pinned to the generator cores, and merges the tallies.
template <typename Body>
Tally run_generator(const RunConfig& config,
                    std::vector<std::unique_ptr<Connection>>& connections,
                    Body body) {
  std::vector<Tally> tallies(connections.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections.size(); ++c) {
    threads.emplace_back([&, c] {
      pin_current_thread(config.cores.generator);
      trace::exclude_this_thread();
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      const Usage before = Usage::thread();
      body(c, *connections[c], tallies[c]);
      tallies[c].usage = Usage::thread() - before;
    });
  }
  for (auto& thread : threads) thread.join();
  Tally merged;
  for (const Tally& tally : tallies) merged.merge(tally);
  return merged;
}

/// Records the request's span and, when the backend stamped its
/// handler, the ingress / handler / egress spans under it.
void trace_request(std::uint64_t index, std::int64_t scheduled_ns,
                   std::int64_t sent_ns, std::int64_t received_ns,
                   const Reply& reply) {
  const std::uint64_t id = trace::record(trace::Name::kRequest, 0, index,
                                         scheduled_ns, sent_ns, received_ns);
  if (reply.handler_start_ns == 0 || reply.handler_exit_ns == 0) return;
  trace::record(trace::Name::kIngress, id, index, sent_ns, sent_ns,
                reply.handler_start_ns);
  trace::record(trace::Name::kHandler, id, index, reply.handler_start_ns,
                reply.handler_start_ns, reply.handler_exit_ns);
  trace::record(trace::Name::kEgress, id, index, reply.handler_exit_ns,
                reply.handler_exit_ns, received_ns);
}

/// A generated dark-launch ramp: every state keeps the stable->dark
/// shadow rule and steps the canary share along a triangle wave
/// between 5% and 50%, dwelling 100 ms per state.
core::StrategyDef ramp_strategy(const Shape& shape, const DataSut& sut,
                                int states, std::uint64_t seed) {
  util::Rng rng(seed);
  const double step = 5.0 * static_cast<double>(rng.uniform_int(1, 2));
  core::StrategyDef def;
  def.name = "dark-ramp";
  def.services.push_back(sut.service);
  def.initial_state = "ramp-0";
  double canary = DataSut::kFirstCanaryPercent;
  double direction = 1.0;
  for (int k = 0; k < states; ++k) {
    core::StateDef state;
    state.name = "ramp-" + std::to_string(k);
    state.min_duration = 100ms;
    state.transitions = {k + 1 < states ? "ramp-" + std::to_string(k + 1)
                                        : std::string("done")};
    state.routing.push_back(sut.routing(shape, canary));
    def.states.push_back(state);
    if (canary + direction * step > 50.0 || canary + direction * step < 5.0) {
      direction = -direction;
    }
    canary += direction * step;
  }
  core::StateDef done;
  done.name = "done";
  done.final_kind = core::FinalKind::kSuccess;
  done.routing.push_back(sut.routing(shape, canary));
  def.states.push_back(done);
  return def;
}

/// GET /admin/stats on the proxy (queue drops are only visible there).
json::Value admin_stats(std::uint16_t admin_port) {
  http::HttpClient client;
  auto response = client.get("http://127.0.0.1:" +
                             std::to_string(admin_port) + "/admin/stats");
  if (!response.ok() || response.value().status != 200) return json::Value();
  auto doc = json::parse(response.value().body);
  return doc.ok() ? doc.value() : json::Value();
}

RunResult run_data_plane(const Shape& shape, const RunConfig& config) {
  RunResult result;
  util::Rng rng(util::derive_seed(config.seed, 1));
  const Population population(shape.sessions, shape.zipf_exponent,
                              util::derive_seed(config.seed, 2));
  std::string post_body(kPostBytes, 'x');
  for (char& c : post_body) c = static_cast<char>('a' + rng.uniform_int(0, 25));

  // Inputs: the open-loop arrival stream and each connection's
  // closed-loop stream, all from the seed.
  const double open_seconds = config.seconds * kOpenShare;
  const double closed_seconds = config.seconds - open_seconds;
  loadgen::ArrivalSchedule schedule(loadgen::ArrivalSchedule::Mode::kPoisson,
                                    shape.offered_rps,
                                    util::derive_seed(config.seed, 3));
  std::vector<Arrival> arrivals;
  for (const double at : schedule.arrivals_until(open_seconds)) {
    arrivals.push_back(Arrival{static_cast<std::int64_t>(at * 1e9),
                               population.draw(rng, shape)});
  }
  std::vector<std::vector<Draw>> closed(kConnections);
  for (auto& draws : closed) {
    draws.reserve(kClosedDraws);
    for (std::size_t i = 0; i < kClosedDraws; ++i) {
      draws.push_back(population.draw(rng, shape));
    }
  }

  // Set-up, repeated: start of backends, proxy (and engine) until the
  // first request through the proxy is answered. The last one is kept.
  pin_current_thread(config.cores.sut);
  std::vector<double> setup_seconds;
  std::unique_ptr<DataSut> sut;
  Tally setup_tally;
  std::vector<std::int8_t> pins(population.size(), -1);
  for (int attempt = 0; attempt < kSetupRepeats; ++attempt) {
    sut.reset();
    setup_tally = Tally{};
    const std::int64_t start = now_ns();
    sut = std::make_unique<DataSut>(shape, config);
    Connection first(sut->proxy().data_port());
    std::string request;
    build_request(request, false, 0, "", "", 0, 0);
    Reply reply;
    bool ok = false;
    for (int tries = 0; tries < 100 && !ok; ++tries) {
      ok = first.round_trip(request, reply) && reply.status == 200;
      if (!ok) std::this_thread::sleep_for(10ms);
    }
    setup_seconds.push_back(static_cast<double>(now_ns() - start) / 1e9);
    score(shape, Draw{}, ok, reply, pins, setup_tally);
  }
  pin_current_thread(config.cores.generator);

  std::vector<std::unique_ptr<Connection>> connections;
  for (std::size_t c = 0; c < kConnections; ++c) {
    connections.push_back(
        std::make_unique<Connection>(sut->proxy().data_port()));
  }

  // Warm-up: every returning session the streams use makes one request
  // first, so the proxy knows its pin (the stream's cookie-carrying
  // users are returning users; new users are the cookieless share).
  // Each session is warmed by exactly one connection.
  std::vector<std::int32_t> warm;
  {
    std::unordered_set<std::int32_t> seen;
    auto note = [&](const Draw& d) {
      if (d.session >= 0 && seen.insert(d.session).second) {
        warm.push_back(d.session);
      }
    };
    for (const Arrival& a : arrivals) note(a.draw);
    for (const auto& draws : closed) {
      for (const Draw& d : draws) note(d);
    }
  }
  const Tally warm_tally = run_generator(
      config, connections, [&](std::size_t c, Connection& conn, Tally& tally) {
        std::string request;
        Reply reply;
        for (std::size_t i = c; i < warm.size(); i += kConnections) {
          const std::int32_t session = warm[i];
          build_request(request, false, i, population.id(session), "", 0, 0);
          const bool ok = conn.round_trip(request, reply);
          ++tally.attempted;
          const int version = ok && reply.status == 200
                                  ? version_index(shape, reply)
                                  : -1;
          if (version < 0) {
            ++tally.failed;
            continue;
          }
          pins[static_cast<std::size_t>(session)] =
              static_cast<std::int8_t>(version);
          ++tally.served[static_cast<std::size_t>(version)];
        }
      });
  result.check(warm_tally.failed == 0,
               "warm-up pinned all " + std::to_string(warm.size()) +
                   " returning sessions");

  // Dark launch: the engine starts ramping now and keeps pushing a new
  // split every ~100 ms until after the measured window.
  EngineWatch watch;
  std::string strategy_id;
  const int ramp_states =
      static_cast<int>(std::ceil(config.seconds * 10.0)) + 5;
  if (shape.dark) {
    auto submitted = sut->engine().submit(
        ramp_strategy(shape, *sut, ramp_states,
                      util::derive_seed(config.seed, 4)),
        watch.listener());
    result.check(submitted.ok(), "ramp strategy accepted");
    if (submitted.ok()) strategy_id = submitted.value();
  }

  const std::uint64_t allocs_before = trace::allocations();
  trace::count_allocations(config.traced);

  // Open loop: connections claim arrivals in order and send each at its
  // scheduled time (late when all four are busy).
  std::atomic<std::size_t> next_arrival{0};
  const Usage open_process_before = Usage::process();
  const std::int64_t open_start = now_ns() + 20'000'000;
  Tally open = run_generator(
      config, connections, [&](std::size_t, Connection& conn, Tally& tally) {
        std::string request;
        Reply reply;
        tally.latency_us.reserve(arrivals.size() / kConnections + 1024);
        for (;;) {
          const std::size_t i = next_arrival.fetch_add(1);
          if (i >= arrivals.size()) break;
          const Arrival& arrival = arrivals[i];
          const std::int64_t due = open_start + arrival.offset_ns;
          sleep_until_ns(due);
          const std::int64_t sent = now_ns();
          build_request(request, arrival.draw.post, i,
                        arrival.draw.session >= 0
                            ? population.id(arrival.draw.session)
                            : std::string(),
                        arrival.draw.post ? post_body : std::string(),
                        config.traced ? sent : 0, i);
          const bool ok = conn.round_trip(request, reply);
          const std::int64_t received = now_ns();
          score(shape, arrival.draw, ok, reply, pins, tally);
          tally.latency_us.push_back(static_cast<double>(received - due) /
                                     1e3);
          tally.at_ns.push_back(due);
          tally.rtt_us.push_back(static_cast<double>(received - sent) / 1e3);
          tally.late_us.push_back(static_cast<double>(sent - due) / 1e3);
          tally.last_receipt_ns = std::max(tally.last_receipt_ns, received);
          if (config.traced) trace_request(i, due, sent, received, reply);
        }
      });
  const std::int64_t open_end = std::max(open.last_receipt_ns, open_start);
  const Usage open_sut_usage =
      (Usage::process() - open_process_before) - open.usage;

  // Closed loop: one request in flight per connection, back to back.
  const std::int64_t closed_start = now_ns();
  const std::int64_t closed_end =
      closed_start + static_cast<std::int64_t>(closed_seconds * 1e9);
  const Usage process_before = Usage::process();
  Tally saturated = run_generator(
      config, connections, [&](std::size_t c, Connection& conn, Tally& tally) {
        std::string request;
        Reply reply;
        const std::vector<Draw>& draws = closed[c];
        std::uint64_t n = 0;
        for (;;) {
          const std::int64_t sent = now_ns();
          if (sent >= closed_end) break;
          const Draw& draw = draws[n % draws.size()];
          const std::uint64_t index =
              arrivals.size() + c * (std::uint64_t{1} << 32) + n;
          ++n;
          build_request(
              request, draw.post, index,
              draw.session >= 0 ? population.id(draw.session) : std::string(),
              draw.post ? post_body : std::string(), config.traced ? sent : 0,
              index);
          const bool ok = conn.round_trip(request, reply);
          const std::int64_t received = now_ns();
          score(shape, draw, ok, reply, pins, tally);
          if (received <= closed_end && ok) {
            ++tally.completed_in_window;
            tally.at_ns.push_back(received);
          }
          if (config.traced) trace_request(index, sent, sent, received, reply);
        }
      });
  const Usage sut_usage =
      (Usage::process() - process_before) - saturated.usage;
  trace::count_allocations(false);
  const double allocs =
      static_cast<double>(trace::allocations() - allocs_before);

  // Dark launch: let the ramp finish, then let the shadow queue drain.
  bool strategy_ok = !shape.dark;
  double enact_delay_s = 0.0;
  json::Value stats;
  if (shape.dark) {
    const std::int64_t give_up = now_ns() + 20'000'000'000;
    bool finished = false;
    while (!finished && now_ns() < give_up) {
      finished = !watch.wait_finished(200).empty();
    }
    std::uint64_t last = sut->backend(2).received();
    for (int quiet = 0; quiet < 3;) {
      std::this_thread::sleep_for(100ms);
      const std::uint64_t now = sut->backend(2).received();
      quiet = now == last ? quiet + 1 : 0;
      last = now;
    }
    stats = admin_stats(sut->proxy().admin_port());
    sut->loop().stop();
    if (const auto snapshot = sut->engine().status(strategy_id)) {
      strategy_ok = snapshot->status == engine::ExecutionStatus::kSucceeded;
      enact_delay_s = snapshot->enactment_delay_seconds;
    }
    result.check(strategy_ok, "ramp strategy ended succeeded after " +
                                  std::to_string(watch.applies) + " pushes");
  }

  // --- Output checks ------------------------------------------------
  Tally measured = open;
  measured.merge(saturated);
  result.check(measured.flips == 0,
               "sticky sessions never changed version (" +
                   std::to_string(measured.flips) + " flips)");
  result.check(measured.wrong_version == 0,
               "every response came from a live version of the split");
  result.check(measured.missing_cookie == 0,
               "every cookieless request got a session cookie");
  // Share over sessions (each assignment is one fair draw); request
  // shares follow the Zipf weights of whichever sessions landed where.
  std::array<std::uint64_t, 2> assigned = measured.new_sessions;
  for (const std::int8_t pin : pins) {
    if (pin >= 0) ++assigned[static_cast<std::size_t>(pin)];
  }
  const double second_share =
      static_cast<double>(assigned[1]) /
      static_cast<double>(std::max<std::uint64_t>(1, assigned[0] + assigned[1]));
  if (!shape.dark) {
    result.check(std::abs(second_share - 0.5) <= 0.02,
                 "A/B session share " + fmt(second_share * 100.0, 2) +
                     "% for " + shape.live_versions[1] +
                     " is within 2 points of 50%");
  }
  result.attempted = measured.attempted + (shape.dark ? 1 : 0);
  result.failed = measured.failed + (strategy_ok ? 0 : 1);

  // --- End-to-end metrics ------------------------------------------
  const double open_wall = static_cast<double>(open_end - open_start) / 1e9;
  const double closed_wall = closed_seconds;
  const double sat_rps_whole =
      static_cast<double>(saturated.completed_in_window) / closed_wall;
  const double p50 = percentile(open.latency_us, 0.50);
  const double p99 = percentile(open.latency_us, 0.99);
  // Loopback timings on a shared VM carry stalls of several ms that hit
  // every in-flight request at once and do not come from the system
  // under test, so tails and throughput are medians over one-second
  // windows; the whole-run p99 and maximum are reported beside them.
  const std::int64_t open_window_end =
      open_start + static_cast<std::int64_t>(open_seconds * 1e9);
  const auto windowed = [&](double q) {
    return median(window_quantiles(open.at_ns, open.latency_us, open_start,
                                   open_window_end, 1'000'000'000, q));
  };
  const double p90_windowed = windowed(0.90);
  const double p99_windowed = windowed(0.99);
  const double rps_windowed = median(
      window_counts(saturated.at_ns, closed_start, closed_end, 1'000'000'000));
  const double setup_s = median(setup_seconds);
  // SUT CPU per live request at the fixed offered load: on a shared VM
  // this holds within ~5-10% while latency and closed-loop throughput
  // swing with host load (NOTES.md), so it is the gated cost figure.
  const double cpu_us_per_request =
      open_sut_usage.cpu_us /
      std::max(1.0, static_cast<double>(open.attempted));
  result.e2e("setup_s", setup_s, "s");
  result.e2e("cpu_us_per_op", cpu_us_per_request, "us");

  const double offered = static_cast<double>(arrivals.size()) / open_seconds;
  const double achieved =
      static_cast<double>(open.attempted) / std::max(open_wall, 1e-9);
  const double sut_cores = static_cast<double>(config.cores.sut.size());
  const double cpu_util = sut_usage.cpu_us / (closed_wall * 1e6 * sut_cores);
  const double gen_util =
      saturated.usage.cpu_us /
      (closed_wall * 1e6 * static_cast<double>(config.cores.generator.size()));
  const double requests =
      static_cast<double>(open.attempted + saturated.attempted);
  result.raw["mean_rtt_us"] = mean(open.rtt_us);
  result.raw["latency_p50_us"] = p50;
  result.raw["throughput_per_s"] = rps_windowed;

  result.note("load: open loop, Poisson, offered " + fmt(offered, 0) +
              " req/s for " + fmt(open_seconds, 1) + " s, then closed loop " +
              fmt(closed_seconds, 1) + " s; " +
              std::to_string(kConnections) +
              " connections x 1 in flight over loopback (127.0.0.1)");
  result.note("cores: generator " +
              CoreSplit::describe(config.cores.generator) + ", SUT " +
              CoreSplit::describe(config.cores.sut) +
              (config.cores.shared ? " (shared: one core allowed)" : ""));
  result.note("sessions: " + std::to_string(shape.sessions) +
              " ids, Zipf s=" + fmt(shape.zipf_exponent, 2) + ", " +
              std::to_string(warm.size()) + " warmed; cookieless " +
              fmt(shape.cookieless_share * 100.0, 0) + "%, POST 4 KiB " +
              fmt(shape.post_share * 100.0, 0) + "%");
  result.note("req_p50_us " + fmt(p50) + " us, req_p90_us " +
              fmt(p90_windowed) + " us, req_p99_us " + fmt(p99_windowed) +
              " us (tails: median of 1 s windows; whole run p99 " + fmt(p99) +
              " us, max " + fmt(percentile(open.latency_us, 1.0)) +
              " us; n=" + std::to_string(open.latency_us.size()) +
              ", timed from scheduled send)");
  result.note("sat_rps " + fmt(rps_windowed, 1) +
              " req/s (median of 1 s windows; whole phase " +
              fmt(sat_rps_whole, 1) + " req/s, " +
              std::to_string(saturated.completed_in_window) +
              " responses in " + fmt(closed_wall, 1) + " s), SUT cpu util " +
              fmt(cpu_util * 100.0, 1) + "% of " + fmt(sut_cores, 0) +
              " cores, generator cpu util " + fmt(gen_util * 100.0, 1) + "%");
  result.note("cpu_us_per_op " + fmt(cpu_us_per_request) +
              " us SUT CPU per live request in the open loop (" +
              fmt(open_sut_usage.ctxsw /
                      std::max(1.0, static_cast<double>(open.attempted)),
                  2) +
              " context switches per request)");
  result.note("gen: offered " + fmt(offered, 1) + " req/s, achieved " +
              fmt(achieved, 1) + " req/s, late p50 " +
              fmt(percentile(open.late_us, 0.5)) + " us, late p99 " +
              fmt(percentile(open.late_us, 0.99)) + " us");
  result.note("setup_s median of " + std::to_string(kSetupRepeats) + ": " +
              fmt(setup_s, 5) + " s");

  double delivered_ratio = 0.0;
  if (shape.dark) {
    const std::uint64_t eligible = setup_tally.served[0] +
                                   warm_tally.served[0] +
                                   measured.served[0];
    const std::uint64_t delivered = sut->backend(2).received();
    const std::uint64_t dispatched = sut->proxy().shadow_requests();
    const std::uint64_t copies = sut->proxy().shadow_copies();
    const std::uint64_t shed = sut->proxy().shadows_shed();
    const auto dropped = static_cast<std::uint64_t>(
        stats.is_object() ? stats.get_number("shadowQueueDropped", 0.0) : 0.0);
    delivered_ratio = static_cast<double>(delivered) /
                      static_cast<double>(std::max<std::uint64_t>(1, eligible));
    result.check(copies == dispatched,
                 "shadow copies (" + std::to_string(copies) +
                     ", net of charge-backs) equal dispatched duplicates (" +
                     std::to_string(dispatched) + ")");
    const std::uint64_t shed_near_limit = shed >= dropped ? shed - dropped : 0;
    result.check(dispatched + shed_near_limit == eligible,
                 "every stable-served request was duplicated or shed (" +
                     std::to_string(eligible) + " eligible)");
    result.check(delivered + dropped == dispatched,
                 "every dispatched duplicate reached the dark backend or was "
                 "dropped by the queue (" +
                     std::to_string(delivered) + " delivered, " +
                     std::to_string(dropped) + " dropped)");
    result.note("shadow_delivered_ratio " + fmt(delivered_ratio, 4) + " (" +
                std::to_string(delivered) + " of " + std::to_string(eligible) +
                " stable-served requests)");
    result.note("ramp: " + std::to_string(ramp_states) +
                " states x 100 ms, pushes " + std::to_string(watch.applies) +
                ", enact_delay_s " + fmt(enact_delay_s, 4) +
                ", push p50 " + fmt(percentile(watch.transition_ms, 0.5), 3) +
                " ms");
  }

  // --- Per-layer metrics (traced run) -------------------------------
  if (config.traced) {
    const double live_requests = requests;
    result.layer("proxy.cpu_us_per_req",
                 sut_usage.cpu_us /
                     std::max(1.0, static_cast<double>(saturated.attempted)),
                 "us");
    result.layer("proxy.ctxsw_per_req",
                 sut_usage.ctxsw /
                     std::max(1.0, static_cast<double>(saturated.attempted)),
                 "count");
    result.layer("proxy.cpu_util", cpu_util, "1");
    result.layer("proxy.allocs_per_req", allocs / std::max(1.0, live_requests),
                 "count");
    result.layer("gen.late_p99_us", percentile(open.late_us, 0.99), "us");
    result.layer("gen.offered_rps", offered, "1/s");
    result.layer("gen.achieved_rps", achieved, "1/s");

    if (!shape.dark) {
      // Direct path: the same generator straight to a backend.
      Connection direct(sut->backend(0).port());
      std::string request;
      Reply reply;
      std::vector<double> rtt;
      for (int i = 0; i < 4000; ++i) {
        build_request(request, false, static_cast<std::uint64_t>(i), "", "",
                      0, 0);
        const std::int64_t sent = now_ns();
        if (!direct.round_trip(request, reply)) continue;
        const std::int64_t received = now_ns();
        rtt.push_back(static_cast<double>(received - sent) / 1e3);
        trace::record(trace::Name::kDirect, 0, static_cast<std::uint64_t>(i),
                      sent, sent, received);
      }
      result.layer("http.direct_p50_us", percentile(rtt, 0.5), "us");

      // Routing decision and sticky table, replayed outside the proxy
      // over this run's request stream.
      const proxy::ProxyConfig config_ab = sut->proxy().current_config();
      proxy::SessionTable table(16, std::size_t{1} << 20);
      const std::int64_t assign_start = now_ns();
      for (std::size_t i = 0; i < population.size(); ++i) {
        table.assign(population.id(static_cast<std::int32_t>(i)),
                     shape.live_versions[i % 2]);
      }
      const double assign_ns =
          static_cast<double>(now_ns() - assign_start) /
          static_cast<double>(population.size());
      std::size_t hits = 0;
      const std::int64_t touch_start = now_ns();
      for (const Arrival& arrival : arrivals) {
        if (arrival.draw.session < 0) continue;
        hits += table.touch(population.id(arrival.draw.session)).has_value();
      }
      const double touch_ns = static_cast<double>(now_ns() - touch_start) /
                              static_cast<double>(std::max<std::size_t>(1, hits));
      http::Request decide_request;
      util::Rng decide_rng(util::derive_seed(config.seed, 5));
      std::size_t decided = 0;
      const std::optional<std::string> pinned_a = shape.live_versions[0];
      const std::optional<std::string> unknown;
      const std::int64_t decide_start = now_ns();
      for (const Arrival& arrival : arrivals) {
        decided += proxy::BifrostProxy::decide_backend(
            config_ab, decide_request,
            arrival.draw.session >= 0 ? pinned_a : unknown, decide_rng);
      }
      const double decide_ns = static_cast<double>(now_ns() - decide_start) /
                               static_cast<double>(std::max<std::size_t>(
                                   1, arrivals.size()));
      result.layer("proxy.decide_ns", decide_ns, "ns");
      result.layer("proxy.session_touch_ns", touch_ns, "ns");
      result.layer("proxy.session_assign_ns", assign_ns, "ns");
      result.note("replay: " + std::to_string(arrivals.size()) +
                  " decisions (index sum " + std::to_string(decided) +
                  "), " + std::to_string(hits) + " touches, " +
                  std::to_string(population.size()) + " assigns");
    }
  }

  result.e2e("peak_rss_mb", peak_rss_mb(), "MiB");
  sut->shutdown();

  if (config.traced) {
    const std::vector<trace::Span> spans = trace::collect();
    const auto in_open = [&](trace::Name name) {
      return span_durations_us(spans, name, open_start, open_end);
    };
    const std::vector<double> ingress = in_open(trace::Name::kIngress);
    const std::vector<double> handler = in_open(trace::Name::kHandler);
    const std::vector<double> egress = in_open(trace::Name::kEgress);
    result.layer("proxy.ingress_p50_us", percentile(ingress, 0.5), "us");
    result.layer("proxy.egress_p50_us", percentile(egress, 0.5), "us");
    result.layer("proxy.handler_p50_us", percentile(handler, 0.5), "us");
    const double parts = mean(ingress) + mean(handler) + mean(egress);
    result.raw["breakdown_mean_us"] = parts;
    result.note("traced breakdown (open loop, means): ingress " +
                fmt(mean(ingress)) + " us + backend handler " +
                fmt(mean(handler)) + " us + egress " + fmt(mean(egress)) +
                " us = " + fmt(parts) + " us vs request mean " +
                fmt(mean(open.rtt_us)) + " us from actual send");
    if (shape.dark) {
      std::vector<double> lag;
      for (const trace::Span& span : spans) {
        if (span.name == trace::Name::kShadowArrival) {
          lag.push_back(span.duration_us());
        }
      }
      result.layer("proxy.shadow_lag_p50_us", percentile(lag, 0.5), "us");
      result.layer("proxy.shadow_copies",
                   static_cast<double>(sut->proxy().shadow_copies()), "count");
      result.layer("proxy.shadows_shed",
                   static_cast<double>(sut->proxy().shadows_shed()), "count");
      result.layer("proxy.shadow_delivered_ratio", delivered_ratio, "1");
      result.layer("engine.enact_delay_s", enact_delay_s, "s");
      add_engine_layers(spans, {{open_start, closed_end}}, 0.0, result);
    }
    const std::string path = config.work_dir + "/spans-" + shape.name +
                             "-seed" + std::to_string(config.seed) + ".csv";
    trace::write_csv(path, spans);
    result.note("spans: " + std::to_string(spans.size()) + " written to " +
                path + " (" + std::to_string(trace::dropped()) + " dropped)");
  }
  return result;
}

}  // namespace

RunResult run_ab_sticky(const RunConfig& config) {
  const Shape shape{"ab-sticky", {"a", "b"}, false, 100000, 1.0, 0.05, 0.0,
                    kAbOfferedRps};
  return run_data_plane(shape, config);
}

RunResult run_darklaunch_ramp(const RunConfig& config) {
  const Shape shape{"darklaunch-ramp", {"stable", "canary"}, true, 2000, 1.0,
                    0.0, 0.3, kDarkOfferedRps};
  return run_data_plane(shape, config);
}

}  // namespace perfbench
