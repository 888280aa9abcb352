// check-storm: the control plane alone. Up to eight strategies run at
// once, one service and one proxy each (proxies deduplicate config
// epochs per proxy, so services cannot share one). Each is a long ramp
// whose states run two checks at a 1 ms interval, far more checks than
// the engine can evaluate, so wall time is bound by its capacity. Checks
// are answered by a real metrics::MetricsServer over HTTP, routing is
// pushed to real proxies over HTTP, and every record is fsynced to a
// FileJournal on the checkout's disk. The run repeats epochs of the
// same work (a fresh SUT, eight strategies submitted at once and run to
// the end, as in the paper's Figures 7-10) until --seconds have passed,
// and reports medians over them.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <unordered_map>

#include "engine/engine.hpp"
#include "engine/http_clients.hpp"
#include "engine/journal.hpp"
#include "metrics/query.hpp"
#include "metrics/server.hpp"
#include "proxy/proxy.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/work_stealing_pool.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace bifrost;
using namespace std::chrono_literals;

// --- Engine bookkeeping shared with darklaunch-ramp ----------------------

engine::StatusListener EngineWatch::listener() {
  return [this](const engine::StatusEvent& event) {
    using Type = engine::StatusEvent::Type;
    switch (event.type) {
      case Type::kCheckExecuted:
        checks_.fetch_add(1, std::memory_order_relaxed);
        break;
      case Type::kStateCompleted:
        completed_at_[event.strategy_id] = event.time_seconds;
        break;
      case Type::kRoutingApplied: {
        ++applies;
        const auto it = completed_at_.find(event.strategy_id);
        if (it != completed_at_.end()) {
          transition_ms.push_back((event.time_seconds - it->second) * 1e3);
          completed_at_.erase(it);
        }
        break;
      }
      case Type::kFinished:
      case Type::kAborted: {
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          finished_.push_back(event.strategy_id);
        }
        cv_.notify_all();
        break;
      }
      default:
        break;
    }
  };
}

std::vector<std::string> EngineWatch::wait_finished(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
               [this] { return !finished_.empty(); });
  std::vector<std::string> out;
  out.swap(finished_);
  return out;
}

std::vector<double> span_durations_us(const std::vector<trace::Span>& spans,
                                      trace::Name name,
                                      std::int64_t window_start_ns,
                                      std::int64_t window_end_ns) {
  std::vector<double> out;
  for (const trace::Span& span : spans) {
    if (span.name == name && span.start_ns >= window_start_ns &&
        span.start_ns <= window_end_ns) {
      out.push_back(span.duration_us());
    }
  }
  return out;
}

void add_engine_layers(
    const std::vector<trace::Span>& spans,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& windows,
    double checks, RunResult& result) {
  const auto in_windows = [&](std::int64_t at) {
    for (const auto& [start, end] : windows) {
      if (at >= start && at <= end) return true;
    }
    return false;
  };
  double window_us = 0.0;
  for (const auto& [start, end] : windows) {
    window_us += static_cast<double>(end - start) / 1e3;
  }
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  std::vector<double> pool_wait, job, loop_late, marshal_wait, marshal_self,
      journal, query, apply;
  double loop_busy_us = 0.0;
  double journal_us = 0.0;
  for (const trace::Span& span : spans) {
    if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  for (const trace::Span& span : spans) {
    if (!in_windows(span.start_ns)) continue;
    switch (span.name) {
      case trace::Name::kPoolJob:
        pool_wait.push_back(span.wait_us());
        job.push_back(span.duration_us());
        break;
      case trace::Name::kLoopTask:
        loop_busy_us += span.duration_us();
        loop_late.push_back(span.wait_us() / 1e3);
        break;
      case trace::Name::kMarshalTask: {
        loop_busy_us += span.duration_us();
        marshal_wait.push_back(span.wait_us());
        const auto it = child_ns.find(span.id);
        const double children =
            it == child_ns.end() ? 0.0 : static_cast<double>(it->second) / 1e3;
        marshal_self.push_back(span.duration_us() - children);
        break;
      }
      case trace::Name::kJournalAppend:
        journal.push_back(span.duration_us());
        journal_us += span.duration_us();
        break;
      case trace::Name::kMetricsQuery:
        query.push_back(span.duration_us());
        break;
      case trace::Name::kProxyApply:
        apply.push_back(span.duration_us() / 1e3);
        break;
      default:
        break;
    }
  }
  result.layer("metrics.query_p50_us", percentile(query, 0.5), "us");
  result.layer("metrics.query_p99_us", percentile(query, 0.99), "us");
  result.layer("runtime.pool_wait_p50_us", percentile(pool_wait, 0.5), "us");
  result.layer("runtime.check_job_p50_us", percentile(job, 0.5), "us");
  result.layer("runtime.loop_busy_ratio", loop_busy_us / window_us, "1");
  result.layer("runtime.loop_late_p99_ms", percentile(loop_late, 0.99), "ms");
  result.layer("engine.marshal_wait_p50_us", percentile(marshal_wait, 0.5),
               "us");
  result.layer("engine.marshal_self_p50_us", percentile(marshal_self, 0.5),
               "us");
  result.layer("engine.journal_append_p50_us", percentile(journal, 0.5), "us");
  result.layer("engine.journal_append_p99_us", percentile(journal, 0.99),
               "us");
  result.layer("engine.journal_loop_share",
               loop_busy_us > 0.0 ? journal_us / loop_busy_us : 0.0, "1");
  result.layer("engine.journal_records_per_check",
               checks > 0.0 ? static_cast<double>(journal.size()) / checks
                            : 0.0,
               "count");
  result.layer("proxy.apply_p50_ms", percentile(apply, 0.5), "ms");
  result.layer("proxy.apply_p99_ms", percentile(apply, 0.99), "ms");
  result.note("traced engine window: " + std::to_string(job.size()) +
              " pool jobs, " + std::to_string(marshal_wait.size()) +
              " marshalled results, " + std::to_string(journal.size()) +
              " journal appends, " + std::to_string(apply.size()) +
              " proxy applies; loop busy " +
              fmt(loop_busy_us / window_us * 100.0, 1) + "%, journal " +
              fmt(loop_busy_us > 0 ? journal_us / loop_busy_us * 100.0 : 0.0,
                  1) +
              "% of loop time");
}

// --- The workload ---------------------------------------------------------

namespace {

constexpr std::size_t kSlots = 8;
constexpr std::size_t kPoolWorkers = 2;
constexpr int kStates = 60;
constexpr int kExecutions = 3;

/// Each slot's metrics: an error counter and a latency gauge, one
/// sample per second over the last minute.
void fill_store(metrics::TimeSeriesStore& store, std::uint64_t seed) {
  util::Rng rng(seed);
  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    const metrics::Labels labels{{"service", "svc-" + std::to_string(slot)}};
    for (int t = 1; t <= 60; ++t) {
      store.record("request_errors", labels, t,
                   static_cast<double>(rng.uniform_int(0, 2)));
      store.record("response_time_ms", labels, t, 50.0 + 100.0 * rng.uniform());
    }
  }
}

std::string errors_query(std::size_t slot) {
  return "request_errors{service=\"svc-" + std::to_string(slot) + "\"}";
}
std::string latency_query(std::size_t slot) {
  return "avg(response_time_ms{service=\"svc-" + std::to_string(slot) +
         "\"}[60s])";
}

core::CheckDef fast_check(const std::string& name, const std::string& query,
                          const char* validator, int executions) {
  core::CheckDef check;
  check.name = name;
  core::MetricCondition condition;
  condition.provider = "prom";
  condition.alias = name;
  condition.query = query;
  condition.validator = core::Validator::parse(validator).value();
  condition.fail_on_no_data = true;
  check.conditions.push_back(condition);
  check.interval = 1ms;
  check.executions = executions;
  check.thresholds = {executions - 0.5};
  check.outputs = {0, 1};
  return check;
}

core::ServiceRouting split(const std::string& service, double canary) {
  core::ServiceRouting routing;
  routing.service = service;
  routing.splits = {core::VersionSplit{"stable", 100.0 - canary, "", ""},
                    core::VersionSplit{"canary", canary, "", ""}};
  if (canary >= 100.0) routing.splits = {routing.splits[1]};
  if (canary <= 0.0) routing.splits = {routing.splits[0]};
  return routing;
}

/// A generated ramp of kStates states; each state runs two checks of
/// kExecutions executions at 1 ms and moves the canary share up by a
/// seeded step. Failing checks would lead to the rollback state. The
/// shape is fixed so every epoch is the same amount of work.
core::StrategyDef storm_strategy(const core::ServiceDef& service,
                                 std::size_t slot, std::uint16_t provider_port,
                                 util::Rng& rng) {
  const int states = kStates;
  const int executions = kExecutions;
  const double first = static_cast<double>(rng.uniform_int(1, 10));
  core::StrategyDef def;
  def.name = "storm-" + service.name;
  def.services.push_back(service);
  def.providers["prom"] = core::ProviderConfig{"127.0.0.1", provider_port};
  def.initial_state = "ramp-0";
  for (int k = 0; k < states; ++k) {
    core::StateDef state;
    state.name = "ramp-" + std::to_string(k);
    state.checks.push_back(
        fast_check("errors", errors_query(slot), "<5", executions));
    state.checks.push_back(
        fast_check("latency", latency_query(slot), "<250", executions));
    state.thresholds = {1.5};
    state.transitions = {"rollback", k + 1 < states
                                         ? "ramp-" + std::to_string(k + 1)
                                         : std::string("done")};
    state.routing.push_back(split(
        service.name,
        first + (99.0 - first) * k / static_cast<double>(states)));
    def.states.push_back(state);
  }
  core::StateDef done;
  done.name = "done";
  done.final_kind = core::FinalKind::kSuccess;
  done.routing.push_back(split(service.name, 100.0));
  def.states.push_back(done);
  core::StateDef rollback;
  rollback.name = "rollback";
  rollback.final_kind = core::FinalKind::kRollback;
  rollback.routing.push_back(split(service.name, 0.0));
  def.states.push_back(rollback);
  return def;
}

/// Metrics provider, eight proxies, the engine on an EventLoop with a
/// two-worker WorkStealingPool and a fsync-per-record FileJournal.
class StormSut {
 public:
  StormSut(const RunConfig& config, const std::string& journal_path) {
    fill_store(store_, config.seed);
    provider_ = std::make_unique<metrics::MetricsServer>(store_);
    provider_->start();
    for (std::size_t slot = 0; slot < kSlots; ++slot) {
      core::ServiceDef service;
      service.name = "svc-" + std::to_string(slot);
      // No data traffic in this workload: the versions' endpoints are
      // never contacted.
      service.versions = {core::VersionDef{"stable", "127.0.0.1", 9},
                          core::VersionDef{"canary", "127.0.0.1", 9}};
      proxy::BifrostProxy::Options options;
      options.worker_threads = 2;
      options.shadow_threads = 1;
      auto proxy = std::make_unique<proxy::BifrostProxy>(
          options, engine::passthrough_config(service, "stable"));
      proxy->start();
      service.proxy_admin_host = "127.0.0.1";
      service.proxy_admin_port = proxy->admin_port();
      services.push_back(service);
      proxies_.push_back(std::move(proxy));
    }
    loop_ = std::make_unique<runtime::EventLoop>();
    loop_->start();
    pool_ = std::make_unique<runtime::WorkStealingPool>(kPoolWorkers);
    std::filesystem::remove(journal_path);
    engine::FileJournal::Options journal_options;
    journal_options.sync_every = 1;
    auto journal = engine::FileJournal::open(journal_path, journal_options);
    if (!journal.ok()) {
      throw std::runtime_error("journal: " + journal.error_message());
    }
    journal_ = std::move(journal).value();

    runtime::Scheduler* scheduler = loop_.get();
    runtime::Executor* executor = pool_.get();
    engine::MetricsClient* metrics_client = &metrics_client_;
    engine::ProxyController* controller = &proxy_controller_;
    engine::Journal* journal_sink = journal_.get();
    if (config.traced) {
      traced_loop_ = std::make_unique<trace::TracingScheduler>(*loop_);
      traced_pool_ = std::make_unique<trace::TracingExecutor>(*pool_);
      traced_metrics_ =
          std::make_unique<trace::TracingMetricsClient>(metrics_client_);
      traced_controller_ =
          std::make_unique<trace::TracingProxyController>(proxy_controller_);
      traced_journal_ = std::make_unique<trace::TracingJournal>(*journal_);
      scheduler = traced_loop_.get();
      executor = traced_pool_.get();
      metrics_client = traced_metrics_.get();
      controller = traced_controller_.get();
      journal_sink = traced_journal_.get();
    }
    engine::Engine::Options options;
    options.journal = journal_sink;
    options.check_executor = executor;
    engine_ = std::make_unique<engine::Engine>(*scheduler, *metrics_client,
                                               *controller, options);
  }

  ~StormSut() {
    stop_engine();
    engine_.reset();
    for (auto& proxy : proxies_) proxy->stop();
    provider_->stop();
  }
  StormSut(const StormSut&) = delete;
  StormSut& operator=(const StormSut&) = delete;

  /// Stops the loop (no further tasks or check submissions), then drains
  /// the pool; the engine's bookkeeping stays readable.
  void stop_engine() {
    loop_->stop();
    pool_->shutdown();
  }

  [[nodiscard]] engine::Engine& engine() { return *engine_; }
  [[nodiscard]] const engine::FileJournal& journal() const { return *journal_; }
  [[nodiscard]] std::uint16_t provider_port() const {
    return provider_->port();
  }
  [[nodiscard]] std::uint64_t steals() const { return pool_->steals(); }
  [[nodiscard]] const metrics::TimeSeriesStore& store() const {
    return store_;
  }

  std::vector<core::ServiceDef> services;

 private:
  metrics::TimeSeriesStore store_;
  std::unique_ptr<metrics::MetricsServer> provider_;
  std::vector<std::unique_ptr<proxy::BifrostProxy>> proxies_;
  std::unique_ptr<runtime::EventLoop> loop_;
  std::unique_ptr<runtime::WorkStealingPool> pool_;
  std::unique_ptr<engine::FileJournal> journal_;
  engine::HttpMetricsClient metrics_client_;
  engine::HttpProxyController proxy_controller_;
  std::unique_ptr<trace::TracingScheduler> traced_loop_;
  std::unique_ptr<trace::TracingExecutor> traced_pool_;
  std::unique_ptr<trace::TracingMetricsClient> traced_metrics_;
  std::unique_ptr<trace::TracingProxyController> traced_controller_;
  std::unique_ptr<trace::TracingJournal> traced_journal_;
  std::unique_ptr<engine::Engine> engine_;
};

}  // namespace

RunResult run_check_storm(const RunConfig& config) {
  RunResult result;
  util::Rng rng(util::derive_seed(config.seed, 7));
  const std::string journal_prefix =
      config.work_dir + "/storm-" + std::to_string(::getpid()) + "-";
  const std::int64_t run_end =
      now_ns() + static_cast<std::int64_t>(config.seconds * 1e9);

  struct Epoch {
    std::string journal_path;
    std::uint64_t records_written = 0;
    double checks = 0.0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  std::vector<Epoch> epochs;
  std::vector<double> setup_seconds, transition_ms, delays, epoch_rates;
  std::vector<trace::Span> spans;
  Usage window_usage;
  double first_epoch_rss = 0.0;
  std::size_t strategies = 0;
  std::size_t succeeded = 0;
  std::size_t rejected = 0;
  std::uint64_t steals = 0;

  // Epochs until --seconds have passed: start the SUT (set-up ends when
  // the first strategy is accepted), run kSlots strategies to the end,
  // stop everything. A fresh engine per epoch keeps every epoch the
  // same amount of work.
  do {
    Epoch epoch;
    epoch.journal_path =
        journal_prefix + std::to_string(epochs.size()) + ".wal";
    pin_current_thread(config.cores.sut);
    EngineWatch watch;
    const std::int64_t start = now_ns();
    auto sut = std::make_unique<StormSut>(config, epoch.journal_path);
    pin_current_thread(config.cores.generator);
    std::vector<std::string> ids;
    const Usage before = Usage::process();
    for (std::size_t slot = 0; slot < kSlots; ++slot) {
      auto submitted = sut->engine().submit(
          storm_strategy(sut->services[slot], slot, sut->provider_port(), rng),
          watch.listener());
      if (slot == 0) {
        epoch.start_ns = now_ns();
        setup_seconds.push_back(static_cast<double>(epoch.start_ns - start) /
                                1e9);
      }
      if (submitted.ok()) {
        ids.push_back(submitted.value());
      } else {
        ++rejected;
      }
    }
    std::size_t running = ids.size();
    const std::int64_t give_up = now_ns() + 60'000'000'000;
    epoch.end_ns = epoch.start_ns;
    while (running > 0 && now_ns() < give_up) {
      for (std::size_t n = watch.wait_finished(100).size(); n > 0; --n) {
        epoch.end_ns = now_ns();
        --running;
      }
    }
    epoch.checks = static_cast<double>(watch.checks());
    window_usage += Usage::process() - before;
    // Later epochs inherit allocator arenas grown by earlier ones; the
    // first epoch's high-water mark is the SUT's own.
    if (epochs.empty()) first_epoch_rss = peak_rss_mb();
    sut->stop_engine();
    for (const std::string& id : ids) {
      const auto snapshot = sut->engine().status(id);
      if (snapshot &&
          snapshot->status == engine::ExecutionStatus::kSucceeded) {
        ++succeeded;
        delays.push_back(snapshot->enactment_delay_seconds);
      }
    }
    strategies += ids.size();
    epoch.records_written = sut->journal().records_written();
    steals += sut->steals();
    transition_ms.insert(transition_ms.end(), watch.transition_ms.begin(),
                         watch.transition_ms.end());
    epoch_rates.push_back(
        epoch.checks /
        (static_cast<double>(epoch.end_ns - epoch.start_ns) / 1e9));
    sut.reset();
    if (config.traced) {
      std::vector<trace::Span> epoch_spans = trace::collect();
      spans.insert(spans.end(), epoch_spans.begin(), epoch_spans.end());
    }
    epochs.push_back(epoch);
  } while (now_ns() < run_end);

  // --- Output checks -------------------------------------------------
  bool journals_ok = true;
  std::uint64_t records = 0;
  for (const Epoch& epoch : epochs) {
    const auto read = engine::read_journal_file(epoch.journal_path);
    journals_ok = journals_ok && read.ok() && !read.value().truncated_tail &&
                  read.value().records.size() == epoch.records_written;
    records += epoch.records_written;
    std::filesystem::remove(epoch.journal_path);
  }
  result.check(rejected == 0, "every strategy submit was accepted");
  result.check(succeeded == strategies,
               std::to_string(succeeded) + " of " + std::to_string(strategies) +
                   " check-storm strategies ended succeeded");
  result.check(journals_ok, "each epoch's journal holds all written records "
                            "with no truncated tail (" +
                                std::to_string(records) + " records)");
  result.check(transition_ms.size() >= 1000,
               std::to_string(transition_ms.size()) +
                   " transitions recorded (at least 1000)");
  result.attempted = strategies + rejected;
  result.failed = strategies + rejected - succeeded;

  // --- End-to-end metrics --------------------------------------------
  double checks = 0.0;
  double busy_s = 0.0;
  for (const Epoch& epoch : epochs) {
    checks += epoch.checks;
    busy_s += static_cast<double>(epoch.end_ns - epoch.start_ns) / 1e9;
  }
  const double checks_per_s = median(epoch_rates);
  const double transition_p50 = percentile(transition_ms, 0.5);
  const double transition_p90 = percentile(transition_ms, 0.90);
  const double transition_p99 = percentile(transition_ms, 0.99);
  const double enact_delay = median(delays);
  const double setup_s = median(setup_seconds);
  const double cpu_us_per_check = window_usage.cpu_us / std::max(1.0, checks);
  result.e2e("setup_s", setup_s, "s");
  result.e2e("cpu_us_per_op", cpu_us_per_check, "us");
  result.e2e("peak_rss_mb", first_epoch_rss, "MiB");
  result.raw["latency_p50_us"] = transition_p50 * 1e3;
  result.raw["throughput_per_s"] = checks_per_s;

  result.note("load: " + std::to_string(epochs.size()) + " epochs of " +
              std::to_string(kSlots) +
              " concurrent ramp strategies (one service + proxy each), 2 "
              "checks per state at 1 ms, " +
              std::to_string(kPoolWorkers) +
              " pool workers, FileJournal sync_every=1, no data traffic");
  result.note("cores: SUT " + CoreSplit::describe(config.cores.sut) +
              ", main thread " +
              CoreSplit::describe(config.cores.generator));
  result.note("checks_per_s " + fmt(checks_per_s, 1) +
              " 1/s (median over epochs; " + fmt(checks, 0) + " checks in " +
              fmt(busy_s, 2) + " s, " + std::to_string(strategies) +
              " strategies)");
  result.note("enact_delay_s " + fmt(enact_delay, 4) +
              " s (median over strategies, actual - specified)");
  result.note("transition_p50_ms " + fmt(transition_p50, 3) +
              " ms, transition_p90_ms " + fmt(transition_p90, 3) +
              " ms, transition_p99_ms " + fmt(transition_p99, 3) + " ms (n=" +
              std::to_string(transition_ms.size()) + ")");
  result.note("cpu_us_per_op " + fmt(cpu_us_per_check) +
              " us process CPU per check evaluation inside the epochs; "
              "peak_rss_mb " + fmt(first_epoch_rss) + " MiB after the first "
              "epoch");
  result.note("setup_s median of " + std::to_string(setup_seconds.size()) +
              ": " + fmt(setup_s, 5) + " s");

  if (config.traced) {
    std::vector<std::pair<std::int64_t, std::int64_t>> windows;
    for (const Epoch& epoch : epochs) {
      windows.emplace_back(epoch.start_ns, epoch.end_ns);
    }
    add_engine_layers(spans, windows, checks, result);
    result.layer("runtime.steals", static_cast<double>(steals), "count");
    result.layer("engine.checks_per_s", checks_per_s, "1/s");
    result.layer("engine.enact_delay_s", enact_delay, "s");
    result.layer("engine.transition_p50_ms", transition_p50, "ms");
    result.layer("engine.transition_p99_ms", transition_p99, "ms");

    // The provider's query evaluation alone, on a copy of its store.
    metrics::TimeSeriesStore copy;
    fill_store(copy, config.seed);
    constexpr int kEvaluations = 2000;
    double sink = 0.0;
    const std::int64_t eval_start = now_ns();
    for (int i = 0; i < kEvaluations; ++i) {
      const std::size_t slot = static_cast<std::size_t>(i) % kSlots;
      const std::string text =
          i % 2 == 0 ? errors_query(slot) : latency_query(slot);
      const auto value = metrics::evaluate(copy, text, 60.0);
      if (value.ok()) sink += value.value().value;
    }
    result.layer("metrics.eval_us",
                 static_cast<double>(now_ns() - eval_start) / 1e3 /
                     kEvaluations,
                 "us");
    const std::string path = config.work_dir + "/spans-check-storm-seed" +
                             std::to_string(config.seed) + ".csv";
    trace::write_csv(path, spans);
    result.note("spans: " + std::to_string(spans.size()) + " written to " +
                path + " (" + std::to_string(trace::dropped()) +
                " dropped); eval checksum " + fmt(sink, 1));
  }
  return result;
}

}  // namespace perfbench
