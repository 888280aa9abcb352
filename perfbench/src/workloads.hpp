// The benchmark's workloads and the engine-side bookkeeping the two
// engine-driving workloads share.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "engine/interfaces.hpp"
#include "trace.hpp"

namespace perfbench {

/// Fixed open-loop offered rates (req/s), about half of each workload's
/// closed-loop capacity on the 4-core reference box (see NOTES.md).
inline constexpr double kAbOfferedRps = 10000.0;
inline constexpr double kDarkOfferedRps = 9000.0;

/// Open-loop A/B traffic through a sticky cookie-mode proxy.
RunResult run_ab_sticky(const RunConfig& config);
/// Mixed GET/POST traffic with 100% shadowing of stable to a dark
/// backend while the engine ramps the split every ~100 ms.
RunResult run_darklaunch_ramp(const RunConfig& config);
/// Control plane only: concurrent long ramp strategies with fast checks.
RunResult run_check_storm(const RunConfig& config);

/// Engine status events the benchmark turns into metrics. The listener
/// runs on the scheduler thread; `transition_ms` and `applies` may be
/// read only after that thread has stopped.
class EngineWatch {
 public:
  [[nodiscard]] bifrost::engine::StatusListener listener();

  /// Blocks until a strategy finishes or `timeout_ms` passes; returns
  /// the ids that finished since the last call.
  std::vector<std::string> wait_finished(int timeout_ms);

  [[nodiscard]] std::uint64_t checks() const {
    return checks_.load(std::memory_order_relaxed);
  }

  /// kStateCompleted -> next kRoutingApplied of the same strategy, ms.
  std::vector<double> transition_ms;
  std::uint64_t applies = 0;

 private:
  std::map<std::string, double> completed_at_;
  std::atomic<std::uint64_t> checks_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::string> finished_;  // guarded by mutex_
};

/// Per-layer metrics of the engine's scheduler, executor, journal,
/// metrics client and proxy controller, from the decorator spans that
/// started inside one of the measured windows [start_ns, end_ns].
/// `checks` is the number of check evaluations completed in them.
void add_engine_layers(
    const std::vector<trace::Span>& spans,
    const std::vector<std::pair<std::int64_t, std::int64_t>>& windows,
    double checks, RunResult& result);

/// Durations (µs) of the spans called `name` that started in the window.
std::vector<double> span_durations_us(const std::vector<trace::Span>& spans,
                                      trace::Name name,
                                      std::int64_t window_start_ns,
                                      std::int64_t window_end_ns);

}  // namespace perfbench
