// Shared plumbing of the perfbench binary: clocks, sample statistics,
// CPU pinning, resource usage and the result record every workload
// fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds; the same clock stamps every thread of the
/// process, so stamps taken on the generator and in a backend handler
/// subtract directly.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Percentile (q in [0,1]) by nearest rank over a copy of `values`; 0
/// for an empty set.
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
double median(std::vector<double> values);

/// Cuts [start_ns, end_ns) into windows of `width_ns` and returns the
/// q-quantile of the values stamped inside each full window.
std::vector<double> window_quantiles(const std::vector<std::int64_t>& at_ns,
                                     const std::vector<double>& values,
                                     std::int64_t start_ns,
                                     std::int64_t end_ns,
                                     std::int64_t width_ns, double q);
/// Number of stamps inside each full window of [start_ns, end_ns).
std::vector<double> window_counts(const std::vector<std::int64_t>& at_ns,
                                  std::int64_t start_ns, std::int64_t end_ns,
                                  std::int64_t width_ns);

/// Disjoint core sets for the load generator and the system under test.
/// With one allowed core both sets are that core and `shared` is true.
struct CoreSplit {
  std::vector<int> generator;
  std::vector<int> sut;
  bool shared = false;

  /// Splits the process's allowed CPUs: the last quarter (at least
  /// one) drives load, the rest run the SUT.
  static CoreSplit from_affinity();
  [[nodiscard]] static std::string describe(const std::vector<int>& cores);
};

/// Pins the calling thread; threads it creates later inherit the mask.
void pin_current_thread(const std::vector<int>& cores);

/// CPU time and context switches, of the whole process or one thread.
struct Usage {
  double cpu_us = 0.0;
  double ctxsw = 0.0;

  static Usage process();
  static Usage thread();
  Usage operator-(const Usage& other) const {
    return {cpu_us - other.cpu_us, ctxsw - other.ctxsw};
  }
  Usage& operator+=(const Usage& other) {
    cpu_us += other.cpu_us;
    ctxsw += other.ctxsw;
    return *this;
  }
};

/// Peak resident set of the process, MiB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `failures` lists output checks that
/// did not hold; a run with any is not correct.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  /// Human-readable lines printed above the result (load shape, the
  /// workload's own metric names, check outcomes).
  std::vector<std::string> report;
  /// Values the traced invocation compares across its two halves.
  std::map<std::string, double> raw;

  void check(bool ok, const std::string& what);
  void note(const std::string& line) { report.push_back(line); }
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
  }
};

/// Settings shared by every workload.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Work directory inside the checkout (journal files, span dumps).
  std::string work_dir;
  CoreSplit cores;
};

/// Number formatting for report lines.
std::string fmt(double value, int precision = 2);

}  // namespace perfbench
