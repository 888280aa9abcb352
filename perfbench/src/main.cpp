// perfbench: runs one workload of the repository benchmark and prints
// its result.
//
//   perfbench --workload <ab-sticky|darklaunch-ramp|check-storm>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// With --trace 0 the run is untraced and reports end-to-end metrics.
// With --trace 1 the time is split: an untraced half, then a traced half
// whose decorators and stamps yield the per-layer metrics; the
// difference between the halves' end-to-end numbers is the tracing
// overhead. Lines above the last describe the load shape, the
// workload's own metric names and every output check; the last line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// Ends the process if a run hangs, so a stuck system under test fails
/// the run instead of outliving its time budget.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mutex_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "perfbench: run exceeded %llds, aborting\n",
                         static_cast<long long>(limit.count()));
            std::fflush(stderr);
            _exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it reads
};

void print_metrics(const std::vector<Metric>& metrics, const char* prefix) {
  for (const Metric& metric : metrics) {
    std::printf("%s%s %.6g %s\n", prefix, metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ab-sticky|darklaunch-ramp|"
               "check-storm --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig config;
  config.work_dir = ".bench_build/run";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.traced = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return usage();
    }
  }
  std::function<RunResult(const RunConfig&)> run;
  if (workload == "ab-sticky") {
    run = run_ab_sticky;
  } else if (workload == "darklaunch-ramp") {
    run = run_darklaunch_ramp;
  } else if (workload == "check-storm") {
    run = run_check_storm;
  } else {
    return usage();
  }
  if (config.seconds <= 0.0) return usage();
  std::filesystem::create_directories(config.work_dir);
  config.cores = CoreSplit::from_affinity();
  const Watchdog watchdog(std::chrono::seconds(170));

  std::printf("workload %s seed %llu seconds %.1f trace %d\n",
              workload.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, config.traced ? 1 : 0);
  RunResult result;
  if (!config.traced) {
    result = run(config);
    for (const std::string& line : result.report) std::printf("%s\n", line.c_str());
    print_metrics(result.end_to_end, "");
  } else {
    RunConfig half = config;
    half.seconds = config.seconds / 2.0;
    half.traced = false;
    RunResult plain = run(half);
    for (const std::string& line : plain.report) {
      std::printf("[untraced] %s\n", line.c_str());
    }
    print_metrics(plain.end_to_end, "[untraced] ");
    half.traced = true;
    result = run(half);
    for (const std::string& line : result.report) {
      std::printf("[traced] %s\n", line.c_str());
    }
    print_metrics(result.end_to_end, "[traced] ");
    const double base_p50 = plain.raw["latency_p50_us"];
    const double base_tput = plain.raw["throughput_per_s"];
    const double latency_overhead =
        base_p50 > 0 ? (result.raw["latency_p50_us"] - base_p50) / base_p50 : 0;
    const double throughput_overhead =
        base_tput > 0
            ? (base_tput - result.raw["throughput_per_s"]) / base_tput
            : 0;
    result.layer("trace.latency_overhead_pct", latency_overhead * 100.0, "%");
    result.layer("trace.throughput_overhead_pct", throughput_overhead * 100.0,
                 "%");
    std::printf("tracing overhead: latency_p50 %+.2f%%, throughput %+.2f%% "
                "(traced vs untraced half)\n",
                latency_overhead * 100.0, throughput_overhead * 100.0);
    if (plain.raw.count("mean_rtt_us") > 0) {
      // The traced breakdown must explain the untraced request time.
      const double coverage =
          result.raw["breakdown_mean_us"] / plain.raw["mean_rtt_us"];
      result.layer("proxy.breakdown_coverage", coverage, "1");
      std::printf("breakdown coverage: traced ingress+handler+egress means "
                  "%.2f us / untraced mean request %.2f us = %.3f "
                  "(within 10%%: %s)\n",
                  result.raw["breakdown_mean_us"], plain.raw["mean_rtt_us"],
                  coverage, std::abs(coverage - 1.0) <= 0.1 ? "yes" : "no");
    }
    result.attempted += plain.attempted;
    result.failed += plain.failed;
    result.failures.insert(result.failures.end(), plain.failures.begin(),
                           plain.failures.end());
  }

  const bool correct = result.failures.empty() && result.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  const std::vector<Metric>& metrics =
      config.traced ? result.layers : result.end_to_end;
  bool first = true;
  for (const Metric& metric : correct ? metrics : std::vector<Metric>{}) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", json_escape(metric.name).c_str(),
                metric.value, json_escape(metric.unit).c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }
  return correct ? 0 : 1;
}
