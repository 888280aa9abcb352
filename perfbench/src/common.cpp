#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

std::vector<double> window_quantiles(const std::vector<std::int64_t>& at_ns,
                                     const std::vector<double>& values,
                                     std::int64_t start_ns,
                                     std::int64_t end_ns,
                                     std::int64_t width_ns, double q) {
  const std::size_t windows =
      end_ns > start_ns ? static_cast<std::size_t>((end_ns - start_ns) / width_ns)
                        : 0;
  std::vector<std::vector<double>> buckets(windows);
  for (std::size_t i = 0; i < at_ns.size() && i < values.size(); ++i) {
    if (at_ns[i] < start_ns) continue;
    const auto w = static_cast<std::size_t>((at_ns[i] - start_ns) / width_ns);
    if (w < windows) buckets[w].push_back(values[i]);
  }
  std::vector<double> out;
  for (auto& bucket : buckets) out.push_back(percentile(std::move(bucket), q));
  return out;
}

std::vector<double> window_counts(const std::vector<std::int64_t>& at_ns,
                                  std::int64_t start_ns, std::int64_t end_ns,
                                  std::int64_t width_ns) {
  const std::size_t windows =
      end_ns > start_ns ? static_cast<std::size_t>((end_ns - start_ns) / width_ns)
                        : 0;
  std::vector<double> counts(windows, 0.0);
  for (const std::int64_t at : at_ns) {
    if (at < start_ns) continue;
    const auto w = static_cast<std::size_t>((at - start_ns) / width_ns);
    if (w < windows) counts[w] += 1.0;
  }
  return counts;
}

CoreSplit CoreSplit::from_affinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> allowed;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
    }
  }
  CoreSplit split;
  if (allowed.size() < 2) {
    split.generator = allowed;
    split.sut = allowed;
    split.shared = true;
    return split;
  }
  // The generator takes the last quarter (at least one core): the first
  // cores usually take more device interrupts.
  const std::size_t gen = std::max<std::size_t>(1, allowed.size() / 4);
  const auto boundary = allowed.end() - static_cast<std::ptrdiff_t>(gen);
  split.sut.assign(allowed.begin(), boundary);
  split.generator.assign(boundary, allowed.end());
  return split;
}

std::string CoreSplit::describe(const std::vector<int>& cores) {
  std::string out;
  for (const int core : cores) {
    if (!out.empty()) out += ",";
    out += std::to_string(core);
  }
  return out.empty() ? "unpinned" : out;
}

void pin_current_thread(const std::vector<int>& cores) {
  if (cores.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int core : cores) CPU_SET(core, &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

namespace {

Usage from_rusage(const rusage& ru) {
  Usage usage;
  usage.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                     1e6 +
                 static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  usage.ctxsw = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return usage;
}

}  // namespace

Usage Usage::process() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return from_rusage(ru);
}

Usage Usage::thread() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return from_rusage(ru);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void RunResult::check(bool ok, const std::string& what) {
  report.push_back(std::string(ok ? "check ok:     " : "check FAILED: ") +
                   what);
  if (!ok) failures.push_back(what);
}

std::string fmt(double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", precision, value);
  return buffer;
}

}  // namespace perfbench
