// Outside-in tracing for the traced benchmark run. Nothing here reaches
// into Bifrost's internals: spans are recorded around calls into each
// module's public interfaces (runtime::Scheduler, runtime::Executor,
// engine::MetricsClient, engine::ProxyController, engine::Journal) by
// decorators that wrap the real implementations, and around the
// benchmark's own client and backend handlers. Spans stay in per-thread
// memory and are collected when the run ends.
//
// The binary also replaces global operator new with a counting version
// so allocations per request can be measured from outside; counting is
// off unless a traced window turns it on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/interfaces.hpp"
#include "engine/journal.hpp"
#include "runtime/executor.hpp"
#include "runtime/scheduler.hpp"

namespace perfbench::trace {

enum class Name : std::uint16_t {
  kRequest,        ///< generator: scheduled send -> response received
  kIngress,        ///< send stamp -> backend handler start
  kHandler,        ///< backend handler start -> exit
  kEgress,         ///< backend handler exit -> response received
  kDirect,         ///< generator -> backend, no proxy in between
  kShadowArrival,  ///< live send stamp -> dark backend handler
  kLoopTask,       ///< scheduler task (timer or post from the loop itself)
  kMarshalTask,    ///< scheduler task posted by a pool job (result marshal)
  kPoolJob,        ///< executor job: submit -> start -> end
  kMetricsQuery,   ///< MetricsClient::query
  kProxyApply,     ///< ProxyController::apply
  kJournalAppend,  ///< Journal::append
};

[[nodiscard]] const char* name_of(Name name);

/// One timed interval. `queued_ns` is when the work was asked for (the
/// due time of a timer, the submit time of a pool job, the scheduled
/// send of a request); it equals start_ns where there is no queue.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t key = 0;     ///< request index or strategy slot
  std::int64_t queued_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  Name name = Name::kRequest;

  [[nodiscard]] double duration_us() const {
    return static_cast<double>(end_ns - start_ns) / 1e3;
  }
  [[nodiscard]] double wait_us() const {
    return static_cast<double>(start_ns - queued_ns) / 1e3;
  }
};

/// Records a finished span into the calling thread's buffer; returns
/// its id (0 when the buffer is full and the span was dropped).
std::uint64_t record(Name name, std::uint64_t parent, std::uint64_t key,
                     std::int64_t queued_ns, std::int64_t start_ns,
                     std::int64_t end_ns);

/// Times its own lifetime as one span and makes it the thread's
/// current span meanwhile.
class Scope {
 public:
  Scope(Name name, std::uint64_t key, std::int64_t queued_ns,
        std::uint64_t parent);
  Scope(Name name, std::uint64_t key);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Name name_;
  std::uint64_t key_;
  std::uint64_t parent_;
  std::uint64_t previous_;
  std::int64_t queued_ns_;
  std::int64_t start_ns_;
};

/// Moves every recorded span out of all thread buffers. Call only when
/// the threads that recorded them have stopped or are idle.
std::vector<Span> collect();
/// Spans dropped because a thread buffer was full.
[[nodiscard]] std::uint64_t dropped();
/// Writes spans as CSV (name,id,parent,key,queued_ns,start_ns,end_ns).
bool write_csv(const std::string& path, const std::vector<Span>& spans);

/// Allocation counting through the replaced operator new.
void count_allocations(bool on);
[[nodiscard]] std::uint64_t allocations();
/// Marks the calling thread as benchmark-owned (generator, backend
/// handler): its allocations are not charged to the system under test.
void exclude_this_thread();

// --- Decorators around the engine's outside-world interfaces ----------

/// Wraps the engine's scheduler. Each task becomes a span whose
/// queued_ns is its due time; tasks posted from inside a pool job are
/// the marshalled check results (kMarshalTask).
class TracingScheduler final : public bifrost::runtime::Scheduler {
 public:
  explicit TracingScheduler(bifrost::runtime::Scheduler& inner);

  [[nodiscard]] bifrost::runtime::Time now() const override {
    return inner_.now();
  }
  bifrost::runtime::TimerId schedule_at(bifrost::runtime::Time when,
                                        Task task) override;
  void cancel(bifrost::runtime::TimerId id) override { inner_.cancel(id); }

 private:
  bifrost::runtime::Scheduler& inner_;
  /// Steady-clock nanoseconds at the inner scheduler's time zero.
  std::int64_t epoch_ns_;
};

/// Wraps the check executor: submit -> start is pool wait, start -> end
/// is the check job.
class TracingExecutor final : public bifrost::runtime::Executor {
 public:
  explicit TracingExecutor(bifrost::runtime::Executor& inner)
      : inner_(inner) {}
  bool submit(Job job) override;

 private:
  bifrost::runtime::Executor& inner_;
};

class TracingMetricsClient final : public bifrost::engine::MetricsClient {
 public:
  explicit TracingMetricsClient(bifrost::engine::MetricsClient& inner)
      : inner_(inner) {}
  bifrost::util::Result<std::optional<double>> query(
      const bifrost::core::ProviderConfig& provider,
      const std::string& query) override;

 private:
  bifrost::engine::MetricsClient& inner_;
};

class TracingProxyController final : public bifrost::engine::ProxyController {
 public:
  explicit TracingProxyController(bifrost::engine::ProxyController& inner)
      : inner_(inner) {}
  bifrost::util::Result<void> apply(
      const bifrost::core::ServiceDef& service,
      const bifrost::proxy::ProxyConfig& config) override;
  bifrost::util::Result<bifrost::engine::ProxyStateView> fetch(
      const bifrost::core::ServiceDef& service) override {
    return inner_.fetch(service);
  }

 private:
  bifrost::engine::ProxyController& inner_;
};

class TracingJournal final : public bifrost::engine::Journal {
 public:
  explicit TracingJournal(bifrost::engine::Journal& inner) : inner_(inner) {}
  bifrost::util::Result<void> append(bifrost::engine::RecordType type,
                                     bifrost::json::Value data) override;
  bifrost::util::Result<void> sync() override { return inner_.sync(); }
  [[nodiscard]] std::uint64_t records_written() const override {
    return inner_.records_written();
  }

 private:
  bifrost::engine::Journal& inner_;
};

}  // namespace perfbench::trace
