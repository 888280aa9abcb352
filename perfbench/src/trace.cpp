#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>

#include "common.hpp"

namespace perfbench::trace {
namespace {

/// Per-thread span storage; owned by the registry so spans outlive the
/// thread that recorded them.
struct Buffer {
  std::vector<Span> spans;
  std::uint64_t thread_index = 0;
  std::uint64_t next_local = 0;
};

/// Bounds memory: a thread records at most this many spans per run.
constexpr std::size_t kMaxSpansPerThread = std::size_t{1} << 20;

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<Buffer>> g_buffers;  // guarded by the mutex
std::atomic<std::uint64_t> g_dropped{0};

thread_local Buffer* tl_buffer = nullptr;
thread_local std::uint64_t tl_current = 0;
thread_local bool tl_in_pool_job = false;

Buffer& local_buffer() {
  if (tl_buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_buffers.push_back(std::make_unique<Buffer>());
    tl_buffer = g_buffers.back().get();
    tl_buffer->thread_index = g_buffers.size();
  }
  return *tl_buffer;
}

std::atomic<bool> g_count_allocations{false};
std::atomic<std::uint64_t> g_allocations{0};
thread_local bool tl_excluded = false;

/// Number that follows `marker` in `text` (the slot in "svc-3"); 0 when
/// absent. Used as the span key.
std::uint64_t number_after(const std::string& text, const char* marker) {
  const std::size_t at = text.find(marker);
  if (at == std::string::npos) return 0;
  std::uint64_t value = 0;
  for (std::size_t i = at + std::char_traits<char>::length(marker);
       i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
    value = value * 10 + static_cast<std::uint64_t>(text[i] - '0');
  }
  return value;
}

}  // namespace

const char* name_of(Name name) {
  switch (name) {
    case Name::kRequest: return "request";
    case Name::kIngress: return "ingress";
    case Name::kHandler: return "handler";
    case Name::kEgress: return "egress";
    case Name::kDirect: return "direct";
    case Name::kShadowArrival: return "shadow_arrival";
    case Name::kLoopTask: return "loop_task";
    case Name::kMarshalTask: return "marshal_task";
    case Name::kPoolJob: return "pool_job";
    case Name::kMetricsQuery: return "metrics_query";
    case Name::kProxyApply: return "proxy_apply";
    case Name::kJournalAppend: return "journal_append";
  }
  return "?";
}

std::uint64_t record(Name name, std::uint64_t parent, std::uint64_t key,
                     std::int64_t queued_ns, std::int64_t start_ns,
                     std::int64_t end_ns) {
  Buffer& buffer = local_buffer();
  if (buffer.spans.size() >= kMaxSpansPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
  const std::uint64_t id = (buffer.thread_index << 40) | ++buffer.next_local;
  buffer.spans.push_back(
      Span{id, parent, key, queued_ns, start_ns, end_ns, name});
  return id;
}

Scope::Scope(Name name, std::uint64_t key, std::int64_t queued_ns,
             std::uint64_t parent)
    : name_(name),
      key_(key),
      parent_(parent),
      previous_(tl_current),
      queued_ns_(queued_ns),
      start_ns_(now_ns()) {
  // The id is reserved now so spans opened inside this one can name it
  // as their parent; the span itself is stored when it closes.
  Buffer& buffer = local_buffer();
  tl_current = (buffer.thread_index << 40) | ++buffer.next_local;
}

Scope::Scope(Name name, std::uint64_t key)
    : Scope(name, key, 0, tl_current) {
  queued_ns_ = start_ns_;
}

Scope::~Scope() {
  const std::uint64_t id = tl_current;
  tl_current = previous_;
  Buffer& buffer = local_buffer();
  if (buffer.spans.size() >= kMaxSpansPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer.spans.push_back(
      Span{id, parent_, key_, queued_ns_, start_ns_, now_ns(), name_});
}

std::vector<Span> collect() {
  std::vector<Span> all;
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
    buffer->spans.shrink_to_fit();
  }
  return all;
}

std::uint64_t dropped() { return g_dropped.load(std::memory_order_relaxed); }

bool write_csv(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "name,id,parent,key,queued_ns,start_ns,end_ns\n");
  for (const Span& span : spans) {
    std::fprintf(file, "%s,%llu,%llu,%llu,%lld,%lld,%lld\n",
                 name_of(span.name),
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.key),
                 static_cast<long long>(span.queued_ns),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(file) == 0;
}

void count_allocations(bool on) {
  g_count_allocations.store(on, std::memory_order_relaxed);
}
std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}
void exclude_this_thread() { tl_excluded = true; }

// --- Decorators --------------------------------------------------------

TracingScheduler::TracingScheduler(bifrost::runtime::Scheduler& inner)
    : inner_(inner),
      epoch_ns_(now_ns() - static_cast<std::int64_t>(inner.now().count())) {}

bifrost::runtime::TimerId TracingScheduler::schedule_at(
    bifrost::runtime::Time when, Task task) {
  const std::int64_t posted_ns = now_ns();
  const std::int64_t due_ns =
      std::max(posted_ns, epoch_ns_ + static_cast<std::int64_t>(when.count()));
  const Name name = tl_in_pool_job ? Name::kMarshalTask : Name::kLoopTask;
  const std::uint64_t parent = tl_current;
  return inner_.schedule_at(
      when, [task = std::move(task), name, parent, due_ns] {
        const Scope scope(name, 0, due_ns, parent);
        task();
      });
}

bool TracingExecutor::submit(Job job) {
  const std::int64_t submitted_ns = now_ns();
  const std::uint64_t parent = tl_current;
  return inner_.submit([job = std::move(job), submitted_ns, parent] {
    tl_in_pool_job = true;
    {
      const Scope scope(Name::kPoolJob, 0, submitted_ns, parent);
      job();
    }
    tl_in_pool_job = false;
  });
}

bifrost::util::Result<std::optional<double>> TracingMetricsClient::query(
    const bifrost::core::ProviderConfig& provider, const std::string& query) {
  const Scope scope(Name::kMetricsQuery, number_after(query, "svc-"));
  return inner_.query(provider, query);
}

bifrost::util::Result<void> TracingProxyController::apply(
    const bifrost::core::ServiceDef& service,
    const bifrost::proxy::ProxyConfig& config) {
  const Scope scope(Name::kProxyApply, number_after(service.name, "svc-"));
  return inner_.apply(service, config);
}

bifrost::util::Result<void> TracingJournal::append(
    bifrost::engine::RecordType type, bifrost::json::Value data) {
  const Scope scope(Name::kJournalAppend, static_cast<std::uint64_t>(type));
  return inner_.append(type, std::move(data));
}

}  // namespace perfbench::trace

// --- Counting global allocator -------------------------------------------
// Replaces every throwing and nothrow form so all allocations of the
// process pass through one counter; memory comes from malloc, so every
// delete form frees with free().

namespace {

void* counted_alloc(std::size_t size, std::size_t align) {
  using namespace perfbench::trace;
  if (g_count_allocations.load(std::memory_order_relaxed) && !tl_excluded) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* memory = nullptr;
  if (align <= alignof(std::max_align_t)) {
    memory = std::malloc(size);
  } else {
    const std::size_t rounded = (size + align - 1) / align * align;
    memory = std::aligned_alloc(align, rounded);
  }
  return memory;
}

void* counted_alloc_or_throw(std::size_t size, std::size_t align) {
  void* memory = counted_alloc(size, align);
  if (memory == nullptr) throw std::bad_alloc();
  return memory;
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc_or_throw(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc_or_throw(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* memory) noexcept { std::free(memory); }
void operator delete[](void* memory) noexcept { std::free(memory); }
void operator delete(void* memory, std::size_t) noexcept { std::free(memory); }
void operator delete[](void* memory, std::size_t) noexcept {
  std::free(memory);
}
void operator delete(void* memory, std::align_val_t) noexcept {
  std::free(memory);
}
void operator delete[](void* memory, std::align_val_t) noexcept {
  std::free(memory);
}
void operator delete(void* memory, std::size_t, std::align_val_t) noexcept {
  std::free(memory);
}
void operator delete[](void* memory, std::size_t, std::align_val_t) noexcept {
  std::free(memory);
}
void operator delete(void* memory, const std::nothrow_t&) noexcept {
  std::free(memory);
}
void operator delete[](void* memory, const std::nothrow_t&) noexcept {
  std::free(memory);
}
void operator delete(void* memory, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(memory);
}
void operator delete[](void* memory, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(memory);
}
