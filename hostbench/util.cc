// Timing, span recording, digests and the allocation counter.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "hostbench/hostbench.h"

// Counts heap allocations per thread. Replacing the global operator new is
// the only way to see the simulator's allocations from outside it; the
// counter is thread-local so parallel scenario jobs do not contend on it.
namespace {
thread_local uint64_t t_allocs = 0;
}  // namespace

void* operator new(size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }

namespace hostbench {

namespace {

std::atomic<uint64_t> g_next_span{1};
std::atomic<uint64_t> g_next_scenario{1};
std::atomic<uint64_t> g_next_thread{1};
thread_local uint64_t t_open_span = 0;
thread_local uint64_t t_scenario = 0;
thread_local uint64_t t_thread = 0;

uint64_t ThreadId() {
  if (t_thread == 0) {
    t_thread = g_next_thread.fetch_add(1, std::memory_order_relaxed);
  }
  return t_thread;
}

}  // namespace

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

long ThreadMinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return ru.ru_minflt;
}

uint64_t ThreadAllocs() { return t_allocs; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// ------------------------------------------------------------ tracing ----

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  double origin = spans_.empty() ? 0 : spans_.front().start_s;
  for (const SpanRecord& s : spans_) {
    origin = std::min(origin, s.start_s);
  }
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"scenario\":%llu}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.thread),
                 (s.start_s - origin) * 1e6, (s.end_s - s.start_s) * 1e6,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.scenario));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name, double* out_s)
    : name_(name), out_s_(out_s), start_s_(NowS()) {
  if (GlobalTracer().enabled()) {
    id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
    parent_ = t_open_span;
    t_open_span = id_;
  }
}

Span::~Span() {
  const double end_s = NowS();
  if (out_s_ != nullptr) {
    *out_s_ = end_s - start_s_;
  }
  if (id_ != 0) {
    t_open_span = parent_;
    GlobalTracer().Record(SpanRecord{name_, id_, parent_, t_scenario,
                                     start_s_, end_s, ThreadId()});
  }
}

ScenarioScope::ScenarioScope() : saved_(t_scenario) {
  t_scenario = g_next_scenario.fetch_add(1, std::memory_order_relaxed);
}

ScenarioScope::~ScenarioScope() { t_scenario = saved_; }

// ------------------------------------------------------------- digest ----

void Digest::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
}

void Digest::Add(const easyio::Histogram& h) {
  Add(h.count());
  Add(h.min());
  Add(h.max());
  Add(h.P50());
  Add(h.P99());
}

}  // namespace hostbench
