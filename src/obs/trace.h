// Virtual-time structured tracing.
//
// A Tracer records spans, instants and counters keyed by *virtual*
// nanoseconds and exports them as Chrome/Perfetto trace-event JSON
// (docs/OBSERVABILITY.md documents the full schema). The design constraints,
// in order:
//
//   1. Recording must never perturb the simulation. The tracer only *reads*
//      the virtual clock — it never calls Advance()/ScheduleAfter() — so a
//      run produces byte-identical simulated output whether tracing is on
//      or off.
//   2. Zero overhead when disabled. Every macro below costs a single
//      relaxed pointer load plus a predictable branch when no tracer is
//      installed, which preserves the steady-state zero-allocation
//      guarantee of DESIGN.md §6.
//   3. Bounded memory when enabled. Events are fixed-size PODs stored in
//      chunked slabs; high-frequency event classes go through a shared
//      sampling counter (`sample_every`) and a hard `max_events` cap drops
//      (and counts) the overflow instead of growing without bound.
//
// The tracer is installed globally (obs::Install) because the instrumented
// layers — sim, dma, uthread, nova, easyio — must not all grow a tracer
// parameter. Instrumentation sites therefore look like:
//
//   if (auto* t = obs::Get()) t->CompleteSpan(track, "xfer", t0, t1, {...});
//
// or use the OBS_* convenience macros. The virtual-clock source is a
// callback supplied at construction; sim::TraceSession (src/sim/obs_session.h)
// binds it to Simulation::Get()->now() and handles install/export/uninstall.

#ifndef EASYIO_OBS_TRACE_H_
#define EASYIO_OBS_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace easyio::obs {

// Chrome's trace model is (process, thread) tracks. We map simulator actors
// onto fixed process ids so traces are comparable across runs and the JSON
// writer can name everything without a registration step.
enum Process : uint32_t {
  kProcCores = 1,     // one thread per simulated core: busy spans, park/steal
  kProcDma = 2,       // one thread per DMA channel: transfer spans, submits
  kProcDmaState = 3,  // one thread per DMA channel: suspend/resume windows
  kProcFs = 4,        // async per-op phase spans (b/e events, cat "op")
  kProcChanMgr = 5,   // channel-manager epochs, throttle decisions, b_limit
};

// Packs a (process, thread) pair into the single 32-bit track id the event
// structs carry.
constexpr uint32_t Track(Process p, uint32_t tid) {
  return (static_cast<uint32_t>(p) << 16) | (tid & 0xffffu);
}
constexpr uint32_t TrackPid(uint32_t track) { return track >> 16; }
constexpr uint32_t TrackTid(uint32_t track) { return track & 0xffffu; }

// Numeric key/value attached to an event. Keys must be string literals (the
// tracer stores the pointer, not a copy).
struct Arg {
  const char* key;
  uint64_t value;
};

class Tracer {
 public:
  struct Options {
    // Virtual-clock source in nanoseconds. Required; called only from
    // recording sites that do not already hold an explicit timestamp.
    std::function<uint64_t()> clock;
    // Sampled event classes record one event per `sample_every` hits of the
    // shared sampling counter. 1 = record everything.
    uint32_t sample_every = 1;
    // Hard cap on stored events; overflow is dropped and counted.
    size_t max_events = 4u << 20;
  };

  explicit Tracer(Options options);

  uint64_t now() const { return options_.clock(); }
  uint32_t sample_every() const { return options_.sample_every; }

  // Shared sampling gate for high-frequency event classes. Deterministic
  // (a plain counter — no host randomness), so a given binary + seed + sample
  // rate always traces the same events.
  bool Sample() {
    return options_.sample_every <= 1 ||
           sample_counter_++ % options_.sample_every == 0;
  }

  // Monotonic id source for async (per-op) spans. 0 is reserved to mean
  // "this op is not being traced" (see fs::OpStats::trace_op_id).
  uint64_t NextOpId() { return next_op_id_++; }

  // ---- Recording (all timestamps in virtual ns) ----
  // Complete span ("X") on a sequential track: [start_ns, end_ns).
  void CompleteSpan(uint32_t track, const char* name, uint64_t start_ns,
                    uint64_t end_ns, std::initializer_list<Arg> args = {});
  // Instant ("i").
  void Instant(uint32_t track, const char* name, uint64_t ts_ns,
               std::initializer_list<Arg> args = {});
  // Counter ("C") sample: the value of series `name` at ts_ns.
  void Counter(uint32_t track, const char* name, uint64_t ts_ns,
               uint64_t value);
  // Async span (b/e pair, cat "op", shared `id`): phases of one logical
  // operation may overlap other operations' phases, so they live on the
  // per-id async timeline instead of a sequential track. Both events are
  // emitted together once the interval is known, which instrumentation sites
  // use to report phases measured with explicit timestamps after the fact.
  void AsyncSpan(uint64_t id, const char* name, uint64_t start_ns,
                 uint64_t end_ns, std::span<const Arg> args);
  void AsyncSpan(uint64_t id, const char* name, uint64_t start_ns,
                 uint64_t end_ns, std::initializer_list<Arg> args = {}) {
    AsyncSpan(id, name, start_ns, end_ns,
              std::span<const Arg>(args.begin(), args.size()));
  }

  // ---- Export ----
  size_t event_count() const;
  uint64_t dropped_events() const { return dropped_; }
  // Chrome trace-event JSON (object form with traceEvents + metadata).
  // Loadable by Perfetto (ui.perfetto.dev) and chrome://tracing.
  void WriteJson(std::FILE* out) const;
  bool WriteJsonFile(const std::string& path) const;

 private:
  struct Event {
    enum class Ph : uint8_t { kComplete, kInstant, kCounter, kAsyncBegin, kAsyncEnd };
    static constexpr int kMaxArgs = 3;
    Ph ph;
    uint8_t num_args = 0;
    uint32_t track;
    const char* name;
    uint64_t ts;
    uint64_t dur = 0;  // kComplete only
    uint64_t id = 0;   // async events only
    Arg args[kMaxArgs];
  };
  static constexpr size_t kChunkEvents = 64 * 1024;

  Event* Append();  // nullptr once max_events is hit (counts the drop)
  void FillArgs(Event& ev, std::span<const Arg> args);
  void WriteMetadata(std::FILE* out) const;

  Options options_;
  uint64_t sample_counter_ = 0;
  uint64_t next_op_id_ = 1;
  uint64_t dropped_ = 0;
  std::vector<std::vector<Event>> chunks_;
};

namespace internal {
// Single definition in trace.cc. Read through obs::Get() only. Per host
// thread: a tracer installed on one scenario-runner worker is invisible to
// (and cannot race with) simulations running on other workers.
// constinit: constant-initialized TLS needs no init-guard wrapper, so the
// disabled-path read below stays a single thread-pointer-relative load.
extern constinit thread_local Tracer* g_tracer;
}  // namespace internal

// The installed tracer for the calling host thread, or nullptr when tracing
// is disabled on it. The null check is the entire disabled-path cost of
// every instrumentation site.
inline Tracer* Get() { return internal::g_tracer; }
// Install/remove the calling thread's tracer. A Tracer instance is
// single-threaded: install, record, and uninstall it all on one host thread
// (sim::TraceSession's scoped lifetime guarantees this). Installing over an
// existing tracer or uninstalling a tracer that is not installed is a
// programming error.
void Install(Tracer* tracer);
void Uninstall(Tracer* tracer);

}  // namespace easyio::obs

// ---- Macros ---- (the runtime gate is the obs::Get() null check)

// Instant event at the current virtual time. Optional {"key", value} args.
#define OBS_EVENT(track, name, ...)                                       \
  do {                                                                    \
    if (auto* obs_t_ = ::easyio::obs::Get())                              \
      obs_t_->Instant((track), (name), obs_t_->now(), {__VA_ARGS__});     \
  } while (0)
// Same, but subject to the tracer's sampling rate. Use on per-op hot paths.
#define OBS_EVENT_SAMPLED(track, name, ...)                               \
  do {                                                                    \
    if (auto* obs_t_ = ::easyio::obs::Get(); obs_t_ && obs_t_->Sample()) \
      obs_t_->Instant((track), (name), obs_t_->now(), {__VA_ARGS__});     \
  } while (0)
// Sampled counter sample at the current virtual time.
#define OBS_COUNTER_SAMPLED(track, name, value)                          \
  do {                                                                   \
    if (auto* obs_t_ = ::easyio::obs::Get(); obs_t_ && obs_t_->Sample()) \
      obs_t_->Counter((track), (name), obs_t_->now(),                    \
                      static_cast<uint64_t>(value));                     \
  } while (0)

#endif  // EASYIO_OBS_TRACE_H_
