#include "src/obs/trace.h"

#include <cassert>
#include <cinttypes>
#include <map>
#include <set>
#include <utility>

namespace easyio::obs {

namespace internal {
constinit thread_local Tracer* g_tracer = nullptr;
}  // namespace internal

void Install(Tracer* tracer) {
  assert(internal::g_tracer == nullptr && tracer != nullptr);
  internal::g_tracer = tracer;
}

void Uninstall(Tracer* tracer) {
  assert(internal::g_tracer == tracer);
  (void)tracer;
  internal::g_tracer = nullptr;
}

Tracer::Tracer(Options options) : options_(std::move(options)) {
  assert(options_.clock != nullptr);
  if (options_.sample_every == 0) options_.sample_every = 1;
}

size_t Tracer::event_count() const {
  size_t n = 0;
  for (const auto& c : chunks_) n += c.size();
  return n;
}

Tracer::Event* Tracer::Append() {
  if (event_count() >= options_.max_events) {
    ++dropped_;
    return nullptr;
  }
  if (chunks_.empty() || chunks_.back().size() == kChunkEvents) {
    chunks_.emplace_back();
    chunks_.back().reserve(kChunkEvents);
  }
  return &chunks_.back().emplace_back();
}

void Tracer::FillArgs(Event& ev, std::span<const Arg> args) {
  ev.num_args = 0;
  for (const Arg& a : args) {
    if (ev.num_args == Event::kMaxArgs) break;
    ev.args[ev.num_args++] = a;
  }
}

void Tracer::CompleteSpan(uint32_t track, const char* name, uint64_t start_ns,
                          uint64_t end_ns, std::initializer_list<Arg> args) {
  Event* ev = Append();
  if (ev == nullptr) return;
  ev->ph = Event::Ph::kComplete;
  ev->track = track;
  ev->name = name;
  ev->ts = start_ns;
  ev->dur = end_ns >= start_ns ? end_ns - start_ns : 0;
  FillArgs(*ev, args);
}

void Tracer::Instant(uint32_t track, const char* name, uint64_t ts_ns,
                     std::initializer_list<Arg> args) {
  Event* ev = Append();
  if (ev == nullptr) return;
  ev->ph = Event::Ph::kInstant;
  ev->track = track;
  ev->name = name;
  ev->ts = ts_ns;
  FillArgs(*ev, args);
}

void Tracer::Counter(uint32_t track, const char* name, uint64_t ts_ns,
                     uint64_t value) {
  Event* ev = Append();
  if (ev == nullptr) return;
  ev->ph = Event::Ph::kCounter;
  ev->track = track;
  ev->name = name;
  ev->ts = ts_ns;
  ev->num_args = 1;
  ev->args[0] = {"value", value};
}

void Tracer::AsyncSpan(uint64_t id, const char* name, uint64_t start_ns,
                       uint64_t end_ns, std::span<const Arg> args) {
  if (end_ns < start_ns) end_ns = start_ns;
  Event* b = Append();
  if (b == nullptr) return;
  b->ph = Event::Ph::kAsyncBegin;
  b->track = Track(kProcFs, 0);
  b->name = name;
  b->ts = start_ns;
  b->id = id;
  FillArgs(*b, args);
  Event* e = Append();
  if (e == nullptr) {
    // Never leave an unbalanced "b": retract the begin event instead.
    chunks_.back().pop_back();
    ++dropped_;
    return;
  }
  e->ph = Event::Ph::kAsyncEnd;
  e->track = Track(kProcFs, 0);
  e->name = name;
  e->ts = end_ns;
  e->id = id;
}

namespace {

const char* ProcessName(uint32_t pid) {
  switch (pid) {
    case kProcCores: return "cores";
    case kProcDma: return "dma";
    case kProcDmaState: return "dma-state";
    case kProcFs: return "fs-ops";
    case kProcChanMgr: return "channel-manager";
    default: return "unknown";
  }
}

std::string ThreadName(uint32_t pid, uint32_t tid) {
  char buf[32];
  switch (pid) {
    case kProcCores: std::snprintf(buf, sizeof(buf), "core %u", tid); break;
    case kProcDma: std::snprintf(buf, sizeof(buf), "chan %u", tid); break;
    case kProcDmaState:
      std::snprintf(buf, sizeof(buf), "chan %u state", tid);
      break;
    case kProcFs: std::snprintf(buf, sizeof(buf), "ops"); break;
    case kProcChanMgr: std::snprintf(buf, sizeof(buf), "manager"); break;
    default: std::snprintf(buf, sizeof(buf), "t%u", tid); break;
  }
  return buf;
}

// Virtual ns -> trace-event microseconds with sub-µs precision preserved.
void PrintTs(std::FILE* out, uint64_t ns) {
  std::fprintf(out, "%" PRIu64 ".%03" PRIu64, ns / 1000, ns % 1000);
}

}  // namespace

void Tracer::WriteMetadata(std::FILE* out) const {
  std::set<uint32_t> tracks;
  for (const auto& chunk : chunks_)
    for (const Event& ev : chunk) tracks.insert(ev.track);
  std::set<uint32_t> pids;
  for (uint32_t track : tracks) pids.insert(TrackPid(track));
  bool first = true;
  for (uint32_t pid : pids) {
    if (!first) std::fputs(",\n", out);
    first = false;
    std::fprintf(out,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%u,"
                 "\"args\":{\"name\":\"%s\"}},\n",
                 pid, ProcessName(pid));
    // Sort order keeps the Perfetto track list stable across runs.
    std::fprintf(out,
                 "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":%u,"
                 "\"args\":{\"sort_index\":%u}}",
                 pid, pid);
  }
  for (uint32_t track : tracks) {
    uint32_t pid = TrackPid(track), tid = TrackTid(track);
    std::fprintf(out,
                 ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%u,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                 pid, tid, ThreadName(pid, tid).c_str());
  }
}

void Tracer::WriteJson(std::FILE* out) const {
  std::fprintf(out,
               "{\n\"displayTimeUnit\":\"ns\",\n"
               "\"otherData\":{\"clock\":\"virtual-ns\","
               "\"sample_every\":%u,\"events\":%zu,\"dropped\":%" PRIu64
               "},\n\"traceEvents\":[\n",
               options_.sample_every, event_count(), dropped_);
  WriteMetadata(out);
  for (const auto& chunk : chunks_) {
    for (const Event& ev : chunk) {
      std::fputs(",\n", out);
      uint32_t pid = TrackPid(ev.track), tid = TrackTid(ev.track);
      switch (ev.ph) {
        case Event::Ph::kComplete:
          std::fprintf(out, "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%u,"
                            "\"tid\":%u,\"ts\":", ev.name, pid, tid);
          PrintTs(out, ev.ts);
          std::fputs(",\"dur\":", out);
          PrintTs(out, ev.dur);
          break;
        case Event::Ph::kInstant:
          std::fprintf(out, "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
                            "\"pid\":%u,\"tid\":%u,\"ts\":", ev.name, pid, tid);
          PrintTs(out, ev.ts);
          break;
        case Event::Ph::kCounter:
          std::fprintf(out, "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":%u,"
                            "\"tid\":%u,\"ts\":", ev.name, pid, tid);
          PrintTs(out, ev.ts);
          break;
        case Event::Ph::kAsyncBegin:
        case Event::Ph::kAsyncEnd:
          std::fprintf(out,
                       "{\"name\":\"%s\",\"cat\":\"op\",\"ph\":\"%s\","
                       "\"id\":\"0x%" PRIx64 "\",\"pid\":%u,\"tid\":%u,"
                       "\"ts\":",
                       ev.name, ev.ph == Event::Ph::kAsyncBegin ? "b" : "e",
                       ev.id, pid, tid);
          PrintTs(out, ev.ts);
          break;
      }
      if (ev.num_args > 0) {
        std::fputs(",\"args\":{", out);
        for (int i = 0; i < ev.num_args; ++i) {
          std::fprintf(out, "%s\"%s\":%" PRIu64, i == 0 ? "" : ",",
                       ev.args[i].key, ev.args[i].value);
        }
        std::fputc('}', out);
      }
      std::fputc('}', out);
    }
  }
  std::fputs("\n]\n}\n", out);
}

bool Tracer::WriteJsonFile(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  WriteJson(out);
  bool ok = std::ferror(out) == 0;
  std::fclose(out);
  return ok;
}

}  // namespace easyio::obs
