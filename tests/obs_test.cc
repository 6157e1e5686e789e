// Observability layer: Tracer JSON well-formedness, span nesting, sampling
// determinism, drop accounting, and the stats snapshot.
//
// The heart of the file is a minimal recursive-descent JSON parser: the
// acceptance bar for the trace writer is that a *parser* (not a regex)
// accepts its output and that the spans it contains nest properly — complete
// spans on one (pid, tid) track form a stack, async b/e pairs balance per id
// and per-id phase spans are properly nested or disjoint.

#include "src/obs/trace.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/units.h"
#include "src/harness/testbed.h"
#include "src/obs/stats.h"
#include "src/sim/obs_session.h"

namespace easyio {
namespace {

// ---------------------------------------------------------- mini JSON ----

struct JsonValue {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = kNull;
  bool boolean = false;
  std::string raw;  // number token or string contents
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
  double Number() const { return std::strtod(raw.c_str(), nullptr); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text)
      : p_(text.c_str()), end_(text.c_str() + text.size()) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) {
      return false;
    }
    SkipWs();
    return p_ == end_;  // no trailing garbage
  }

 private:
  void SkipWs() {
    while (p_ < end_ && std::isspace(static_cast<unsigned char>(*p_))) {
      p_++;
    }
  }
  bool Literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (static_cast<size_t>(end_ - p_) < n || std::strncmp(p_, lit, n) != 0) {
      return false;
    }
    p_ += n;
    return true;
  }
  bool ParseString(std::string* out) {
    if (p_ >= end_ || *p_ != '"') {
      return false;
    }
    p_++;
    out->clear();
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') {
        p_++;
        if (p_ >= end_) {
          return false;
        }
        switch (*p_) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': case 'f': out->push_back('?'); break;
          case 'u':
            if (end_ - p_ < 5) {
              return false;
            }
            p_ += 4;
            out->push_back('?');
            break;
          default: return false;
        }
        p_++;
      } else {
        out->push_back(*p_++);
      }
    }
    if (p_ >= end_) {
      return false;
    }
    p_++;  // closing quote
    return true;
  }
  bool ParseValue(JsonValue* out) {
    if (p_ >= end_) {
      return false;
    }
    switch (*p_) {
      case '{': return ParseObject(out);
      case '[': return ParseArray(out);
      case '"':
        out->type = JsonValue::kString;
        return ParseString(&out->raw);
      case 't':
        out->type = JsonValue::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->type = JsonValue::kBool;
        out->boolean = false;
        return Literal("false");
      case 'n':
        out->type = JsonValue::kNull;
        return Literal("null");
      default: return ParseNumber(out);
    }
  }
  bool ParseNumber(JsonValue* out) {
    out->type = JsonValue::kNumber;
    const char* start = p_;
    if (p_ < end_ && *p_ == '-') {
      p_++;
    }
    while (p_ < end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                         *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                         *p_ == '+' || *p_ == '-')) {
      p_++;
    }
    if (p_ == start) {
      return false;
    }
    out->raw.assign(start, static_cast<size_t>(p_ - start));
    return true;
  }
  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::kArray;
    p_++;  // '['
    SkipWs();
    if (p_ < end_ && *p_ == ']') {
      p_++;
      return true;
    }
    while (true) {
      JsonValue v;
      if (!ParseValue(&v)) {
        return false;
      }
      out->arr.push_back(std::move(v));
      SkipWs();
      if (p_ < end_ && *p_ == ',') {
        p_++;
        SkipWs();
        continue;
      }
      if (p_ < end_ && *p_ == ']') {
        p_++;
        return true;
      }
      return false;
    }
  }
  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::kObject;
    p_++;  // '{'
    SkipWs();
    if (p_ < end_ && *p_ == '}') {
      p_++;
      return true;
    }
    while (true) {
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (p_ >= end_ || *p_ != ':') {
        return false;
      }
      p_++;
      SkipWs();
      JsonValue v;
      if (!ParseValue(&v)) {
        return false;
      }
      out->obj.emplace_back(std::move(key), std::move(v));
      SkipWs();
      if (p_ < end_ && *p_ == ',') {
        p_++;
        SkipWs();
        continue;
      }
      if (p_ < end_ && *p_ == '}') {
        p_++;
        return true;
      }
      return false;
    }
  }

  const char* p_;
  const char* end_;
};

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  if (f != nullptr) {
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      out.append(buf, n);
    }
    std::fclose(f);
  }
  return out;
}

// The writer prints timestamps as microseconds with exactly three decimals,
// so they convert back to integer nanoseconds without float rounding.
uint64_t TsToNs(const std::string& raw) {
  const size_t dot = raw.find('.');
  EXPECT_NE(dot, std::string::npos) << raw;
  EXPECT_EQ(raw.size() - dot - 1, 3u) << raw;
  const uint64_t us = std::strtoull(raw.substr(0, dot).c_str(), nullptr, 10);
  const uint64_t frac = std::strtoull(raw.substr(dot + 1).c_str(), nullptr, 10);
  return us * 1000 + frac;
}

JsonValue ParseTraceFile(const std::string& path) {
  const std::string text = ReadFile(path);
  JsonValue root;
  JsonParser parser(text);
  EXPECT_TRUE(parser.Parse(&root)) << "trace JSON failed to parse: " << path;
  EXPECT_EQ(root.type, JsonValue::kObject);
  return root;
}

struct Span {
  uint64_t start = 0;
  uint64_t end = 0;
  std::string name;
};

// Complete spans on one sequential (pid, tid) track must form a stack: any
// two are either disjoint or one contains the other (shared boundaries
// allowed — a span may start exactly when its parent does).
void CheckStackNesting(const std::vector<Span>& spans_in,
                       const std::string& label) {
  std::vector<Span> spans = spans_in;
  std::stable_sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start != b.start ? a.start < b.start : a.end > b.end;
  });
  std::vector<Span> stack;
  for (const Span& s : spans) {
    while (!stack.empty() && stack.back().end <= s.start) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      ASSERT_LE(s.end, stack.back().end)
          << label << ": span '" << s.name << "' [" << s.start << ", "
          << s.end << ") partially overlaps '" << stack.back().name << "' ["
          << stack.back().start << ", " << stack.back().end << ")";
    }
    stack.push_back(s);
  }
}

// ------------------------------------------------------------ tests ----

TEST(Tracer, DisabledByDefault) {
  EXPECT_EQ(obs::Get(), nullptr);
  // Macros must be safe to execute with no tracer installed.
  OBS_EVENT(obs::Track(obs::kProcFs, 0), "noop");
  EXPECT_EQ(obs::Get(), nullptr);
}

TEST(Tracer, SamplingDeterministic) {
  uint64_t fake_now = 0;
  obs::Tracer t({.clock = [&] { return fake_now; }, .sample_every = 4});
  int hits = 0;
  for (int i = 0; i < 16; ++i) {
    if (t.Sample()) {
      hits++;
    }
  }
  EXPECT_EQ(hits, 4);  // every 4th call, starting with the first
  EXPECT_EQ(t.NextOpId(), 1u);  // 0 is reserved for "untraced"
  EXPECT_EQ(t.NextOpId(), 2u);
}

TEST(Tracer, WritesParsableJson) {
  uint64_t fake_now = 0;
  obs::Tracer t({.clock = [&] { return fake_now; }});
  // Nested complete spans on one track, plus every other event kind.
  t.CompleteSpan(obs::Track(obs::kProcCores, 0), "outer", 100, 900,
                 {{"task", 1}});
  t.CompleteSpan(obs::Track(obs::kProcCores, 0), "inner", 200, 400);
  t.Instant(obs::Track(obs::kProcChanMgr, 0), "epoch", 500,
            {{"epoch_bytes", 4096}});
  t.Counter(obs::Track(obs::kProcDma, 1), "qdepth", 600, 3);
  const uint64_t id = t.NextOpId();
  t.AsyncSpan(id, "write", 100, 800, {{"bytes", 65536}});
  t.AsyncSpan(id, "commit", 150, 300);
  EXPECT_EQ(t.event_count(), 4u + 4u);  // async spans are two events each

  const std::string path = testing::TempDir() + "/obs_unit_trace.json";
  ASSERT_TRUE(t.WriteJsonFile(path));
  const JsonValue root = ParseTraceFile(path);

  const JsonValue* other = root.Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->Find("clock")->raw, "virtual-ns");
  EXPECT_EQ(other->Find("dropped")->Number(), 0.0);

  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->type, JsonValue::kArray);

  int x = 0, i = 0, c = 0, b = 0, e = 0, m = 0;
  for (const JsonValue& ev : events->arr) {
    const std::string& ph = ev.Find("ph")->raw;
    if (ph == "X") {
      x++;
      EXPECT_NE(ev.Find("dur"), nullptr);
    } else if (ph == "i") {
      i++;
      EXPECT_EQ(ev.Find("s")->raw, "t");
    } else if (ph == "C") {
      c++;
    } else if (ph == "b") {
      b++;
      EXPECT_EQ(ev.Find("cat")->raw, "op");
      EXPECT_NE(ev.Find("id"), nullptr);
    } else if (ph == "e") {
      e++;
    } else if (ph == "M") {
      m++;
    }
  }
  EXPECT_EQ(x, 2);
  EXPECT_EQ(i, 1);
  EXPECT_EQ(c, 1);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(e, 2);
  // Metadata must name every referenced process (cores, dma, fs-ops,
  // channel-manager) — process_name + sort index per process, thread_name
  // per track.
  EXPECT_GE(m, 4 * 2);
}

TEST(Tracer, MaxEventsDropsKeepAsyncBalanced) {
  uint64_t fake_now = 0;
  obs::Tracer t({.clock = [&] { return fake_now; }, .max_events = 5});
  t.CompleteSpan(obs::Track(obs::kProcCores, 0), "a", 0, 10);
  t.CompleteSpan(obs::Track(obs::kProcCores, 0), "b", 10, 20);
  t.CompleteSpan(obs::Track(obs::kProcCores, 0), "c", 20, 30);
  t.CompleteSpan(obs::Track(obs::kProcCores, 0), "d", 30, 40);
  // Only one slot left: the async span needs two. The writer must not emit
  // a dangling "b" — it retracts the begin when the end cannot be stored.
  t.AsyncSpan(t.NextOpId(), "op", 40, 50);
  EXPECT_GT(t.dropped_events(), 0u);
  EXPECT_LE(t.event_count(), 5u);

  const std::string path = testing::TempDir() + "/obs_drop_trace.json";
  ASSERT_TRUE(t.WriteJsonFile(path));
  const JsonValue root = ParseTraceFile(path);
  int b = 0, e = 0;
  for (const JsonValue& ev : root.Find("traceEvents")->arr) {
    const std::string& ph = ev.Find("ph")->raw;
    b += ph == "b";
    e += ph == "e";
  }
  EXPECT_EQ(b, e);
  EXPECT_GT(root.Find("otherData")->Find("dropped")->Number(), 0.0);
}

// End-to-end: trace a real EasyIO run through the Testbed, then re-parse the
// file and check the structural invariants the schema promises.
TEST(TraceSessionTest, EasyIoRunProducesNestedSpans) {
  const std::string path = testing::TempDir() + "/obs_easyio_trace.json";
  harness::TestbedConfig cfg;
  cfg.fs = harness::FsKind::kEasy;
  cfg.machine_cores = 4;
  cfg.device_bytes = 256_MB;
  harness::Testbed tb(cfg);
  std::vector<fs::OpStats> ops;  // every op's stats, to match its spans
  {
    sim::TraceSession session(path, /*sample_every=*/1);
    bool writer_started = false;
    tb.sim().Spawn(0, [&] {
      int fd = *tb.fs().Create("/t");
      std::vector<std::byte> buf(64_KB, std::byte{0x5a});
      fs::OpStats st;
      auto write = [&](uint64_t off, std::span<const std::byte> b) {
        EASYIO_CHECK_OK(tb.fs().Write(fd, off, b, &st).status());
        ops.push_back(st);
      };
      for (int i = 0; i < 32; ++i) {
        write(uint64_t(i) * 64_KB, buf);
      }
      for (int i = 0; i < 32; ++i) {
        EASYIO_CHECK_OK(
            tb.fs().Read(fd, uint64_t(i) * 64_KB, buf, &st).status());
        ops.push_back(st);
      }
      std::vector<std::byte> big(256_KB, std::byte{0x3c});
      write(0, big);                           // orderless
      write(100, std::span(buf).first(4_KB));  // memcpy
      EASYIO_CHECK_OK(tb.fs().Append(fd, std::span(buf).first(10000), &st)
                          .status());
      ops.push_back(st);
      // The second task reads this file while the write's DMA is in flight.
      writer_started = true;
      write(4_KB + 100, buf);
    });
    tb.sim().Spawn(1, [&] {
      while (!writer_started) {
        tb.sim().Advance(100);
      }
      tb.sim().Advance(2_us);
      int fd = *tb.fs().Open("/t");
      std::vector<std::byte> back(64_KB);
      fs::OpStats st;
      EASYIO_CHECK_OK(tb.fs().Read(fd, 4_KB, back, &st).status());
      ops.push_back(st);
    });
    tb.sim().Run();
    EXPECT_GT(session.tracer().event_count(), 0u);
  }  // session destructor writes the file

  const JsonValue root = ParseTraceFile(path);
  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->arr.size(), 100u);

  // 1. Complete spans nest like a stack per sequential track.
  std::map<std::pair<int, int>, std::vector<Span>> by_track;
  // 2. Async b/e balance per id, phases properly nested per id.
  std::map<std::string, std::vector<Span>> by_id;
  std::map<std::string, Span> open_async;
  std::map<std::string, int> op_names;
  for (const JsonValue& ev : events->arr) {
    const std::string& ph = ev.Find("ph")->raw;
    if (ph == "X") {
      Span s;
      s.start = TsToNs(ev.Find("ts")->raw);
      s.end = s.start + TsToNs(ev.Find("dur")->raw);
      s.name = ev.Find("name")->raw;
      by_track[{static_cast<int>(ev.Find("pid")->Number()),
                static_cast<int>(ev.Find("tid")->Number())}]
          .push_back(s);
    } else if (ph == "b") {
      const std::string& id = ev.Find("id")->raw;
      ASSERT_EQ(open_async.count(id), 0u)
          << "interleaved b events for id " << id;
      Span s;
      s.start = TsToNs(ev.Find("ts")->raw);
      s.name = ev.Find("name")->raw;
      open_async[id] = s;
    } else if (ph == "e") {
      const std::string& id = ev.Find("id")->raw;
      auto it = open_async.find(id);
      ASSERT_NE(it, open_async.end()) << "e without b for id " << id;
      it->second.end = TsToNs(ev.Find("ts")->raw);
      ASSERT_GE(it->second.end, it->second.start);
      by_id[id].push_back(it->second);
      op_names[it->second.name]++;
      open_async.erase(it);
    }
  }
  EXPECT_TRUE(open_async.empty()) << "unbalanced async spans";
  ASSERT_FALSE(by_track.empty());
  for (const auto& [track, spans] : by_track) {
    CheckStackNesting(spans, "track (" + std::to_string(track.first) + ", " +
                                 std::to_string(track.second) + ")");
  }
  ASSERT_FALSE(by_id.empty());
  for (const auto& [id, spans] : by_id) {
    CheckStackNesting(spans, "op id " + id);
  }
  // The run was 64K EasyIO writes + reads with full sampling: the op spans
  // and their phase sub-spans must all be present.
  for (const char* name :
       {"write", "read", "append", "commit", "l1_hold", "l2_wait",
        "dma_submit", "sn_wait", "xfer_write", "xfer_read", "run"}) {
    bool found = op_names.count(name) > 0;
    for (const auto& [track, spans] : by_track) {
      for (const Span& s : spans) {
        found |= s.name == name;
      }
    }
    EXPECT_TRUE(found) << "expected span '" << name << "' in the trace";
  }

  // Each phase is timed once for both outputs, so an op's OpStats agree
  // with its spans: the whole-op span is total_ns, blocked time is exactly
  // the level-2 and SN waits, and data time covers submission plus SN wait.
  ASSERT_EQ(ops.size(), 69u);
  for (const fs::OpStats& st : ops) {
    ASSERT_NE(st.trace_op_id, 0u);
    char id[32];
    std::snprintf(id, sizeof(id), "0x%llx",
                  static_cast<unsigned long long>(st.trace_op_id));
    std::map<std::string, uint64_t> dur;
    for (const Span& s : by_id[id]) {
      dur[s.name] += s.end - s.start;
    }
    const uint64_t whole = dur["write"] + dur["read"] + dur["append"];
    EXPECT_EQ(whole, st.total_ns) << "op " << id;
    EXPECT_EQ(st.blocked_ns, dur["l2_wait"] + dur["sn_wait"]) << "op " << id;
    EXPECT_GE(st.data_ns, dur["dma_submit"] + dur["sn_wait"]) << "op " << id;
  }
}

// ------------------------------------------------------------- stats ----

TEST(StatsTest, SummarizeEmptyHistogram) {
  Histogram h;
  const obs::LatencySummary s = obs::Summarize(h);
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean_ns, 0.0);
  EXPECT_EQ(s.min_ns, 0u);
  EXPECT_EQ(s.p50_ns, 0u);
  EXPECT_EQ(s.p999_ns, 0u);
  EXPECT_EQ(s.max_ns, 0u);
}

TEST(StatsTest, SummarizeSingleSample) {
  Histogram h;
  h.Record(1000);
  const obs::LatencySummary s = obs::Summarize(h);
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.min_ns, 1000u);
  EXPECT_EQ(s.max_ns, 1000u);
  // Percentiles are bucketed upper bounds: within 1.6% above the sample.
  EXPECT_GE(s.p50_ns, 1000u);
  EXPECT_LE(s.p50_ns, 1016u);
  EXPECT_GE(s.p999_ns, s.p50_ns);
}

TEST(StatsTest, CollectStatsCountsFsWork) {
  harness::TestbedConfig cfg;
  cfg.fs = harness::FsKind::kEasy;
  cfg.machine_cores = 2;
  cfg.device_bytes = 256_MB;
  harness::Testbed tb(cfg);
  tb.sim().Spawn(0, [&] {
    int fd = *tb.fs().Create("/s");
    std::vector<std::byte> buf(64_KB, std::byte{0x11});
    for (int i = 0; i < 8; ++i) {
      EASYIO_CHECK_OK(tb.fs().Write(fd, uint64_t(i) * 64_KB, buf).status());
    }
    EASYIO_CHECK_OK(tb.fs().Read(fd, 0, buf).status());
  });
  tb.sim().Run();

  obs::StatsSnapshot snap = tb.CollectStats();
  EXPECT_EQ(snap.now_ns, tb.sim().now());
  ASSERT_EQ(snap.cores.size(), 2u);
  EXPECT_GT(snap.cores[0].busy_ns, 0u);
  EXPECT_GT(snap.cores[0].busy_fraction, 0.0);
  ASSERT_FALSE(snap.channels.empty());
  uint64_t chan_bytes = 0;
  for (const auto& ch : snap.channels) {
    chan_bytes += ch.bytes_completed;
  }
  EXPECT_GT(chan_bytes, 0u);  // 64K writes are DMA-offloaded
  ASSERT_EQ(snap.fs.size(), 1u);
  const obs::FsStats& f = snap.fs[0];
  EXPECT_EQ(f.name, "EasyIO");
  EXPECT_EQ(f.ops_write, 8u);
  EXPECT_EQ(f.ops_read, 1u);
  EXPECT_EQ(f.bytes_written, 8u * 64_KB);
  EXPECT_EQ(f.bytes_read, 64_KB);
  // Every written/read byte moved either over DMA or through the CPU.
  EXPECT_EQ(f.bytes_cpu + f.bytes_dma, f.bytes_written + f.bytes_read);

  Histogram lat;
  lat.Record(123);
  snap.AddLatency("op_ns", lat);

  // Print() is the flat machine-readable dump; spot-check its grammar.
  const std::string path = testing::TempDir() + "/obs_stats_dump.txt";
  std::FILE* out = std::fopen(path.c_str(), "w");
  ASSERT_NE(out, nullptr);
  snap.Print(out);
  std::fclose(out);
  const std::string dump = ReadFile(path);
  EXPECT_NE(dump.find("fs[EasyIO].ops_write=8"), std::string::npos) << dump;
  EXPECT_NE(dump.find("stats.events_scheduled="), std::string::npos);
  EXPECT_NE(dump.find("core[0].busy_ns="), std::string::npos);
  EXPECT_NE(dump.find("chan[0].bytes="), std::string::npos);
  EXPECT_NE(dump.find("lat[op_ns].count=1"), std::string::npos);
}

}  // namespace
}  // namespace easyio
