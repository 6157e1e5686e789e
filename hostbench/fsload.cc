// Closed-loop, fxmark-shaped load generator with a host-side shadow of
// every file.
//
// fxmark::Run times set-up, warm-up and measurement as one block and aborts
// on the first failed call, so the benchmark drives the workers itself: it
// times the Testbed constructor, the prefill, the warm-up RunUntil and the
// timed RunUntil separately, counts failures, and checks what the
// filesystem returns against a shadow kept on the host.
//
// Content model. Every 4 KiB page starts with a 16-byte header naming who
// wrote it; the rest of the page comes from a pattern of that writer:
//   prefill of file f, page p:    {kPrefillTag + f, p}  + file pattern f
//   write by worker w, seq s:     {kWriteTag + w, s}    + worker pattern w
// A page read back must carry the header the shadow expects and the
// writer's pattern, so a misdirected, stale or torn page is caught.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <span>

#include "hostbench/hostbench.h"
#include "src/common/rng.h"

namespace hostbench {

namespace easy = easyio;

namespace {

constexpr uint64_t kPage = 4096;
constexpr uint64_t kHeader = 16;
constexpr uint64_t kPrefillTag = 0x50524546494c0000ull;  // "PREFIL"
constexpr uint64_t kWriteTag = 0x5752495445000000ull;    // "WRITE"
constexpr uint64_t kChunk = 1ull << 20;

const char* OpName(Op op) {
  switch (op) {
    case Op::kDWAL: return "DWAL";
    case Op::kDRBL: return "DRBL";
    case Op::kDWOM: return "DWOM";
  }
  return "?";
}

void FillRandom(std::vector<std::byte>* v, uint64_t seed) {
  easy::Rng rng(seed);
  for (auto& b : *v) {
    b = static_cast<std::byte>(rng.Next());
  }
}

void PutHeader(std::byte* page, uint64_t tag, uint64_t word) {
  std::memcpy(page, &tag, 8);
  std::memcpy(page + 8, &word, 8);
}

// Host-side model of what every file must contain.
class Shadow {
 public:
  Shadow(const CaseSpec& spec, uint64_t seed, int workers, int files)
      : spec_(spec),
        workers_(workers),
        blocks_(std::max<uint64_t>(1, spec.file_bytes / spec.io_size)),
        file_pat_(static_cast<size_t>(files)),
        worker_pat_(static_cast<size_t>(workers)),
        last_seq_(static_cast<size_t>(files) * blocks_ *
                      (spec.op == Op::kDWOM ? workers : 1),
                  0) {
    for (int f = 0; f < files; ++f) {
      file_pat_[f].resize(kPage);
      FillRandom(&file_pat_[f], seed * 1000003 + static_cast<uint64_t>(f));
    }
    for (int w = 0; w < workers; ++w) {
      worker_pat_[w].resize(spec.io_size);
      FillRandom(&worker_pat_[w],
                 seed * 7000003 + 17 + static_cast<uint64_t>(w));
    }
  }

  uint64_t blocks() const { return blocks_; }

  // Prefill content of bytes [off, off + out.size()) of file f.
  void FillPrefill(int f, uint64_t off, std::span<std::byte> out) const {
    for (uint64_t i = 0; i < out.size(); i += kPage) {
      std::byte* page = out.data() + i;
      std::memcpy(page, file_pat_[f].data(), kPage);
      PutHeader(page, kPrefillTag + static_cast<uint64_t>(f),
                (off + i) / kPage);
    }
  }

  // Stamps worker w's next write (sequence number `seq`) into buf.
  void StampWrite(int w, uint64_t seq, std::span<std::byte> buf) const {
    for (uint64_t i = 0; i < buf.size(); i += kPage) {
      PutHeader(buf.data() + i, kWriteTag + static_cast<uint64_t>(w), seq);
    }
  }

  void InitWriteBuffer(int w, std::span<std::byte> buf) const {
    std::memcpy(buf.data(), worker_pat_[w].data(), buf.size());
  }

  // Records that worker w's write `seq` of (file f, block b) returned.
  void NoteWrite(int f, uint64_t b, int w, uint64_t seq) {
    last_seq_[Slot(f, b, w)] = seq;
  }

  // True if `data` (block b of file f, io_size bytes) is what the shadow
  // allows: the prefill if nobody wrote the block, else the last write of
  // the worker whose header it carries.
  bool Check(int f, uint64_t b, std::span<const std::byte> data) const {
    uint64_t tag = 0;
    std::memcpy(&tag, data.data(), 8);
    if (tag == kPrefillTag + static_cast<uint64_t>(f)) {
      if (spec_.op != Op::kDRBL && AnyWrite(f, b)) {
        return false;
      }
      return MatchesPrefill(f, b * spec_.io_size, data);
    }
    const uint64_t w = tag - kWriteTag;
    if (spec_.op == Op::kDRBL || w >= static_cast<uint64_t>(workers_)) {
      return false;
    }
    if (spec_.op == Op::kDWAL && w != static_cast<uint64_t>(f)) {
      return false;
    }
    const uint64_t seq = last_seq_[Slot(f, b, static_cast<int>(w))];
    if (seq == 0) {
      return false;
    }
    for (uint64_t i = 0; i < data.size(); i += kPage) {
      uint64_t got[2];
      std::memcpy(got, data.data() + i, kHeader);
      if (got[0] != tag || got[1] != seq ||
          std::memcmp(data.data() + i + kHeader,
                      worker_pat_[w].data() + i + kHeader,
                      kPage - kHeader) != 0) {
        return false;
      }
    }
    return true;
  }

 private:
  size_t Slot(int f, uint64_t b, int w) const {
    const size_t fb = static_cast<size_t>(f) * blocks_ + b;
    return spec_.op == Op::kDWOM ? fb * workers_ + static_cast<size_t>(w)
                                 : fb;
  }

  bool AnyWrite(int f, uint64_t b) const {
    const int n = spec_.op == Op::kDWOM ? workers_ : 1;
    for (int w = 0; w < n; ++w) {
      if (last_seq_[Slot(f, b, w)] != 0) {
        return true;
      }
    }
    return false;
  }

  bool MatchesPrefill(int f, uint64_t off,
                      std::span<const std::byte> data) const {
    for (uint64_t i = 0; i < data.size(); i += kPage) {
      uint64_t got[2];
      std::memcpy(got, data.data() + i, kHeader);
      if (got[0] != kPrefillTag + static_cast<uint64_t>(f) ||
          got[1] != (off + i) / kPage ||
          std::memcmp(data.data() + i + kHeader,
                      file_pat_[f].data() + kHeader, kPage - kHeader) != 0) {
        return false;
      }
    }
    return true;
  }

  const CaseSpec& spec_;
  const int workers_;
  const uint64_t blocks_;
  std::vector<std::vector<std::byte>> file_pat_;
  std::vector<std::vector<std::byte>> worker_pat_;
  std::vector<uint64_t> last_seq_;  // 0 = never written
};

// Reads every accessor the per-layer metrics use at one instant.
struct Sample {
  easy::obs::StatsSnapshot stats;
  uint64_t barriers = 0;
  uint64_t flow_bytes = 0;
  uint64_t quarantines = 0;
};

Sample TakeSample(easy::harness::Testbed& tb) {
  Sample s;
  {
    Span span("harness.CollectStats");
    s.stats = tb.CollectStats();
  }
  s.barriers = tb.mem().barrier_count();
  s.flow_bytes = tb.mem().read_flows().bytes_completed() +
                 tb.mem().write_flows().bytes_completed();
  if (tb.channel_manager() != nullptr) {
    s.quarantines = tb.channel_manager()->quarantines();
  }
  return s;
}

// Fills the counter fields of `c` with after - before.
void Delta(const Sample& before, const Sample& after, Counts* c) {
  c->virt_window_ns = after.stats.now_ns - before.stats.now_ns;
  c->switches =
      after.stats.context_switches - before.stats.context_switches;
  c->barriers = after.barriers - before.barriers;
  c->flow_bytes = after.flow_bytes - before.flow_bytes;
  c->quarantines = after.quarantines - before.quarantines;
  for (size_t i = 0; i < after.stats.channels.size(); ++i) {
    const auto& a = after.stats.channels[i];
    const auto& b = before.stats.channels[i];
    c->descriptors += a.descriptors_completed - b.descriptors_completed;
    c->dma_bytes += a.bytes_completed - b.bytes_completed;
    c->dma_retries += a.retries - b.retries;
    c->dma_errors += a.transfer_errors - b.transfer_errors;
    c->dma_sw_completions += a.software_completions - b.software_completions;
  }
  for (size_t i = 0; i < after.stats.fs.size(); ++i) {
    const auto& a = after.stats.fs[i];
    const auto& b = before.stats.fs[i];
    c->nova_cpu_bytes += a.bytes_cpu - b.bytes_cpu;
    c->nova_dma_bytes += a.bytes_dma - b.bytes_dma;
    c->log_compactions += a.log_compactions - b.log_compactions;
  }
}

struct WorkerState {
  easy::Histogram latency;
  uint64_t ops = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t cpu_ns = 0, index_ns = 0, meta_ns = 0, data_ns = 0,
           blocked_ns = 0;
};

void RunCaseInner(const CaseSpec& spec, uint64_t seed, CaseResult* out) {
  easy::harness::TestbedConfig cfg;
  cfg.fs = spec.fs;
  cfg.machine_cores = spec.machine_cores;
  cfg.device_bytes = spec.device_bytes;
  const bool is_easy = spec.fs == FsKind::kEasy;
  const int workers = spec.cores * (is_easy ? 2 : 1);
  const int files = spec.op == Op::kDWOM ? 1 : workers;
  HostCost& host = out->host;

  // ---- set-up: Testbed constructor (incl. Format), then prefill ----
  const long setup_flt0 = ThreadMinorFaults();
  std::unique_ptr<easy::harness::Testbed> tb;
  {
    Span span("harness.Testbed", &host.testbed_s);
    tb = std::make_unique<easy::harness::Testbed>(cfg);
  }
  host.testbeds = 1;
  easy::sim::Simulation& sim = tb->sim();
  easy::fs::FileSystem& fs = tb->fs();
  Shadow shadow(spec, seed, workers, files);
  std::vector<int> fds(static_cast<size_t>(files), -1);
  uint64_t setup_attempted = 0;
  uint64_t setup_failed = 0;
  {
    Span span("harness.prefill", &host.prefill_s);
    sim.Spawn(0, [&] {
      std::vector<std::byte> chunk(kChunk);
      for (int f = 0; f < files; ++f) {
        setup_attempted++;
        auto fd = fs.Create("/hb" + std::to_string(f));
        if (!fd.ok()) {
          setup_failed++;
          continue;
        }
        fds[static_cast<size_t>(f)] = *fd;
        for (uint64_t off = 0; off < spec.file_bytes; off += kChunk) {
          const auto part = std::span(chunk).subspan(
              0, std::min<uint64_t>(kChunk, spec.file_bytes - off));
          shadow.FillPrefill(f, off, part);
          setup_attempted++;
          auto n = fs.Write(*fd, off, part);
          if (!n.ok() || *n != part.size()) {
            setup_failed++;
          }
        }
      }
    });
    sim.Run();
  }
  host.setup_minflt = ThreadMinorFaults() - setup_flt0;

  // ---- closed-loop workers: warm-up, then the timed window ----
  auto* sched = tb->MakeScheduler(spec.cores, /*work_stealing=*/is_easy);
  bool measuring = false;
  bool stop = false;
  const easy::sim::SimTime t_warm = sim.now() + spec.warmup_ns;
  const easy::sim::SimTime t_end = t_warm + spec.window_ns;
  sim.ScheduleAt(t_warm, [&measuring] { measuring = true; });
  sim.ScheduleAt(t_end, [&stop] { stop = true; });
  std::vector<WorkerState> ws(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    sched->SpawnOn(w % spec.cores, [&, w] {
      WorkerState& me = ws[static_cast<size_t>(w)];
      easy::Rng rng(seed * 7919 + static_cast<uint64_t>(w));
      std::vector<std::byte> buf(spec.io_size);
      shadow.InitWriteBuffer(w, buf);
      const int f = spec.op == Op::kDWOM ? 0 : w;
      const int fd = fds[static_cast<size_t>(f)];
      uint64_t seq = 0;
      uint64_t next_block = 0;
      while (!stop) {
        const uint64_t b = spec.op == Op::kDWAL
                               ? next_block++ % shadow.blocks()
                               : rng.Below(shadow.blocks());
        const uint64_t off = b * spec.io_size;
        easy::fs::OpStats st;
        bool ok = false;
        me.attempted++;
        if (spec.op == Op::kDRBL) {
          auto n = fs.Read(fd, off, buf, &st);
          ok = n.ok() && *n == buf.size() && shadow.Check(f, b, buf);
        } else {
          shadow.StampWrite(w, ++seq, buf);
          auto n = fs.Write(fd, off, buf, &st);
          ok = n.ok() && *n == buf.size();
          if (ok) {
            shadow.NoteWrite(f, b, w, seq);
          }
        }
        if (!ok) {
          me.failed++;
        }
        if (measuring && !stop) {
          me.ops++;
          me.latency.Record(st.total_ns);
          me.cpu_ns += st.cpu_ns;
          me.index_ns += st.index_ns;
          me.meta_ns += st.meta_ns;
          me.data_ns += st.data_ns;
          me.blocked_ns += st.blocked_ns;
        }
      }
    });
  }
  const long run_flt0 = ThreadMinorFaults();
  {
    Span span("sim.RunUntil.warmup");
    sim.RunUntil(t_warm);
  }
  const Sample before = TakeSample(*tb);
  const uint64_t allocs0 = ThreadAllocs();
  {
    Span span("sim.RunUntil.window", &host.window_s);
    sim.RunUntil(t_end);
  }
  host.window_allocs = ThreadAllocs() - allocs0;
  const Sample after = TakeSample(*tb);
  host.run_minflt = ThreadMinorFaults() - run_flt0;
  sim.Run();  // workers see `stop` and finish their last op

  // ---- read everything back against the shadow ----
  uint64_t verify_attempted = 0;
  uint64_t verify_failed = 0;
  if (spec.op != Op::kDRBL) {
    Span span("harness.verify");
    sim.Spawn(0, [&] {
      std::vector<std::byte> chunk(kChunk);
      for (int f = 0; f < files; ++f) {
        const int fd = fds[static_cast<size_t>(f)];
        if (fd < 0) {
          continue;
        }
        for (uint64_t off = 0; off < spec.file_bytes; off += kChunk) {
          const auto part = std::span(chunk).subspan(
              0, std::min<uint64_t>(kChunk, spec.file_bytes - off));
          verify_attempted++;
          auto n = fs.Read(fd, off, part);
          if (!n.ok() || *n != part.size()) {
            verify_failed++;
            continue;
          }
          for (uint64_t i = 0; i + spec.io_size <= part.size();
               i += spec.io_size) {
            verify_attempted++;
            if (!shadow.Check(f, (off + i) / spec.io_size,
                              part.subspan(i, spec.io_size))) {
              verify_failed++;
            }
          }
        }
      }
    });
    sim.Run();
  }

  Counts& c = out->counts;
  Delta(before, after, &c);
  c.tasks_spawned = sim.tasks_spawned();
  out->attempted = setup_attempted + verify_attempted;
  out->failed = setup_failed + verify_failed;
  for (const WorkerState& w : ws) {
    c.ops += w.ops;
    c.latency.Merge(w.latency);
    c.cpu_ns += w.cpu_ns;
    c.index_ns += w.index_ns;
    c.meta_ns += w.meta_ns;
    c.data_ns += w.data_ns;
    c.blocked_ns += w.blocked_ns;
    out->attempted += w.attempted;
    out->failed += w.failed;
  }
  if (out->failed != 0) {
    std::fprintf(stderr, "hostbench: %s: %llu of %llu checks failed\n",
                 spec.Label().c_str(),
                 static_cast<unsigned long long>(out->failed),
                 static_cast<unsigned long long>(out->attempted));
  }
  tb.reset();
}

}  // namespace

std::string CaseSpec::Label() const {
  return std::string(easy::harness::FsKindName(fs)) + "/" + OpName(op) + "/" +
         std::to_string(io_size / 1024) + "K/" + std::to_string(cores) + "c";
}

void Counts::Add(const Counts& o) {
  ops += o.ops;
  virt_window_ns += o.virt_window_ns;
  switches += o.switches;
  tasks_spawned += o.tasks_spawned;
  barriers += o.barriers;
  descriptors += o.descriptors;
  dma_bytes += o.dma_bytes;
  flow_bytes += o.flow_bytes;
  nova_cpu_bytes += o.nova_cpu_bytes;
  nova_dma_bytes += o.nova_dma_bytes;
  log_compactions += o.log_compactions;
  dma_retries += o.dma_retries;
  dma_errors += o.dma_errors;
  dma_sw_completions += o.dma_sw_completions;
  quarantines += o.quarantines;
  latency.Merge(o.latency);
  cpu_ns += o.cpu_ns;
  index_ns += o.index_ns;
  meta_ns += o.meta_ns;
  data_ns += o.data_ns;
  blocked_ns += o.blocked_ns;
}

void Counts::AddTo(Digest* d) const {
  for (uint64_t v :
       {ops, virt_window_ns, switches, tasks_spawned, barriers, descriptors,
        dma_bytes, flow_bytes, nova_cpu_bytes, nova_dma_bytes,
        log_compactions, dma_retries, dma_errors, dma_sw_completions,
        quarantines, cpu_ns, index_ns, meta_ns, data_ns, blocked_ns}) {
    d->Add(v);
  }
  d->Add(latency);
}

void HostCost::Add(const HostCost& o) {
  testbed_s += o.testbed_s;
  prefill_s += o.prefill_s;
  window_s += o.window_s;
  job_s += o.job_s;
  setup_minflt += o.setup_minflt;
  run_minflt += o.run_minflt;
  window_allocs += o.window_allocs;
  testbeds += o.testbeds;
}

CaseResult RunCase(const CaseSpec& spec, uint64_t seed) {
  CaseResult out;
  ScenarioScope scenario;
  {
    Span span("harness.job", &out.host.job_s);
    try {
      RunCaseInner(spec, seed, &out);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "hostbench: %s threw: %s\n", spec.Label().c_str(),
                   e.what());
      out.attempted++;
      out.failed++;
    }
  }
  return out;
}

}  // namespace hostbench
