// The crash environment of crashmonkey::RunCrashTest, rebuilt from public
// types, so the benchmark can time its set-up, a straight run of a Table 2
// workload, and the public steps of one crash point: replay to barrier k,
// CrashImage, LoadImage, Mount and the state check.

#include <memory>
#include <set>

#include "hostbench/hostbench.h"

namespace hostbench {

namespace easy = easyio;
using easy::crashmonkey::CrashWorkload;
using easy::crashmonkey::ExpectedState;

namespace {

constexpr size_t kCrashDeviceBytes = 24ull << 20;
constexpr int kCrashChannels = 16;

struct CrashEnv {
  easy::sim::Simulation sim{{.num_cores = 2}};
  easy::pmem::SlowMemory mem;
  // Declared before the engine: channels hold a raw pointer to it.
  std::unique_ptr<easy::dma::FaultInjector> injector;
  std::unique_ptr<easy::core::EasyIoFs> fs;
  std::unique_ptr<easy::dma::DmaEngine> engine;
  std::unique_ptr<easy::core::ChannelManager> cm;

  explicit CrashEnv(const easy::dma::FaultPlan* faults)
      : mem(&sim, easy::pmem::MediaParams::TwoNode(), kCrashDeviceBytes) {
    fs = std::make_unique<easy::core::EasyIoFs>(
        &mem, easy::crashmonkey::DefaultCrashFsOptions(),
        easy::core::EasyIoFs::EasyOptions{});
    EASYIO_CHECK_OK(fs->Format());
    engine = std::make_unique<easy::dma::DmaEngine>(
        &mem, fs->layout().comp_region_off, kCrashChannels);
    if (faults != nullptr && !faults->empty()) {
      injector = std::make_unique<easy::dma::FaultInjector>(*faults);
      engine->AttachFaultInjector(injector.get());
    }
    cm = std::make_unique<easy::core::ChannelManager>(
        &sim, engine.get(), easy::core::ChannelManager::Options{});
    fs->AttachChannelManager(cm.get());
  }
};

ExpectedState StateAfter(const CrashWorkload& w, int last_op) {
  ExpectedState st;
  for (int i = 0; i <= last_op && i < static_cast<int>(w.ops.size()); ++i) {
    w.ops[static_cast<size_t>(i)].model(st);
  }
  return st;
}

std::set<std::string> PathUniverse(const CrashWorkload& w) {
  ExpectedState st;
  std::set<std::string> paths;
  for (const auto& op : w.ops) {
    op.model(st);
    for (const auto& entry : st) {
      paths.insert(entry.first);
    }
  }
  return paths;
}

bool Matches(easy::fs::FileSystem& fs, easy::sim::Simulation& sim,
             const ExpectedState& expected,
             const std::set<std::string>& universe) {
  bool ok = true;
  sim.Spawn(0, [&] {
    for (const std::string& path : universe) {
      const auto it = expected.find(path);
      auto fd = fs.Open(path);
      if (!fd.ok()) {
        ok = ok && it == expected.end();
        continue;
      }
      if (it == expected.end()) {
        ok = false;
      } else {
        const auto& want = *it->second;
        auto st = fs.StatFd(*fd);
        std::vector<std::byte> got(want.size());
        auto n = want.empty() ? easy::StatusOr<size_t>(size_t{0})
                              : fs.Read(*fd, 0, got);
        ok = ok && st.ok() && st->size == want.size() && n.ok() &&
             *n == want.size() && got == want;
      }
      ok = fs.Close(*fd).ok() && ok;
    }
  });
  sim.Run();
  return ok;
}

void ReadCounters(CrashEnv& env, Counts* c) {
  c->switches = env.sim.context_switches();
  c->tasks_spawned = env.sim.tasks_spawned();
  c->barriers = env.mem.barrier_count();
  c->flow_bytes = env.mem.read_flows().bytes_completed() +
                  env.mem.write_flows().bytes_completed();
  for (int i = 0; i < env.engine->num_channels(); ++i) {
    const easy::dma::Channel& ch = env.engine->channel(i);
    c->descriptors += ch.descriptors_completed();
    c->dma_bytes += ch.bytes_completed();
    c->dma_retries += ch.retries();
    c->dma_errors += ch.transfer_errors();
    c->dma_sw_completions += ch.software_completions();
  }
  c->quarantines = env.cm->quarantines();
  const auto& nc = env.fs->counters();
  c->nova_cpu_bytes = nc.bytes_cpu;
  c->nova_dma_bytes = nc.bytes_dma;
  c->log_compactions = env.fs->log_compactions();
}

}  // namespace

easy::dma::FaultPlan CrashFaultPlan(uint64_t seed) {
  // Sequential crash workloads place nearly every descriptor on channels 0
  // and 1, so the faults target their first descriptors: that way they
  // fire on every seed.
  return easy::dma::FaultPlan::Random(seed, /*num_channels=*/2,
                                      /*n_errors=*/4, /*n_stalls=*/2,
                                      /*n_torn=*/2, /*ordinal_range=*/32,
                                      /*stall_ns=*/40'000);
}

CrashPassResult RunCrashWorkload(const CrashWorkload& w,
                                 const easy::dma::FaultPlan* faults) {
  CrashPassResult r;
  ScenarioScope scenario;
  std::unique_ptr<CrashEnv> env;
  const long flt0 = ThreadMinorFaults();
  {
    Span span("crash.env", &r.setup_s);
    env = std::make_unique<CrashEnv>(faults);
  }
  const long flt1 = ThreadMinorFaults();
  const uint64_t allocs0 = ThreadAllocs();
  {
    Span span("crash.workload", &r.run_s);
    env->sim.Spawn(0, [&] {
      for (const auto& op : w.ops) {
        op.apply(*env->fs);
      }
    });
    env->sim.Run();
  }
  r.run_allocs = ThreadAllocs() - allocs0;
  r.setup_minflt = flt1 - flt0;
  r.run_minflt = ThreadMinorFaults() - flt1;
  ReadCounters(*env, &r.counts);
  r.counts.ops = w.ops.size();
  return r;
}

CrashPointProbe ProbeCrashPoint(const CrashWorkload& w, uint64_t k,
                                const easy::dma::FaultPlan* faults) {
  CrashPointProbe p;
  ScenarioScope scenario;
  std::vector<std::byte> image;
  int completed = -1;
  {
    std::unique_ptr<CrashEnv> env;
    {
      Span span("crash.replay", &p.replay_s);
      env = std::make_unique<CrashEnv>(faults);
      env->mem.EnableCrashTracking();
      const uint64_t base = env->mem.barrier_count();
      CrashEnv* e = env.get();
      env->mem.set_barrier_hook([e, base, k](uint64_t count) {
        if (count == base + k) {
          e->sim.RequestStop();
        }
      });
      env->sim.Spawn(0, [&] {
        for (size_t i = 0; i < w.ops.size(); ++i) {
          w.ops[i].apply(*e->fs);
          completed = static_cast<int>(i);
        }
      });
      env->sim.Run();
    }
    Span span("crash.CrashImage", &p.image_s);
    image = env->mem.CrashImage();
  }
  std::unique_ptr<easy::sim::Simulation> sim;
  std::unique_ptr<easy::pmem::SlowMemory> mem;
  std::unique_ptr<easy::core::EasyIoFs> fs;
  {
    Span span("crash.LoadImage", &p.load_s);
    sim = std::make_unique<easy::sim::Simulation>(
        easy::sim::Simulation::Options{.num_cores = 2});
    mem = std::make_unique<easy::pmem::SlowMemory>(
        sim.get(), easy::pmem::MediaParams::TwoNode(), kCrashDeviceBytes);
    mem->LoadImage(image);
  }
  easy::Status mount;
  {
    Span span("crash.Mount", &p.mount_s);
    fs = std::make_unique<easy::core::EasyIoFs>(
        mem.get(), easy::crashmonkey::DefaultCrashFsOptions(),
        easy::core::EasyIoFs::EasyOptions{});
    mount = fs->Mount();
  }
  {
    Span span("crash.check", &p.check_s);
    if (mount.ok()) {
      const std::set<std::string> universe = PathUniverse(w);
      p.recovered =
          Matches(*fs, *sim, StateAfter(w, completed), universe) ||
          Matches(*fs, *sim, StateAfter(w, completed + 1), universe);
    }
  }
  return p;
}

}  // namespace hostbench
