#include "src/crashmonkey/crash_test.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <set>

#include "src/common/rng.h"

namespace easyio::crashmonkey {

namespace {

std::vector<std::byte> Pattern(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) {
    b = static_cast<std::byte>(rng.Next());
  }
  return out;
}

void ModelWrite(ExpectedState& st, const std::string& path, uint64_t off,
                const std::vector<std::byte>& data) {
  auto it = st.find(path);
  assert(it != st.end() && "model: write to missing file");
  auto& content = *it->second;
  if (content.size() < off + data.size()) {
    content.resize(off + data.size(), std::byte{0});
  }
  std::copy(data.begin(), data.end(), content.begin() + off);
}

}  // namespace

WorkloadBuilder& WorkloadBuilder::Create(const std::string& path) {
  ops_.push_back(CrashOp{
      "create " + path,
      [path](fs::FileSystem& fs) {
        int fd = *fs.Create(path);
        EASYIO_CHECK_OK(fs.Close(fd));
      },
      [path](ExpectedState& st) {
        st[path] = std::make_shared<std::vector<std::byte>>();
      }});
  return *this;
}

WorkloadBuilder& WorkloadBuilder::Write(const std::string& path, uint64_t off,
                                        std::vector<std::byte> data) {
  ops_.push_back(CrashOp{
      "write " + path,
      [path, off, data](fs::FileSystem& fs) {
        int fd = *fs.Open(path);
        EASYIO_CHECK_OK(fs.Write(fd, off, data).status());
        EASYIO_CHECK_OK(fs.Close(fd));
      },
      [path, off, data](ExpectedState& st) {
        ModelWrite(st, path, off, data);
      }});
  return *this;
}

WorkloadBuilder& WorkloadBuilder::Append(const std::string& path,
                                         std::vector<std::byte> data) {
  ops_.push_back(CrashOp{
      "append " + path,
      [path, data](fs::FileSystem& fs) {
        int fd = *fs.Open(path);
        EASYIO_CHECK_OK(fs.Append(fd, data).status());
        EASYIO_CHECK_OK(fs.Close(fd));
      },
      [path, data](ExpectedState& st) {
        auto it = st.find(path);
        assert(it != st.end());
        ModelWrite(st, path, it->second->size(), data);
      }});
  return *this;
}

WorkloadBuilder& WorkloadBuilder::Unlink(const std::string& path) {
  ops_.push_back(CrashOp{
      "unlink " + path,
      [path](fs::FileSystem& fs) { EASYIO_CHECK_OK(fs.Unlink(path)); },
      [path](ExpectedState& st) { st.erase(path); }});
  return *this;
}

WorkloadBuilder& WorkloadBuilder::Link(const std::string& existing,
                                       const std::string& to) {
  ops_.push_back(CrashOp{
      "link " + existing + " -> " + to,
      [existing, to](fs::FileSystem& fs) {
        EASYIO_CHECK_OK(fs.Link(existing, to));
      },
      [existing, to](ExpectedState& st) {
        st[to] = st.at(existing);  // shares content (hard link)
      }});
  return *this;
}

WorkloadBuilder& WorkloadBuilder::Rename(const std::string& from,
                                         const std::string& to) {
  ops_.push_back(CrashOp{
      "rename " + from + " -> " + to,
      [from, to](fs::FileSystem& fs) {
        EASYIO_CHECK_OK(fs.Rename(from, to));
      },
      [from, to](ExpectedState& st) {
        st[to] = st.at(from);
        st.erase(from);
      }});
  return *this;
}

std::vector<CrashWorkload> StandardWorkloads(uint64_t seed) {
  std::vector<CrashWorkload> out;

  {
    // create_delete: create, write, remove on regular files.
    WorkloadBuilder b;
    for (int round = 0; round < 11; ++round) {
      for (int i = 0; i < 6; ++i) {
        const std::string path =
            "/cd_f" + std::to_string(round * 6 + i);
        b.Create(path);
        b.Write(path, 0,
                Pattern(3000 + static_cast<size_t>(i) * 2500,
                        seed + static_cast<uint64_t>(round * 6 + i)));
      }
      for (int i = 0; i < 6; i += 2) {
        b.Unlink("/cd_f" + std::to_string(round * 6 + i));
      }
    }
    out.push_back({"create_delete", "create, write, remove on regular files",
                   b.Build()});
  }

  {
    // generic_056: create, write, link on regular files.
    WorkloadBuilder b;
    for (int round = 0; round < 40; ++round) {
      const std::string a = "/g56_a" + std::to_string(round);
      const std::string l = "/g56_b" + std::to_string(round);
      b.Create(a);
      b.Write(a, 0, Pattern(16000, seed + 100 + static_cast<uint64_t>(round)));
      b.Link(a, l);
      // Writing through one name must show through the other.
      b.Write(a, 4096,
              Pattern(8192, seed + 200 + static_cast<uint64_t>(round)));
      if (round % 2 == 0) {
        b.Unlink(a);  // the link keeps the data alive
      }
    }
    out.push_back({"generic_056", "create, write, link on regular files",
                   b.Build()});
  }

  {
    // generic_090: write, append, link on regular files.
    WorkloadBuilder b;
    for (int round = 0; round < 34; ++round) {
      const std::string log = "/g90_log" + std::to_string(round);
      b.Create(log);
      for (int k = 0; k < 3; ++k) {
        b.Append(log, Pattern(4096, seed + 300 +
                                        static_cast<uint64_t>(round * 3 + k)));
      }
      b.Link(log, "/g90_mirror" + std::to_string(round));
      b.Append(log, Pattern(5000, seed + 400 + static_cast<uint64_t>(round)));
      b.Write(log, 1000,
              Pattern(2000, seed + 500 + static_cast<uint64_t>(round)));
    }
    out.push_back({"generic_090", "write, append, link on regular files",
                   b.Build()});
  }

  {
    // generic_322: create, write, rename on regular files.
    WorkloadBuilder b;
    for (int round = 0; round < 51; ++round) {
      const std::string tmp = "/g322_tmp" + std::to_string(round);
      const std::string final_name = "/g322_final" + std::to_string(round % 2);
      b.Create(tmp);
      b.Write(tmp, 0,
              Pattern(20000 + static_cast<size_t>(round) * 1000,
                      seed + 600 + static_cast<uint64_t>(round)));
      b.Rename(tmp, final_name);  // later rounds atomically replace
    }
    out.push_back({"generic_322", "create, write, rename on regular files",
                   b.Build()});
  }
  return out;
}

namespace {

// Collects the union of paths any op may touch (model side).
std::set<std::string> PathUniverse(const CrashWorkload& workload) {
  ExpectedState st;
  std::set<std::string> paths;
  for (const auto& op : workload.ops) {
    op.model(st);
    for (const auto& [path, content] : st) {
      paths.insert(path);
    }
  }
  return paths;
}

// Compares the recovered filesystem against one candidate expected state.
// `got` is the read buffer, reused across files and calls.
bool MatchesState(fs::FileSystem& fs, sim::Simulation& sim,
                  const ExpectedState& expected,
                  const std::set<std::string>& universe,
                  std::vector<std::byte>& got) {
  bool ok = true;
  sim.Spawn(0, [&] {
    for (const std::string& path : universe) {
      auto it = expected.find(path);
      auto fd = fs.Open(path);
      if (it == expected.end()) {
        if (fd.ok()) {
          ok = false;
          EASYIO_CHECK_OK(fs.Close(*fd));
        }
        continue;
      }
      if (!fd.ok()) {
        ok = false;
        continue;
      }
      const auto& want = *it->second;
      auto st = fs.StatFd(*fd);
      if (!st.ok() || st->size != want.size()) {
        ok = false;
      } else if (!want.empty()) {
        // memcmp, not vector ==: std::byte is an enum, so the library's
        // equality falls back to a byte-at-a-time loop.
        got.resize(want.size());
        auto r = fs.Read(*fd, 0, got);
        if (!r.ok() || *r != want.size() ||
            std::memcmp(got.data(), want.data(), want.size()) != 0) {
          ok = false;
        }
      }
      EASYIO_CHECK_OK(fs.Close(*fd));
    }
  });
  sim.Run();
  return ok;
}

}  // namespace

ModelCursor::ModelCursor(const CrashWorkload& workload)
    : workload_(&workload) {
  AdvanceTo(-1);
}

void ModelCursor::AdvanceTo(int completed) {
  assert(completed >= before_last_ && "crash sweep rewound");
  const auto& ops = workload_->ops;
  const int last = static_cast<int>(ops.size()) - 1;
  while (before_last_ < std::min(completed, last)) {
    ops[static_cast<size_t>(++before_last_)].model(before_);
  }
  while (after_last_ < std::min(completed + 1, last)) {
    ops[static_cast<size_t>(++after_last_)].model(after_);
  }
}

nova::NovaFs::Options DefaultCrashFsOptions() {
  nova::NovaFs::Options opts;
  opts.inode_count = 512;
  opts.journal_slots = 8;
  return opts;
}

CrashEnv::CrashEnv(const nova::NovaFs::Options& fs_options,
                   const dma::FaultPlan* faults)
    : mem(&sim, pmem::MediaParams::TwoNode(), kDeviceBytes) {
  fs = std::make_unique<core::EasyIoFs>(&mem, fs_options,
                                        core::EasyIoFs::EasyOptions{});
  EASYIO_CHECK_OK(fs->Format());
  engine = std::make_unique<dma::DmaEngine>(
      &mem, fs->layout().comp_region_off, 16);
  if (faults != nullptr && !faults->empty()) {
    injector = std::make_unique<dma::FaultInjector>(*faults);
    engine->AttachFaultInjector(injector.get());
  }
  cm = std::make_unique<core::ChannelManager>(
      &sim, engine.get(), core::ChannelManager::Options{});
  fs->AttachChannelManager(cm.get());
}

std::vector<uint64_t> SampleCrashPoints(const CrashWorkload& workload,
                                        int max_points,
                                        const nova::NovaFs::Options& fs_options,
                                        const dma::FaultPlan* faults) {
  // Runs under the same fault plan as the replays: retries and error-record
  // updates persist, so faults shift the barrier numbering.
  uint64_t total_barriers = 0;
  {
    CrashEnv env(fs_options, faults);
    const uint64_t base = env.mem.barrier_count();
    env.sim.Spawn(0, [&] {
      for (const auto& op : workload.ops) {
        op.apply(*env.fs);
      }
    });
    env.sim.Run();
    total_barriers = env.mem.barrier_count() - base;
  }
  const uint64_t points = std::min<uint64_t>(
      total_barriers, static_cast<uint64_t>(max_points));
  std::vector<uint64_t> out;
  out.reserve(points);
  for (uint64_t p = 1; p <= points; ++p) {
    out.push_back(total_barriers * p / points);
  }
  return out;
}

void RunWithCrashStops(
    CrashEnv& env, const CrashWorkload& workload,
    const std::vector<uint64_t>& points,
    const std::function<void(int completed, size_t first, size_t end)>&
        at_stop) {
  env.mem.EnableCrashTracking();
  const uint64_t base = env.mem.barrier_count();
  size_t next = 0;  // the first point no stop has covered yet
  env.mem.set_barrier_hook([&](uint64_t count) {
    if (next < points.size() && count == base + points[next]) {
      env.sim.RequestStop();
    }
  });
  int completed = -1;
  env.sim.Spawn(0, [&] {
    for (size_t i = 0; i < workload.ops.size(); ++i) {
      workload.ops[i].apply(*env.fs);
      completed = static_cast<int>(i);
    }
  });
  env.sim.Run();
  while (next < points.size()) {
    assert(env.sim.stop_requested() && "the run ended before a crash point");
    const uint64_t passed = env.mem.barrier_count() - base;
    size_t end = next + 1;
    while (end < points.size() && points[end] <= passed) {
      end++;
    }
    at_stop(completed, next, end);
    next = end;
    if (next < points.size()) {
      env.sim.Resume();
    }
  }
  env.mem.set_barrier_hook(nullptr);
}

int RunToCrash(CrashEnv& env, const CrashWorkload& workload, uint64_t k) {
  int completed = -1;
  RunWithCrashStops(env, workload, {k},
                    [&](int at, size_t, size_t) { completed = at; });
  return completed;
}

void WithCrashImage(pmem::SlowMemory& crashed,
                    const std::function<void(pmem::SlowMemory&)>& use) {
  sim::Simulation sim({.num_cores = 2});
  pmem::SlowMemory recovery(&sim, crashed.params(), crashed.size());
  crashed.LendCrashImage(recovery);
  use(recovery);
  crashed.ReclaimCrashImage(recovery);
}

CrashTestResult RunCrashTest(const CrashWorkload& workload, int max_points,
                             const nova::NovaFs::Options& fs_options,
                             const dma::FaultPlan* faults) {
  const std::vector<uint64_t> points =
      SampleCrashPoints(workload, max_points, fs_options, faults);
  const std::set<std::string> universe = PathUniverse(workload);
  ModelCursor models(workload);
  std::vector<std::byte> got;  // the check's read buffer, for the sweep
  CrashTestResult result;
  result.total_points = static_cast<int>(points.size());

  CrashEnv env(fs_options, faults);
  RunWithCrashStops(env, workload, points, [&](int completed, size_t first,
                                               size_t end) {
    models.AdvanceTo(completed);
    std::string failure;  // empty if the stop recovered consistently
    WithCrashImage(env.mem, [&](pmem::SlowMemory& mem2) {
      core::EasyIoFs fs2(&mem2, fs_options, core::EasyIoFs::EasyOptions{});
      const Status mount = fs2.Mount();
      if (!mount.ok()) {
        failure = "mount failed: " + mount.ToString();
        return;
      }
      // No ChannelManager attached: reads take the memcpy path, which is
      // all the checker needs.
      sim::Simulation& sim2 = *mem2.simulation();
      if (!MatchesState(fs2, sim2, models.before(), universe, got) &&
          !MatchesState(fs2, sim2, models.after(), universe, got)) {
        failure =
            "recovered state matches neither pre- nor post-state of op " +
            std::to_string(completed + 1);
      }
    });
    for (size_t i = first; i < end; ++i) {
      if (failure.empty()) {
        result.passed++;
      } else if (result.failures.size() < 5) {
        result.failures.push_back(workload.name + " @barrier " +
                                  std::to_string(points[i]) + ": " + failure);
      }
    }
  });
  return result;
}

}  // namespace easyio::crashmonkey
