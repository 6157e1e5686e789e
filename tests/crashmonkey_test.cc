// Crash-consistency tests: the CrashMonkey-style harness itself plus a
// sampled run of each Table 2 workload.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/crashmonkey/crash_test.h"
#include "tests/standard_faults.h"

namespace easyio::crashmonkey {
namespace {

// A randomized 40-step op sequence over eight paths (create, write, unlink,
// link, rename), fixed by `seed`.
CrashWorkload RandomWorkload(uint64_t seed) {
  Rng rng(seed);
  WorkloadBuilder b;
  std::map<std::string, int> live;  // path -> size hint
  std::vector<std::string> names;
  for (int i = 0; i < 8; ++i) {
    names.push_back("/r" + std::to_string(i));
  }
  for (int op = 0; op < 40; ++op) {
    const std::string& path = names[rng.Below(names.size())];
    const bool exists = live.contains(path);
    switch (rng.Below(10)) {
      case 0 ... 2:
        if (!exists) {
          b.Create(path);
          live[path] = 0;
        }
        break;
      case 3 ... 6:
        if (exists) {
          std::vector<std::byte> data(1 + rng.Below(40000));
          for (auto& x : data) {
            x = static_cast<std::byte>(rng.Next());
          }
          b.Write(path, rng.Below(16) * 4096, data);
        }
        break;
      case 7:
        if (exists) {
          b.Unlink(path);
          live.erase(path);
        }
        break;
      case 8: {
        const std::string& to = names[rng.Below(names.size())];
        if (exists && !live.contains(to)) {
          b.Link(path, to);
          live[to] = 0;
        }
        break;
      }
      default: {
        const std::string& to = names[rng.Below(names.size())];
        if (exists && to != path && !live.contains(to)) {
          b.Rename(path, to);
          live[to] = live[path];
          live.erase(path);
        }
        break;
      }
    }
  }
  return {"random_" + std::to_string(seed), "randomized op sequence",
          b.Build()};
}

// The RandomCrashSweep seeds.
constexpr uint64_t kRandomSeeds[] = {11u, 22u, 33u, 44u, 55u};

// The reference model: ops [0, last_op] replayed from scratch.
ExpectedState Replay(const CrashWorkload& w, int last_op) {
  ExpectedState st;
  for (int i = 0; i <= last_op && i < static_cast<int>(w.ops.size()); ++i) {
    w.ops[static_cast<size_t>(i)].model(st);
  }
  return st;
}

TEST(WorkloadBuilderTest, ModelTracksState) {
  WorkloadBuilder b;
  b.Create("/a");
  b.Write("/a", 0, std::vector<std::byte>(100, std::byte{1}));
  b.Link("/a", "/b");
  b.Write("/b", 50, std::vector<std::byte>(100, std::byte{2}));
  b.Rename("/b", "/c");
  b.Unlink("/a");
  auto ops = b.Build();
  ASSERT_EQ(ops.size(), 6u);

  ExpectedState st;
  for (const auto& op : ops) {
    op.model(st);
  }
  // Only /c remains; the hard link means the second write shows in it.
  ASSERT_EQ(st.size(), 1u);
  ASSERT_TRUE(st.contains("/c"));
  EXPECT_EQ(st["/c"]->size(), 150u);
  EXPECT_EQ((*st["/c"])[0], std::byte{1});
  EXPECT_EQ((*st["/c"])[60], std::byte{2});
}

TEST(WorkloadBuilderTest, AppendExtends) {
  WorkloadBuilder b;
  b.Create("/x");
  b.Append("/x", std::vector<std::byte>(10, std::byte{3}));
  b.Append("/x", std::vector<std::byte>(20, std::byte{4}));
  auto ops = b.Build();
  ExpectedState st;
  for (const auto& op : ops) {
    op.model(st);
  }
  EXPECT_EQ(st["/x"]->size(), 30u);
  EXPECT_EQ((*st["/x"])[15], std::byte{4});
}

TEST(StandardWorkloadsTest, FourWorkloadsWithOps) {
  const auto workloads = StandardWorkloads(1);
  ASSERT_EQ(workloads.size(), 4u);
  EXPECT_EQ(workloads[0].name, "create_delete");
  EXPECT_EQ(workloads[1].name, "generic_056");
  EXPECT_EQ(workloads[2].name, "generic_090");
  EXPECT_EQ(workloads[3].name, "generic_322");
  for (const auto& w : workloads) {
    EXPECT_GT(w.ops.size(), 10u) << w.name;
  }
}

// Sampled crash tests (the full 1000-point sweep runs in the table2 bench).
class CrashSweep : public ::testing::TestWithParam<int> {};

TEST_P(CrashSweep, AllSampledPointsPass) {
  const auto workloads = StandardWorkloads(42);
  const auto& w = workloads[static_cast<size_t>(GetParam())];
  const auto result = RunCrashTest(w, /*max_points=*/40);
  EXPECT_GT(result.total_points, 0) << w.name;
  EXPECT_EQ(result.passed, result.total_points) << w.name;
  for (const auto& f : result.failures) {
    ADD_FAILURE() << f;
  }
}

INSTANTIATE_TEST_SUITE_P(Table2, CrashSweep, ::testing::Values(0, 1, 2, 3),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return StandardWorkloads(42)[static_cast<size_t>(
                                                            info.param)]
                               .name;
                         });

TEST(CrashDuringGcTest, CompactionSwitchIsCrashAtomic) {
  // Enough overwrites on one file to trigger log compaction (threshold
  // lowered to 4 pages); crash points sampled across the whole run must
  // all recover consistently — including points inside the GC's
  // build-new-chain + journaled-switch window.
  WorkloadBuilder b;
  b.Create("/gc_hot");
  Rng rng(77);
  std::vector<std::byte> state(64 * 1024, std::byte{0});
  b.Write("/gc_hot", 0, state);
  for (int i = 0; i < 280; ++i) {
    std::vector<std::byte> blk(8192, static_cast<std::byte>(rng.Next()));
    b.Write("/gc_hot", rng.Below(8) * 8192, blk);
  }
  CrashWorkload w{"log_gc", "overwrite churn across a log compaction",
                  b.Build()};

  auto opts = DefaultCrashFsOptions();
  opts.gc_min_pages = 4;
  const auto result = RunCrashTest(w, /*max_points=*/50, opts);
  EXPECT_GT(result.total_points, 0);
  EXPECT_EQ(result.passed, result.total_points);
  for (const auto& f : result.failures) {
    ADD_FAILURE() << f;
  }
}

TEST(CrashDuringGcTest, DirectoryCompactionUnderRenameChurnIsCrashAtomic) {
  // Rename churn on root with the GC threshold lowered to 4 pages: the
  // root log compacts twice (at about rename 95 and 190), and every
  // persist barrier of the run is a crash point, those inside each
  // compaction's new-chain build and journaled switch included.
  WorkloadBuilder b;
  b.Create("/r0");
  b.Write("/r0", 0, std::vector<std::byte>(4096, std::byte{0x5a}));
  for (int i = 0; i < 200; ++i) {
    b.Rename(i % 2 == 0 ? "/r0" : "/r1", i % 2 == 0 ? "/r1" : "/r0");
  }
  CrashWorkload w{"dir_log_gc", "rename churn across root-log compactions",
                  b.Build()};

  auto opts = DefaultCrashFsOptions();
  opts.gc_min_pages = 4;
  const auto result = RunCrashTest(w, /*max_points=*/100000, opts);
  EXPECT_GT(result.total_points, 1000);
  EXPECT_EQ(result.passed, result.total_points);
  for (const auto& f : result.failures) {
    ADD_FAILURE() << f;
  }
}

// Contents of every path in `paths` that exists on the mounted `fs`.
std::map<std::string, std::vector<std::byte>> ReadFiles(
    fs::FileSystem& fs, sim::Simulation& sim,
    const std::set<std::string>& paths) {
  std::map<std::string, std::vector<std::byte>> out;
  sim.Spawn(0, [&] {
    for (const std::string& path : paths) {
      auto fd = fs.Open(path);
      if (!fd.ok()) {
        continue;
      }
      auto st = fs.StatFd(*fd);
      EASYIO_CHECK_OK(st.status());
      std::vector<std::byte> data(st->size);
      if (!data.empty()) {
        EASYIO_CHECK_OK(fs.Read(*fd, 0, data).status());
      }
      EASYIO_CHECK_OK(fs.Close(*fd));
      out[path] = std::move(data);
    }
  });
  sim.Run();
  return out;
}

// The model's files after ops [0, last_op].
std::map<std::string, std::vector<std::byte>> ModelAfter(
    const CrashWorkload& w, int last_op) {
  std::map<std::string, std::vector<std::byte>> out;
  for (const auto& [path, content] : Replay(w, last_op)) {
    out[path] = *content;
  }
  return out;
}

// Every path any op of `w` may touch.
std::set<std::string> Universe(const CrashWorkload& w) {
  std::set<std::string> universe;
  for (int i = 0; i < static_cast<int>(w.ops.size()); ++i) {
    for (const auto& [path, content] : ModelAfter(w, i)) {
      universe.insert(path);
    }
  }
  return universe;
}

// The workloads the crash sweeps run: the Table 2 four, then the random
// ones.
std::vector<CrashWorkload> SweptWorkloads() {
  std::vector<CrashWorkload> workloads = StandardWorkloads(42);
  for (const uint64_t seed : kRandomSeeds) {
    workloads.push_back(RandomWorkload(seed));
  }
  return workloads;
}

// The first offset at which `mem` reads other than `want` (its size if
// none), read a chunk at a time through CopyOut, which changes nothing.
size_t FirstDifference(const pmem::SlowMemory& mem,
                       const std::vector<std::byte>& want) {
  constexpr size_t kChunk = 1_MB;
  std::vector<std::byte> chunk(kChunk);
  for (size_t off = 0; off < mem.size(); off += kChunk) {
    const size_t n = std::min(kChunk, mem.size() - off);
    mem.CopyOut(chunk.data(), off, n);
    // memcmp first: std::mismatch compares std::byte one at a time.
    if (std::memcmp(chunk.data(), want.data() + off, n) != 0) {
      const auto diff =
          std::mismatch(chunk.begin(), chunk.begin() + n, want.begin() + off);
      return off + static_cast<size_t>(diff.first - chunk.begin());
    }
  }
  return mem.size();
}

// The first persist barrier, numbered as SampleCrashPoints numbers them, at
// which a write flow is active (a write has started moving and not landed),
// or 0 if there is none.
uint64_t FirstInFlightBarrier(const CrashWorkload& w,
                              const nova::NovaFs::Options& opts,
                              const dma::FaultPlan* faults) {
  CrashEnv env(opts, faults);
  const uint64_t base = env.mem.barrier_count();
  uint64_t first = 0;
  env.mem.set_barrier_hook([&](uint64_t count) {
    const sim::FlowResource& writes = env.mem.write_flows();
    if (first == 0 && writes.active_flows(sim::FlowType::kCpu) +
                              writes.active_flows(sim::FlowType::kDma) >
                          0) {
      first = count - base;
    }
  });
  env.sim.Spawn(0, [&] {
    for (const auto& op : w.ops) {
      op.apply(*env.fs);
    }
  });
  env.sim.Run();
  return first;
}

// The single stopped run of a sweep must show every crash point the crash
// state a run stopped there alone reaches: the image the recovery device
// adopts in place (prefixes laid, before Mount) equals the snapshot of
// RunToCrash + CrashImage(), with the same completed ops. And once recovery
// has mounted and read that image and handed it back, the stopped run's
// device reads as it did before. The parameter indexes SweptWorkloads().
class AdoptEquivalence
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(AdoptEquivalence, AdoptedBytesEqualSnapshot) {
  const auto [index, faulty] = GetParam();
  const std::vector<CrashWorkload> workloads = SweptWorkloads();
  const CrashWorkload& w = workloads[static_cast<size_t>(index)];
  const dma::FaultPlan plan = StandardFaults();
  const dma::FaultPlan* faults = faulty ? &plan : nullptr;
  const auto opts = DefaultCrashFsOptions();
  std::vector<uint64_t> points =
      SampleCrashPoints(w, /*max_points=*/30, opts, faults);
  ASSERT_EQ(points.size(), 30u) << w.name;
  // generic_090 never has a write moving at a barrier: its one DMA write
  // per round, a 5000-byte append, commits (two barriers) before its
  // transfer starts and no barrier falls while it moves, and its CPU
  // copies hold the one busy core until they land. Every other workload
  // must check a stop that catches a write partway, so its first such
  // barrier joins the sample.
  const bool exempt = w.name == "generic_090";
  const uint64_t first_in_flight = FirstInFlightBarrier(w, opts, faults);
  ASSERT_EQ(first_in_flight == 0, exempt) << w.name;
  if (first_in_flight != 0) {
    const auto at =
        std::lower_bound(points.begin(), points.end(), first_in_flight);
    if (at == points.end() || *at != first_in_flight) {
      points.insert(at, first_in_flight);
    }
  }
  const std::set<std::string> universe = Universe(w);

  int in_flight = 0;  // stops that caught a write moving
  std::vector<std::byte> live;
  CrashEnv env(opts, faults);
  RunWithCrashStops(env, w, points, [&](int completed, size_t first,
                                        size_t end) {
    const sim::FlowResource& writes = env.mem.write_flows();
    in_flight += writes.active_flows(sim::FlowType::kCpu) +
                     writes.active_flows(sim::FlowType::kDma) >
                 0;
    live.resize(env.mem.size());
    env.mem.CopyOut(live.data(), 0, live.size());
    for (size_t i = first; i < end; ++i) {
      const uint64_t k = points[i];
      CrashEnv replay(opts, faults);
      EXPECT_EQ(RunToCrash(replay, w, k), completed)
          << w.name << " @barrier " << k;
      const std::vector<std::byte> image = replay.mem.CrashImage();
      WithCrashImage(env.mem, [&](pmem::SlowMemory& mem2) {
        EXPECT_EQ(FirstDifference(mem2, image), image.size())
            << w.name << " @barrier " << k;
        core::EasyIoFs fs2(&mem2, opts, core::EasyIoFs::EasyOptions{});
        ASSERT_TRUE(fs2.Mount().ok()) << w.name << " @barrier " << k;
        ReadFiles(fs2, *mem2.simulation(), universe);
      });
    }
    EXPECT_EQ(FirstDifference(env.mem, live), live.size())
        << w.name << " rolled back @barrier " << points[end - 1];
  });
  // Some stops must catch a write partway, or the crash states around a
  // partly landed write went untested.
  if (!exempt) {
    EXPECT_GT(in_flight, 0) << w.name;
  }
}

std::string SweptWorkloadName(
    const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
  return SweptWorkloads()[static_cast<size_t>(std::get<0>(info.param))].name +
         (std::get<1>(info.param) ? "_faults" : "");
}

INSTANTIATE_TEST_SUITE_P(Table2, AdoptEquivalence,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Bool()),
                         SweptWorkloadName);
INSTANTIATE_TEST_SUITE_P(Seeds, AdoptEquivalence,
                         ::testing::Combine(::testing::Range(4, 9),
                                            ::testing::Bool()),
                         SweptWorkloadName);

TEST(CrashImageTest, RecoversAfterCrashedEnvIsDestroyed) {
  // A snapshot outlives the crashed machine: its simulation, suspended
  // tasks, flows and DMA engine are torn down after CrashImage() and must
  // leave the loaded image intact.
  const CrashWorkload w = StandardWorkloads(42)[3];
  const auto opts = DefaultCrashFsOptions();
  const std::vector<uint64_t> points =
      SampleCrashPoints(w, /*max_points=*/7, opts, nullptr);
  ASSERT_EQ(points.size(), 7u);
  const std::set<std::string> universe = Universe(w);

  for (const uint64_t k : {points[2], points[5]}) {
    sim::Simulation sim2({.num_cores = 2});
    pmem::SlowMemory mem2(&sim2, pmem::MediaParams::TwoNode(),
                          CrashEnv::kDeviceBytes);
    int completed = -1;
    {
      auto env = std::make_unique<CrashEnv>(opts);
      completed = RunToCrash(*env, w, k);
      ASSERT_LT(completed + 1, static_cast<int>(w.ops.size()))
          << "crash point " << k << " must stop the run mid-workload";
      mem2.LoadImage(env->mem.CrashImage());
    }
    core::EasyIoFs fs2(&mem2, opts, core::EasyIoFs::EasyOptions{});
    ASSERT_TRUE(fs2.Mount().ok()) << "@barrier " << k;
    const auto got = ReadFiles(fs2, sim2, universe);
    EXPECT_FALSE(got.empty());
    EXPECT_TRUE(got == ModelAfter(w, completed) ||
                got == ModelAfter(w, completed + 1))
        << "@barrier " << k << " after op " << completed;
  }
}

TEST(LendCrashImageTest, ParkedMappingsStayZeroAfterCrashedTeardown) {
  // A crashed device is lent, mounted and handed back, then released with
  // DMA in flight and tasks suspended; CrashEnv destroys its device before
  // its simulation. Whatever that teardown does, the mappings it and the
  // recovery device park must come back all-zero.
  const CrashWorkload w = StandardWorkloads(42)[3];
  const auto opts = DefaultCrashFsOptions();
  const dma::FaultPlan plan = StandardFaults();
  const dma::FaultPlan* const fault_cases[] = {nullptr, &plan};
  for (const dma::FaultPlan* faults : fault_cases) {
    const std::vector<uint64_t> points =
        SampleCrashPoints(w, /*max_points=*/7, opts, faults);
    ASSERT_EQ(points.size(), 7u);
    {
      auto env = std::make_unique<CrashEnv>(opts, faults);
      const int completed = RunToCrash(*env, w, points[3]);
      ASSERT_LT(completed + 1, static_cast<int>(w.ops.size()))
          << "crash point " << points[3] << " must stop the run mid-workload";
      WithCrashImage(env->mem, [&](pmem::SlowMemory& mem2) {
        core::EasyIoFs fs2(&mem2, opts, core::EasyIoFs::EasyOptions{});
        ASSERT_TRUE(fs2.Mount().ok()) << "@barrier " << points[3];
      });
      env.reset();
    }
    const pmem::ZeroMappedBytes parked[] = {
        pmem::ZeroMappedBytes(CrashEnv::kDeviceBytes),
        pmem::ZeroMappedBytes(CrashEnv::kDeviceBytes)};
    for (const pmem::ZeroMappedBytes& bytes : parked) {
      const std::byte* p = bytes.data();
      EXPECT_TRUE(p[0] == std::byte{0} &&
                  std::memcmp(p, p + 1, bytes.size() - 1) == 0)
          << (faults != nullptr ? "with" : "without") << " faults";
    }
  }
}

// Empty if `got` and `want` hold the same paths, the same bytes and the same
// hard-link groups (paths sharing one content vector); else the first
// difference.
std::string StateDiff(const ExpectedState& got, const ExpectedState& want) {
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " paths, want " +
           std::to_string(want.size());
  }
  // Hard links match when content vectors pair up one to one.
  std::map<const void*, const void*> to_want;
  std::map<const void*, const void*> to_got;
  for (auto g = got.begin(), w = want.begin(); g != got.end(); ++g, ++w) {
    if (g->first != w->first) {
      return "path " + g->first + ", want " + w->first;
    }
    const std::vector<std::byte>& a = *g->second;
    const std::vector<std::byte>& b = *w->second;
    if (a.size() != b.size() ||
        (!a.empty() && std::memcmp(a.data(), b.data(), a.size()) != 0)) {
      return "bytes of " + g->first;
    }
    if (to_want.emplace(&a, &b).first->second != &b ||
        to_got.emplace(&b, &a).first->second != &a) {
      return "hard links of " + g->first;
    }
  }
  return "";
}

// The running models must equal a from-scratch replay at every op index a
// sweep can stop at, on the Table 2 workloads and the random ones.
TEST(ModelCursorTest, MatchesFromScratchReplayAtEveryOp) {
  for (const CrashWorkload& w : SweptWorkloads()) {
    const int last = static_cast<int>(w.ops.size()) - 1;
    ModelCursor models(w);
    for (int completed = -1; completed <= last; ++completed) {
      models.AdvanceTo(completed);
      EXPECT_EQ(StateDiff(models.before(), Replay(w, completed)), "")
          << w.name << " before, completed " << completed;
      EXPECT_EQ(StateDiff(models.after(),
                          Replay(w, std::min(completed + 1, last))),
                "")
          << w.name << " after, completed " << completed;
    }
  }
}

// The barrier a RunCrashTest failure message names.
uint64_t FailureBarrier(const std::string& failure) {
  const std::string tag = "@barrier ";
  return std::stoull(failure.substr(failure.find(tag) + tag.size()));
}

// `w` has a model that disagrees with its apply at op `bad_op` only.
// RunCrashTest must pass every crash point that stops before that op is in
// flight and fail every point after it; while it is in flight, the recovered
// state may still be its pre-state.
void ExpectCaughtAfter(const CrashWorkload& w, int bad_op) {
  const auto opts = DefaultCrashFsOptions();
  constexpr int kMaxPoints = 1000;  // every barrier of these short workloads
  const std::vector<uint64_t> points =
      SampleCrashPoints(w, kMaxPoints, opts, nullptr);
  int must_pass = 0;
  int in_flight = 0;
  int must_fail = 0;
  uint64_t last_must_pass = 0;
  for (const uint64_t k : points) {
    CrashEnv env(opts);
    const int completed = RunToCrash(env, w, k);
    if (completed + 1 < bad_op) {
      must_pass++;
      last_must_pass = k;
    } else if (completed + 1 == bad_op) {
      in_flight++;
    } else {
      must_fail++;
    }
  }
  ASSERT_GT(must_pass, 0) << w.name;
  ASSERT_GT(must_fail, 0) << w.name;

  const auto result = RunCrashTest(w, kMaxPoints, opts);
  EXPECT_EQ(result.total_points, static_cast<int>(points.size())) << w.name;
  EXPECT_GE(result.passed, must_pass) << w.name;
  EXPECT_LE(result.passed, must_pass + in_flight) << w.name;
  // Failures are listed in ascending point order.
  ASSERT_FALSE(result.failures.empty()) << w.name;
  EXPECT_GT(FailureBarrier(result.failures.front()), last_must_pass)
      << result.failures.front();
}

std::vector<std::byte> Fill(char c) {
  return std::vector<std::byte>(6000, static_cast<std::byte>(c));
}

// A short workload whose op 3 writes /b and op 4 unlinks /a; no later op
// touches either file.
std::vector<CrashOp> OracleOps() {
  WorkloadBuilder b;
  b.Create("/a").Write("/a", 0, Fill('a'));
  b.Create("/b").Write("/b", 0, Fill('b'));
  b.Unlink("/a");
  b.Create("/c").Write("/c", 0, Fill('c'));
  b.Create("/d").Write("/d", 0, Fill('d'));
  return b.Build();
}

TEST(CrashOracleTest, ModelWithOtherBytesFailsAfterTheOp) {
  CrashWorkload w{"other_bytes", "model writes other bytes", OracleOps()};
  ASSERT_EQ(w.ops[3].description, "write /b");
  w.ops[3].model = WorkloadBuilder().Write("/b", 0, Fill('x')).Build()[0].model;
  ExpectCaughtAfter(w, 3);
}

TEST(CrashOracleTest, ModelMissingUnlinkFailsAfterTheOp) {
  CrashWorkload w{"kept_file", "model omits an unlink", OracleOps()};
  ASSERT_EQ(w.ops[4].description, "unlink /a");
  w.ops[4].model = [](ExpectedState&) {};
  ExpectCaughtAfter(w, 4);
}

TEST(CrashOracleTest, ModelWithExtraUnlinkFailsAfterTheOp) {
  CrashWorkload w{"lost_file", "filesystem keeps a file the model unlinks",
                  OracleOps()};
  ASSERT_EQ(w.ops[4].description, "unlink /a");
  w.ops[4].apply = [](fs::FileSystem&) {};
  ExpectCaughtAfter(w, 4);
}

// Property-style crash testing: randomized workloads (beyond the paper's
// four fixed ones) must also recover consistently at every sampled point.
class RandomCrashSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomCrashSweep, RandomWorkloadSurvivesCrashes) {
  const CrashWorkload w = RandomWorkload(GetParam());
  const auto result = RunCrashTest(w, /*max_points=*/30);
  EXPECT_GT(result.total_points, 0);
  EXPECT_EQ(result.passed, result.total_points);
  for (const auto& f : result.failures) {
    ADD_FAILURE() << f;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCrashSweep,
                         ::testing::ValuesIn(kRandomSeeds));

}  // namespace
}  // namespace easyio::crashmonkey
