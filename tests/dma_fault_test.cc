// DMA fault injection and graceful degradation: the FaultPlan/FaultInjector
// determinism contract, the channel's error/stall/torn-record machinery and
// its recovering wait, the SN hardening (Pack saturation, cross-channel
// hard-fail), the channel manager's quarantine, and the filesystem-level
// recovery paths (retry, CPU fallback, last-SN durability waits).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/dma/dma_engine.h"
#include "src/dma/fault_plan.h"
#include "src/harness/testbed.h"
#include "src/nova/nova_fs.h"
#include "src/pmem/slow_memory.h"
#include "src/sim/simulation.h"

namespace easyio::dma {
namespace {

using core::ChannelManager;
using harness::FsKind;
using harness::Testbed;
using harness::TestbedConfig;
using pmem::MediaParams;
using pmem::SlowMemory;
using pmem::ZeroMappedBytes;
using sim::Simulation;

constexpr uint64_t kRecordOff = 0;
constexpr uint64_t kDataOff = 4_KB;

std::vector<std::byte> Pattern(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> buf(n);
  for (auto& b : buf) {
    b = static_cast<std::byte>(rng.Next());
  }
  return buf;
}

struct Fixture {
  Simulation sim{{.num_cores = 2}};
  SlowMemory mem;
  FaultInjector injector;
  DmaEngine engine;

  explicit Fixture(FaultPlan plan, int channels = 4,
                   MediaParams params = MediaParams::OneNode())
      : mem(&sim, params, 64_MB),
        injector(std::move(plan)),
        engine(&mem, kRecordOff, channels) {
    engine.AttachFaultInjector(&injector);
  }

  Descriptor Write(uint64_t pmem_off, const void* src, uint32_t size) {
    Descriptor d;
    d.dir = Descriptor::Dir::kWrite;
    d.pmem_off = pmem_off;
    d.dram = const_cast<void*>(src);
    d.size = size;
    return d;
  }
};

// ---------------------------------------------------------------- injector

TEST(FaultInjectorTest, EachScheduledFaultFiresOnce) {
  FaultPlan plan;
  plan.errors.push_back({/*channel=*/2, /*ordinal=*/5, /*count=*/3});
  plan.stalls.push_back({2, 6, 1000});
  plan.torn.push_back({2, 7});
  FaultInjector inj(plan);

  EXPECT_EQ(inj.TakeTransferError(2, 4), 0);
  EXPECT_EQ(inj.TakeTransferError(2, 5), 3);
  EXPECT_EQ(inj.TakeTransferError(2, 5), 0);  // consumed
  EXPECT_EQ(inj.TakeStall(2, 6), 1000u);
  EXPECT_EQ(inj.TakeStall(2, 6), 0u);
  EXPECT_TRUE(inj.TakeTornRecord(2, 7));
  EXPECT_FALSE(inj.TakeTornRecord(2, 7));
  EXPECT_EQ(inj.errors_armed(), 1u);
  EXPECT_EQ(inj.stalls_armed(), 1u);
  EXPECT_EQ(inj.torn_armed(), 1u);
}

TEST(FaultPlanTest, RandomIsDeterministicInSeed) {
  const FaultPlan a = FaultPlan::Random(99, 8, 4, 3, 2, 64);
  const FaultPlan b = FaultPlan::Random(99, 8, 4, 3, 2, 64);
  ASSERT_EQ(a.errors.size(), b.errors.size());
  for (size_t i = 0; i < a.errors.size(); ++i) {
    EXPECT_EQ(a.errors[i].channel, b.errors[i].channel);
    EXPECT_EQ(a.errors[i].ordinal, b.errors[i].ordinal);
  }
  ASSERT_EQ(a.stalls.size(), b.stalls.size());
  for (size_t i = 0; i < a.stalls.size(); ++i) {
    EXPECT_EQ(a.stalls[i].channel, b.stalls[i].channel);
    EXPECT_EQ(a.stalls[i].ordinal, b.stalls[i].ordinal);
  }
  ASSERT_EQ(a.torn.size(), b.torn.size());
  for (size_t i = 0; i < a.torn.size(); ++i) {
    EXPECT_EQ(a.torn[i].channel, b.torn[i].channel);
    EXPECT_EQ(a.torn[i].ordinal, b.torn[i].ordinal);
  }
  // A different seed lands somewhere else (overwhelmingly likely with 9
  // faults over an 8x64 grid).
  const FaultPlan c = FaultPlan::Random(100, 8, 4, 3, 2, 64);
  bool same = a.errors.size() == c.errors.size();
  for (size_t i = 0; same && i < a.errors.size(); ++i) {
    same = a.errors[i].channel == c.errors[i].channel &&
           a.errors[i].ordinal == c.errors[i].ordinal;
  }
  EXPECT_FALSE(same);
}

// --------------------------------------------------------- transfer errors

TEST(TransferErrorTest, RetrySucceedsAndDataLands) {
  FaultPlan plan;
  plan.errors.push_back({0, 0, 1});  // first execution fails, retry succeeds
  Fixture f(std::move(plan));
  const auto src = Pattern(16_KB, 1);
  f.sim.Spawn(0, [&] {
    Channel& ch = f.engine.channel(0);
    const Sn sn = ch.Submit(f.Write(kDataOff, src.data(), 16_KB));
    EXPECT_EQ(ch.WaitSn(sn), DmaResult::kRecovered);
    EXPECT_TRUE(ch.IsComplete(sn));
  });
  f.sim.Run();
  const Channel& ch = f.engine.channel(0);
  EXPECT_EQ(ch.transfer_errors(), 1u);
  EXPECT_EQ(ch.retries(), 1u);
  EXPECT_EQ(ch.software_completions(), 0u);
  EXPECT_FALSE(ch.halted());
  EXPECT_EQ(std::memcmp(f.mem.raw() + kDataOff, src.data(), 16_KB), 0);
}

TEST(TransferErrorTest, ExhaustedRetriesFallBackToCpuCopy) {
  FaultPlan plan;
  plan.errors.push_back({0, 0, 100});  // never succeeds in hardware
  Fixture f(std::move(plan));
  const auto src = Pattern(16_KB, 2);
  f.sim.Spawn(0, [&] {
    Channel& ch = f.engine.channel(0);
    const Sn sn = ch.Submit(f.Write(kDataOff, src.data(), 16_KB));
    EXPECT_EQ(ch.WaitSn(sn), DmaResult::kRecovered);  // always recovers
    EXPECT_TRUE(ch.IsComplete(sn));
  });
  f.sim.Run();
  const Channel& ch = f.engine.channel(0);
  // Initial execution + 3 retries all failed, then software moved the bytes.
  EXPECT_EQ(ch.transfer_errors(), 4u);
  EXPECT_EQ(ch.retries(), 3u);
  EXPECT_EQ(ch.software_completions(), 1u);
  EXPECT_FALSE(ch.halted());
  EXPECT_EQ(std::memcmp(f.mem.raw() + kDataOff, src.data(), 16_KB), 0);
}

TEST(TransferErrorTest, HaltRaisesErrorBitAndLandsNothing) {
  FaultPlan plan;
  plan.errors.push_back({0, 0, 1});
  Fixture f(std::move(plan));
  const std::vector<std::byte> old(16_KB, std::byte{0xAA});
  f.mem.Write(kDataOff, old.data(), old.size());
  const auto src = Pattern(16_KB, 3);
  f.sim.Spawn(0, [&] {
    Channel& ch = f.engine.channel(0);
    const Sn sn = ch.Submit(f.Write(kDataOff, src.data(), 16_KB));
    // Sleep past the failed transfer: with no waiter to recover it, the
    // channel stays halted with `sn` uncovered.
    f.sim.SleepFor(50_us);
    EXPECT_TRUE(ch.halted());
    EXPECT_FALSE(ch.IsComplete(sn));
    // The persistent record carries the error status while halted.
    EXPECT_TRUE(f.mem.As<CompletionRecord>(kRecordOff)->error());
    // An aborted transfer leaves nothing of itself behind.
    for (size_t i = 0; i < 16_KB; ++i) {
      ASSERT_EQ(f.mem.raw()[kDataOff + i], std::byte{0xAA}) << "at byte " << i;
    }
    // A wait that begins on the halted channel recovers it, which clears
    // the halt and the error status. The error it reports was raised before
    // the wait began.
    EXPECT_EQ(ch.WaitSn(sn), DmaResult::kOk);
    EXPECT_FALSE(ch.halted());
    EXPECT_FALSE(f.mem.As<CompletionRecord>(kRecordOff)->error());
  });
  f.sim.Run();
  EXPECT_EQ(std::memcmp(f.mem.raw() + kDataOff, src.data(), 16_KB), 0);
}

TEST(TransferErrorTest, QuarantinedChannelSkipsStraightToFallback) {
  FaultPlan plan;
  plan.errors.push_back({0, 0, 100});
  Fixture f(std::move(plan));
  const auto src = Pattern(8_KB, 4);
  f.sim.Spawn(0, [&] {
    Channel& ch = f.engine.channel(0);
    ch.set_quarantined(true);
    const Sn sn = ch.Submit(f.Write(kDataOff, src.data(), 8_KB));
    EXPECT_EQ(ch.WaitSn(sn), DmaResult::kRecovered);
  });
  f.sim.Run();
  const Channel& ch = f.engine.channel(0);
  EXPECT_EQ(ch.retries(), 0u);
  EXPECT_EQ(ch.software_completions(), 1u);
  EXPECT_EQ(std::memcmp(f.mem.raw() + kDataOff, src.data(), 8_KB), 0);
}

// ------------------------------------------------------------------ stalls

TEST(StallTest, StallDelaysCompletionByItsDuration) {
  const auto src = Pattern(16_KB, 5);
  sim::SimTime done_plain = 0;
  sim::SimTime done_stalled = 0;
  {
    Fixture f(FaultPlan{});
    f.sim.Spawn(0, [&] {
      Channel& ch = f.engine.channel(0);
      const Sn sn = ch.Submit(f.Write(kDataOff, src.data(), 16_KB));
      ch.WaitSn(sn);
      done_plain = f.sim.now();
    });
    f.sim.Run();
  }
  {
    FaultPlan plan;
    plan.stalls.push_back({0, 0, 500'000});
    Fixture f(std::move(plan));
    f.sim.Spawn(0, [&] {
      Channel& ch = f.engine.channel(0);
      const Sn sn = ch.Submit(f.Write(kDataOff, src.data(), 16_KB));
      ch.WaitSn(sn);
      done_stalled = f.sim.now();
    });
    f.sim.Run();
    EXPECT_EQ(f.engine.channel(0).stalls_injected(), 1u);
  }
  EXPECT_EQ(done_stalled, done_plain + 500'000);
}

// ------------------------------------------------------------ torn records

TEST(TornRecordTest, WaiterWakesOnlyAfterScrubRepairsTheRecord) {
  const auto src = Pattern(16_KB, 6);
  sim::SimTime done_plain = 0;
  {
    Fixture f(FaultPlan{});
    f.sim.Spawn(0, [&] {
      Channel& ch = f.engine.channel(0);
      const Sn sn = ch.Submit(f.Write(kDataOff, src.data(), 16_KB));
      ch.WaitSn(sn);
      done_plain = f.sim.now();
    });
    f.sim.Run();
  }
  FaultPlan plan;
  plan.torn.push_back({0, 0});
  plan.torn_repair_ns = 80'000;
  Fixture f(std::move(plan));
  sim::SimTime done_torn = 0;
  f.sim.Spawn(0, [&] {
    Channel& ch = f.engine.channel(0);
    const Sn sn = ch.Submit(f.Write(kDataOff, src.data(), 16_KB));
    // The persistent record stays stale until the scrub, and the waiter
    // must not wake from the in-DRAM shadow — durability only.
    EXPECT_EQ(ch.WaitSn(sn), DmaResult::kOk);
    EXPECT_TRUE(ch.IsComplete(sn));
    done_torn = f.sim.now();
  });
  f.sim.Run();
  const Channel& ch = f.engine.channel(0);
  EXPECT_EQ(ch.torn_records(), 1u);
  EXPECT_EQ(ch.record_repairs(), 1u);
  EXPECT_GE(done_torn, done_plain + 80'000 - 1);
  EXPECT_EQ(std::memcmp(f.mem.raw() + kDataOff, src.data(), 16_KB), 0);
}

TEST(TornRecordTest, NextCompletionHealsWithoutScrub) {
  FaultPlan plan;
  plan.torn.push_back({0, 0});
  plan.torn_repair_ns = 10'000'000;  // scrub far in the future
  Fixture f(std::move(plan));
  const auto src = Pattern(8_KB, 7);
  f.sim.Spawn(0, [&] {
    Channel& ch = f.engine.channel(0);
    const Sn s1 = ch.Submit(f.Write(kDataOff, src.data(), 8_KB));
    const Sn s2 = ch.Submit(f.Write(kDataOff + 8_KB, src.data(), 8_KB));
    // The second completion re-persists the watermark, covering both.
    EXPECT_EQ(ch.WaitSn(s2), DmaResult::kOk);
    EXPECT_TRUE(ch.IsComplete(s1));
  });
  f.sim.Run();
  EXPECT_EQ(f.engine.channel(0).torn_records(), 1u);
  // The scrub found nothing to do (it may not even have fired yet).
  EXPECT_EQ(f.engine.channel(0).record_repairs(), 0u);
}

// ----------------------------------------------------------- determinism

TEST(FaultDeterminismTest, SameSeedSameTrace) {
  auto run = [](std::vector<sim::SimTime>* completions) {
    FaultPlan plan = FaultPlan::Random(/*seed=*/1234, /*num_channels=*/2,
                                       /*n_errors=*/2, /*n_stalls=*/2,
                                       /*n_torn=*/2, /*ordinal_range=*/6,
                                       /*stall_ns=*/30'000);
    Fixture f(std::move(plan), /*channels=*/2);
    const auto src = Pattern(8_KB, 8);
    f.sim.Spawn(0, [&] {
      for (int i = 0; i < 6; ++i) {
        Channel& ch = f.engine.channel(i % 2);
        const Sn sn = ch.Submit(
            f.Write(kDataOff + static_cast<uint64_t>(i) * 8_KB, src.data(),
                    8_KB));
        ch.WaitSn(sn);
        completions->push_back(f.sim.now());
      }
    });
    f.sim.Run();
  };
  std::vector<sim::SimTime> first;
  std::vector<sim::SimTime> second;
  run(&first);
  run(&second);
  ASSERT_EQ(first.size(), 6u);
  EXPECT_EQ(first, second);
}

// ----------------------------------------------------- SN hardening (sn.h)

TEST(SnHardeningTest, NearMaxSeqRoundTripsThroughPack) {
  const uint64_t max_cnt = (Sn::kMaxSeq - kRingSlots) / (kRingSlots + 1);
  const Sn sn = Sn::Make(3, max_cnt, kRingSlots);
  ASSERT_LE(sn.seq, Sn::kMaxSeq);
  const Sn back = Sn::Unpack(sn.Pack());
  EXPECT_EQ(back.channel, 3);
  EXPECT_EQ(back.seq, sn.seq);
  // A completion record at the same watermark still covers it.
  const CompletionRecord rec{kRingSlots, max_cnt};
  EXPECT_GE(rec.CompletedSeq(), back.seq);
}

TEST(SnHardeningDeathTest, OverflowingSeqFailsLoudlyNotSilently) {
  // Beyond 56 bits the packed form cannot represent the seq. Debug builds
  // assert; release builds saturate to kMaxSeq, which no genuine record can
  // cover — the entry reads as not-durable (safe discard), never as an
  // older, wrongly-durable SN.
  Sn sn;
  sn.channel = 1;
  sn.seq = Sn::kMaxSeq + 12345;
  EXPECT_DEBUG_DEATH(
      {
        const uint64_t packed = sn.Pack();
        EXPECT_EQ(Sn::Unpack(packed).seq, Sn::kMaxSeq);
        EXPECT_EQ(Sn::Unpack(packed).channel, 1);
      },
      "seq <= kMaxSeq");
}

TEST(SnHardeningTest, ErrorBitDoesNotPerturbWatermark) {
  CompletionRecord rec{17, 5};
  const uint64_t clean = rec.CompletedSeq();
  rec.addr |= CompletionRecord::kErrorBit;
  EXPECT_TRUE(rec.error());
  EXPECT_EQ(rec.CompletedSeq(), clean);
}

// ------------------------------------- cross-channel lookups (hard-fail)

using ChannelDeathTest = ::testing::Test;

TEST(ChannelDeathTest, CrossChannelIsCompleteAborts) {
  Simulation sim{{.num_cores = 2}};
  SlowMemory mem(&sim, MediaParams::OneNode(), 64_MB);
  DmaEngine engine(&mem, kRecordOff, 4);
  const Sn foreign = Sn::Make(0, 1, 1);
  EXPECT_DEATH(static_cast<void>(engine.channel(1).IsComplete(foreign)),
               "checked against channel");
}

TEST(ChannelDeathTest, EngineRejectsOutOfRangeChannel) {
  Simulation sim{{.num_cores = 2}};
  SlowMemory mem(&sim, MediaParams::OneNode(), 64_MB);
  DmaEngine engine(&mem, kRecordOff, 4);
  const Sn bogus = Sn::Make(9, 1, 1);  // only channels 0..3 exist
  EXPECT_DEATH(static_cast<void>(engine.IsComplete(bogus)),
               "outside this engine");
}

TEST(ChannelTest, EngineRoutesCrossChannelLookupCorrectly) {
  Simulation sim{{.num_cores = 2}};
  SlowMemory mem(&sim, MediaParams::OneNode(), 64_MB);
  DmaEngine engine(&mem, kRecordOff, 4);
  const auto src = Pattern(8_KB, 9);
  sim.Spawn(0, [&] {
    Descriptor d;
    d.dir = Descriptor::Dir::kWrite;
    d.pmem_off = kDataOff;
    d.dram = const_cast<std::byte*>(src.data());
    d.size = 8_KB;
    const Sn sn = engine.channel(2).Submit(std::move(d));
    engine.channel(2).WaitSn(sn);
    // Engine-level lookup works from any context, for any channel's SN.
    EXPECT_TRUE(engine.IsComplete(sn));
    EXPECT_TRUE(engine.IsComplete(Sn::None()));
  });
  sim.Run();
}

// -------------------------------------------------------------- quarantine

TEST(QuarantineTest, FaultStrikesQuarantineThenProbationReleases) {
  Simulation sim{{.num_cores = 2}};
  SlowMemory mem(&sim, MediaParams::TwoNode(), 64_MB);
  DmaEngine engine(&mem, kRecordOff, 6);
  ChannelManager cm(&sim, &engine, ChannelManager::Options{});
  Channel& ch0 = engine.channel(0);

  cm.ReportChannelFault(ch0);
  EXPECT_FALSE(ch0.quarantined());  // one strike is not enough
  cm.ReportChannelFault(ch0);
  EXPECT_TRUE(ch0.quarantined());
  EXPECT_EQ(cm.quarantines(), 1u);

  // No placement lands on the quarantined channel, though it is the
  // least-loaded-first pick among idle channels.
  for (int i = 0; i < 8; ++i) {
    Channel* pick = cm.PickWriteChannel();
    ASSERT_NE(pick, nullptr);
    EXPECT_NE(pick, &ch0);
  }

  // Probation expires after 200 µs of virtual time; the channel
  // rejoins the pick set (all idle: the tie goes to channel 0 again).
  sim.Run();
  EXPECT_FALSE(ch0.quarantined());
  EXPECT_EQ(cm.PickWriteChannel(), &ch0);
}

TEST(QuarantineTest, AllLChannelsQuarantinedYieldsNullptr) {
  Simulation sim{{.num_cores = 2}};
  SlowMemory mem(&sim, MediaParams::TwoNode(), 64_MB);
  DmaEngine engine(&mem, kRecordOff, 6);
  ChannelManager::Options opts;
  opts.num_l_channels = 2;
  ChannelManager cm(&sim, &engine, opts);
  for (int c = 0; c < 2; ++c) {
    cm.ReportChannelFault(engine.channel(c));
    cm.ReportChannelFault(engine.channel(c));
  }
  EXPECT_EQ(cm.PickWriteChannel(), nullptr);
  EXPECT_EQ(cm.PickReadChannel(), nullptr);
}

// A bulk wait on a quarantined channel that halts takes the CPU fallback at
// once, without feeding the channel a retry, and reports the transfer error
// it saw as one more strike.
TEST(QuarantineTest, BulkWaitOnQuarantinedChannelFallsBackAndStrikes) {
  FaultPlan plan;
  plan.errors.push_back({1, 0, 100});  // the B channel never succeeds
  Fixture f(std::move(plan), /*channels=*/2);
  ChannelManager::Options opts;
  opts.num_l_channels = 1;
  ChannelManager cm(&f.sim, &f.engine, opts);
  const auto src = Pattern(64_KB, 17);
  f.sim.Spawn(0, [&] {
    // Every channel quarantined: the bulk write stays on the B channel.
    for (int c = 0; c < 2; ++c) {
      cm.ReportChannelFault(f.engine.channel(c));
      cm.ReportChannelFault(f.engine.channel(c));
    }
    cm.BulkWriteAndWait(kDataOff, src.data(), 64_KB);
    // Checked inside the 200 µs quarantine, before probation clears the
    // score.
    const Channel& b = *cm.b_channel();
    EXPECT_EQ(b.transfer_errors(), 1u);
    EXPECT_EQ(b.retries(), 0u);
    EXPECT_EQ(b.software_completions(), 1u);
    EXPECT_EQ(cm.fault_score(b), 3);
  });
  f.sim.Run();
  EXPECT_EQ(std::memcmp(f.mem.raw() + kDataOff, src.data(), 64_KB), 0);
}

// -------------------------------------------------- filesystem-level paths

TestbedConfig FaultyEasyConfig() {
  TestbedConfig cfg;
  cfg.fs = FsKind::kEasy;
  cfg.machine_cores = 8;
  cfg.device_bytes = 256_MB;
  return cfg;
}

TEST(FsFaultTest, WritesAndReadsSurviveAllThreeFaultClasses) {
  TestbedConfig cfg = FaultyEasyConfig();
  // Sequential single-descriptor writes always land on the least-loaded
  // healthy L channel — channel 0 until its quarantine — so explicit
  // low-ordinal channel-0 entries are guaranteed to fire: a retried error,
  // a stall, a torn record, then a second error that trips quarantine.
  cfg.faults.errors.push_back({0, 0, 1});
  cfg.faults.stalls.push_back({0, 1, 50'000});
  cfg.faults.torn.push_back({0, 2});
  cfg.faults.errors.push_back({0, 4, 1});
  Testbed tb(cfg);
  std::vector<std::vector<std::byte>> datas;
  for (int i = 0; i < 12; ++i) {
    datas.push_back(Pattern(32_KB, 100 + static_cast<uint64_t>(i)));
  }
  tb.sim().Spawn(0, [&] {
    for (int i = 0; i < 12; ++i) {
      const std::string path = "/f" + std::to_string(i);
      int fd = *tb.fs().Create(path);
      ASSERT_TRUE(tb.fs().Write(fd, 0, datas[static_cast<size_t>(i)]).ok());
      ASSERT_TRUE(tb.fs().Close(fd).ok());
    }
    for (int i = 0; i < 12; ++i) {
      const std::string path = "/f" + std::to_string(i);
      int fd = *tb.fs().Open(path);
      std::vector<std::byte> back(32_KB);
      ASSERT_TRUE(tb.fs().Read(fd, 0, back).ok());
      EXPECT_EQ(back, datas[static_cast<size_t>(i)]) << path;
      ASSERT_TRUE(tb.fs().Close(fd).ok());
    }
  });
  tb.sim().Run();
  // The workload hit every injected fault class (not a vacuous pass), and
  // the second error strike quarantined the channel.
  const Channel& ch0 = tb.engine()->channel(0);
  EXPECT_EQ(ch0.transfer_errors(), 2u);
  EXPECT_EQ(ch0.retries(), 2u);
  EXPECT_EQ(ch0.stalls_injected(), 1u);
  EXPECT_EQ(ch0.torn_records(), 1u);
  EXPECT_GE(tb.channel_manager()->quarantines(), 1u);
}

TEST(FsFaultTest, WriteWaitsForItsOwnDescriptorBehindQueuedRead) {
  // Regression for last-SN durability: the write's only L channel first
  // digests a 2MB read, so its descriptor finishes some hundred
  // microseconds after submission. The write must not return before the
  // completion record covers that descriptor's SN.
  TestbedConfig cfg = FaultyEasyConfig();
  cfg.cm_options.num_l_channels = 1;
  Testbed tb(cfg);
  std::vector<std::byte> ballast(2_MB);
  const auto data = Pattern(48_KB, 11);
  tb.sim().Spawn(0, [&] {
    Channel& ch = tb.engine()->channel(0);
    Descriptor d;
    d.dir = Descriptor::Dir::kRead;
    d.pmem_off = 128_MB;
    d.dram = ballast.data();
    d.size = 2_MB;
    const Sn read_sn = ch.Submit(std::move(d));

    int fd = *tb.fs().Create("/queued");
    ASSERT_TRUE(tb.fs().Write(fd, 0, data).ok());
    // Both the read and the write's descriptor completed before the write
    // call returned.
    EXPECT_TRUE(ch.IsComplete(read_sn));
    EXPECT_EQ(ch.queue_depth(), 0u);
    EXPECT_EQ(ch.descriptors_completed(), 2u);

    std::vector<std::byte> back(48_KB);
    ASSERT_TRUE(tb.fs().Read(fd, 0, back).ok());
    EXPECT_EQ(back, data);
    ASSERT_TRUE(tb.fs().Close(fd).ok());
  });
  tb.sim().Run();
  EXPECT_EQ(tb.easy()->writes_offloaded(), 1u);
}

TEST(FsFaultTest, AllChannelsQuarantinedDegradesToMemcpy) {
  TestbedConfig cfg = FaultyEasyConfig();
  // The write and the read finish well inside the 200 µs quarantine.
  cfg.cm_options.num_l_channels = 2;
  Testbed tb(cfg);
  const auto data = Pattern(32_KB, 13);
  tb.sim().Spawn(0, [&] {
    for (int c = 0; c < 2; ++c) {
      tb.channel_manager()->ReportChannelFault(tb.engine()->channel(c));
      tb.channel_manager()->ReportChannelFault(tb.engine()->channel(c));
    }
    int fd = *tb.fs().Create("/deg");
    ASSERT_TRUE(tb.fs().Write(fd, 0, data).ok());
    std::vector<std::byte> back(32_KB);
    ASSERT_TRUE(tb.fs().Read(fd, 0, back).ok());
    EXPECT_EQ(back, data);
    ASSERT_TRUE(tb.fs().Close(fd).ok());
  });
  tb.sim().Run();
  // Both directions fell back to the CPU path.
  EXPECT_EQ(tb.easy()->writes_memcpy(), 1u);
  EXPECT_EQ(tb.easy()->writes_offloaded(), 0u);
  EXPECT_EQ(tb.easy()->reads_memcpy(), 1u);
  EXPECT_EQ(tb.engine()->channel(0).descriptors_completed(), 0u);
  EXPECT_EQ(tb.engine()->channel(1).descriptors_completed(), 0u);
}

// The level-2 wait is quarantine-aware like the writer's own wait. A write
// whose descriptor keeps failing sits on channel 0, which is quarantined
// after that write's own wait began; a second write to the file then waits
// at level 2 and takes the CPU fallback at once, so the channel is fed no
// retry, and it reports the transfer error it saw as a strike.
TEST(FsFaultTest, LevelTwoWaitOnQuarantinedChannelFallsBackAndStrikes) {
  TestbedConfig cfg = FaultyEasyConfig();
  cfg.faults.errors.push_back({0, 0, 100});  // never succeeds in hardware
  Testbed tb(cfg);
  ChannelManager& cm = *tb.channel_manager();
  Channel& ch0 = tb.engine()->channel(0);
  const auto first = Pattern(64_KB, 15);
  const auto second = Pattern(8_KB, 16);
  int fd = -1;
  bool first_done = false;
  tb.sim().Spawn(0, [&] {
    fd = *tb.fs().Create("/l2");
    // Channel 0 is the least-loaded idle L channel.
    ASSERT_TRUE(tb.fs().Write(fd, 0, first).ok());
    first_done = true;
  });
  tb.sim().Spawn(1, [&] {
    while (ch0.queue_depth() == 0) {
      tb.sim().SleepFor(1_us);
    }
    // The first write has committed and parked on its SN well before its
    // 64K transfer fails.
    tb.sim().SleepFor(5_us);
    ASSERT_FALSE(first_done);
    cm.ReportChannelFault(ch0);
    cm.ReportChannelFault(ch0);
    ASSERT_TRUE(tb.fs().Write(fd, 64_KB, second).ok());
    while (!first_done) {
      tb.sim().SleepFor(1_us);
    }
    // Checked inside the 200 µs quarantine, before probation clears the
    // score: two strikes from the quarantine above, one from the first
    // write's own wait and one from the level-2 wait.
    EXPECT_EQ(ch0.transfer_errors(), 1u);
    EXPECT_EQ(ch0.retries(), 0u);
    EXPECT_EQ(ch0.software_completions(), 1u);
    EXPECT_EQ(cm.fault_score(ch0), 4);
    std::vector<std::byte> back(72_KB);
    ASSERT_TRUE(tb.fs().Read(fd, 0, back).ok());
    EXPECT_TRUE(std::equal(first.begin(), first.end(), back.begin()));
    EXPECT_TRUE(std::equal(second.begin(), second.end(), back.begin() + 64_KB));
  });
  tb.sim().Run();
}

TEST(FsFaultTest, NovaDmaBaselineRecoversFromTransferError) {
  TestbedConfig cfg;
  cfg.fs = FsKind::kNovaDma;
  cfg.machine_cores = 8;
  cfg.device_bytes = 256_MB;
  cfg.faults.errors.push_back({0, 0, 1});
  Testbed tb(cfg);
  const auto data = Pattern(32_KB, 14);
  tb.sim().Spawn(0, [&] {
    int fd = *tb.fs().Create("/nd");
    ASSERT_TRUE(tb.fs().Write(fd, 0, data).ok());
    std::vector<std::byte> back(32_KB);
    ASSERT_TRUE(tb.fs().Read(fd, 0, back).ok());
    EXPECT_EQ(back, data);
    ASSERT_TRUE(tb.fs().Close(fd).ok());
  });
  tb.sim().Run();
  uint64_t errors = 0;
  uint64_t retries = 0;
  for (int c = 0; c < tb.engine()->num_channels(); ++c) {
    errors += tb.engine()->channel(c).transfer_errors();
    retries += tb.engine()->channel(c).retries();
  }
  EXPECT_EQ(errors, 1u);
  EXPECT_EQ(retries, 1u);
}

// ---------------------------------------------------------------- scrubbing

// A released device's mapping must come back all-zero, so every path that
// writes device bytes has to mark the pages it touches. The devices here
// have a size no other test uses, so the pool holds only this test's two
// mappings: the junk-loaded device's, which the crashed device reuses
// (no later write then covers another path's pages), and the recovery
// device's. Taking both back checks each of them.
TEST(ScrubTest, EveryWritePathIsScrubbed) {
  constexpr size_t kSize = 20_MB + 12_KB;
  const auto pattern = Pattern(192_KB, 11);
  auto write = [](uint64_t pmem_off, const std::byte* src, uint32_t size) {
    Descriptor d;
    d.dir = Descriptor::Dir::kWrite;
    d.pmem_off = pmem_off;
    d.dram = const_cast<std::byte*>(src);
    d.size = size;
    return d;
  };
  {
    // NOVA on a device loaded with junk, as if it had been used before:
    // Format must clear the metadata, and unaligned writes must zero the
    // junk around their bytes in a fresh block.
    Simulation sim({.num_cores = 1});
    SlowMemory mem(&sim, MediaParams::OneNode(), kSize);
    mem.LoadImage(std::vector<std::byte>(kSize, std::byte{0xee}));
    nova::NovaFs fs(&mem, {});
    ASSERT_TRUE(fs.Format().ok());
    const std::span<const std::byte> first(pattern.data(), 1000);
    const std::span<const std::byte> second(pattern.data() + 4_KB, 500);
    std::vector<std::byte> got(2500);
    sim.Spawn(0, [&] {
      const int fd = *fs.Create("/f");
      // The first write finds a hole and zero-fills around itself; the
      // second copies the first's block and zero-fills its own tail.
      EASYIO_CHECK_OK(fs.Write(fd, 100, first).status());
      EASYIO_CHECK_OK(fs.Write(fd, 2000, second).status());
      EASYIO_CHECK_OK(fs.Read(fd, 0, got).status());
    });
    sim.Run();
    std::vector<std::byte> want(2500);
    std::copy(first.begin(), first.end(), want.begin() + 100);
    std::copy(second.begin(), second.end(), want.begin() + 2000);
    EXPECT_EQ(got, want);
    nova::NovaFs mounted(&mem, {});
    EXPECT_TRUE(mounted.Mount().ok());
  }
  {
    // Pages of their own for each path, apart from the completion records
    // at offset 0.
    constexpr uint64_t kCpu = 16_KB;
    constexpr uint64_t kMeta = 32_KB;
    constexpr uint64_t kDma = 48_KB;
    constexpr uint64_t kRetried = 64_KB;
    constexpr uint64_t kFailed = 128_KB;  // 64 KiB
    FaultPlan plan;
    plan.errors.push_back({/*channel=*/0, /*ordinal=*/1, /*count=*/1});
    plan.errors.push_back({/*channel=*/1, /*ordinal=*/0, /*count=*/1});
    Simulation sim({.num_cores = 1});
    SlowMemory crashed(&sim, MediaParams::OneNode(), kSize);
    crashed.EnableCrashTracking();
    FaultInjector injector(std::move(plan));
    DmaEngine engine(&crashed, kRecordOff, /*channels=*/2);
    engine.AttachFaultInjector(&injector);
    Simulation sim2({.num_cores = 1});
    SlowMemory recovered(&sim2, MediaParams::OneNode(), kSize);
    std::vector<std::byte> image(64_KB);
    sim.Spawn(0, [&] {
      Channel& ch0 = engine.channel(0);
      Channel& ch1 = engine.channel(1);
      crashed.CpuWrite(kCpu, pattern.data(), 4_KB);
      const uint64_t value = 0x5ca1ab1e;
      crashed.MetaWrite(kMeta, &value, sizeof(value));
      EXPECT_EQ(ch0.WaitSn(ch0.Submit(write(kDma, pattern.data(), 4_KB))),
                DmaResult::kOk);
      // Channel 0's next transfer fails, having landed nothing; it halts.
      const Sn retried =
          ch0.Submit(write(kRetried, pattern.data() + 4_KB, 4_KB));
      sim.SleepFor(20_us);
      EXPECT_TRUE(ch0.halted());
      // The device crashes halfway through channel 1's transfer over old
      // contents. The recovery device borrows the mapping with the
      // transfer's durable prefix laid over it, writes over it and hands it
      // back, all within this slice, so nothing else runs meanwhile.
      // `crashed` carries on: channel 0's retried transfer lands and
      // channel 1's, which then fails, lands nothing.
      crashed.CpuWrite(kFailed, pattern.data() + 64_KB, 64_KB);
      ch1.Submit(write(kFailed, pattern.data() + 128_KB, 64_KB));
      sim.SleepFor(4_us);
      crashed.LendCrashImage(recovered);
      recovered.CopyOut(image.data(), kFailed, 64_KB);
      recovered.Zero(kFailed, 64_KB);
      crashed.ReclaimCrashImage(recovered);
      EXPECT_EQ(ch0.WaitSn(retried), DmaResult::kOk);
    });
    sim.Run();
    EXPECT_EQ(engine.channel(0).retries(), 1u);
    EXPECT_EQ(engine.channel(1).transfer_errors(), 1u);
    // The crash image holds a durable prefix of channel 1's transfer over
    // the old contents; the hand-back undid the prefix and the recovery
    // device's Zero, and the failed transfer left the old contents as they
    // were.
    const std::byte* old = pattern.data() + 64_KB;
    const std::byte* payload = pattern.data() + 128_KB;
    size_t prefix = 0;
    while (prefix < 64_KB && image[prefix] == payload[prefix]) {
      prefix++;
    }
    EXPECT_GT(prefix, 0u);
    EXPECT_LT(prefix, 64_KB);
    EXPECT_EQ(std::memcmp(image.data() + prefix / 64 * 64,
                          old + prefix / 64 * 64, 64_KB - prefix / 64 * 64),
              0);
    EXPECT_EQ(std::memcmp(crashed.raw() + kFailed, old, 64_KB), 0);
    EXPECT_EQ(std::memcmp(crashed.raw() + kRetried, pattern.data() + 4_KB,
                          4_KB),
              0);
  }
  const ZeroMappedBytes parked[] = {ZeroMappedBytes(kSize),
                                    ZeroMappedBytes(kSize)};
  for (const ZeroMappedBytes& bytes : parked) {
    const std::byte* p = bytes.data();
    EXPECT_TRUE(p[0] == std::byte{0} &&
                std::memcmp(p, p + 1, bytes.size() - 1) == 0);
  }
}

// A released device's written pages turn stale, not zero: they must read as
// zero until the next owner first touches them, through every read path and
// under the unlanded suffix of a write in flight, and a write that covers one
// only partly must zero the rest. The junk
// device's size is one no other test uses, so the pool hands its mapping,
// every page stale, straight back.
TEST(ZeroMappedBytesTest, StaleBytesReadAsZeroThroughEveryPath) {
  constexpr size_t kSize = 24_MB + 28_KB;
  constexpr size_t kPage = 4_KB;
  constexpr size_t kRegion = 12 * kPage;
  const auto pattern = Pattern(3 * kPage, 21);
  const std::byte* junk_base = nullptr;
  {
    Simulation sim({.num_cores = 1});
    SlowMemory junk(&sim, MediaParams::OneNode(), kSize);
    junk.LoadImage(std::vector<std::byte>(kSize, std::byte{0xee}));
    junk_base = junk.raw();
  }
  Simulation sim({.num_cores = 1});
  SlowMemory mem(&sim, MediaParams::OneNode(), kSize);
  DmaEngine engine(&mem, kRecordOff, /*channels=*/1);

  // One region per read path, so each finds its own pages still stale: an
  // untouched page, one byte at a page's last offset, an unaligned write
  // across three pages, a poke, and a Zero over written and stale bytes.
  std::vector<std::byte> want_region(kRegion);
  auto fill = [&](uint64_t base) {
    mem.Write(base + 2 * kPage - 1, pattern.data(), 1);
    mem.Write(base + 3 * kPage + 100, pattern.data() + 1, 2 * kPage + 200);
    const std::byte poke{0x42};
    mem.Write(base + 7 * kPage + 10, &poke, 1);
    mem.Zero(base + 4 * kPage + 8, 16);
    mem.Zero(base + 8 * kPage + 5, kPage);
  };
  want_region[2 * kPage - 1] = pattern[0];
  std::copy(pattern.begin() + 1, pattern.begin() + 1 + 2 * kPage + 200,
            want_region.begin() + 3 * kPage + 100);
  want_region[7 * kPage + 10] = std::byte{0x42};
  std::fill_n(want_region.begin() + 4 * kPage + 8, 16, std::byte{0});

  constexpr int kRegions = 5;
  auto base_of = [](int i) -> uint64_t { return 1_MB + i * kRegion; };
  for (int i = 0; i < kRegions; ++i) {
    fill(base_of(i));
  }
  auto mismatch = [&](const std::byte* got) -> size_t {
    const auto [g, w] = std::mismatch(got, got + kRegion, want_region.begin());
    return static_cast<size_t>(g - got);
  };

  struct Region {
    std::byte bytes[kRegion];
  };
  EXPECT_EQ(mismatch(mem.As<Region>(base_of(0))->bytes), kRegion) << "As";
  EXPECT_EQ(mismatch(mem.Read(base_of(1), kRegion).data()), kRegion)
      << "Read";
  std::vector<std::byte> cpu(kRegion);
  std::vector<std::byte> dma(kRegion);
  sim.Spawn(0, [&] {
    mem.CpuRead(cpu.data(), base_of(2), kRegion);
    Descriptor d;
    d.dir = Descriptor::Dir::kRead;
    d.pmem_off = base_of(3);
    d.dram = dma.data();
    d.size = kRegion;
    Channel& ch = engine.channel(0);
    EXPECT_EQ(ch.WaitSn(ch.Submit(d)), DmaResult::kOk);
  });
  sim.Run();
  EXPECT_EQ(mismatch(cpu.data()), kRegion) << "CpuRead";
  EXPECT_EQ(mismatch(dma.data()), kRegion) << "DMA read";

  // A DMA write in flight over stale pages when the crash image is taken:
  // only its durable prefix lands in the image, so the unfinished suffix
  // reads as zero.
  mem.EnableCrashTracking();
  const uint64_t inflight = base_of(kRegions);
  const auto payload = Pattern(64_KB, 22);
  std::vector<std::byte> image;
  sim.Spawn(0, [&] {
    Descriptor d;
    d.dir = Descriptor::Dir::kWrite;
    d.pmem_off = inflight;
    d.dram = const_cast<std::byte*>(payload.data());
    d.size = 64_KB;
    Channel& ch = engine.channel(0);
    const Sn sn = ch.Submit(d);
    sim.SleepFor(4_us);
    image = mem.CrashImage();
    EXPECT_EQ(ch.WaitSn(sn), DmaResult::kOk);
  });
  sim.Run();
  size_t prefix = 0;
  while (prefix < 64_KB && image[inflight + prefix] == payload[prefix]) {
    prefix++;
  }
  EXPECT_GT(prefix, 0u);
  EXPECT_LT(prefix, 64_KB);
  const size_t durable = prefix / 64 * 64;
  EXPECT_TRUE(std::all_of(image.begin() + inflight + durable,
                          image.begin() + inflight + 64_KB,
                          [](std::byte b) { return b == std::byte{0}; }))
      << "CrashImage unlanded suffix";

  // The whole-device views: every byte but the regions, the in-flight
  // write and the completion record reads as zero.
  std::vector<std::byte> want(kSize);
  for (int i = 0; i < kRegions; ++i) {
    std::copy(want_region.begin(), want_region.end(),
              want.begin() + base_of(i));
  }
  auto first_diff = [&](const std::byte* got) -> size_t {
    // The record changes as transfers complete; it is not under test.
    std::copy_n(got + kRecordOff, sizeof(CompletionRecord),
                want.begin() + kRecordOff);
    return static_cast<size_t>(
        std::mismatch(got, got + kSize, want.begin()).first - got);
  };
  std::copy_n(payload.begin(), durable, want.begin() + inflight);
  EXPECT_EQ(first_diff(image.data()), kSize) << "CrashImage";
  std::copy(payload.begin(), payload.end(), want.begin() + inflight);
  EXPECT_EQ(first_diff(mem.raw()), kSize) << "raw";
  EXPECT_EQ(mem.raw(), junk_base) << "the junk mapping was not taken back";
}

}  // namespace
}  // namespace easyio::dma
