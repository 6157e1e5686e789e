#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "src/common/units.h"
#include "src/dma/dma_engine.h"
#include "src/pmem/slow_memory.h"
#include "src/sim/simulation.h"

namespace easyio::dma {
namespace {

using pmem::MediaParams;
using pmem::SlowMemory;
using sim::Simulation;

constexpr uint64_t kRecordOff = 0;
constexpr uint64_t kDataOff = 4_KB;

struct Fixture {
  Simulation sim{{.num_cores = 2}};
  SlowMemory mem;
  DmaEngine engine;

  explicit Fixture(int channels = 4,
                   MediaParams params = MediaParams::OneNode())
      : mem(&sim, params, 64_MB), engine(&mem, kRecordOff, channels) {}
};

TEST(SnTest, PackUnpackRoundTrip) {
  const Sn sn = Sn::Make(7, 123, 456);
  const Sn back = Sn::Unpack(sn.Pack());
  EXPECT_EQ(back, sn);
  EXPECT_EQ(back.channel, 7);
}

TEST(SnTest, MonotonicAcrossWraparound) {
  const Sn before = Sn::Make(0, /*cnt=*/1, kRingSlots);  // last slot of era 1
  const Sn after = Sn::Make(0, /*cnt=*/2, 1);            // first slot of era 2
  EXPECT_LT(before.seq, after.seq);
}

TEST(SnTest, NoneIsAlwaysComplete) {
  EXPECT_TRUE(Sn::None().none());
  EXPECT_EQ(Sn::None().seq, Sn::kNoneSeq);
}

TEST(CompletionRecordTest, FreshEraExceedsOldEra) {
  // A record at (cnt=5, addr=0) dominates every SN issued at cnt <= 4.
  CompletionRecord rec{0, 5};
  EXPECT_GT(rec.CompletedSeq(), Sn::Make(0, 4, kRingSlots).seq);
}

TEST(ChannelTest, WriteMovesDataAndCompletes) {
  Fixture f;
  std::vector<char> src(16_KB, 'w');
  Sn sn;
  sim::SimTime done_at = 0;
  f.sim.Spawn(0, [&] {
    Descriptor d;
    d.dir = Descriptor::Dir::kWrite;
    d.pmem_off = kDataOff;
    d.dram = src.data();
    d.size = 16_KB;
    sn = f.engine.channel(0).Submit(std::move(d));
    EXPECT_FALSE(f.engine.channel(0).IsComplete(sn));
    f.engine.channel(0).WaitSn(sn);
    done_at = f.sim.now();
  });
  f.sim.Run();
  EXPECT_TRUE(f.engine.channel(0).IsComplete(sn));
  EXPECT_EQ(std::memcmp(f.mem.raw() + kDataOff, src.data(), 16_KB), 0);
  // submit cost + startup + 16K at ~6.0 GiB/s (one-node 16K channel cap).
  const auto& p = f.mem.params();
  const double expect = static_cast<double>(
      p.dma_submit_ns + p.dma_startup_ns + TransferNs(16_KB, 6.0));
  EXPECT_NEAR(static_cast<double>(done_at), expect, expect * 0.1);
}

// The device contract: a write's payload lands when its modeled transfer
// completes, on the CPU path and the DMA path alike. Until then the range
// reads its old bytes.
TEST(ChannelTest, WritePayloadLandsAtCompletion) {
  Fixture f;
  constexpr uint64_t kCpuOff = kDataOff;
  constexpr uint64_t kDmaOff = kDataOff + 1_MB;
  const std::vector<char> old(64_KB, 0x11);
  f.mem.Write(kCpuOff, old.data(), old.size());
  f.mem.Write(kDmaOff, old.data(), old.size());
  std::vector<char> cpu_src(64_KB, 0x22);
  std::vector<char> dma_src(64_KB, 0x33);
  auto reads = [&](uint64_t off, char c) {
    const auto bytes = f.mem.Read(off, 64_KB);
    return std::all_of(bytes.begin(), bytes.end(),
                       [c](std::byte b) { return b == std::byte(c); });
  };
  bool cpu_done = false;
  bool dma_done = false;
  f.sim.Spawn(0, [&] {
    f.mem.CpuWrite(kCpuOff, cpu_src.data(), cpu_src.size());
    EXPECT_TRUE(reads(kCpuOff, 0x22));
    cpu_done = true;
  });
  f.sim.Spawn(1, [&] {
    Descriptor d{Descriptor::Dir::kWrite, kDmaOff, dma_src.data(), 64_KB};
    Channel& ch = f.engine.channel(0);
    EXPECT_EQ(ch.WaitSn(ch.Submit(std::move(d))), DmaResult::kOk);
    EXPECT_TRUE(reads(kDmaOff, 0x33));
    dma_done = true;
  });
  f.sim.RunUntil(4_us);  // both transfers take longer
  ASSERT_FALSE(cpu_done);
  ASSERT_FALSE(dma_done);
  EXPECT_TRUE(reads(kCpuOff, 0x11));
  EXPECT_TRUE(reads(kDmaOff, 0x11));
  f.sim.Run();
  EXPECT_TRUE(cpu_done);
  EXPECT_TRUE(dma_done);
}

TEST(ChannelTest, ReadMovesDataToDram) {
  Fixture f;
  const std::vector<char> data(8_KB, 0x5A);
  f.mem.Write(kDataOff, data.data(), data.size());
  std::vector<unsigned char> dst(8_KB, 0);
  f.sim.Spawn(0, [&] {
    Descriptor d;
    d.dir = Descriptor::Dir::kRead;
    d.pmem_off = kDataOff;
    d.dram = dst.data();
    d.size = 8_KB;
    Sn sn = f.engine.channel(1).Submit(std::move(d));
    f.engine.channel(1).WaitSn(sn);
  });
  f.sim.Run();
  EXPECT_EQ(dst[0], 0x5A);
  EXPECT_EQ(dst[8_KB - 1], 0x5A);
}

TEST(ChannelTest, FifoHeadOfLineBlocking) {
  Fixture f;
  std::vector<char> big(2_MB, 'b');
  std::vector<char> small(4_KB, 's');
  sim::SimTime small_done = 0;
  f.sim.Spawn(0, [&] {
    Descriptor d1{Descriptor::Dir::kWrite, kDataOff, big.data(), 2_MB};
    Descriptor d2{Descriptor::Dir::kWrite, kDataOff + 2_MB, small.data(),
                  4_KB};
    Channel& ch = f.engine.channel(0);
    Sn s1 = ch.Submit(std::move(d1));
    Sn s2 = ch.Submit(std::move(d2));
    EXPECT_EQ(ch.queue_depth(), 2u);
    ch.WaitSn(s2);
    small_done = f.sim.now();
    EXPECT_TRUE(ch.IsComplete(s1));  // FIFO: s1 finished before s2
  });
  f.sim.Run();
  // The small I/O had to wait for the 2MB transfer (~300us at ~6.8).
  EXPECT_GT(small_done, 250_us);
}

TEST(ChannelTest, SeparateChannelsAvoidHolBlocking) {
  Fixture f;
  std::vector<char> big(2_MB, 'b');
  std::vector<char> small(4_KB, 's');
  sim::SimTime small_done = 0;
  f.sim.Spawn(0, [&] {
    Descriptor d1{Descriptor::Dir::kWrite, kDataOff, big.data(), 2_MB};
    Descriptor d2{Descriptor::Dir::kWrite, kDataOff + 2_MB, small.data(),
                  4_KB};
    f.engine.channel(0).Submit(std::move(d1));
    Sn s2 = f.engine.channel(1).Submit(std::move(d2));
    f.engine.channel(1).WaitSn(s2);
    small_done = f.sim.now();
  });
  f.sim.Run();
  EXPECT_LT(small_done, 30_us);  // no HoL: only contention slowdown
}

TEST(ChannelTest, BatchSubmitAmortizesCpuCost) {
  Fixture f;
  std::vector<char> src(64_KB, 'q');
  sim::SimTime batch_cpu = 0;
  f.sim.Spawn(0, [&] {
    std::vector<Descriptor> batch;
    for (int i = 0; i < 4; ++i) {
      batch.push_back(Descriptor{Descriptor::Dir::kWrite,
                                 kDataOff + static_cast<uint64_t>(i) * 16_KB,
                                 src.data() + i * 16_KB, 16_KB});
    }
    const sim::SimTime start = f.sim.now();
    std::vector<Sn> sns;
    f.engine.channel(0).SubmitBatch(std::span<Descriptor>(batch), &sns);
    batch_cpu = f.sim.now() - start;
    EXPECT_EQ(sns.size(), 4u);
    f.engine.channel(0).WaitSn(sns.back());
    for (const Sn& sn : sns) {
      EXPECT_TRUE(f.engine.channel(0).IsComplete(sn));
    }
  });
  f.sim.Run();
  const auto& p = f.mem.params();
  EXPECT_EQ(batch_cpu, p.dma_submit_ns + 3 * p.dma_batch_extra_ns);
  EXPECT_LT(batch_cpu, 4 * p.dma_submit_ns);  // cheaper than 4 singles
}

TEST(ChannelTest, SnOrderingWithinChannel) {
  Fixture f;
  std::vector<char> src(4_KB, 'z');
  f.sim.Spawn(0, [&] {
    Channel& ch = f.engine.channel(0);
    Sn prev = Sn::None();
    for (int i = 0; i < 10; ++i) {
      Descriptor d{Descriptor::Dir::kWrite, kDataOff, src.data(), 4_KB};
      Sn sn = ch.Submit(std::move(d));
      EXPECT_GT(sn.seq, prev.seq);
      prev = sn;
    }
    ch.WaitSn(prev);
  });
  f.sim.Run();
  EXPECT_EQ(f.engine.channel(0).descriptors_completed(), 10u);
}

TEST(ChannelTest, RingWraparoundKeepsMonotonicity) {
  Fixture f;
  std::vector<char> src(4_KB, 'r');
  f.sim.Spawn(0, [&] {
    Channel& ch = f.engine.channel(0);
    uint64_t prev_seq = 0;
    // More submissions than ring slots forces a CNT wrap.
    for (uint64_t i = 0; i < kRingSlots + 10; ++i) {
      Descriptor d{Descriptor::Dir::kWrite, kDataOff, src.data(), 4_KB};
      Sn sn = ch.Submit(std::move(d));
      EXPECT_GT(sn.seq, prev_seq);
      prev_seq = sn.seq;
      ch.WaitSn(sn);  // drain to keep queue small
    }
  });
  f.sim.Run();
  EXPECT_EQ(f.engine.channel(0).descriptors_completed(), kRingSlots + 10);
}

TEST(ChannelTest, SuspendHaltsAndResumeRestarts) {
  Fixture f;
  std::vector<char> src(1_MB, 'p');
  Sn sn;
  f.sim.Spawn(0, [&] {
    Descriptor d{Descriptor::Dir::kWrite, kDataOff, src.data(), 1_MB};
    sn = f.engine.channel(0).Submit(std::move(d));
  });
  // Suspend early (below the restart threshold) and resume at 1ms.
  f.sim.ScheduleAt(10_us, [&] { f.engine.channel(0).Suspend(); });
  f.sim.RunUntil(500_us);
  EXPECT_FALSE(f.engine.channel(0).IsComplete(sn));  // stalled while suspended
  f.sim.ScheduleAt(1_ms, [&] { f.engine.channel(0).Resume(); });
  f.sim.Run();
  EXPECT_TRUE(f.engine.channel(0).IsComplete(sn));
  EXPECT_EQ(std::memcmp(f.mem.raw() + kDataOff, src.data(), 1_MB), 0);
}

// A transfer a suspend restarts has landed nothing and its flow is gone, so
// a crash image taken while the channel is suspended holds the old bytes.
// On resume the transfer runs again and its payload lands.
TEST(ChannelTest, SuspendedRestartLandsNothingInCrashImage) {
  Fixture f;
  f.mem.EnableCrashTracking();
  const std::vector<char> old(64_KB, 0x33);
  f.mem.Write(kDataOff, old.data(), old.size());
  std::vector<char> src(64_KB, 0x44);
  const auto new_bytes = [](const std::vector<std::byte>& image) {
    return static_cast<uint64_t>(std::count(image.begin() + kDataOff,
                                            image.begin() + kDataOff + 64_KB,
                                            std::byte{0x44}));
  };
  Sn sn;
  f.sim.Spawn(0, [&] {
    Descriptor d{Descriptor::Dir::kWrite, kDataOff, src.data(), 64_KB};
    sn = f.engine.channel(0).Submit(std::move(d));
  });
  // The ~10 us transfer starts at ~1.1 us, so at 3 us it is under half done
  // (below the restart threshold) with a durable prefix.
  f.sim.ScheduleAt(3_us, [&] {
    EXPECT_GT(new_bytes(f.mem.CrashImage()), 0u);
    f.engine.channel(0).Suspend();
  });
  f.sim.RunUntil(500_us);
  EXPECT_FALSE(f.engine.channel(0).IsComplete(sn));
  EXPECT_EQ(new_bytes(f.mem.CrashImage()), 0u);
  f.sim.ScheduleAt(1_ms, [&] { f.engine.channel(0).Resume(); });
  f.sim.Run();
  EXPECT_TRUE(f.engine.channel(0).IsComplete(sn));
  EXPECT_EQ(new_bytes(f.mem.CrashImage()), 64_KB);
}

TEST(ChannelTest, SuspendLateLetsTransferComplete) {
  Fixture f;
  std::vector<char> src(1_MB, 'l');
  Sn sn;
  f.sim.Spawn(0, [&] {
    Descriptor d{Descriptor::Dir::kWrite, kDataOff, src.data(), 1_MB};
    sn = f.engine.channel(0).Submit(std::move(d));
  });
  // 1MB at ~6.8-7.0 GiB/s takes ~145us; suspend at 120us (>50% done).
  f.sim.ScheduleAt(120_us, [&] { f.engine.channel(0).Suspend(); });
  f.sim.RunUntil(2_ms);
  EXPECT_TRUE(f.engine.channel(0).IsComplete(sn));  // ran to completion
  EXPECT_TRUE(f.engine.channel(0).suspended());
  f.engine.channel(0).Resume();
  f.sim.Run();
}

// CHANCMD (paper §2.2, §4.4): a suspend or resume issued by a task costs
// that task chancmd_ns (74 ns) of CPU time each. From an event callback, as
// in the two tests above, it is free.
TEST(ChannelTest, SuspendAndResumeFromTaskChargeChancmd) {
  Fixture f;
  const uint64_t chancmd = f.mem.params().chancmd_ns;
  EXPECT_EQ(chancmd, 74u);
  f.sim.Spawn(0, [&] {
    Channel& ch = f.engine.channel(0);
    const sim::SimTime t0 = f.sim.now();
    ch.Suspend();
    EXPECT_EQ(f.sim.now(), t0 + chancmd);
    EXPECT_TRUE(ch.suspended());
    const sim::SimTime t1 = f.sim.now();
    ch.Resume();
    EXPECT_EQ(f.sim.now(), t1 + chancmd);
    EXPECT_FALSE(ch.suspended());
  });
  f.sim.Run();
}

TEST(ChannelTest, EpochByteAccounting) {
  Fixture f;
  std::vector<char> src(64_KB, 'e');
  f.sim.Spawn(0, [&] {
    Channel& ch = f.engine.channel(0);
    Descriptor d{Descriptor::Dir::kWrite, kDataOff, src.data(), 64_KB};
    Sn sn = ch.Submit(std::move(d));
    ch.WaitSn(sn);
  });
  f.sim.Run();
  EXPECT_EQ(f.engine.channel(0).bytes_completed(), 64_KB);
}

TEST(ChannelTest, WaitersWakeInSnOrder) {
  Fixture f;
  std::vector<char> src(64_KB, 'o');
  std::vector<int> wake_order;
  f.sim.Spawn(0, [&] {
    Channel& ch = f.engine.channel(0);
    Descriptor d1{Descriptor::Dir::kWrite, kDataOff, src.data(), 64_KB};
    Descriptor d2{Descriptor::Dir::kWrite, kDataOff + 64_KB, src.data(),
                  64_KB};
    Sn s1 = ch.Submit(std::move(d1));
    Sn s2 = ch.Submit(std::move(d2));
    f.sim.Spawn(1, [&, s2] {
      f.engine.channel(0).WaitSn(s2);
      wake_order.push_back(2);
    });
    ch.WaitSn(s1);
    wake_order.push_back(1);
  });
  f.sim.Run();
  EXPECT_EQ(wake_order, (std::vector<int>{1, 2}));
}

TEST(ChannelTest, CrashRollbackOfInflightDma) {
  Fixture f;
  f.mem.EnableCrashTracking();
  const std::vector<char> old(1_MB, 0x33);
  f.mem.Write(kDataOff, old.data(), old.size());
  std::vector<char> src(1_MB, 0x44);
  f.sim.Spawn(0, [&] {
    Descriptor d{Descriptor::Dir::kWrite, kDataOff, src.data(), 1_MB};
    f.engine.channel(0).Submit(std::move(d));
  });
  f.sim.RunUntil(70_us);  // roughly half of the ~145us transfer
  auto image = f.mem.CrashImage();
  size_t new_bytes = 0;
  for (size_t i = 0; i < 1_MB; ++i) {
    new_bytes += image[kDataOff + i] == std::byte{0x44};
  }
  EXPECT_GT(new_bytes, 100_KB);
  EXPECT_LT(new_bytes, 900_KB);
  // The completion record in the image must NOT cover the in-flight SN.
  CompletionRecord rec;
  std::memcpy(&rec, image.data() + kRecordOff, sizeof(rec));
  EXPECT_LT(rec.CompletedSeq(), Sn::Make(0, 1, 1).seq + 1);
}

TEST(DmaEngineTest, FreshEngineAfterImagePreservesEra) {
  std::vector<std::byte> image;
  uint64_t old_completed = 0;
  {
    Fixture f;
    std::vector<char> src(4_KB, 'm');
    f.sim.Spawn(0, [&] {
      Descriptor d{Descriptor::Dir::kWrite, kDataOff, src.data(), 4_KB};
      Sn sn = f.engine.channel(0).Submit(std::move(d));
      f.engine.channel(0).WaitSn(sn);
    });
    f.sim.Run();
    old_completed = f.engine.channel(0).CompletedSeq();
    image = f.mem.CrashImage();
  }
  // Remount: the new engine's era must dominate the old completed seq.
  Simulation sim2({.num_cores = 1});
  SlowMemory mem2(&sim2, MediaParams::OneNode(), 64_MB);
  mem2.LoadImage(image);
  DmaEngine engine2(&mem2, kRecordOff, 4);
  EXPECT_GT(engine2.channel(0).CompletedSeq(), old_completed);
}

TEST(DmaEngineTest, RecordRegionSizing) {
  EXPECT_EQ(DmaEngine::RecordRegionSize(16), 16 * sizeof(CompletionRecord));
}

}  // namespace
}  // namespace easyio::dma
