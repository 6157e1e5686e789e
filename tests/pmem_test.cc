#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/units.h"
#include "src/pmem/media_params.h"
#include "src/pmem/slow_memory.h"
#include "src/sim/simulation.h"

namespace easyio::pmem {
namespace {

using sim::Simulation;

TEST(SizeCurveTest, AnchorsAndClamping) {
  SizeCurve c{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(c.Lookup(4_KB), 1.0);
  EXPECT_DOUBLE_EQ(c.Lookup(16_KB), 3.0);
  EXPECT_DOUBLE_EQ(c.Lookup(64_KB), 5.0);
  EXPECT_DOUBLE_EQ(c.Lookup(1_KB), 1.0);   // clamp below
  EXPECT_DOUBLE_EQ(c.Lookup(1_MB), 5.0);   // clamp above
  // Log-linear between anchors: 2^13.5 sits halfway between 8K and 16K.
  EXPECT_NEAR(c.Lookup(11585), 2.5, 0.01);
}

TEST(MediaParamsTest, WriteAggregateConcaveThenCollapses) {
  MediaParams p = MediaParams::TwoNode();
  // Concave ramp: a single stream sees a fraction of the device total and
  // the aggregate keeps growing (sublinearly) up to the collapse point.
  EXPECT_NEAR(p.CpuWriteAggregate(1), 13.2 / (1 + p.cpu_write_concavity),
              0.01);
  EXPECT_GT(p.CpuWriteAggregate(4), p.CpuWriteAggregate(2));
  EXPECT_GT(p.CpuWriteAggregate(16), p.CpuWriteAggregate(8));
  EXPECT_LT(p.CpuWriteAggregate(16), 13.2);
  // Collapse: beyond degrade_start the total declines.
  EXPECT_LT(p.CpuWriteAggregate(28), p.CpuWriteAggregate(18));
  EXPECT_GT(p.CpuWriteAggregate(64), 0.3 * 13.2);
}

TEST(MediaParamsTest, DmaWriteAggregateDeclinesWithChannels) {
  MediaParams p = MediaParams::OneNode();
  EXPECT_GT(p.DmaWriteAggregate(1), p.DmaWriteAggregate(4));
  EXPECT_GT(p.DmaWriteAggregate(4), p.DmaWriteAggregate(8));
  EXPECT_GE(p.DmaWriteAggregate(8), p.dma_write_agg_floor - 1e-9);
}

TEST(MediaParamsTest, DmaReadAggregateNeverDeclines) {
  MediaParams p = MediaParams::OneNode();
  double prev = 0;
  for (int n = 1; n <= 8; ++n) {
    EXPECT_GE(p.DmaReadAggregate(n), prev);
    prev = p.DmaReadAggregate(n);
  }
}

TEST(MediaParamsTest, TwoNodeDoublesEngines) {
  MediaParams p = MediaParams::TwoNode();
  EXPECT_EQ(p.dma_engines, 2);
  // Two engines with one channel each give 2x the single-engine base.
  EXPECT_NEAR(p.DmaWriteAggregate(2), 2 * p.dma_write_agg_base, 1e-9);
}

TEST(SlowMemoryTest, CpuWriteMovesDataAndTakesModeledTime) {
  Simulation sim({.num_cores = 1});
  SlowMemory mem(&sim, MediaParams::OneNode(), 1_MB);
  std::vector<char> src(64_KB, 'x');
  sim::SimTime elapsed = 0;
  sim.Spawn(0, [&] {
    const sim::SimTime start = sim.now();
    mem.CpuWrite(0, src.data(), src.size());
    elapsed = sim.now() - start;
  });
  sim.Run();
  EXPECT_EQ(std::memcmp(mem.raw(), src.data(), src.size()), 0);
  // One stream at the 64K per-stream cap (3.6 GiB/s one-node).
  const double expect_ns = static_cast<double>(TransferNs(64_KB, 3.6));
  EXPECT_NEAR(static_cast<double>(elapsed), expect_ns, expect_ns * 0.05);
}

TEST(SlowMemoryTest, CpuWriteHoldsCore) {
  Simulation sim({.num_cores = 1});
  SlowMemory mem(&sim, MediaParams::OneNode(), 1_MB);
  std::vector<char> src(64_KB, 'x');
  sim::SimTime other_start = 0;
  sim::SimTime write_end = 0;
  sim.Spawn(0, [&] {
    mem.CpuWrite(0, src.data(), src.size());
    write_end = sim.now();
  });
  sim.Spawn(0, [&] { other_start = sim.now(); });
  sim.Run();
  EXPECT_GE(other_start, write_end);  // memcpy burned the core
}

TEST(SlowMemoryTest, ConcurrentCpuWritersContend) {
  Simulation sim({.num_cores = 2});
  SlowMemory mem(&sim, MediaParams::OneNode(), 4_MB);
  std::vector<char> src(1_MB, 'y');
  sim::SimTime solo = 0;
  sim::SimTime pair = 0;
  {
    Simulation s1({.num_cores = 1});
    SlowMemory m1(&s1, MediaParams::OneNode(), 4_MB);
    s1.Spawn(0, [&] { m1.CpuWrite(0, src.data(), src.size()); });
    s1.Run();
    solo = s1.now();
  }
  sim.Spawn(0, [&] { mem.CpuWrite(0, src.data(), src.size()); });
  sim.Spawn(1, [&] { mem.CpuWrite(2_MB, src.data(), src.size()); });
  sim.Run();
  pair = sim.now();
  // Two 1MB writers at per-stream cap 3.6 vs total 6.2: each ~3.1 GiB/s.
  EXPECT_GT(pair, solo);
}

TEST(SlowMemoryTest, CpuReadMovesData) {
  Simulation sim({.num_cores = 1});
  SlowMemory mem(&sim, MediaParams::OneNode(), 1_MB);
  const std::vector<unsigned char> src(4096, 0xAB);
  mem.Write(4096, src.data(), src.size());
  std::vector<unsigned char> dst(4096, 0);
  sim.Spawn(0, [&] { mem.CpuRead(dst.data(), 4096, 4096); });
  sim.Run();
  EXPECT_EQ(dst[0], 0xAB);
  EXPECT_EQ(dst[4095], 0xAB);
  EXPECT_GT(sim.now(), 0u);
}

TEST(SlowMemoryTest, MetaWriteChargesAndBarriers) {
  Simulation sim({.num_cores = 1});
  SlowMemory mem(&sim, MediaParams::OneNode(), 1_MB);
  const uint64_t before = mem.barrier_count();
  uint64_t value = 0xdeadbeef;
  sim.Spawn(0, [&] { mem.MetaWrite(128, &value, sizeof(value)); });
  sim.Run();
  EXPECT_EQ(*mem.As<uint64_t>(128), 0xdeadbeefu);
  EXPECT_EQ(mem.barrier_count(), before + 1);
  EXPECT_EQ(sim.now(), mem.MetaCostNs(sizeof(value)));
}

TEST(SlowMemoryTest, BarrierHookFires) {
  Simulation sim({.num_cores = 1});
  SlowMemory mem(&sim, MediaParams::OneNode(), 1_MB);
  std::vector<uint64_t> seen;
  mem.set_barrier_hook([&](uint64_t n) { seen.push_back(n); });
  uint64_t v = 1;
  sim.Spawn(0, [&] {
    mem.MetaWrite(0, &v, 8);
    mem.MetaWrite(64, &v, 8);
  });
  sim.Run();
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 2}));
}

TEST(SlowMemoryTest, CrashImageRollsBackInflightWrite) {
  Simulation sim({.num_cores = 1});
  SlowMemory mem(&sim, MediaParams::OneNode(), 1_MB);
  mem.EnableCrashTracking();
  const std::vector<char> old(64_KB, 0x11);
  mem.Write(0, old.data(), old.size());  // old contents
  std::vector<char> src(64_KB, 0x22);
  sim.Spawn(0, [&] { mem.CpuWrite(0, src.data(), src.size()); });
  // Stop mid-transfer: the 64K write takes ~17us at 3.6 GiB/s.
  sim.RunUntil(8_us);
  auto image = mem.CrashImage();
  // Roughly half must be new (0x22), the rest rolled back to 0x11, with a
  // clean 64B-aligned cut.
  size_t new_bytes = 0;
  for (size_t i = 0; i < 64_KB; ++i) {
    if (image[i] == std::byte{0x22}) {
      new_bytes++;
    } else {
      EXPECT_EQ(image[i], std::byte{0x11});
    }
  }
  EXPECT_GT(new_bytes, 16_KB);
  EXPECT_LT(new_bytes, 48_KB);
  EXPECT_EQ(new_bytes % 64, 0u);
  // After completion, no rollback remains.
  sim.Run();
  auto final_image = mem.CrashImage();
  EXPECT_EQ(final_image[0], std::byte{0x22});
  EXPECT_EQ(final_image[64_KB - 1], std::byte{0x22});
}

TEST(SlowMemoryTest, LentCrashImageRollsBackInflightWrite) {
  // CrashImageRollsBackInflightWrite, through the in-place path.
  Simulation sim({.num_cores = 1});
  SlowMemory mem(&sim, MediaParams::OneNode(), 1_MB);
  mem.EnableCrashTracking();
  const std::vector<char> old(64_KB, 0x11);
  mem.Write(0, old.data(), old.size());
  std::vector<char> src(64_KB, 0x22);
  sim.Spawn(0, [&] { mem.CpuWrite(0, src.data(), src.size()); });
  sim.RunUntil(8_us);
  const std::vector<std::byte> snapshot = mem.CrashImage();

  Simulation sim2({.num_cores = 1});
  SlowMemory recovered(&sim2, MediaParams::OneNode(), 1_MB);
  mem.LendCrashImage(recovered);
  const std::byte* image = recovered.raw();
  size_t new_bytes = 0;
  for (size_t i = 0; i < 64_KB; ++i) {
    if (image[i] == std::byte{0x22}) {
      new_bytes++;
    } else {
      EXPECT_EQ(image[i], std::byte{0x11});
    }
  }
  EXPECT_GT(new_bytes, 16_KB);
  EXPECT_LT(new_bytes, 48_KB);
  EXPECT_EQ(new_bytes % 64, 0u);
  EXPECT_EQ(std::memcmp(image, snapshot.data(), snapshot.size()), 0);
  // Recovery writes over the image; the hand-back undoes it and the
  // prefix.
  const std::vector<char> scribble(8_KB, 0x33);
  recovered.Write(0, scribble.data(), scribble.size());
  recovered.Zero(8_KB, 56_KB);
  mem.ReclaimCrashImage(recovered);

  // The crashed device reads its old contents until its transfer, finishing
  // after the hand-back, lands the whole payload; the recovery device holds
  // its own all-zero mapping again.
  EXPECT_EQ(*mem.As<unsigned char>(0), 0x11u);
  EXPECT_EQ(*mem.As<unsigned char>(64_KB - 1), 0x11u);
  EXPECT_EQ(*recovered.As<unsigned char>(0), 0u);
  sim.Run();
  const std::vector<std::byte> after = mem.CrashImage();
  EXPECT_EQ(after[0], std::byte{0x22});
  EXPECT_EQ(after[64_KB - 1], std::byte{0x22});
}

TEST(SlowMemoryTest, LoadImageReplacesContents) {
  Simulation sim({.num_cores = 1});
  SlowMemory mem(&sim, MediaParams::OneNode(), 1_MB);
  std::vector<std::byte> image(1_MB, std::byte{0x7f});
  mem.LoadImage(image);
  EXPECT_EQ(*mem.As<unsigned char>(12345), 0x7fu);
}

bool AllZero(const ZeroMappedBytes& bytes) {
  const std::byte* p = bytes.data();
  return p[0] == std::byte{0} &&
         std::memcmp(p, p + 1, bytes.size() - 1) == 0;
}

TEST(ZeroMappedBytesTest, RecycledMappingReadsZero) {
  {
    ZeroMappedBytes bytes(4_MB);
    ASSERT_TRUE(AllZero(bytes));
    // Dirty scattered pages, some only partly, and read-touch others.
    const std::vector<std::byte> fill(4_KB, std::byte{0xa5});
    unsigned sum = 0;
    for (size_t off = 0; off < bytes.size(); off += 96_KB) {
      const size_t n = (off / 96_KB) % 3 == 0 ? 4_KB : 1;
      bytes.Write(off, fill.data(), n);
      sum += static_cast<unsigned>(bytes.data()[off + 20_KB]);
    }
    EXPECT_EQ(sum, 0u);
    const std::byte last{1};
    bytes.Write(bytes.size() - 1, &last, 1);
  }
  // The pool hands back a released 4 MiB mapping, scrubbed: the one above
  // unless another parked one holds more pages.
  ZeroMappedBytes again(4_MB);
  EXPECT_TRUE(AllZero(again));

  ZeroMappedBytes other(6_MB);
  EXPECT_TRUE(AllZero(other));
}

// Every path that changes a mapping's bytes or bitmaps saves a page before
// it first touches it in an undo session. The size is one no other test
// uses, so the pool hands the same mapping back each time.
TEST(ZeroMappedBytesTest, UndoSessionRestoresEveryWritePath) {
  constexpr size_t kSize = 2_MB + 20_KB;
  constexpr size_t kPage = 4_KB;
  {
    // An earlier owner writes the first half: those pages come back stale.
    ZeroMappedBytes junk(kSize);
    const std::vector<std::byte> fill(kSize / 2, std::byte{0xee});
    junk.Write(0, fill.data(), fill.size());
  }
  auto bytes = std::make_unique<ZeroMappedBytes>(kSize);
  // Before the session: pages 1 and 3 dirty with most lines still stale,
  // page 2 stale, page 300 (in the never-written half) dirty, the rest of
  // that half clean.
  const std::vector<std::byte> before_data(3 * kPage, std::byte{0x5a});
  bytes->Write(kPage + 128, before_data.data(), 64);
  bytes->Write(3 * kPage + 640, before_data.data(), 200);
  bytes->Write(300 * kPage + 8, before_data.data(), 100);
  std::vector<std::byte> before(kSize);
  bytes->CopyOut(before.data(), 0, kSize);

  bytes->BeginUndo();
  const std::vector<std::byte> data(3 * kPage, std::byte{0x77});
  // A write the inline path takes outside a session: one page, no stale
  // line in range.
  bytes->Write(kPage + 128, data.data(), 32);
  // Span writes: across pages over stale lines, and into a clean page.
  bytes->Write(2 * kPage + 100, data.data(), 2 * kPage);
  bytes->Write(400 * kPage + 10, data.data(), 50);
  bytes->Zero(3 * kPage + 600, 2 * kPage);  // a dirty page and a stale one
  bytes->Zero(300 * kPage, kPage);
  // A read that zeroes stale lines.
  EXPECT_EQ(bytes->Read(7 * kPage + 64, 200)[0], std::byte{0});
  std::vector<std::byte> during(kSize);
  bytes->CopyOut(during.data(), 0, kSize);
  ASSERT_NE(during, before);
  bytes->Rollback();

  std::vector<std::byte> after(kSize);
  bytes->CopyOut(after.data(), 0, kSize);
  EXPECT_EQ(after, before);
  // The restored bitmaps: released and taken again, the mapping must read
  // all-zero, which needs every page written before the session still
  // dirty, and every line still stale that was.
  bytes.reset();
  EXPECT_TRUE(AllZero(ZeroMappedBytes(kSize)));
}

TEST(ZeroMappedBytesTest, ConcurrentReleaseAndReuse) {
  // Mappings move between threads through the pool; each must reach exactly
  // one owner at a time, all-zero.
  std::vector<std::thread> threads;
  std::vector<int> failures(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t, &failures] {
      const auto mark = static_cast<std::byte>(t + 1);
      for (int cycle = 0; cycle < 200; ++cycle) {
        ZeroMappedBytes bytes(cycle % 2 == 0 ? 256_KB : 384_KB);
        failures[t] += !AllZero(bytes);
        for (size_t off = 0; off < bytes.size(); off += 20_KB) {
          bytes.Write(off, &mark, 1);
        }
        for (size_t off = 0; off < bytes.size(); off += 20_KB) {
          failures[t] += bytes.data()[off] != mark;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures, std::vector<int>(4, 0));
}

}  // namespace
}  // namespace easyio::pmem
