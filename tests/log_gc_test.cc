// Tests for NOVA's log garbage collection: long overwrite streams must keep
// the per-inode log bounded without losing data, leaking blocks, or breaking
// recovery — including on EasyIO with orderless (SN-carrying) entries.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/harness/testbed.h"
#include "src/nova/nova_fs.h"

namespace easyio::nova {
namespace {

using harness::FsKind;
using harness::Testbed;
using harness::TestbedConfig;

TestbedConfig Config(FsKind kind) {
  TestbedConfig cfg;
  cfg.fs = kind;
  cfg.machine_cores = 4;
  cfg.device_bytes = 256_MB;
  return cfg;
}

class LogGcTest : public ::testing::TestWithParam<FsKind> {};

TEST_P(LogGcTest, OverwriteStreamKeepsLogBoundedAndDataCorrect) {
  Testbed tb(Config(GetParam()));
  const uint64_t free_before = tb.nova().free_pages();
  std::vector<std::byte> final_state(256_KB);
  tb.sim().Spawn(0, [&] {
    Rng rng(5);
    int fd = *tb.fs().Create("/hot");
    std::vector<std::byte> init(256_KB, std::byte{0});
    ASSERT_TRUE(tb.fs().Write(fd, 0, init).ok());
    // Thousands of random-block overwrites: without GC this leaves ~8000
    // log entries (~128 pages) on one inode.
    for (int i = 0; i < 8000; ++i) {
      std::vector<std::byte> blk(16_KB,
                                 static_cast<std::byte>(rng.Next()));
      const uint64_t off = rng.Below(16) * 16_KB;
      ASSERT_TRUE(tb.fs().Write(fd, off, blk).ok());
      std::copy(blk.begin(), blk.end(), final_state.begin() + off);
    }
    std::vector<std::byte> back(256_KB);
    ASSERT_TRUE(tb.fs().Read(fd, 0, back).ok());
    ASSERT_EQ(back, final_state);
    ASSERT_TRUE(tb.fs().Close(fd).ok());
  });
  tb.sim().Run();
  EXPECT_GT(tb.nova().log_compactions(), 0u);
  // Log stayed bounded: with everything quiescent, the space cost of /hot
  // is its 64 data pages plus a handful of log pages.
  const uint64_t used = free_before - tb.nova().free_pages();
  EXPECT_LT(used, 64 + 64);  // data pages + small log, not ~128 log pages

  // The compacted log must recover to the same contents.
  NovaFs fs2(&tb.mem(), TestbedConfig{}.fs_options);
  ASSERT_TRUE(fs2.Mount().ok());
  tb.sim().Spawn(0, [&] {
    int fd = *fs2.Open("/hot");
    std::vector<std::byte> back(256_KB);
    ASSERT_TRUE(fs2.Read(fd, 0, back).ok());
    EXPECT_EQ(back, final_state);
  });
  tb.sim().Run();
}

INSTANTIATE_TEST_SUITE_P(AllModes, LogGcTest,
                         ::testing::Values(FsKind::kNova, FsKind::kEasy,
                                           FsKind::kNovaDma),
                         [](const ::testing::TestParamInfo<FsKind>& info) {
                           std::string n = harness::FsKindName(info.param);
                           for (auto& c : n) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return n;
                         });

TEST(LogGcTest, DirectoryLogCompacts) {
  Testbed tb(Config(FsKind::kNova));
  tb.sim().Spawn(0, [&] {
    // Create+unlink churn in one directory: thousands of dentry entries,
    // few live names.
    for (int i = 0; i < 2000; ++i) {
      const std::string path = "/churn" + std::to_string(i);
      auto fd = tb.fs().Create(path);
      ASSERT_TRUE(fd.ok()) << i;
      ASSERT_TRUE(tb.fs().Close(*fd).ok());
      if (i % 8 != 7) {
        ASSERT_TRUE(tb.fs().Unlink(path).ok());  // keep every 8th name
      }
    }
  });
  tb.sim().Run();
  EXPECT_GT(tb.nova().log_compactions(), 0u);
  // Remount proves the compacted directory log is self-consistent.
  NovaFs fs2(&tb.mem(), TestbedConfig{}.fs_options);
  ASSERT_TRUE(fs2.Mount().ok());
}

TEST(LogGcTest, CompactionPreservesHardLinks) {
  Testbed tb(Config(FsKind::kNova));
  tb.sim().Spawn(0, [&] {
    int fd = *tb.fs().Create("/orig");
    std::vector<std::byte> data(64_KB, std::byte{0x7A});
    ASSERT_TRUE(tb.fs().Write(fd, 0, data).ok());
    ASSERT_TRUE(tb.fs().Link("/orig", "/alias").ok());
    // Force compaction of the shared inode's log via overwrites.
    for (int i = 0; i < 4000; ++i) {
      std::vector<std::byte> blk(16_KB, static_cast<std::byte>(i));
      ASSERT_TRUE(tb.fs().Write(fd, (i % 4) * 16_KB, blk).ok());
    }
    int fd2 = *tb.fs().Open("/alias");
    EXPECT_EQ(tb.fs().StatFd(fd2)->nlink, 2u);
    std::vector<std::byte> a(64_KB);
    std::vector<std::byte> b(64_KB);
    ASSERT_TRUE(tb.fs().Read(fd, 0, a).ok());
    ASSERT_TRUE(tb.fs().Read(fd2, 0, b).ok());
    EXPECT_EQ(a, b);
  });
  tb.sim().Run();
  EXPECT_GT(tb.nova().log_compactions(), 0u);
}

TEST(LogGcTest, RenameChurnCompactsDirectoryLog) {
  TestbedConfig cfg = Config(FsKind::kNova);
  cfg.fs_options.gc_min_pages = 4;
  Testbed tb(cfg);
  tb.sim().Spawn(0, [&] {
    ASSERT_TRUE(tb.fs().Close(*tb.fs().Create("/a")).ok());
    // Each rename appends two root entries and keeps one name live, so
    // 300 of them would chain ten log pages for one live entry.
    for (int i = 0; i < 300; ++i) {
      const char* from = i % 2 == 0 ? "/a" : "/b";
      const char* to = i % 2 == 0 ? "/b" : "/a";
      ASSERT_TRUE(tb.fs().Rename(from, to).ok()) << i;
    }
  });
  tb.sim().Run();
  EXPECT_GT(tb.nova().log_compactions(), 0u);
  NovaFs fs2(&tb.mem(), cfg.fs_options);
  ASSERT_TRUE(fs2.Mount().ok());
  tb.sim().Spawn(0, [&] {
    EXPECT_TRUE(fs2.StatPath("/a").ok());
    EXPECT_EQ(fs2.StatPath("/b").status().code(), ErrorCode::kNotFound);
  });
  tb.sim().Run();
}

TEST(LogGcTest, LinkCompactsItsParentLog) {
  // Grow the root log with compaction off, then remount with it on: the
  // first op on root, a link, must compact it.
  TestbedConfig cfg = Config(FsKind::kNova);
  cfg.fs_options.gc_min_pages = UINT64_MAX;
  Testbed tb(cfg);
  tb.sim().Spawn(0, [&] {
    ASSERT_TRUE(tb.fs().Close(*tb.fs().Create("/a")).ok());
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(tb.fs().Link("/a", "/l").ok()) << i;
      ASSERT_TRUE(tb.fs().Unlink("/l").ok()) << i;
    }
  });
  tb.sim().Run();
  EXPECT_EQ(tb.nova().log_compactions(), 0u);
  NovaFs::Options gc_on = cfg.fs_options;
  gc_on.gc_min_pages = 4;
  NovaFs fs2(&tb.mem(), gc_on);
  ASSERT_TRUE(fs2.Mount().ok());
  tb.sim().Spawn(0, [&] {
    ASSERT_TRUE(fs2.Link("/a", "/l").ok());
    EXPECT_EQ(fs2.StatPath("/l")->nlink, 2u);
  });
  tb.sim().Run();
  EXPECT_EQ(fs2.log_compactions(), 1u);
}

}  // namespace
}  // namespace easyio::nova
