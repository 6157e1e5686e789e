// End-to-end tests of the NOVA baseline filesystem (synchronous CPU mode):
// namespace operations, data paths, CoW semantics, remount recovery.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/common/crc32.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/harness/testbed.h"
#include "src/nova/nova_fs.h"
#include "src/pmem/slow_memory.h"
#include "src/sim/simulation.h"

namespace easyio::nova {
namespace {

struct Fx {
  sim::Simulation sim{{.num_cores = 4}};
  pmem::SlowMemory mem;
  NovaFs fs;

  explicit Fx(size_t device = 64_MB)
      : mem(&sim, pmem::MediaParams::OneNode(), device), fs(&mem, {}) {
    EASYIO_CHECK_OK(fs.Format());
  }

  // Runs `fn` inside a task and drains the simulation.
  void Run(std::function<void()> fn) {
    sim.Spawn(0, std::move(fn));
    sim.Run();
  }
};

std::vector<std::byte> Pattern(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> buf(n);
  for (auto& b : buf) {
    b = static_cast<std::byte>(rng.Next());
  }
  return buf;
}

TEST(NovaFsTest, CreateWriteReadBack) {
  Fx fx;
  fx.Run([&] {
    auto fd = fx.fs.Create("/a");
    ASSERT_TRUE(fd.ok());
    auto data = Pattern(10000, 1);
    auto w = fx.fs.Write(*fd, 0, data);
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(*w, 10000u);
    std::vector<std::byte> back(10000);
    auto r = fx.fs.Read(*fd, 0, back);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, 10000u);
    EXPECT_EQ(back, data);
  });
}

TEST(NovaFsTest, OpenNonexistentFails) {
  Fx fx;
  fx.Run([&] {
    EXPECT_EQ(fx.fs.Open("/missing").status().code(), ErrorCode::kNotFound);
    EXPECT_EQ(fx.fs.Create("/x").status().code(), ErrorCode::kOk);
    EXPECT_EQ(fx.fs.Create("/x").status().code(), ErrorCode::kExists);
  });
}

TEST(NovaFsTest, ReadBeyondEofClamps) {
  Fx fx;
  fx.Run([&] {
    int fd = *fx.fs.Create("/a");
    auto data = Pattern(100, 2);
    ASSERT_TRUE(fx.fs.Write(fd, 0, data).ok());
    std::vector<std::byte> back(1000);
    auto r = fx.fs.Read(fd, 50, back);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, 50u);
    EXPECT_EQ(std::memcmp(back.data(), data.data() + 50, 50), 0);
    auto past = fx.fs.Read(fd, 100, back);
    ASSERT_TRUE(past.ok());
    EXPECT_EQ(*past, 0u);
  });
}

TEST(NovaFsTest, UnalignedOverwritePreservesNeighbors) {
  Fx fx;
  fx.Run([&] {
    int fd = *fx.fs.Create("/a");
    auto base = Pattern(12_KB, 3);
    ASSERT_TRUE(fx.fs.Write(fd, 0, base).ok());
    // Overwrite an unaligned interior window.
    auto patch = Pattern(5000, 4);
    ASSERT_TRUE(fx.fs.Write(fd, 3000, patch).ok());
    std::vector<std::byte> expect = base;
    std::memcpy(expect.data() + 3000, patch.data(), 5000);
    std::vector<std::byte> back(12_KB);
    ASSERT_TRUE(fx.fs.Read(fd, 0, back).ok());
    EXPECT_EQ(back, expect);
  });
}

TEST(NovaFsTest, SparseWriteReadsZerosInHole) {
  Fx fx;
  fx.Run([&] {
    int fd = *fx.fs.Create("/a");
    auto data = Pattern(4_KB, 5);
    ASSERT_TRUE(fx.fs.Write(fd, 64_KB, data).ok());
    EXPECT_EQ(fx.fs.StatFd(fd)->size, 64_KB + 4_KB);
    std::vector<std::byte> back(8_KB);
    ASSERT_TRUE(fx.fs.Read(fd, 32_KB, back).ok());
    for (std::byte b : back) {
      ASSERT_EQ(b, std::byte{0});
    }
  });
}

TEST(NovaFsTest, ExtendAfterUnalignedWriteReadsZeros) {
  Fx fx;
  fx.Run([&] {
    int fd = *fx.fs.Create("/a");
    auto d1 = Pattern(100, 6);
    ASSERT_TRUE(fx.fs.Write(fd, 0, d1).ok());
    auto d2 = Pattern(100, 7);
    ASSERT_TRUE(fx.fs.Write(fd, 200, d2).ok());
    std::vector<std::byte> back(300);
    ASSERT_TRUE(fx.fs.Read(fd, 0, back).ok());
    EXPECT_EQ(std::memcmp(back.data(), d1.data(), 100), 0);
    for (size_t i = 100; i < 200; ++i) {
      ASSERT_EQ(back[i], std::byte{0}) << i;  // gap must read as zero
    }
    EXPECT_EQ(std::memcmp(back.data() + 200, d2.data(), 100), 0);
  });
}

TEST(NovaFsTest, AppendGrowsFile) {
  Fx fx;
  fx.Run([&] {
    int fd = *fx.fs.Create("/log");
    auto a = Pattern(3000, 8);
    auto b = Pattern(3000, 9);
    ASSERT_TRUE(fx.fs.Append(fd, a).ok());
    ASSERT_TRUE(fx.fs.Append(fd, b).ok());
    EXPECT_EQ(fx.fs.StatFd(fd)->size, 6000u);
    std::vector<std::byte> back(6000);
    ASSERT_TRUE(fx.fs.Read(fd, 0, back).ok());
    EXPECT_EQ(std::memcmp(back.data(), a.data(), 3000), 0);
    EXPECT_EQ(std::memcmp(back.data() + 3000, b.data(), 3000), 0);
  });
}

TEST(NovaFsTest, MkdirAndNestedPaths) {
  Fx fx;
  fx.Run([&] {
    ASSERT_TRUE(fx.fs.Mkdir("/d").ok());
    ASSERT_TRUE(fx.fs.Mkdir("/d/e").ok());
    int fd = *fx.fs.Create("/d/e/f");
    auto data = Pattern(100, 10);
    ASSERT_TRUE(fx.fs.Write(fd, 0, data).ok());
    auto st = fx.fs.StatPath("/d/e/f");
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->size, 100u);
    EXPECT_FALSE(st->is_dir);
    EXPECT_TRUE(fx.fs.StatPath("/d/e")->is_dir);
    EXPECT_EQ(fx.fs.Mkdir("/missing/x").code(), ErrorCode::kNotFound);
  });
}

TEST(NovaFsTest, UnlinkFreesSpace) {
  Fx fx;
  fx.Run([&] {
    // First round warms the root directory's log page so the baseline below
    // is stable.
    int fd0 = *fx.fs.Create("/warmup");
    ASSERT_TRUE(fx.fs.Close(fd0).ok());
    ASSERT_TRUE(fx.fs.Unlink("/warmup").ok());

    const uint64_t before = fx.fs.free_pages();
    int fd = *fx.fs.Create("/big");
    auto data = Pattern(1_MB, 11);
    ASSERT_TRUE(fx.fs.Write(fd, 0, data).ok());
    ASSERT_TRUE(fx.fs.Close(fd).ok());
    EXPECT_LT(fx.fs.free_pages(), before);
    ASSERT_TRUE(fx.fs.Unlink("/big").ok());
    // All of the file's data and log pages come back (the root log page
    // stays, as it should).
    EXPECT_EQ(fx.fs.free_pages(), before);
    EXPECT_EQ(fx.fs.Open("/big").status().code(), ErrorCode::kNotFound);
  });
}

// A commit that runs out of log pages midway must leave the log as it was
// and give the write's blocks back, so the file stays writable.
TEST(NovaFsTest, FailedCommitLeavesFileWritable) {
  Fx fx(8_MB);
  // One 1-page write per log entry: /a's first log page keeps one free slot.
  const uint64_t tail = (kEntriesPerLogPage - 1) * 4_KB;
  const auto last = Pattern(4_KB, 4);
  fx.Run([&] {
    const std::vector<std::byte> page(4_KB, std::byte{0x5a});
    const int a = *fx.fs.Create("/a");
    for (uint64_t off = 0; off < tail; off += 4_KB) {
      ASSERT_TRUE(fx.fs.Write(a, off, page).ok());
    }
    // Two 1-page files (a data and a log page each) apart, then a file
    // that takes every page left; unlinking the two leaves two 2-page holes.
    for (const char* path : {"/s1", "/sep", "/s2"}) {
      const int fd = *fx.fs.Create(path);
      ASSERT_TRUE(fx.fs.Write(fd, 0, page).ok());
      ASSERT_TRUE(fx.fs.Close(fd).ok());
    }
    const int fill = *fx.fs.Create("/fill");
    for (uint64_t off = 0; fx.fs.Write(fill, off, page).ok(); off += 4_KB) {
    }
    ASSERT_EQ(fx.fs.free_pages(), 0u);
    ASSERT_TRUE(fx.fs.Unlink("/s1").ok());
    ASSERT_TRUE(fx.fs.Unlink("/s2").ok());
    ASSERT_EQ(fx.fs.free_pages(), 4u);

    // Two 2-page extents take two log entries; the second finds no page to
    // chain.
    EXPECT_EQ(fx.fs.Write(a, tail, Pattern(16_KB, 3)).status().code(),
              ErrorCode::kNoSpace);
    EXPECT_EQ(fx.fs.free_pages(), 4u);
    ASSERT_TRUE(fx.fs.Write(a, tail, last).ok());
    EXPECT_EQ(fx.fs.free_pages(), 3u);
    std::vector<std::byte> back(4_KB);
    ASSERT_TRUE(fx.fs.Read(a, tail, back).ok());
    EXPECT_EQ(back, last);
  });
  // The persistent log recovers the same file and free space.
  NovaFs mounted(&fx.mem, {});
  ASSERT_TRUE(mounted.Mount().ok());
  EXPECT_EQ(mounted.free_pages(), 3u);
  fx.Run([&] {
    const int a = *mounted.Open("/a");
    EXPECT_EQ(mounted.StatFd(a)->size, tail + 4_KB);
    std::vector<std::byte> back(4_KB);
    ASSERT_TRUE(mounted.Read(a, tail, back).ok());
    EXPECT_EQ(back, last);
  });
}

// The same for a file's first commit, which chains the log's first page.
TEST(NovaFsTest, FailedFirstCommitFreesItsLogPage) {
  Fx fx(8_MB);
  fx.Run([&] {
    const std::vector<std::byte> page(4_KB, std::byte{0x5a});
    const int b = *fx.fs.Create("/b");
    // Interleaved 1-page writes to /h and /k, then a file that takes every
    // page left: unlinking /h leaves 66 holes, two of them 2 pages long.
    const int h = *fx.fs.Create("/h");
    const int k = *fx.fs.Create("/k");
    for (uint64_t off = 0; off < 66 * 4_KB; off += 4_KB) {
      ASSERT_TRUE(fx.fs.Write(h, off, page).ok());
      ASSERT_TRUE(fx.fs.Write(k, off, page).ok());
    }
    ASSERT_TRUE(fx.fs.Close(h).ok());
    const int fill = *fx.fs.Create("/fill");
    for (uint64_t off = 0; fx.fs.Write(fill, off, page).ok(); off += 4_KB) {
    }
    ASSERT_EQ(fx.fs.free_pages(), 0u);
    ASSERT_TRUE(fx.fs.Unlink("/h").ok());
    ASSERT_EQ(fx.fs.free_pages(), 68u);

    // 67 pages in 65 extents take 65 entries: /b's first log page gets the
    // last free page, its second finds none.
    EXPECT_EQ(fx.fs.Write(b, 0, std::vector<std::byte>(67 * 4_KB))
                  .status()
                  .code(),
              ErrorCode::kNoSpace);
    EXPECT_EQ(fx.fs.free_pages(), 68u);
    // Freeing the file walks no log page.
    ASSERT_TRUE(fx.fs.Close(b).ok());
    ASSERT_TRUE(fx.fs.Unlink("/b").ok());
    EXPECT_EQ(fx.fs.free_pages(), 68u);
  });
  NovaFs mounted(&fx.mem, {});
  ASSERT_TRUE(mounted.Mount().ok());
  EXPECT_EQ(mounted.free_pages(), 68u);
}

// Creates `files` empty files /f0, /f1, ... and /fill in the root of an
// 8 MiB device, one root log entry each, then writes /fill until no page
// is free. Returns /fill's descriptor.
int FillRootAndDevice(Fx& fx, uint64_t files) {
  for (uint64_t i = 0; i < files; ++i) {
    EASYIO_CHECK_OK(fx.fs.Close(*fx.fs.Create("/f" + std::to_string(i))));
  }
  const int fill = *fx.fs.Create("/fill");
  const std::vector<std::byte> page(4_KB, std::byte{0x5a});
  for (uint64_t off = 0; fx.fs.Write(fill, off, page).ok(); off += 4_KB) {
  }
  return fill;
}

TEST(NovaFsTest, FailedRenameLeavesDirectoryWritable) {
  Fx fx(8_MB);
  fx.Run([&] {
    // The root log's first page keeps one free slot.
    const int fill = FillRootAndDevice(fx, kEntriesPerLogPage - 2);
    ASSERT_EQ(fx.fs.free_pages(), 0u);
    // The remove entry takes the last slot; the add entry finds no page to
    // chain.
    EXPECT_EQ(fx.fs.Rename("/f0", "/g0").code(), ErrorCode::kNoSpace);
    // The unlink's entry takes the slot again and frees the page the
    // create's entry chains.
    ASSERT_TRUE(fx.fs.Close(fill).ok());
    ASSERT_TRUE(fx.fs.Unlink("/fill").ok());
    const auto h = fx.fs.Create("/h");
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(fx.fs.Close(*h).ok());
  });
  NovaFs mounted(&fx.mem, {});
  ASSERT_TRUE(mounted.Mount().ok());
  fx.Run([&] {
    for (const char* path : {"/f0", "/h"}) {
      const auto fd = mounted.Open(path);
      ASSERT_TRUE(fd.ok()) << path;
      ASSERT_TRUE(mounted.Close(*fd).ok());
    }
    for (const char* path : {"/g0", "/fill"}) {
      EXPECT_EQ(mounted.Open(path).status().code(), ErrorCode::kNotFound)
          << path;
    }
  });
}

TEST(NovaFsTest, FailedCreateReleasesItsInode) {
  Fx fx(8_MB);
  fx.Run([&] {
    // The root log's first page is full.
    FillRootAndDevice(fx, kEntriesPerLogPage - 1);
    ASSERT_EQ(fx.fs.free_pages(), 0u);
    const uint64_t inodes = fx.fs.free_inodes();
    EXPECT_EQ(fx.fs.Create("/new").status().code(), ErrorCode::kNoSpace);
    EXPECT_EQ(fx.fs.free_inodes(), inodes);
    EXPECT_EQ(fx.fs.Mkdir("/dir").code(), ErrorCode::kNoSpace);
    EXPECT_EQ(fx.fs.free_inodes(), inodes);
    EXPECT_EQ(fx.fs.Open("/new").status().code(), ErrorCode::kNotFound);
  });
}

TEST(NovaFsTest, UnlinkOpenFileDefersFree) {
  Fx fx;
  fx.Run([&] {
    int fd = *fx.fs.Create("/f");
    auto data = Pattern(8_KB, 12);
    ASSERT_TRUE(fx.fs.Write(fd, 0, data).ok());
    ASSERT_TRUE(fx.fs.Unlink("/f").ok());
    // Still readable through the open fd.
    std::vector<std::byte> back(8_KB);
    ASSERT_TRUE(fx.fs.Read(fd, 0, back).ok());
    EXPECT_EQ(back, data);
    ASSERT_TRUE(fx.fs.Close(fd).ok());
    EXPECT_EQ(fx.fs.Open("/f").status().code(), ErrorCode::kNotFound);
  });
}

TEST(NovaFsTest, RenameMovesAndReplacesAtomically) {
  Fx fx;
  fx.Run([&] {
    int a = *fx.fs.Create("/a");
    auto da = Pattern(100, 13);
    ASSERT_TRUE(fx.fs.Write(a, 0, da).ok());
    ASSERT_TRUE(fx.fs.Close(a).ok());
    int b = *fx.fs.Create("/b");
    auto db = Pattern(200, 14);
    ASSERT_TRUE(fx.fs.Write(b, 0, db).ok());
    ASSERT_TRUE(fx.fs.Close(b).ok());

    ASSERT_TRUE(fx.fs.Rename("/a", "/b").ok());  // replaces /b
    EXPECT_EQ(fx.fs.Open("/a").status().code(), ErrorCode::kNotFound);
    auto st = fx.fs.StatPath("/b");
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->size, 100u);

    ASSERT_TRUE(fx.fs.Mkdir("/dir").ok());
    ASSERT_TRUE(fx.fs.Rename("/b", "/dir/c").ok());
    EXPECT_EQ(fx.fs.StatPath("/dir/c")->size, 100u);
  });
}

// Every path in `paths` as "path: ino dir nlink" (or its error), then the
// free pages and inodes: what a refused namespace op must leave unchanged.
std::string Describe(NovaFs& fs, const std::vector<std::string>& paths) {
  std::string out;
  for (const std::string& path : paths) {
    const auto st = fs.StatPath(path);
    out += path + ": ";
    out += st.ok() ? std::to_string(st->ino) + (st->is_dir ? " dir " : " file ") +
                         std::to_string(st->nlink)
                   : std::string(ErrorCodeName(st.status().code()));
    out += "\n";
  }
  return out + std::to_string(fs.free_pages()) + "p " +
         std::to_string(fs.free_inodes()) + "i\n";
}

TEST(NovaFsTest, RenameIntoOwnSubtreeIsRefused) {
  Fx fx;
  const std::vector<std::string> paths = {"/d", "/d/x", "/d/x/f", "/d/e",
                                          "/d/x/e"};
  std::string before;
  fx.Run([&] {
    ASSERT_TRUE(fx.fs.Mkdir("/d").ok());
    ASSERT_TRUE(fx.fs.Mkdir("/d/x").ok());
    ASSERT_TRUE(fx.fs.Close(*fx.fs.Create("/d/x/f")).ok());
    before = Describe(fx.fs, paths);
    EXPECT_EQ(fx.fs.Rename("/d", "/d/e").code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(fx.fs.Rename("/d", "/d/x/e").code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(fx.fs.Rename("/d/x", "/d/x/e").code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(Describe(fx.fs, paths), before);
  });
  NovaFs mounted(&fx.mem, {});
  ASSERT_TRUE(mounted.Mount().ok());
  fx.Run([&] { EXPECT_EQ(Describe(mounted, paths), before); });
}

TEST(NovaFsTest, RenameRefusesTypeMismatch) {
  Fx fx;
  const std::vector<std::string> paths = {"/f", "/e", "/d", "/d/g"};
  std::string before;
  fx.Run([&] {
    ASSERT_TRUE(fx.fs.Close(*fx.fs.Create("/f")).ok());
    ASSERT_TRUE(fx.fs.Mkdir("/e").ok());  // empty: only its type protects it
    ASSERT_TRUE(fx.fs.Mkdir("/d").ok());
    ASSERT_TRUE(fx.fs.Close(*fx.fs.Create("/d/g")).ok());
    before = Describe(fx.fs, paths);
    EXPECT_EQ(fx.fs.Rename("/f", "/e").code(), ErrorCode::kIsDir);
    EXPECT_EQ(fx.fs.Rename("/d/g", "/e").code(), ErrorCode::kIsDir);
    EXPECT_EQ(fx.fs.Rename("/e", "/f").code(), ErrorCode::kNotDir);
    EXPECT_EQ(fx.fs.Rename("/e", "/d/g").code(), ErrorCode::kNotDir);
    EXPECT_EQ(Describe(fx.fs, paths), before);
  });
  NovaFs mounted(&fx.mem, {});
  ASSERT_TRUE(mounted.Mount().ok());
  fx.Run([&] { EXPECT_EQ(Describe(mounted, paths), before); });
}

TEST(NovaFsTest, HardLinksShareData) {
  Fx fx;
  fx.Run([&] {
    int fd = *fx.fs.Create("/orig");
    auto data = Pattern(5000, 15);
    ASSERT_TRUE(fx.fs.Write(fd, 0, data).ok());
    ASSERT_TRUE(fx.fs.Link("/orig", "/alias").ok());
    EXPECT_EQ(fx.fs.StatPath("/orig")->nlink, 2u);
    int fd2 = *fx.fs.Open("/alias");
    std::vector<std::byte> back(5000);
    ASSERT_TRUE(fx.fs.Read(fd2, 0, back).ok());
    EXPECT_EQ(back, data);
    // Unlink one name: data survives under the other.
    ASSERT_TRUE(fx.fs.Unlink("/orig").ok());
    EXPECT_EQ(fx.fs.StatPath("/alias")->nlink, 1u);
    ASSERT_TRUE(fx.fs.Read(fd2, 0, back).ok());
    EXPECT_EQ(back, data);
  });
}

TEST(NovaFsTest, ManyFilesAndLogPageChaining) {
  Fx fx;
  fx.Run([&] {
    // >63 dentries force the root log onto a second page.
    for (int i = 0; i < 200; ++i) {
      auto fd = fx.fs.Create("/f" + std::to_string(i));
      ASSERT_TRUE(fd.ok()) << i;
      ASSERT_TRUE(fx.fs.Close(*fd).ok());
    }
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(fx.fs.StatPath("/f" + std::to_string(i)).ok()) << i;
    }
  });
}

TEST(NovaFsTest, RemountRestoresEverything) {
  sim::Simulation sim({.num_cores = 2});
  pmem::SlowMemory mem(&sim, pmem::MediaParams::OneNode(), 64_MB);
  auto data = Pattern(100_KB, 16);
  {
    NovaFs fs(&mem, {});
    EASYIO_CHECK_OK(fs.Format());
    sim.Spawn(0, [&] {
      ASSERT_TRUE(fs.Mkdir("/d").ok());
      int fd = *fs.Create("/d/file");
      ASSERT_TRUE(fs.Write(fd, 0, data).ok());
      ASSERT_TRUE(fs.Write(fd, 10_KB, std::span(data).subspan(0, 5_KB)).ok());
      ASSERT_TRUE(fs.Close(fd).ok());
      ASSERT_TRUE(fs.Link("/d/file", "/d/link").ok());
      int fd2 = *fs.Create("/d/gone");
      ASSERT_TRUE(fs.Close(fd2).ok());
      ASSERT_TRUE(fs.Unlink("/d/gone").ok());
    });
    sim.Run();
  }
  // Second incarnation on the same device image.
  NovaFs fs2(&mem, {});
  ASSERT_TRUE(fs2.Mount().ok());
  sim.Spawn(0, [&] {
    auto st = fs2.StatPath("/d/file");
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(st->size, 100_KB);
    EXPECT_EQ(st->nlink, 2u);
    EXPECT_EQ(fs2.StatPath("/d/gone").status().code(), ErrorCode::kNotFound);
    int fd = *fs2.Open("/d/link");
    std::vector<std::byte> expect = data;
    std::memcpy(expect.data() + 10_KB, data.data(), 5_KB);
    std::vector<std::byte> back(100_KB);
    ASSERT_TRUE(fs2.Read(fd, 0, back).ok());
    EXPECT_EQ(back, expect);
  });
  sim.Run();
}

TEST(NovaFsTest, RemountPreservesFreeSpaceAccounting) {
  sim::Simulation sim({.num_cores = 1});
  pmem::SlowMemory mem(&sim, pmem::MediaParams::OneNode(), 64_MB);
  uint64_t free_before = 0;
  {
    NovaFs fs(&mem, {});
    EASYIO_CHECK_OK(fs.Format());
    sim.Spawn(0, [&] {
      int fd = *fs.Create("/a");
      auto data = Pattern(256_KB, 17);
      ASSERT_TRUE(fs.Write(fd, 0, data).ok());
      // Overwrite to exercise displaced-block free.
      ASSERT_TRUE(fs.Write(fd, 0, data).ok());
    });
    sim.Run();
    free_before = fs.free_pages();
  }
  NovaFs fs2(&mem, {});
  ASSERT_TRUE(fs2.Mount().ok());
  EXPECT_EQ(fs2.free_pages(), free_before);
}

TEST(NovaFsTest, MountGarbageFails) {
  sim::Simulation sim({.num_cores = 1});
  pmem::SlowMemory mem(&sim, pmem::MediaParams::OneNode(), 16_MB);
  NovaFs fs(&mem, {});
  EXPECT_EQ(fs.Mount().code(), ErrorCode::kCorruption);
}

TEST(NovaFsTest, ConcurrentWritersOnPrivateFiles) {
  Fx fx;
  std::vector<std::vector<std::byte>> datas;
  for (int i = 0; i < 4; ++i) {
    datas.push_back(Pattern(64_KB, 100 + static_cast<uint64_t>(i)));
  }
  for (int i = 0; i < 4; ++i) {
    fx.sim.Spawn(i, [&, i] {
      int fd = *fx.fs.Create("/w" + std::to_string(i));
      ASSERT_TRUE(fx.fs.Write(fd, 0, datas[static_cast<size_t>(i)]).ok());
      std::vector<std::byte> back(64_KB);
      ASSERT_TRUE(fx.fs.Read(fd, 0, back).ok());
      EXPECT_EQ(back, datas[static_cast<size_t>(i)]);
    });
  }
  fx.sim.Run();
}

TEST(NovaFsTest, SharedFileWritersSerialize) {
  Fx fx;
  fx.Run([&] {
    int fd = *fx.fs.Create("/shared");
    auto zero = Pattern(64_KB, 200);
    ASSERT_TRUE(fx.fs.Write(fd, 0, zero).ok());
  });
  // 4 concurrent overwriters of disjoint 16K regions.
  for (int i = 0; i < 4; ++i) {
    fx.sim.Spawn(i, [&, i] {
      int fd = *fx.fs.Open("/shared");
      auto data = Pattern(16_KB, 300 + static_cast<uint64_t>(i));
      ASSERT_TRUE(
          fx.fs.Write(fd, static_cast<uint64_t>(i) * 16_KB, data).ok());
      std::vector<std::byte> back(16_KB);
      ASSERT_TRUE(
          fx.fs.Read(fd, static_cast<uint64_t>(i) * 16_KB, back).ok());
      EXPECT_EQ(back, data);
    });
  }
  fx.sim.Run();
}

TEST(NovaFsTest, OpStatsBreakdownSums) {
  Fx fx;
  fx.Run([&] {
    int fd = *fx.fs.Create("/a");
    auto data = Pattern(64_KB, 18);
    fs::OpStats st;
    ASSERT_TRUE(fx.fs.Write(fd, 0, data, &st).ok());
    EXPECT_GT(st.total_ns, 0u);
    EXPECT_GT(st.syscall_ns, 0u);
    EXPECT_GT(st.index_ns, 0u);
    EXPECT_GT(st.meta_ns, 0u);
    EXPECT_GT(st.data_ns, 0u);
    // Synchronous mode: CPU time equals total and the categories cover most
    // of the operation (locking is the only uncharged slice).
    EXPECT_EQ(st.cpu_ns, st.total_ns);
    EXPECT_GE(st.syscall_ns + st.index_ns + st.meta_ns + st.data_ns,
              st.total_ns * 95 / 100);
    // The paper's Fig 1: memcpy dominates 64K writes.
    EXPECT_GT(st.data_ns, st.total_ns / 2);
  });
}

TEST(NovaFsTest, BadFdRejected) {
  Fx fx;
  fx.Run([&] {
    std::vector<std::byte> buf(10);
    EXPECT_EQ(fx.fs.Read(99, 0, buf).status().code(), ErrorCode::kBadFd);
    EXPECT_EQ(fx.fs.Write(99, 0, buf).status().code(), ErrorCode::kBadFd);
    EXPECT_EQ(fx.fs.Close(99).code(), ErrorCode::kBadFd);
    EXPECT_EQ(fx.fs.Fsync(99).code(), ErrorCode::kBadFd);
  });
}

// An op rejected at entry (bad fd, directory, empty buffer) has cost only
// the syscall entry, and its OpStats say so on every return path.
TEST(NovaFsTest, OpStatsOnEarlyReturns) {
  Fx fx;
  fx.Run([&] {
    const uint64_t enter = fx.mem.params().syscall_enter_ns;
    const int closed = *fx.fs.Create("/f");
    ASSERT_TRUE(fx.fs.Close(closed).ok());
    ASSERT_TRUE(fx.fs.Mkdir("/d").ok());
    const int dir = *fx.fs.Open("/d");
    const int file = *fx.fs.Create("/g");
    std::vector<std::byte> buf(4096);
    auto check = [&](const fs::OpStats& st, const char* what) {
      EXPECT_EQ(st.total_ns, enter) << what;
      EXPECT_EQ(st.syscall_ns, enter) << what;
      EXPECT_EQ(st.cpu_ns, enter) << what;
    };
    for (const int fd : {closed, dir}) {
      fs::OpStats st;
      EXPECT_FALSE(fx.fs.Write(fd, 0, buf, &st).ok());
      check(st, "write");
      EXPECT_FALSE(fx.fs.Append(fd, buf, &st).ok());
      check(st, "append");
      EXPECT_FALSE(fx.fs.Read(fd, 0, buf, &st).ok());
      check(st, "read");
    }
    fs::OpStats st;
    EXPECT_EQ(*fx.fs.Write(file, 0, std::span<const std::byte>(), &st), 0u);
    check(st, "empty write");
    EXPECT_EQ(*fx.fs.Append(file, std::span<const std::byte>(), &st), 0u);
    check(st, "empty append");
    EXPECT_EQ(*fx.fs.Read(file, 0, std::span<std::byte>(), &st), 0u);
    check(st, "empty read");
  });
}

TEST(NovaFsTest, NameTooLongRejected) {
  Fx fx;
  fx.Run([&] {
    const std::string long_name(kMaxNameLen + 1, 'x');
    EXPECT_EQ(fx.fs.Create("/" + long_name).status().code(),
              ErrorCode::kNameTooLong);
  });
}

// A fixed namespace script, one row per op: status, virtual ns, persist
// barriers, then the free pages and free inodes after it. The script makes
// a directory and a file, links the file and renames the link into the
// directory, renames over an existing file (once keeping the displaced
// inode alive, once dropping its last link) and onto itself, unlinks an
// open file and closes it, and hits four error returns. Each op's cost
// comes from the namespace layer alone, so a change to the syscall
// entry/exit charges, the journal commits or the log appends shows here.
std::string RunNamespaceScript(harness::FsKind kind) {
  harness::TestbedConfig cfg;
  cfg.fs = kind;
  cfg.machine_cores = 2;
  cfg.device_bytes = 64_MB;
  harness::Testbed tb(cfg);
  fs::FileSystem& fs = tb.fs();
  std::string table;
  tb.sim().Spawn(0, [&] {
    auto row = [&](const std::string& what, auto&& op) {
      const uint64_t t0 = tb.sim().now();
      const uint64_t b0 = tb.mem().barrier_count();
      const Status st = op();
      table += what + ": " + std::string(ErrorCodeName(st.code())) +
               " " + std::to_string(tb.sim().now() - t0) + "ns " +
               std::to_string(tb.mem().barrier_count() - b0) + "b " +
               std::to_string(tb.nova().free_pages()) + "p " +
               std::to_string(tb.nova().free_inodes()) + "i\n";
    };
    int a = -1;
    int c = -1;
    int e = -1;
    const std::vector<std::byte> data = Pattern(8_KB, 30);
    row("mkdir /d", [&] { return fs.Mkdir("/d"); });
    row("create /a", [&] {
      auto fd = fs.Create("/a");
      a = fd.ok() ? *fd : -1;
      return fd.status();
    });
    row("write /a", [&] { return fs.Write(a, 0, data).status(); });
    row("link /a /b", [&] { return fs.Link("/a", "/b"); });
    row("rename /b /d/b", [&] { return fs.Rename("/b", "/d/b"); });
    row("create /c", [&] {
      auto fd = fs.Create("/c");
      c = fd.ok() ? *fd : -1;
      return fd.status();
    });
    row("write /c", [&] { return fs.Write(c, 0, data).status(); });
    row("close /c", [&] { return fs.Close(c); });
    row("rename /c /d/b", [&] { return fs.Rename("/c", "/d/b"); });
    row("create /e", [&] {
      auto fd = fs.Create("/e");
      e = fd.ok() ? *fd : -1;
      return fd.status();
    });
    row("close /e", [&] { return fs.Close(e); });
    row("rename /e /d/b", [&] { return fs.Rename("/e", "/d/b"); });
    row("rename /d/b /d/b", [&] { return fs.Rename("/d/b", "/d/b"); });
    row("open /d/b", [&] {
      auto fd = fs.Open("/d/b");
      return fd.ok() ? fs.Close(*fd) : fd.status();
    });
    row("stat /d/b", [&] { return fs.StatPath("/d/b").status(); });
    row("unlink /a", [&] { return fs.Unlink("/a"); });
    row("close /a", [&] { return fs.Close(a); });
    row("create /d", [&] { return fs.Create("/d").status(); });
    row("unlink /missing", [&] { return fs.Unlink("/missing"); });
    row("link /d /l", [&] { return fs.Link("/d", "/l"); });
    row("rename /missing /z", [&] { return fs.Rename("/missing", "/z"); });
  });
  tb.sim().Run();
  return table;
}

TEST(NovaFsTest, NamespaceOpsMatchPinnedCosts) {
  // EasyIO differs from NOVA only in its data writes.
  const std::string nova_want =
      "mkdir /d: OK 3560ns 9b 16061p 16382i\n"
      "create /a: OK 2940ns 7b 16061p 16381i\n"
      "write /a: OK 6004ns 5b 16058p 16381i\n"
      "link /a /b: OK 3000ns 6b 16058p 16381i\n"
      "rename /b /d/b: OK 3860ns 9b 16057p 16381i\n"
      "create /c: OK 2940ns 7b 16057p 16380i\n"
      "write /c: OK 6004ns 5b 16054p 16380i\n"
      "close /c: OK 0ns 0b 16054p 16380i\n"
      "rename /c /d/b: OK 3480ns 8b 16054p 16380i\n"
      "create /e: OK 2940ns 7b 16054p 16379i\n"
      "close /e: OK 0ns 0b 16054p 16379i\n"
      "rename /e /d/b: OK 3720ns 9b 16057p 16380i\n"
      "rename /d/b /d/b: OK 1800ns 0b 16057p 16380i\n"
      "open /d/b: OK 1800ns 0b 16057p 16380i\n"
      "stat /d/b: OK 1800ns 0b 16057p 16380i\n"
      "unlink /a: OK 2940ns 7b 16057p 16380i\n"
      "close /a: OK 0ns 0b 16060p 16381i\n"
      "create /d: EXISTS 700ns 0b 16060p 16381i\n"
      "unlink /missing: NOT_FOUND 700ns 0b 16060p 16381i\n"
      "link /d /l: IS_DIR 1000ns 0b 16060p 16381i\n"
      "rename /missing /z: NOT_FOUND 700ns 0b 16060p 16381i\n";
  const std::string easy_want =
      "mkdir /d: OK 3560ns 9b 16061p 16382i\n"
      "create /a: OK 2940ns 7b 16061p 16381i\n"
      "write /a: OK 5217ns 5b 16058p 16381i\n"
      "link /a /b: OK 3000ns 6b 16058p 16381i\n"
      "rename /b /d/b: OK 3860ns 9b 16057p 16381i\n"
      "create /c: OK 2940ns 7b 16057p 16380i\n"
      "write /c: OK 5217ns 5b 16054p 16380i\n"
      "close /c: OK 0ns 0b 16054p 16380i\n"
      "rename /c /d/b: OK 3480ns 8b 16054p 16380i\n"
      "create /e: OK 2940ns 7b 16054p 16379i\n"
      "close /e: OK 0ns 0b 16054p 16379i\n"
      "rename /e /d/b: OK 3720ns 9b 16057p 16380i\n"
      "rename /d/b /d/b: OK 1800ns 0b 16057p 16380i\n"
      "open /d/b: OK 1800ns 0b 16057p 16380i\n"
      "stat /d/b: OK 1800ns 0b 16057p 16380i\n"
      "unlink /a: OK 2940ns 7b 16057p 16380i\n"
      "close /a: OK 0ns 0b 16060p 16381i\n"
      "create /d: EXISTS 700ns 0b 16060p 16381i\n"
      "unlink /missing: NOT_FOUND 700ns 0b 16060p 16381i\n"
      "link /d /l: IS_DIR 1000ns 0b 16060p 16381i\n"
      "rename /missing /z: NOT_FOUND 700ns 0b 16060p 16381i\n";
  const std::string nova = RunNamespaceScript(harness::FsKind::kNova);
  const std::string easy = RunNamespaceScript(harness::FsKind::kEasy);
  EXPECT_EQ(nova, nova_want);
  EXPECT_EQ(easy, easy_want);
  if (HasFailure()) {
    ADD_FAILURE() << "actual namespace costs:\nNOVA\n" << nova << "EasyIO\n"
                  << easy;
  }
}

// A fixed data script, one row per op: the returned byte count (or error),
// the op's OpStats, the clock after it and the persist barriers it issued.
// Reads also print a CRC of the bytes they returned. The script writes 64K
// and fsyncs at once (on EasyIO the orderless write's SN is then complete),
// writes an unaligned range past a hole, overwrites the partly written page
// below it, reads across the hole, inside the hole (8K, so EasyIO offloads
// an all-hole read), across the hole's edge with 4K, at EOF and past it
// (a short read), appends 64K, reads and writes while a second task writes
// and reads the same file, and finally quarantines every L channel of
// EasyIO's manager before a 64K write and read (the other kinds run the two
// ops plainly). OdinFS's 24 reserved cores sit above the two worker cores.
std::string RunDataScript(harness::FsKind kind) {
  harness::TestbedConfig cfg;
  cfg.fs = kind;
  cfg.machine_cores = 2 + harness::kOdinReservedCores;
  cfg.device_bytes = 64_MB;
  harness::Testbed tb(cfg);
  fs::FileSystem& fs = tb.fs();
  std::string table;
  tb.sim().Spawn(0, [&] {
    auto stats_row = [&](const std::string& what, const StatusOr<size_t>& r,
                         const fs::OpStats& st, uint64_t b0,
                         const std::string& extra) {
      table += what + ": " +
               (r.ok() ? std::to_string(*r)
                       : std::string(ErrorCodeName(r.status().code()))) +
               " total=" + std::to_string(st.total_ns) +
               " cpu=" + std::to_string(st.cpu_ns) +
               " blk=" + std::to_string(st.blocked_ns) +
               " sys=" + std::to_string(st.syscall_ns) +
               " idx=" + std::to_string(st.index_ns) +
               " meta=" + std::to_string(st.meta_ns) +
               " data=" + std::to_string(st.data_ns) +
               " now=" + std::to_string(tb.sim().now()) + " " +
               std::to_string(tb.mem().barrier_count() - b0) + "b " +
               std::to_string(tb.nova().free_pages()) + "p" + extra + "\n";
    };
    const int fd = *fs.Create("/f");
    auto write = [&](const std::string& what, uint64_t off,
                     const std::vector<std::byte>& data) {
      fs::OpStats st;
      const uint64_t b0 = tb.mem().barrier_count();
      stats_row(what, fs.Write(fd, off, data, &st), st, b0, "");
    };
    auto read = [&](const std::string& what, uint64_t off, size_t n) {
      std::vector<std::byte> buf(n, std::byte{0x5a});
      fs::OpStats st;
      const uint64_t b0 = tb.mem().barrier_count();
      const StatusOr<size_t> r = fs.Read(fd, off, buf, &st);
      const size_t got = r.ok() ? *r : 0;
      stats_row(what, r, st, b0,
                " crc=" + std::to_string(Crc32c(buf.data(), got)));
    };
    auto fsync = [&](const std::string& what) {
      const uint64_t t0 = tb.sim().now();
      const uint64_t b0 = tb.mem().barrier_count();
      const Status st = fs.Fsync(fd);
      table += what + ": " + std::string(ErrorCodeName(st.code())) + " " +
               std::to_string(tb.sim().now() - t0) + "ns now=" +
               std::to_string(tb.sim().now()) + " " +
               std::to_string(tb.mem().barrier_count() - b0) + "b\n";
    };
    write("write 64K@0", 0, Pattern(64_KB, 40));
    fsync("fsync");
    write("write 10000@90000", 90000, Pattern(10000, 41));
    write("write 1000@89500", 89500, Pattern(1000, 42));
    read("read 16K@60000", 60000, 16_KB);
    read("read 8K@70000", 70000, 8_KB);
    read("read 4K@85000", 85000, 4_KB);
    read("read 4K@100000", 100000, 4_KB);
    read("read 8K@96000", 96000, 8_KB);
    {
      fs::OpStats st;
      const uint64_t b0 = tb.mem().barrier_count();
      stats_row("append 64K", fs.Append(fd, Pattern(64_KB, 43), &st), st, b0,
                "");
    }
    fsync("fsync");
    // A second task on core 1 writes and then reads the file while this
    // one reads, writes and reads it, so ops meet each other's level-1 lock
    // (the first write arrives while the 64K read holds it) and, on EasyIO,
    // an orderless write still in flight.
    bool other_done = false;
    tb.sim().Spawn(1, [&] {
      tb.sim().Advance(1000);
      write("other: write 4K@4096", 4096, Pattern(4_KB, 46));
      read("other: read 64K@0", 0, 64_KB);
      other_done = true;
    });
    read("read 64K@0 shared", 0, 64_KB);
    write("write 64K@0 shared", 0, Pattern(64_KB, 45));
    read("read 16K@0 shared", 0, 16_KB);
    while (!other_done) {
      tb.sim().Advance(1000);
    }
    if (core::ChannelManager* cm = tb.channel_manager(); cm != nullptr) {
      for (int c = 0; c < cfg.cm_options.num_l_channels; ++c) {
        cm->ReportChannelFault(tb.engine()->channel(c));
        cm->ReportChannelFault(tb.engine()->channel(c));
      }
    }
    write("write 64K@0 quarantined", 0, Pattern(64_KB, 44));
    read("read 64K@0 quarantined", 0, 64_KB);
    EASYIO_CHECK_OK(fs.Close(fd));
  });
  tb.sim().Run();
  return table;
}

TEST(NovaFsTest, DataOpsMatchPinnedCosts) {
  const std::pair<harness::FsKind, std::string> kWant[] = {
      {harness::FsKind::kNova,
       "write 64K@0: 65536 total=20799 cpu=20799 blk=0 sys=1200 idx=940 "
       "meta=4140 data=14519 now=24359 5b 16044p\n"
       "fsync: OK 1200ns now=25559 0b\n"
       "write 10000@90000: 10000 total=6066 cpu=6066 blk=0 sys=1200 idx=460 "
       "meta=1840 data=2566 now=31625 3b 16040p\n"
       "write 1000@89500: 1000 total=6074 cpu=6074 blk=0 sys=1200 idx=380 "
       "meta=1560 data=2934 now=37699 3b 16040p\n"
       "read 16K@60000: 16384 total=4372 cpu=4372 blk=0 sys=1200 idx=500 "
       "meta=0 data=2672 now=42071 0b 16040p crc=1951993788\n"
       "read 8K@70000: 8192 total=2255 cpu=2255 blk=0 sys=1200 idx=420 meta=0 "
       "data=635 now=44326 0b 16040p crc=2420393507\n"
       "read 4K@85000: 4096 total=2762 cpu=2762 blk=0 sys=1200 idx=380 meta=0 "
       "data=1182 now=47088 0b 16040p crc=2566472073\n"
       "read 4K@100000: 0 total=1200 cpu=1200 blk=0 sys=1200 idx=0 meta=0 "
       "data=0 now=48288 0b 16040p crc=0\n"
       "read 8K@96000: 4000 total=3013 cpu=3013 blk=0 sys=1200 idx=380 meta=0 "
       "data=1433 now=51301 0b 16040p crc=2427643239\n"
       "append 64K: 65536 total=20966 cpu=20966 blk=0 sys=1200 idx=980 "
       "meta=3660 data=15126 now=72267 3b 16024p\n"
       "fsync: OK 1200ns now=73467 0b\n"
       "read 64K@0 shared: 65536 total=15409 cpu=15409 blk=0 sys=1200 idx=940 "
       "meta=0 data=13269 now=88876 0b 16023p crc=3457630749\n"
       "other: write 4K@4096: 4096 total=17637 cpu=17637 blk=0 sys=1200 "
       "idx=340 meta=1420 data=1468 now=92104 3b 16024p\n"
       "write 64K@0 shared: 65536 total=22207 cpu=22207 blk=0 sys=1200 idx=940 "
       "meta=3520 data=14519 now=111083 6b 16024p\n"
       "read 16K@0 shared: 16384 total=5899 cpu=5899 blk=0 sys=1200 idx=460 "
       "meta=0 data=4239 now=116982 0b 16024p crc=82764166\n"
       "other: read 64K@0: 65536 total=33188 cpu=33188 blk=0 sys=1200 idx=940 "
       "meta=0 data=13269 now=125292 3b 16024p crc=1491798395\n"
       "write 64K@0 quarantined: 65536 total=20179 cpu=20179 blk=0 sys=1200 "
       "idx=940 meta=3520 data=14519 now=146161 3b 16024p\n"
       "read 64K@0 quarantined: 65536 total=15409 cpu=15409 blk=0 sys=1200 "
       "idx=940 meta=0 data=13269 now=161570 0b 16024p crc=1070026358\n"},
      {harness::FsKind::kNovaDma,
       "write 64K@0: 65536 total=16356 cpu=16356 blk=0 sys=1200 idx=940 "
       "meta=4140 data=10076 now=19916 5b 16044p\n"
       "fsync: OK 1200ns now=21116 0b\n"
       "write 10000@90000: 10000 total=6668 cpu=6668 blk=0 sys=1200 idx=460 "
       "meta=1840 data=3168 now=27784 3b 16040p\n"
       "write 1000@89500: 1000 total=7204 cpu=7204 blk=0 sys=1200 idx=380 "
       "meta=1560 data=4064 now=34988 3b 16040p\n"
       "read 16K@60000: 16384 total=5536 cpu=5536 blk=0 sys=1200 idx=500 "
       "meta=0 data=3836 now=40524 1b 16040p crc=1951993788\n"
       "read 8K@70000: 8192 total=2255 cpu=2255 blk=0 sys=1200 idx=420 meta=0 "
       "data=635 now=42779 0b 16040p crc=2420393507\n"
       "read 4K@85000: 4096 total=4062 cpu=4062 blk=0 sys=1200 idx=380 meta=0 "
       "data=2482 now=46841 1b 16040p crc=2566472073\n"
       "read 4K@100000: 0 total=1200 cpu=1200 blk=0 sys=1200 idx=0 meta=0 "
       "data=0 now=48041 0b 16040p crc=0\n"
       "read 8K@96000: 4000 total=4374 cpu=4374 blk=0 sys=1200 idx=380 meta=0 "
       "data=2794 now=52415 1b 16040p crc=2427643239\n"
       "append 64K: 65536 total=16523 cpu=16523 blk=0 sys=1200 idx=980 "
       "meta=3660 data=10683 now=68938 3b 16024p\n"
       "fsync: OK 1200ns now=70138 0b\n"
       "read 64K@0 shared: 65536 total=13413 cpu=13413 blk=0 sys=1200 idx=940 "
       "meta=0 data=11273 now=83551 1b 16023p crc=3457630749\n"
       "other: write 4K@4096: 4096 total=16863 cpu=16863 blk=0 sys=1200 "
       "idx=340 meta=1420 data=2690 now=88001 4b 16024p\n"
       "write 64K@0 shared: 65536 total=18986 cpu=18986 blk=0 sys=1200 idx=940 "
       "meta=3520 data=10076 now=102537 6b 16024p\n"
       "read 16K@0 shared: 16384 total=6078 cpu=6078 blk=0 sys=1200 idx=460 "
       "meta=0 data=4418 now=108615 1b 16024p crc=82764166\n"
       "other: read 64K@0: 65536 total=26473 cpu=26473 blk=0 sys=1200 idx=940 "
       "meta=0 data=10997 now=114474 5b 16024p crc=1491798395\n"
       "write 64K@0 quarantined: 65536 total=15736 cpu=15736 blk=0 sys=1200 "
       "idx=940 meta=3520 data=10076 now=130351 3b 16024p\n"
       "read 64K@0 quarantined: 65536 total=13413 cpu=13413 blk=0 sys=1200 "
       "idx=940 meta=0 data=11273 now=143764 1b 16024p crc=1070026358\n"},
      {harness::FsKind::kOdin,
       "write 64K@0: 65536 total=16329 cpu=16329 blk=0 sys=1200 idx=940 "
       "meta=4140 data=10049 now=19889 6b 16044p\n"
       "fsync: OK 1200ns now=21089 0b\n"
       "write 10000@90000: 10000 total=6066 cpu=6066 blk=0 sys=1200 idx=460 "
       "meta=1840 data=2566 now=27155 3b 16040p\n"
       "write 1000@89500: 1000 total=6074 cpu=6074 blk=0 sys=1200 idx=380 "
       "meta=1560 data=2934 now=33229 3b 16040p\n"
       "read 16K@60000: 16384 total=4372 cpu=4372 blk=0 sys=1200 idx=500 "
       "meta=0 data=2672 now=37601 0b 16040p crc=1951993788\n"
       "read 8K@70000: 8192 total=2255 cpu=2255 blk=0 sys=1200 idx=420 meta=0 "
       "data=635 now=39856 0b 16040p crc=2420393507\n"
       "read 4K@85000: 4096 total=2762 cpu=2762 blk=0 sys=1200 idx=380 meta=0 "
       "data=1182 now=42618 0b 16040p crc=2566472073\n"
       "read 4K@100000: 0 total=1200 cpu=1200 blk=0 sys=1200 idx=0 meta=0 "
       "data=0 now=43818 0b 16040p crc=0\n"
       "read 8K@96000: 4000 total=3013 cpu=3013 blk=0 sys=1200 idx=380 meta=0 "
       "data=1433 now=46831 0b 16040p crc=2427643239\n"
       "append 64K: 65536 total=16496 cpu=16496 blk=0 sys=1200 idx=980 "
       "meta=3660 data=10656 now=63327 4b 16024p\n"
       "fsync: OK 1200ns now=64527 0b\n"
       "read 64K@0 shared: 65536 total=10284 cpu=10284 blk=0 sys=1200 idx=940 "
       "meta=0 data=8144 now=74811 0b 16023p crc=3457630749\n"
       "other: write 4K@4096: 4096 total=12512 cpu=12512 blk=0 sys=1200 "
       "idx=340 meta=1420 data=1468 now=78039 3b 16024p\n"
       "write 64K@0 shared: 65536 total=17737 cpu=17737 blk=0 sys=1200 idx=940 "
       "meta=3520 data=10049 now=92548 7b 16024p\n"
       "read 16K@0 shared: 16384 total=5899 cpu=5899 blk=0 sys=1200 idx=460 "
       "meta=0 data=4239 now=98447 0b 16024p crc=82764166\n"
       "other: read 64K@0: 65536 total=23593 cpu=23593 blk=0 sys=1200 idx=940 "
       "meta=0 data=8144 now=101632 4b 16024p crc=1491798395\n"
       "write 64K@0 quarantined: 65536 total=15709 cpu=15709 blk=0 sys=1200 "
       "idx=940 meta=3520 data=10049 now=118156 4b 16024p\n"
       "read 64K@0 quarantined: 65536 total=10284 cpu=10284 blk=0 sys=1200 "
       "idx=940 meta=0 data=8144 now=128440 0b 16024p crc=1070026358\n"},
      {harness::FsKind::kEasy,
       "write 64K@0: 65536 total=14756 cpu=7000 blk=7756 sys=1200 idx=940 "
       "meta=4140 data=8476 now=18316 5b 16044p\n"
       "fsync: OK 1200ns now=19516 0b\n"
       "write 10000@90000: 10000 total=5688 cpu=4220 blk=1468 sys=1200 idx=460 "
       "meta=1840 data=2188 now=25204 3b 16040p\n"
       "write 1000@89500: 1000 total=6074 cpu=6074 blk=0 sys=1200 idx=380 "
       "meta=1560 data=2934 now=31278 3b 16040p\n"
       "read 16K@60000: 16384 total=5036 cpu=3261 blk=1775 sys=1200 idx=500 "
       "meta=0 data=3336 now=36314 1b 16040p crc=1951993788\n"
       "read 8K@70000: 8192 total=2255 cpu=2255 blk=0 sys=1200 idx=420 meta=0 "
       "data=635 now=38569 0b 16040p crc=2420393507\n"
       "read 4K@85000: 4096 total=2762 cpu=2762 blk=0 sys=1200 idx=380 meta=0 "
       "data=1182 now=41331 0b 16040p crc=2566472073\n"
       "read 4K@100000: 0 total=1200 cpu=1200 blk=0 sys=1200 idx=0 meta=0 "
       "data=0 now=42531 0b 16040p crc=0\n"
       "read 8K@96000: 4000 total=3013 cpu=3013 blk=0 sys=1200 idx=380 meta=0 "
       "data=1433 now=45544 0b 16040p crc=2427643239\n"
       "append 64K: 65536 total=15543 cpu=7167 blk=8376 sys=1200 idx=980 "
       "meta=3660 data=9703 now=61087 3b 16024p\n"
       "fsync: OK 1200ns now=62287 0b\n"
       "other: write 4K@4096: 4096 total=4968 cpu=4968 blk=0 sys=1200 idx=340 "
       "meta=1420 data=1468 now=68255 3b 16023p\n"
       "read 64K@0 shared: 65536 total=12928 cpu=2860 blk=10068 sys=1200 "
       "idx=940 meta=0 data=10788 now=75215 5b 16023p crc=3457630749\n"
       "write 64K@0 shared: 65536 total=14914 cpu=6380 blk=8534 sys=1200 "
       "idx=940 meta=3520 data=9254 now=90129 4b 16007p\n"
       "other: read 64K@0: 65536 total=22403 cpu=3160 blk=19243 sys=1200 "
       "idx=940 meta=0 data=20263 now=90658 7b 16024p crc=2174589369\n"
       "read 16K@0 shared: 16384 total=5578 cpu=2380 blk=3198 sys=1200 idx=460 "
       "meta=0 data=3918 now=95707 2b 16024p crc=82764166\n"
       "write 64K@0 quarantined: 65536 total=20179 cpu=20179 blk=0 sys=1200 "
       "idx=940 meta=3520 data=14519 now=116478 3b 16024p\n"
       "read 64K@0 quarantined: 65536 total=15409 cpu=15409 blk=0 sys=1200 "
       "idx=940 meta=0 data=13269 now=131887 0b 16024p crc=1070026358\n"},
      {harness::FsKind::kEasyNaive,
       "write 64K@0: 65536 total=17056 cpu=8200 blk=8856 sys=2400 idx=940 "
       "meta=4140 data=9576 now=20616 5b 16044p\n"
       "fsync: OK 1200ns now=21816 0b\n"
       "write 10000@90000: 10000 total=7368 cpu=5420 blk=1948 sys=2400 idx=460 "
       "meta=1840 data=2668 now=29184 3b 16040p\n"
       "write 1000@89500: 1000 total=6074 cpu=6074 blk=0 sys=1200 idx=380 "
       "meta=1560 data=2934 now=35258 3b 16040p\n"
       "read 16K@60000: 16384 total=5036 cpu=3261 blk=1775 sys=1200 idx=500 "
       "meta=0 data=3336 now=40294 1b 16040p crc=1951993788\n"
       "read 8K@70000: 8192 total=2255 cpu=2255 blk=0 sys=1200 idx=420 meta=0 "
       "data=635 now=42549 0b 16040p crc=2420393507\n"
       "read 4K@85000: 4096 total=2762 cpu=2762 blk=0 sys=1200 idx=380 meta=0 "
       "data=1182 now=45311 0b 16040p crc=2566472073\n"
       "read 4K@100000: 0 total=1200 cpu=1200 blk=0 sys=1200 idx=0 meta=0 "
       "data=0 now=46511 0b 16040p crc=0\n"
       "read 8K@96000: 4000 total=3013 cpu=3013 blk=0 sys=1200 idx=380 meta=0 "
       "data=1433 now=49524 0b 16040p crc=2427643239\n"
       "append 64K: 65536 total=17223 cpu=8367 blk=8856 sys=2400 idx=980 "
       "meta=3660 data=10183 now=66747 3b 16024p\n"
       "fsync: OK 1200ns now=67947 0b\n"
       "other: write 4K@4096: 4096 total=4968 cpu=4968 blk=0 sys=1200 idx=340 "
       "meta=1420 data=1468 now=73915 3b 16023p\n"
       "read 64K@0 shared: 65536 total=12928 cpu=2860 blk=10068 sys=1200 "
       "idx=940 meta=0 data=10788 now=80875 5b 16023p crc=3457630749\n"
       "other: read 64K@0: 65536 total=22403 cpu=3160 blk=19243 sys=1200 "
       "idx=940 meta=0 data=20263 now=96318 5b 16008p crc=2174589369\n"
       "write 64K@0 shared: 65536 total=16594 cpu=7580 blk=9014 sys=2400 "
       "idx=940 meta=3520 data=9734 now=97469 5b 16024p\n"
       "read 16K@0 shared: 16384 total=5578 cpu=2380 blk=3198 sys=1200 idx=460 "
       "meta=0 data=3918 now=103047 1b 16024p crc=82764166\n"
       "write 64K@0 quarantined: 65536 total=20179 cpu=20179 blk=0 sys=1200 "
       "idx=940 meta=3520 data=14519 now=123818 3b 16024p\n"
       "read 64K@0 quarantined: 65536 total=15409 cpu=15409 blk=0 sys=1200 "
       "idx=940 meta=0 data=13269 now=139227 0b 16024p crc=1070026358\n"},
  };
  std::string actual;
  for (const auto& [kind, want] : kWant) {
    const std::string got = RunDataScript(kind);
    EXPECT_EQ(got, want) << harness::FsKindName(kind);
    actual += std::string(harness::FsKindName(kind)) + "\n" + got;
  }
  if (HasFailure()) {
    ADD_FAILURE() << "actual data-op costs:\n" << actual;
  }
}

}  // namespace
}  // namespace easyio::nova
