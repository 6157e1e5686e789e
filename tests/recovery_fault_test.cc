// Fault-injection tests for mount-time recovery: corrupted superblocks,
// torn log entries, broken log chains and dangling directory entries must be
// detected (kCorruption), never silently accepted.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/nova/nova_fs.h"
#include "src/pmem/slow_memory.h"
#include "src/sim/simulation.h"

namespace easyio::nova {
namespace {

struct Fx {
  sim::Simulation sim{{.num_cores = 2}};
  pmem::SlowMemory mem{&sim, pmem::MediaParams::OneNode(), 64_MB};

  // Builds a small valid filesystem image and returns its layout.
  Layout Populate() {
    NovaFs fs(&mem, {});
    EASYIO_CHECK_OK(fs.Format());
    sim.Spawn(0, [&] {
      int fd = *fs.Create("/a");
      std::vector<std::byte> data(32_KB, std::byte{0x5c});
      EASYIO_CHECK_OK(fs.Write(fd, 0, data).status());
      EASYIO_CHECK_OK(fs.Close(fd));
      EASYIO_CHECK_OK(fs.Mkdir("/d"));
      int fd2 = *fs.Create("/d/b");
      EASYIO_CHECK_OK(fs.Close(fd2));
    });
    sim.Run();
    return fs.layout();
  }

  // Corrupts the on-media T at `off`: copies it out, applies `fn` to the
  // copy and writes it back.
  template <typename T, typename Fn>
  void Poke(uint64_t off, Fn fn) {
    T value;
    mem.CopyOut(&value, off, sizeof(T));
    fn(value);
    mem.Write(off, &value, sizeof(T));
  }

  Status Mount() {
    NovaFs fs2(&mem, {});
    return fs2.Mount();
  }
};

TEST(RecoveryFaultTest, CleanImageMounts) {
  Fx fx;
  fx.Populate();
  EXPECT_TRUE(fx.Mount().ok());
}

TEST(RecoveryFaultTest, SuperblockMagicCorruption) {
  Fx fx;
  fx.Populate();
  fx.Poke<std::byte>(3, [](std::byte& b) { b ^= std::byte{0xff}; });
  EXPECT_EQ(fx.Mount().code(), ErrorCode::kCorruption);
}

TEST(RecoveryFaultTest, SuperblockFieldCorruption) {
  Fx fx;
  const Layout layout = fx.Populate();
  (void)layout;
  // Flip a byte inside the layout fields but leave the magic intact: the
  // checksum must catch it.
  fx.Poke<Superblock>(0, [](Superblock& sb) { sb.inode_count ^= 1; });
  EXPECT_EQ(fx.Mount().code(), ErrorCode::kCorruption);
}

TEST(RecoveryFaultTest, TornCommittedLogEntry) {
  Fx fx;
  const Layout layout = fx.Populate();
  // Root (slot 0) has dentries in its log; flip a byte in the first
  // committed entry's name so the csum fails.
  const auto* root = fx.mem.As<PInode>(layout.inode_table_off);
  ASSERT_NE(root->log_head, 0u);
  const uint64_t entry_off = root->log_head + kLogEntrySize;
  ASSERT_EQ(static_cast<EntryType>(fx.mem.As<DentryEntry>(entry_off)->type),
            EntryType::kDentryAdd);
  fx.Poke<DentryEntry>(entry_off, [](DentryEntry& e) { e.name[0] ^= 0x7f; });
  EXPECT_EQ(fx.Mount().code(), ErrorCode::kCorruption);
}

TEST(RecoveryFaultTest, GarbageEntryTypeBeforeTail) {
  Fx fx;
  const Layout layout = fx.Populate();
  const auto* root = fx.mem.As<PInode>(layout.inode_table_off);
  fx.Poke<uint8_t>(root->log_head + kLogEntrySize, [](uint8_t& type) {
    type = 0xEE;  // not a valid EntryType
  });
  EXPECT_EQ(fx.Mount().code(), ErrorCode::kCorruption);
}

TEST(RecoveryFaultTest, BrokenLogChain) {
  Fx fx;
  const Layout layout = fx.Populate();
  // Point the root tail beyond the first page but cut the chain.
  const uint64_t head = fx.mem.As<PInode>(layout.inode_table_off)->log_head;
  // Force a tail in a nonexistent second page.
  fx.Poke<PInode>(layout.inode_table_off, [&](PInode& root) {
    root.log_tail = head + kBlockSize + 5 * kLogEntrySize;
  });
  fx.Poke<LogPageHeader>(head, [](LogPageHeader& hdr) { hdr.next_page = 0; });
  EXPECT_EQ(fx.Mount().code(), ErrorCode::kCorruption);
}

// The slots of the inodes Populate creates with a log: the root, /a and /d
// (the empty file /d/b has none).
constexpr uint64_t kLoggedSlots = 3;

// A bit flip in a live slot's log_head that sends it off the block area
// (bytes 34-39 of the slot: past the device, or below the area once the
// low block bits are kept) must be reported, not used to index the
// allocator's bitmap.
TEST(RecoveryFaultTest, LogHeadOffTheBlockAreaIsCorruption) {
  Fx fx;
  const Layout layout = fx.Populate();
  const uint64_t area_end =
      layout.block_area_off + layout.block_count * kBlockSize;
  int flips = 0;
  for (uint64_t slot = 0; slot < kLoggedSlots; ++slot) {
    const uint64_t off = layout.inode_table_off + slot * kPInodeSize;
    const uint64_t head = fx.mem.As<PInode>(off)->log_head;
    ASSERT_NE(head, 0u) << "slot " << slot;
    for (int bit = 16; bit < 64; ++bit) {
      const uint64_t flipped = head ^ (uint64_t{1} << bit);
      if (flipped >= layout.block_area_off && flipped < area_end) {
        continue;  // still a block-area page: the walk reads it
      }
      flips++;
      fx.Poke<PInode>(off, [&](PInode& p) { p.log_head = flipped; });
      EXPECT_EQ(fx.Mount().code(), ErrorCode::kCorruption)
          << "slot " << slot << " bit " << bit;
      fx.Poke<PInode>(off, [&](PInode& p) { p.log_head = head; });
    }
  }
  EXPECT_GT(flips, 100);
  EXPECT_TRUE(fx.Mount().ok());
}

// A flip in the low byte of the root's log_head leaves it inside the block
// area but off a page boundary; walking entries from there would skip the
// first ones and mount a different tree.
TEST(RecoveryFaultTest, MisalignedLogHeadIsCorruption) {
  Fx fx;
  const Layout layout = fx.Populate();
  const uint64_t head = fx.mem.As<PInode>(layout.inode_table_off)->log_head;
  for (int bit = 0; bit < 8; ++bit) {
    fx.Poke<PInode>(layout.inode_table_off, [&](PInode& p) {
      p.log_head = head ^ (uint64_t{1} << bit);
    });
    EXPECT_EQ(fx.Mount().code(), ErrorCode::kCorruption) << "bit " << bit;
  }
}

TEST(RecoveryFaultTest, LogTailOffAnEntryOrTheAreaIsCorruption) {
  Fx fx;
  const Layout layout = fx.Populate();
  const uint64_t tail = fx.mem.As<PInode>(layout.inode_table_off)->log_tail;
  for (const uint64_t bad : {tail + 8, tail | (uint64_t{1} << 40),
                             layout.inode_table_off + kLogEntrySize}) {
    fx.Poke<PInode>(layout.inode_table_off,
                    [&](PInode& p) { p.log_tail = bad; });
    EXPECT_EQ(fx.Mount().code(), ErrorCode::kCorruption) << "tail " << bad;
  }
}

// A zeroed log_head under a committed tail would otherwise mount the root
// with an empty log: /a and /d silently gone.
TEST(RecoveryFaultTest, LogTailWithoutLogHeadIsCorruption) {
  Fx fx;
  const Layout layout = fx.Populate();
  fx.Poke<PInode>(layout.inode_table_off, [](PInode& p) { p.log_head = 0; });
  EXPECT_EQ(fx.Mount().code(), ErrorCode::kCorruption);
}

// A chain whose next_page leads back to a page already walked must end in
// kCorruption, not loop or trip the allocator's double-mark check. The
// root's first log page must be full of valid entries for the walk to
// follow its next_page, so this image creates more files than one page
// holds dentries.
TEST(RecoveryFaultTest, LogChainCycleIsCorruption) {
  Fx fx;
  NovaFs fs(&fx.mem, {});
  EASYIO_CHECK_OK(fs.Format());
  fx.sim.Spawn(0, [&] {
    for (uint64_t i = 0; i < kEntriesPerLogPage + 8; ++i) {
      EASYIO_CHECK_OK(fs.Close(*fs.Create("/f" + std::to_string(i))));
    }
  });
  fx.sim.Run();
  const uint64_t root_off = fs.layout().inode_table_off;
  const uint64_t head = fx.mem.As<PInode>(root_off)->log_head;
  ASSERT_NE(fx.mem.As<LogPageHeader>(head)->next_page, 0u);
  ASSERT_TRUE(fx.Mount().ok());
  fx.Poke<LogPageHeader>(head,
                         [&](LogPageHeader& hdr) { hdr.next_page = head; });
  EXPECT_EQ(fx.Mount().code(), ErrorCode::kCorruption);
}

TEST(RecoveryFaultTest, UncommittedTailGarbageIsIgnored) {
  // Bytes past the committed tail may be arbitrary trash (a torn in-flight
  // append); mount must succeed and ignore them.
  Fx fx;
  const Layout layout = fx.Populate();
  const auto* root = fx.mem.As<PInode>(layout.inode_table_off);
  Rng rng(3);
  // Scribble over the slots past the tail within the same page.
  const uint64_t page = root->log_tail / kBlockSize * kBlockSize;
  for (uint64_t off = root->log_tail;
       off + kLogEntrySize <= page + kBlockSize; ++off) {
    fx.Poke<uint8_t>(
        off, [&](uint8_t& b) { b = static_cast<uint8_t>(rng.Next()); });
  }
  EXPECT_TRUE(fx.Mount().ok());
}

TEST(RecoveryFaultTest, DanglingDentryDetected) {
  Fx fx;
  const Layout layout = fx.Populate();
  // Invalidate /a's inode while leaving the root dentry in place.
  // Slot 1 holds the first allocated inode (/a, ino 2).
  const uint64_t slot_off = layout.inode_table_off + kPInodeSize;
  const auto* pi = fx.mem.As<PInode>(slot_off);
  ASSERT_TRUE(pi->valid());
  ASSERT_FALSE(pi->is_dir());
  fx.Poke<PInode>(slot_off, [](PInode& p) { p.flags = 0; });
  EXPECT_EQ(fx.Mount().code(), ErrorCode::kCorruption);
}

// Appends a checksummed DentryRemove of `name` -> `ino` to the root's log
// and moves the committed tail past it, as a commit would.
void RemoveFromRoot(Fx& fx, const Layout& layout, const std::string& name,
                    uint64_t ino) {
  const uint64_t tail = fx.mem.As<PInode>(layout.inode_table_off)->log_tail;
  ASSERT_NE(tail % kBlockSize, 0u);  // room left on the tail's page
  DentryEntry e{};
  e.type = static_cast<uint8_t>(EntryType::kDentryRemove);
  e.name_len = static_cast<uint8_t>(name.size());
  std::memcpy(e.name, name.data(), name.size());
  e.child_ino = ino;
  e.csum = e.ComputeCsum();
  fx.mem.Write(tail, &e, sizeof(e));
  fx.Poke<PInode>(layout.inode_table_off,
                  [&](PInode& p) { p.log_tail = tail + kLogEntrySize; });
}

uint64_t SlotOff(const Layout& layout, uint64_t ino) {
  return layout.inode_table_off + (ino - 1) * kPInodeSize;
}

// Every valid inode must be reachable from the root: a directory cycle that
// no path reaches (what renaming a directory into its own subtree would
// leave) is corruption, not a tree that mounts with leaked slots.
TEST(RecoveryFaultTest, DirectoryCycleCutOffFromRootIsCorruption) {
  Fx fx;
  NovaFs fs(&fx.mem, {});
  EASYIO_CHECK_OK(fs.Format());
  uint64_t d = 0;
  uint64_t e = 0;
  uint64_t f = 0;
  fx.sim.Spawn(0, [&] {
    EASYIO_CHECK_OK(fs.Mkdir("/d"));
    EASYIO_CHECK_OK(fs.Mkdir("/d/e"));
    EASYIO_CHECK_OK(fs.Close(*fs.Create("/d/e/f")));
    d = fs.StatPath("/d")->ino;
    e = fs.StatPath("/d/e")->ino;
    f = fs.StatPath("/d/e/f")->ino;
  });
  fx.sim.Run();
  const Layout layout = fs.layout();
  ASSERT_TRUE(fx.Mount().ok());
  // /d/e's one dentry now names /d (f's slot freed), and the root forgets
  // /d: d and e reach each other and nothing else reaches them.
  const uint64_t e_head = fx.mem.As<PInode>(SlotOff(layout, e))->log_head;
  fx.Poke<DentryEntry>(e_head + kLogEntrySize, [&](DentryEntry& entry) {
    ASSERT_EQ(entry.child_ino, f);
    entry.child_ino = d;
    entry.csum = entry.ComputeCsum();
  });
  fx.Poke<PInode>(SlotOff(layout, f), [](PInode& p) { p.flags = 0; });
  RemoveFromRoot(fx, layout, "d", d);
  EXPECT_EQ(fx.Mount().code(), ErrorCode::kCorruption);
}

// A valid file whose only dentry is gone, though its slot still claims a
// link, is an orphan: corruption, not a file that mounts unreachable.
TEST(RecoveryFaultTest, ValidFileWithoutDentryIsCorruption) {
  Fx fx;
  const Layout layout = fx.Populate();
  // Slot 1 holds the first allocated inode (/a, ino 2).
  ASSERT_TRUE(fx.mem.As<PInode>(SlotOff(layout, 2))->valid());
  RemoveFromRoot(fx, layout, "a", 2);
  EXPECT_EQ(fx.Mount().code(), ErrorCode::kCorruption);
}

TEST(RecoveryFaultTest, MountIsRepeatable) {
  // Mounting twice in a row (e.g. after a crash during recovery's
  // normalization writes) must converge to the same state.
  Fx fx;
  fx.Populate();
  {
    NovaFs fs2(&fx.mem, {});
    ASSERT_TRUE(fs2.Mount().ok());
  }
  NovaFs fs3(&fx.mem, {});
  ASSERT_TRUE(fs3.Mount().ok());
  fx.sim.Spawn(0, [&] {
    EXPECT_EQ(fs3.StatPath("/a")->size, 32_KB);
    EXPECT_TRUE(fs3.StatPath("/d/b").ok());
  });
  fx.sim.Run();
}

}  // namespace
}  // namespace easyio::nova
