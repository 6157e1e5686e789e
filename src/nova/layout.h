// On-media layout of the NOVA-style log-structured PM filesystem (paper §5,
// following NOVA [FAST'16]):
//
//   [ superblock | DMA completion records | journals | inode table | blocks ]
//
// Per-inode metadata lives in a chain of 4KB log pages holding fixed-size
// 64-byte entries; the persistent PInode.log_tail is the commit point. File
// data is written copy-on-write into 4KB blocks. Multi-inode namespace
// operations are made atomic with small per-core redo journals.
//
// EasyIO's only format change (paper §5: "less than 50 lines") is the
// `sn_packed` field in the write entry, recording the DMA descriptor that
// carries the entry's data.

#ifndef EASYIO_NOVA_LAYOUT_H_
#define EASYIO_NOVA_LAYOUT_H_

#include <cstddef>
#include <cstdint>

#include "src/common/crc32.h"

namespace easyio::nova {

inline constexpr uint64_t kMagic = 0x45415359494f4653ull;  // "EASYIOFS"
inline constexpr uint64_t kBlockSize = 4096;
inline constexpr uint64_t kPInodeSize = 64;
inline constexpr uint32_t kMaxNameLen = 39;  // NUL-terminated in 40 bytes
inline constexpr uint64_t kRootIno = 1;
// DMA channels with a completion record in the layout (§4.2): the engine a
// filesystem runs on has exactly this many.
inline constexpr int kCompChannels = 16;

struct Superblock {
  uint64_t magic;
  uint64_t device_size;
  uint64_t comp_region_off;   // DMA completion records (§4.2)
  uint64_t comp_channels;
  uint64_t journal_off;
  uint64_t journal_slots;
  uint64_t inode_table_off;
  uint64_t inode_count;
  uint64_t block_area_off;    // first data block
  uint64_t block_count;
  uint32_t csum;              // over all fields above
  uint32_t pad;

  uint32_t ComputeCsum() const {
    return Crc32c(this, offsetof(Superblock, csum));
  }
};
static_assert(sizeof(Superblock) <= kBlockSize);

// Persistent inode. Individual fields are updated with atomic 8-byte stores
// (log_tail is the commit pointer); multi-field updates that must be atomic
// with other inodes go through the journal.
struct PInode {
  static constexpr uint64_t kFlagValid = 1ull << 0;
  static constexpr uint64_t kFlagDir = 1ull << 1;

  uint64_t ino;
  uint64_t flags;
  uint64_t nlink;
  uint64_t mtime_ns;
  uint64_t log_head;  // pmem offset of first log page; 0 = none
  uint64_t log_tail;  // pmem offset of the next free entry slot; 0 = empty
  uint64_t reserved[2];

  bool valid() const { return (flags & kFlagValid) != 0; }
  bool is_dir() const { return (flags & kFlagDir) != 0; }
};
static_assert(sizeof(PInode) == kPInodeSize);

// ---- Log pages ----

struct LogPageHeader {
  uint64_t next_page;  // pmem offset of next log page; 0 = last
  uint64_t reserved[7];
};
static_assert(sizeof(LogPageHeader) == 64);

inline constexpr uint64_t kLogEntrySize = 64;
inline constexpr uint64_t kEntriesPerLogPage =
    (kBlockSize - sizeof(LogPageHeader)) / kLogEntrySize;  // 63

enum class EntryType : uint8_t {
  kInvalid = 0,
  kWrite = 1,
  kDentryAdd = 2,
  kDentryRemove = 3,
};

// File-data write: `num_pages` CoW blocks starting at `block_off` now back
// file pages [pgoff, pgoff+num_pages). `sn_packed` identifies the DMA
// descriptor whose completion makes the data durable (Sn::None for memcpy
// writes). `new_size`/`mtime_ns` carry the post-write attributes.
struct WriteEntry {
  uint8_t type;
  uint8_t pad[3];
  uint32_t csum;
  uint64_t pgoff;
  uint64_t num_pages;
  uint64_t block_off;
  uint64_t new_size;
  uint64_t mtime_ns;
  uint64_t sn_packed;
  uint64_t reserved;

  uint32_t ComputeCsum() const {
    WriteEntry copy = *this;
    copy.csum = 0;
    return Crc32c(&copy, sizeof(copy));
  }
};
static_assert(sizeof(WriteEntry) == kLogEntrySize);

// Directory entry add/remove, appended to the directory inode's log.
struct DentryEntry {
  uint8_t type;
  uint8_t name_len;
  uint8_t pad[2];
  uint32_t csum;
  uint64_t child_ino;
  uint64_t mtime_ns;
  char name[kMaxNameLen + 1];

  uint32_t ComputeCsum() const {
    DentryEntry copy = *this;
    copy.csum = 0;
    return Crc32c(&copy, sizeof(copy));
  }
};
static_assert(sizeof(DentryEntry) == kLogEntrySize);

// ---- Journal ----

// Redo record: up to four 8-byte pmem writes applied atomically (commit flag
// + checksum; recovery replays committed records). One 4KB slot per core.
struct JournalRecord {
  static constexpr int kMaxWrites = 4;

  uint64_t state;  // 0 = free, 1 = committed
  uint64_t count;
  struct JWrite {
    uint64_t off;
    uint64_t value;
  } writes[kMaxWrites];
  uint32_t csum;  // over count + writes
  uint32_t pad;

  uint32_t ComputeCsum() const {
    return Crc32c(&count, sizeof(count) + sizeof(writes));
  }
};
static_assert(sizeof(JournalRecord) <= kBlockSize);

// ---- Layout computation ----

struct Layout {
  uint64_t comp_region_off;
  uint64_t journal_off;
  uint64_t journal_slots;
  uint64_t inode_table_off;
  uint64_t inode_count;
  uint64_t block_area_off;
  uint64_t block_count;

  static Layout Compute(uint64_t device_size, uint64_t inode_count,
                        uint64_t journal_slots) {
    auto round_up = [](uint64_t v) {
      return (v + kBlockSize - 1) / kBlockSize * kBlockSize;
    };
    Layout l{};
    uint64_t off = kBlockSize;  // superblock
    l.comp_region_off = off;
    off += round_up(kCompChannels * 16);
    l.journal_off = off;
    l.journal_slots = journal_slots;
    off += journal_slots * kBlockSize;
    l.inode_table_off = off;
    l.inode_count = inode_count;
    off += round_up(inode_count * kPInodeSize);
    l.block_area_off = off;
    l.block_count = (device_size - off) / kBlockSize;
    return l;
  }
};

}  // namespace easyio::nova

#endif  // EASYIO_NOVA_LAYOUT_H_
