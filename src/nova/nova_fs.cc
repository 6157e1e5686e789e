#include "src/nova/nova_fs.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <string>
#include <unordered_set>

#include "src/common/units.h"
#include "src/dma/channel.h"
#include "src/obs/trace.h"

namespace easyio::nova {

namespace {

constexpr int kFirstFd = 3;

// Block-allocator shards: NOVA keeps per-CPU free lists so that allocation
// scales, and EasyIO inherits them (paper §5 builds EasyIO on NOVA).
constexpr int kAllocShards = 16;

// The one encoder per log entry type: the op paths and log compaction
// write entries only through these.
WriteEntry EncodeWrite(uint64_t pgoff, uint64_t num_pages, uint64_t block_off,
                       uint64_t new_size, uint64_t mtime_ns,
                       uint64_t sn_packed) {
  WriteEntry e{};
  e.type = static_cast<uint8_t>(EntryType::kWrite);
  e.pgoff = pgoff;
  e.num_pages = num_pages;
  e.block_off = block_off;
  e.new_size = new_size;
  e.mtime_ns = mtime_ns;
  e.sn_packed = sn_packed;
  e.csum = e.ComputeCsum();
  return e;
}

DentryEntry EncodeDentry(EntryType type, const std::string& name,
                         uint64_t child_ino, uint64_t mtime_ns) {
  DentryEntry e{};
  e.type = static_cast<uint8_t>(type);
  e.name_len = static_cast<uint8_t>(name.size());
  e.child_ino = child_ino;
  e.mtime_ns = mtime_ns;
  std::memcpy(e.name, name.data(), name.size());
  e.csum = e.ComputeCsum();
  return e;
}

// True when `inner` names a path strictly below `outer`. Directories have
// exactly one name (hard links to them are refused), so comparing the
// components is exact.
bool IsBelow(const std::string& outer, const std::string& inner) {
  const auto o = fs::SplitPath(outer);
  const auto i = fs::SplitPath(inner);
  return o.ok() && i.ok() && i->size() > o->size() &&
         std::equal(o->begin(), o->end(), i->begin());
}

}  // namespace

NovaFs::NovaFs(pmem::SlowMemory* mem, const Options& options)
    : NovaFs(mem, options, /*read_unlocks_first=*/false) {}

NovaFs::NovaFs(pmem::SlowMemory* mem, const Options& options,
               bool read_unlocks_first)
    : mem_(mem),
      sim_(mem->simulation()),
      options_(options),
      read_unlocks_first_(read_unlocks_first),
      namespace_lock_(mem->simulation()) {
  layout_ = Layout::Compute(mem->size(), options.inode_count,
                            options.journal_slots, options.comp_channels);
  allocator_ = std::make_unique<BlockAllocator>(
      layout_.block_area_off, layout_.block_count, kAllocShards);
  journal_ = std::make_unique<Journal>(mem, layout_.journal_off,
                                       layout_.journal_slots);
}

NovaFs::~NovaFs() = default;

// ---------------------------------------------------------------- format ----

Status NovaFs::Format() {
  if (layout_.block_count < 16) {
    return InvalidArgument("device too small");
  }
  // Zero the metadata regions: a device formatted before carries stale
  // state. Zero() skips the pages nothing has written, which are zero by
  // construction; every stale byte sits in a written page and is cleared. On
  // a fresh device the clear writes nothing.
  mem_->Zero(layout_.comp_region_off,
             layout_.inode_table_off + layout_.inode_count * kPInodeSize -
                 layout_.comp_region_off);

  Superblock sb{};
  sb.magic = kMagic;
  sb.device_size = mem_->size();
  sb.comp_region_off = layout_.comp_region_off;
  sb.comp_channels = layout_.comp_channels;
  sb.journal_off = layout_.journal_off;
  sb.journal_slots = layout_.journal_slots;
  sb.inode_table_off = layout_.inode_table_off;
  sb.inode_count = layout_.inode_count;
  sb.block_area_off = layout_.block_area_off;
  sb.block_count = layout_.block_count;
  sb.csum = sb.ComputeCsum();
  mem_->MetaWrite(0, &sb, sizeof(sb));

  // Root directory at slot 0.
  PInode root{};
  root.ino = kRootIno;
  root.flags = PInode::kFlagValid | PInode::kFlagDir;
  root.nlink = 1;
  root.mtime_ns = sim_->now();
  mem_->MetaWrite(PInodeOff(0), &root, sizeof(root));

  auto in = std::make_unique<Inode>(sim_, kRootIno, 0);
  in->is_dir = true;
  in->mtime_ns = root.mtime_ns;
  inodes_.emplace(kRootIno, std::move(in));

  free_slots_.clear();
  for (uint64_t slot = layout_.inode_count; slot-- > 1;) {
    free_slots_.push_back(slot);
  }
  return OkStatus();
}

// ----------------------------------------------------------------- mount ----

uint64_t NovaFs::CompletedSeqOf(uint8_t channel) const {
  // The channel index comes from on-media log entries, so it must be
  // validated against the layout before indexing the record region: a
  // corrupted or stale entry naming a channel we never had would otherwise
  // read whatever bytes follow the region as a "completion record". Zero
  // (nothing ever completed) makes recovery discard the entry — the safe
  // direction.
  if (channel >= layout_.comp_channels) {
    return 0;
  }
  return mem_
      ->As<dma::CompletionRecord>(layout_.comp_region_off +
                                  channel * sizeof(dma::CompletionRecord))
      ->CompletedSeq();
}

Status NovaFs::Mount() {
  const auto* sb = mem_->As<Superblock>(0);
  if (sb->magic != kMagic) {
    return Corruption("bad superblock magic");
  }
  if (sb->csum != sb->ComputeCsum()) {
    return Corruption("superblock checksum mismatch");
  }
  if (sb->device_size != mem_->size() ||
      sb->inode_count != layout_.inode_count ||
      sb->journal_slots != layout_.journal_slots ||
      sb->comp_channels != layout_.comp_channels) {
    return Corruption("superblock layout mismatch");
  }

  recovery_replayed_journals_ = static_cast<uint64_t>(Journal::Recover(
      mem_, layout_.journal_off, layout_.journal_slots));
  recovery_discarded_entries_ = 0;

  inodes_.clear();
  free_slots_.clear();
  fd_table_.clear();
  free_fds_.clear();
  allocator_->BeginRecovery();

  for (uint64_t slot = 0; slot < layout_.inode_count; ++slot) {
    const auto* pi = mem_->As<PInode>(PInodeOff(slot));
    if (!pi->valid() || pi->nlink == 0) {
      if (slot != 0) {
        free_slots_.push_back(slot);
      }
      continue;
    }
    EASYIO_RETURN_IF_ERROR(RecoverInode(slot));
  }
  std::reverse(free_slots_.begin(), free_slots_.end());

  if (!inodes_.contains(kRootIno)) {
    allocator_->FinishRecovery();
    return Corruption("root inode missing");
  }
  allocator_->FinishRecovery();

  // Verify directory references.
  for (auto& [ino, in] : inodes_) {
    if (!in->is_dir) {
      continue;
    }
    for (auto& [name, child] : in->dentries) {
      if (!inodes_.contains(child)) {
        return Corruption("dangling dentry " + name);
      }
    }
  }
  // Every valid inode must be reachable from the root: namespace ops
  // journal a dentry together with the valid bit or nlink it implies, so
  // an orphan (or a directory cycle cut off from the tree) is corruption.
  std::unordered_set<uint64_t> reached = {kRootIno};
  std::vector<const Inode*> dirs = {inodes_.at(kRootIno).get()};
  while (!dirs.empty()) {
    const Inode* dir = dirs.back();
    dirs.pop_back();
    for (const auto& [name, child] : dir->dentries) {
      if (const Inode* in = inodes_.at(child).get();
          reached.insert(child).second && in->is_dir) {
        dirs.push_back(in);
      }
    }
  }
  for (const auto& [ino, in] : inodes_) {
    if (!reached.contains(ino)) {
      return Corruption("unreachable inode " + std::to_string(ino));
    }
  }
  return OkStatus();
}

Status NovaFs::RecoverInode(uint64_t slot) {
  const auto* pi = mem_->As<PInode>(PInodeOff(slot));
  auto in = std::make_unique<Inode>(sim_, pi->ino, slot);
  in->is_dir = pi->is_dir();
  in->nlink = pi->nlink;
  in->mtime_ns = pi->mtime_ns;
  in->log_head = pi->log_head;
  in->log_tail = pi->log_tail;

  if (in->log_tail == 0 && in->log_head != 0) {
    // Crash between first-page allocation and the first commit: reset.
    const uint64_t zero = 0;
    mem_->MetaWrite(PInodeOff(slot) + offsetof(PInode, log_head), &zero,
                    sizeof(zero));
    in->log_head = 0;
  }
  in->log_next = in->log_tail;
  // The slot carries no checksum, so its pointers are checked before use:
  // log_tail must be entry-aligned and end entries on a block-area page.
  // Each log page (log_head, then every next_page) is range- and
  // alignment-checked and marked by MarkUsed before it is read, which also
  // ends a chain that visits a page twice.
  const uint64_t tail_page = (in->log_tail - 1) / kBlockSize * kBlockSize;
  if (in->log_tail != 0 &&
      (in->log_tail % kLogEntrySize != 0 ||
       tail_page < layout_.block_area_off ||
       tail_page >= layout_.block_area_off +
                        layout_.block_count * kBlockSize)) {
    return Corruption("log tail outside the block area");
  }
  if (in->log_tail != 0 && in->log_head == 0) {
    return Corruption("log tail without a log head");
  }

  std::vector<Extent> replay_displaced;
  uint64_t page = in->log_head;
  bool done = in->log_tail == 0;
  while (!done) {
    EASYIO_RETURN_IF_ERROR(allocator_->MarkUsed(page, 1));
    in->log_pages++;
    for (uint64_t s = 1; s <= kEntriesPerLogPage && !done; ++s) {
      const uint64_t off = page + s * kLogEntrySize;
      if (off == in->log_tail) {
        done = true;
        break;
      }
      const auto type = static_cast<EntryType>(*mem_->As<uint8_t>(off));
      switch (type) {
        case EntryType::kWrite: {
          const auto* e = mem_->As<WriteEntry>(off);
          if (e->csum != e->ComputeCsum()) {
            return Corruption("write entry checksum");
          }
          const dma::Sn sn = dma::Sn::Unpack(e->sn_packed);
          const bool complete =
              sn.none() || CompletedSeqOf(sn.channel) >= sn.seq;
          if (!complete) {
            // Committed metadata whose DMA never finished: discard (§4.2).
            recovery_discarded_entries_++;
            break;
          }
          // Displaced blocks become free simply by not being marked used.
          replay_displaced.clear();
          in->pages.Insert(e->pgoff, e->num_pages, e->block_off, 0,
                           &replay_displaced);
          in->size = std::max(in->size, e->new_size);
          in->mtime_ns = std::max(in->mtime_ns, e->mtime_ns);
          break;
        }
        case EntryType::kDentryAdd:
        case EntryType::kDentryRemove: {
          const auto* e = mem_->As<DentryEntry>(off);
          if (e->csum != e->ComputeCsum()) {
            return Corruption("dentry entry checksum");
          }
          std::string name(e->name,
                           std::min<size_t>(e->name_len, kMaxNameLen));
          if (type == EntryType::kDentryAdd) {
            in->dentries[std::move(name)] = e->child_ino;
          } else {
            in->dentries.erase(name);
          }
          in->mtime_ns = std::max(in->mtime_ns, e->mtime_ns);
          break;
        }
        case EntryType::kInvalid:
        default:
          return Corruption("invalid log entry type");
      }
    }
    if (!done) {
      if (page + kBlockSize == in->log_tail) {
        done = true;
        break;
      }
      const uint64_t next = mem_->As<LogPageHeader>(page)->next_page;
      if (next == 0) {
        return Corruption("log chain ends before tail");
      }
      page = next;
    }
  }

  // Mark live data blocks.
  Status marked = OkStatus();
  in->pages.ForEachSegment(0, UINT64_MAX / kBlockSize,
                           [&](const PageMap::Segment& seg) {
                             if (!seg.hole && marked.ok()) {
                               marked = allocator_->MarkUsed(seg.block_off,
                                                             seg.pages);
                             }
                           });
  EASYIO_RETURN_IF_ERROR(marked);
  inodes_.emplace(in->ino, std::move(in));
  return OkStatus();
}

// ------------------------------------------------------------- accounting ---

void NovaFs::Charge(fs::OpStats* stats, uint64_t fs::OpStats::*cat,
                    uint64_t ns) {
  if (ns == 0) {
    return;
  }
  sim_->Advance(ns);
  if (stats != nullptr) {
    stats->*cat += ns;
  }
}

void NovaFs::Phase::Record(sim::SimTime end,
                           std::initializer_list<obs::Arg> more) {
  if (auto* t = obs::Get()) {
    assert(num_args_ + more.size() <= std::size(args_));
    for (const obs::Arg& a : more) {
      args_[num_args_++] = a;
    }
    t->AsyncSpan(stats_->trace_op_id, name_, start_, end,
                 std::span<const obs::Arg>(args_, num_args_));
  }
}

// ------------------------------------------------------------ log append ----

Status NovaFs::AppendLogEntry(Inode& in, const void* entry) {
  // Chain a new log page if needed.
  const bool page_full =
      in.log_next != 0 && in.log_next % kBlockSize == 0;
  if (in.log_next == 0 || page_full) {
    auto page = allocator_->Alloc(1, CoreHint());
    if (!page.ok()) {
      return page.status();
    }
    sim_->Advance(params().alloc_per_page_ns);
    LogPageHeader hdr{};
    mem_->MetaWrite(page->block_off, &hdr, sizeof(hdr));
    in.log_pages++;
    if (in.log_next == 0) {
      // First page: publish via log_head (atomic 8-byte store; harmless if a
      // crash strikes before the first commit — Mount resets it).
      mem_->MetaWrite(PInodeOff(in.slot) + offsetof(PInode, log_head),
                      &page->block_off, sizeof(uint64_t));
      in.log_head = page->block_off;
    } else {
      const uint64_t prev_page = in.log_next - kBlockSize;
      mem_->MetaWrite(prev_page + offsetof(LogPageHeader, next_page),
                      &page->block_off, sizeof(uint64_t));
    }
    in.log_next = page->block_off + sizeof(LogPageHeader);
  }

  mem_->MetaWrite(in.log_next, entry, kLogEntrySize);
  in.log_next += kLogEntrySize;
  return OkStatus();
}

void NovaFs::CommitLogTail(Inode& in) {
  mem_->MetaWrite(PInodeOff(in.slot) + offsetof(PInode, log_tail),
                  &in.log_next, sizeof(uint64_t));
  in.log_tail = in.log_next;
}

void NovaFs::CommitJournal(std::span<const JournalRecord::JWrite> writes) {
  journal_->CommitAndApply(writes, CoreHint());
}

void NovaFs::RewindLog(Inode& in, uint64_t log_pages) {
  // Pages chained since the tail follow its page, or start the log. Nothing
  // follows the tail page's dangling next_page; the next chain rewrites it.
  const uint64_t tail_page = (in.log_tail - 1) / kBlockSize * kBlockSize;
  uint64_t page = in.log_tail == 0
                      ? in.log_head
                      : mem_->As<LogPageHeader>(tail_page)->next_page;
  for (; in.log_pages > log_pages; in.log_pages--) {
    const uint64_t next = mem_->As<LogPageHeader>(page)->next_page;
    allocator_->Free(Extent{page, 1});
    page = next;
  }
  if (in.log_tail == 0) {
    in.log_head = 0;  // as Mount resets the persistent one
  }
  in.log_next = in.log_tail;
}

// ----------------------------------------------------------- write helpers --

Status NovaFs::PrepareWrite(Inode& in, uint64_t off, size_t n,
                            OpScratch& scratch, fs::OpStats* stats) {
  const uint64_t pages = (off + n - 1) / kBlockSize - off / kBlockSize + 1;
  Charge(stats, &fs::OpStats::index_ns,
         params().index_base_ns + params().index_per_page_ns * pages);
  EASYIO_RETURN_IF_ERROR(
      allocator_->AllocMultiInto(pages, CoreHint(), &scratch.extents));
  // Per-write fixed bookkeeping (inode update, VFS write path) plus the
  // per-page allocator cost.
  Charge(stats, &fs::OpStats::meta_ns,
         params().meta_write_fixed_ns + params().alloc_per_page_ns * pages);
  FillWriteEdges(in, off, n, scratch.extents, stats);
  return OkStatus();
}

void NovaFs::PrepareRead(Inode& in, uint64_t off, size_t n,
                         OpScratch& scratch, fs::OpStats* stats) {
  const uint64_t first_pg = off / kBlockSize;
  const uint64_t pages = (off + n - 1) / kBlockSize - first_pg + 1;
  Charge(stats, &fs::OpStats::index_ns,
         params().index_base_ns + params().index_per_page_ns * pages);
  in.pages.LookupInto(first_pg, pages, &scratch.segs);
  SegmentsToByteRanges(scratch.segs, off, n, &scratch.ranges);
  in.pending_reads++;
}

void NovaFs::ChunkifyInto(const std::vector<Extent>& extents, uint64_t off,
                          size_t n, std::vector<ByteRange>* out) {
  const uint64_t head = off % kBlockSize;
  size_t copied = 0;
  for (const Extent& e : extents) {
    const uint64_t skip = copied == 0 ? head : 0;
    const size_t bytes =
        std::min<uint64_t>(n - copied, e.pages * kBlockSize - skip);
    out->push_back({copied, e.block_off + skip, bytes, /*hole=*/false});
    copied += bytes;
    if (copied == n) {
      break;
    }
  }
  assert(copied == n);
}

void NovaFs::FillWriteEdges(Inode& in, uint64_t off, size_t n,
                            const std::vector<Extent>& extents,
                            fs::OpStats* stats) {
  const uint64_t first_pg = off / kBlockSize;
  const uint64_t head_bytes = off % kBlockSize;
  const uint64_t end = off + n;
  const uint64_t last_pg = (end - 1) / kBlockSize;
  const uint64_t tail_keep =
      end % kBlockSize == 0 ? 0
                            : std::min<uint64_t>(kBlockSize - end % kBlockSize,
                                                 in.size > end ? in.size - end
                                                               : 0);

  auto block_of = [&](uint64_t pg) -> uint64_t {
    // Locate pg within the new extents (which cover [first_pg, last_pg]).
    uint64_t idx = pg - first_pg;
    for (const Extent& e : extents) {
      if (idx < e.pages) {
        return e.block_off + idx * kBlockSize;
      }
      idx -= e.pages;
    }
    assert(false && "page outside write extents");
    return 0;
  };

  auto copy_old = [&](uint64_t pg, uint64_t in_page_off, uint64_t bytes) {
    if (bytes == 0) {
      return;
    }
    // A single page resolves to exactly one segment: mapped or hole.
    uint64_t src_block = 0;
    bool mapped = false;
    in.pages.ForEachSegment(pg, 1, [&](const PageMap::Segment& seg) {
      if (!seg.hole) {
        mapped = true;
        src_block = seg.block_off;
      }
    });
    const uint64_t dst = block_of(pg) + in_page_off;
    if (mapped) {
      // pmem-to-pmem preserve copy; charged as CPU data movement.
      mem_->Write(dst, mem_->Read(src_block + in_page_off, bytes).data(),
                  bytes);
      Charge(stats, &fs::OpStats::data_ns,
             TransferNs(bytes, params().cpu_read_cap.at_4k));
    } else {
      mem_->Zero(dst, bytes);
    }
  };

  if (head_bytes > 0) {
    copy_old(first_pg, 0, head_bytes);
  }
  if (tail_keep > 0) {
    copy_old(last_pg, end % kBlockSize, tail_keep);
  }
  // Zero the unwritten remainder of the last block (beyond both the write
  // and any preserved old data), preserving the invariant that mapped bytes
  // past the file size read as zero after a later size extension.
  if (end % kBlockSize != 0) {
    const uint64_t zero_from = end % kBlockSize + tail_keep;
    if (zero_from < kBlockSize) {
      mem_->Zero(block_of(last_pg) + zero_from, kBlockSize - zero_from);
    }
  }
}

Status NovaFs::CommitWrite(Inode& in, uint64_t off, size_t n,
                           const std::vector<Extent>& extents,
                           std::span<const dma::Sn> sns, fs::OpStats* stats) {
  assert(sns.empty() || extents.size() == sns.size());
  // Log appends and the tail commit are the op's metadata time.
  Phase commit(this, stats, "commit", {&fs::OpStats::meta_ns},
               {{"entries", extents.size()}});
  const uint64_t new_size = std::max<uint64_t>(in.size, off + n);
  const uint64_t mtime = sim_->now();
  const uint64_t log_pages = in.log_pages;
  uint64_t pg = off / kBlockSize;
  for (size_t i = 0; i < extents.size(); ++i) {
    const WriteEntry e = EncodeWrite(
        pg, extents[i].pages, extents[i].block_off, new_size, mtime,
        sns.empty() ? dma::Sn::None().Pack() : sns[i].Pack());
    if (const Status st = AppendLogEntry(in, &e); !st.ok()) {
      RewindLog(in, log_pages);
      return st;
    }
    pg += extents[i].pages;
  }
  CommitLogTail(in);

  // DRAM state.
  ScratchLease scratch(this);
  pg = off / kBlockSize;
  for (size_t i = 0; i < extents.size(); ++i) {
    in.pages.Insert(pg, extents[i].pages, extents[i].block_off,
                    sns.empty() ? dma::Sn::None().Pack() : sns[i].Pack(),
                    &scratch->displaced);
    pg += extents[i].pages;
  }
  in.size = new_size;
  in.mtime_ns = mtime;
  ReleaseBlocks(in, scratch->displaced);
  return OkStatus();
}

void NovaFs::WaitPendingWrite(Inode& in, fs::OpStats* stats) {
  dma::Channel* ch = in.pending_channel;
  const dma::Sn sn = in.pending_sn;
  if (ch == nullptr) {
    return;
  }
  if (ch->IsComplete(sn)) {
    in.pending_channel = nullptr;
    in.pending_sn = dma::Sn::None();
    return;
  }
  // Wait before clearing: a concurrent level-2 waiter that finds the fields
  // set must also wait, so they stay published until the SN is covered. A
  // caller without the inode lock (Fsync) can park behind a writer that
  // publishes a newer SN meanwhile; only clear the pair this call waited on.
  const sim::SimTime t0 = sim_->now();
  AwaitSn(*ch, sn);
  if (in.pending_channel == ch && in.pending_sn == sn) {
    in.pending_channel = nullptr;
    in.pending_sn = dma::Sn::None();
  }
  if (sim_->now() > t0) {
    Phase(this, stats, "l2_wait", {&fs::OpStats::blocked_ns}, {}, t0);
  }
}

void NovaFs::AwaitSn(dma::Channel& ch, dma::Sn sn) {
  if (ch.WaitSn(sn) == dma::DmaResult::kRecovered) {
    OnChannelFault(ch);
  }
}

void NovaFs::MaybeCompactLog(Inode& in, fs::OpStats* stats) {
  // NOVA §3.6-style thorough GC: triggered once the chain is 4x larger than
  // its live entries need. Only at op boundaries (tail == next) and with no
  // outstanding orderless write (callers run WaitPendingWrite first).
  assert(in.log_tail == in.log_next);
  if (in.log_pages < options_.gc_min_pages) {
    return;
  }
  const uint64_t live =
      in.pages.extent_count() + (in.is_dir ? in.dentries.size() : 0);
  const uint64_t needed_pages =
      std::max<uint64_t>(1, (live + kEntriesPerLogPage - 1) /
                                kEntriesPerLogPage);
  if (in.log_pages < 4 * needed_pages) {
    return;
  }

  // Build the replacement chain (best effort: bail out on allocation
  // pressure; the old log stays valid).
  const sim::SimTime gc_t0 = sim_->now();
  Phase gc(this, stats, nullptr, {&fs::OpStats::meta_ns});
  const uint64_t gc_old_pages = in.log_pages;
  auto new_pages = allocator_->AllocMulti(needed_pages, 0);
  if (!new_pages.ok()) {
    return;
  }
  std::vector<uint64_t> pages;
  for (const Extent& e : *new_pages) {
    for (uint64_t i = 0; i < e.pages; ++i) {
      pages.push_back(e.block_off + i * kBlockSize);
    }
  }
  // Link headers.
  for (size_t i = 0; i < pages.size(); ++i) {
    LogPageHeader hdr{};
    hdr.next_page = i + 1 < pages.size() ? pages[i + 1] : 0;
    mem_->MetaWrite(pages[i], &hdr, sizeof(hdr));
  }
  // Write the live entries.
  uint64_t write_off = pages[0] + sizeof(LogPageHeader);
  size_t page_idx = 0;
  uint64_t slots_used = 0;
  auto emit = [&](const void* entry) {
    if (slots_used == kEntriesPerLogPage) {
      page_idx++;
      write_off = pages[page_idx] + sizeof(LogPageHeader);
      slots_used = 0;
    }
    mem_->MetaWrite(write_off, entry, kLogEntrySize);
    write_off += kLogEntrySize;
    slots_used++;
  };
  if (in.is_dir) {
    for (const auto& [name, child] : in.dentries) {
      const DentryEntry e =
          EncodeDentry(EntryType::kDentryAdd, name, child, in.mtime_ns);
      emit(&e);
    }
  } else {
    in.pages.ForEachExtent([&](uint64_t pgoff, uint64_t n_pages,
                               uint64_t block_off) {
      // All data is already durable: no SN to check at recovery.
      const WriteEntry e = EncodeWrite(pgoff, n_pages, block_off, in.size,
                                       in.mtime_ns, dma::Sn::None().Pack());
      emit(&e);
    });
  }

  // Atomic switch: head and tail move together or not at all.
  const uint64_t old_head = in.log_head;
  const uint64_t old_tail = in.log_tail;
  const JournalRecord::JWrite writes[] = {
      {PInodeOff(in.slot) + offsetof(PInode, log_head), pages[0]},
      {PInodeOff(in.slot) + offsetof(PInode, log_tail), write_off},
  };
  CommitJournal(writes);
  in.log_head = pages[0];
  in.log_tail = write_off;
  in.log_next = write_off;
  in.log_pages = pages.size();
  log_compactions_++;
  FreeLogChain(old_head, old_tail);  // the superseded chain

  // GC is rare, control-plane activity: always recorded when tracing is
  // on, as a span of its own rather than a phase of the triggering op.
  if (auto* t = obs::Get()) {
    t->AsyncSpan(t->NextOpId(), "log_gc", gc_t0, sim_->now(),
                 {{"old_pages", gc_old_pages}, {"new_pages", pages.size()}});
  }
}

void NovaFs::FreeLogChain(uint64_t head, uint64_t tail) {
  for (uint64_t page = head; page != 0;) {
    const uint64_t next = mem_->As<LogPageHeader>(page)->next_page;
    allocator_->Free(Extent{page, 1});
    if (tail > page && tail <= page + kBlockSize) {
      break;  // reached the tail page
    }
    page = next;
  }
}

void NovaFs::ReleaseBlocks(Inode& in, const std::vector<Extent>& displaced) {
  if (in.pending_reads > 0) {
    in.deferred_free.insert(in.deferred_free.end(), displaced.begin(),
                            displaced.end());
    return;
  }
  for (const Extent& e : displaced) {
    allocator_->Free(e);
  }
}

void NovaFs::OnReadDone(Inode& in) {
  assert(in.pending_reads > 0);
  in.pending_reads--;
  if (in.pending_reads == 0 && !in.deferred_free.empty()) {
    for (const Extent& e : in.deferred_free) {
      allocator_->Free(e);
    }
    in.deferred_free.clear();
  }
}

void NovaFs::FillZero(std::byte* dst, size_t n, fs::OpStats* stats) {
  std::memset(dst, 0, n);
  Charge(stats, &fs::OpStats::data_ns, TransferNs(n, 12.0));  // DRAM memset
}

void NovaFs::SegmentsToByteRanges(const std::vector<PageMap::Segment>& segs,
                                  uint64_t off, size_t n,
                                  std::vector<ByteRange>* out) {
  const uint64_t end = off + n;
  for (const auto& seg : segs) {
    const uint64_t seg_begin = seg.pgoff * kBlockSize;
    const uint64_t seg_end = seg_begin + seg.pages * kBlockSize;
    const uint64_t lo = std::max(off, seg_begin);
    const uint64_t hi = std::min(end, seg_end);
    if (hi <= lo) {
      continue;
    }
    ByteRange r;
    r.buf_off = lo - off;
    r.bytes = hi - lo;
    r.hole = seg.hole;
    r.pmem_off = seg.hole ? 0 : seg.block_off + (lo - seg_begin);
    out->push_back(r);
  }
}

NovaFs::OpScratch* NovaFs::AcquireScratch() {
  if (scratch_pool_.empty()) {
    return new OpScratch();
  }
  OpScratch* s = scratch_pool_.back().release();
  scratch_pool_.pop_back();
  s->segs.clear();
  s->ranges.clear();
  s->extents.clear();
  s->displaced.clear();
  s->sns.clear();
  s->batch.clear();
  return s;
}

void NovaFs::ReleaseScratch(OpScratch* s) {
  scratch_pool_.emplace_back(s);
}

// ------------------------------------------------------------- data paths ---

dma::Channel* NovaFs::MoveToPmem(std::span<const std::byte> buf,
                                 OpScratch& scratch, fs::OpStats* stats) {
  Phase copy(this, stats, nullptr, {&fs::OpStats::data_ns});
  for (const ByteRange& r : scratch.ranges) {
    mem_->CpuWrite(r.pmem_off, buf.data() + r.buf_off, r.bytes);
  }
  AddCpuBytes(buf.size());
  return nullptr;
}

void NovaFs::MoveFromPmem(std::byte* dst, uint64_t pmem_off, size_t bytes,
                          fs::OpStats* stats) {
  Phase copy(this, stats, nullptr, {&fs::OpStats::data_ns});
  mem_->CpuRead(dst, pmem_off, bytes);
  AddCpuBytes(bytes);
}

void NovaFs::WaitSn(dma::Channel* ch, dma::Sn sn, fs::OpStats* stats) {
  Charge(stats, &fs::OpStats::data_ns, params().uthread_switch_ns);
  Phase wait(this, stats, "sn_wait",
             {&fs::OpStats::blocked_ns, &fs::OpStats::data_ns},
             {{"chan", ch->id()}});
  AwaitSn(*ch, sn);
}

StatusOr<size_t> NovaFs::WriteInternal(Inode& in, uint64_t off,
                                       std::span<const std::byte> buf,
                                       bool append, fs::OpStats* stats) {
  in.lock.WriteLock();
  const sim::SimTime l1_start = sim_->now();
  if (append) {
    off = in.size;
  }
  // Level 2: a write-write conflict waits for the outstanding orderless
  // write to actually finish (§4.3, Fig 7b).
  WaitPendingWrite(in, stats);
  MaybeCompactLog(in, stats);
  const size_t n = buf.size();
  ScratchLease scratch(this);
  dma::Channel* ch = nullptr;  // still moving the data at the commit
  Status st = PrepareWrite(in, off, n, *scratch, stats);
  if (st.ok()) {
    ChunkifyInto(scratch->extents, off, n, &scratch->ranges);
    ch = MoveToPmem(buf, *scratch, stats);
    // NOVA commits once the data is durable. An orderless write commits
    // while the DMA engine still copies: the log entries embed the SNs,
    // and the channel's last SN covers the whole write (§4.2).
    const std::span<const dma::Sn> sns =
        ch != nullptr ? std::span<const dma::Sn>(scratch->sns)
                      : std::span<const dma::Sn>();
    st = CommitWrite(in, off, n, scratch->extents, sns, stats);
    if (ch != nullptr) {
      in.pending_channel = ch;
      in.pending_sn = sns.back();
    }
  }
  Phase(this, stats, "l1_hold", {}, {}, l1_start);
  in.lock.WriteUnlock();
  Charge(stats, &fs::OpStats::syscall_ns, params().syscall_exit_ns);
  if (ch != nullptr) {
    WaitSn(ch, scratch->sns.back(), stats);
  }
  if (!st.ok()) {
    ReleaseBlocks(in, scratch->extents);  // no transfer writes them now
    return st;
  }
  return n;
}

StatusOr<size_t> NovaFs::ReadInternal(Inode& in, uint64_t off,
                                      std::span<std::byte> buf,
                                      fs::OpStats* stats) {
  in.lock.ReadLock();
  const sim::SimTime l1_start = sim_->now();
  // Level 2: wait out a conflicting unfinished write (§4.3, Fig 7b).
  WaitPendingWrite(in, stats);
  const size_t n =
      off < in.size ? std::min<uint64_t>(buf.size(), in.size - off) : 0;
  buf = buf.first(n);
  ScratchLease scratch(this);
  dma::Channel* ch = nullptr;  // still moving the data at the release
  if (n > 0) {
    PrepareRead(in, off, n, *scratch, stats);
    ch = SubmitRead(buf, *scratch, stats);
  }
  // A read leaves no SN behind, and CoW plus the pending-read count
  // protect its blocks, so EasyIO drops the lock before copying (§4.3).
  const bool copy = n > 0 && ch == nullptr;
  if (copy && !read_unlocks_first_) {
    CopyOut(in, buf, *scratch, stats);
  }
  Phase(this, stats, "l1_hold", {}, {}, l1_start);
  in.lock.ReadUnlock();
  if (copy && read_unlocks_first_) {
    CopyOut(in, buf, *scratch, stats);
  }
  Charge(stats, &fs::OpStats::syscall_ns, params().syscall_exit_ns);
  if (ch != nullptr) {
    WaitSn(ch, scratch->sns.back(), stats);
    OnReadDone(in);
  }
  return n;
}

void NovaFs::CopyOut(Inode& in, std::span<std::byte> buf,
                     const OpScratch& scratch, fs::OpStats* stats) {
  for (const ByteRange& r : scratch.ranges) {
    if (r.hole) {
      FillZero(buf.data() + r.buf_off, r.bytes, stats);
    } else {
      MoveFromPmem(buf.data() + r.buf_off, r.pmem_off, r.bytes, stats);
    }
  }
  OnReadDone(in);
}

// ----------------------------------------------------------- fd plumbing ----

NovaFs::Inode* NovaFs::ResolveFd(int fd) {
  const size_t idx = static_cast<size_t>(fd - kFirstFd);
  if (fd < kFirstFd || idx >= fd_table_.size() || fd_table_[idx] == 0) {
    return nullptr;
  }
  auto it = inodes_.find(fd_table_[idx]);
  return it == inodes_.end() ? nullptr : it->second.get();
}

StatusOr<int> NovaFs::AllocFd(Inode* in) {
  in->open_count++;
  if (!free_fds_.empty()) {
    const int fd = free_fds_.back();
    free_fds_.pop_back();
    fd_table_[static_cast<size_t>(fd - kFirstFd)] = in->ino;
    return fd;
  }
  fd_table_.push_back(in->ino);
  return kFirstFd + static_cast<int>(fd_table_.size()) - 1;
}

// ------------------------------------------------------------- data entry ---

template <typename Body>
StatusOr<size_t> NovaFs::RunDataOp(DataOp op, int fd, uint64_t off,
                                   size_t len, fs::OpStats* stats,
                                   Body&& body) {
  fs::OpStats local;
  if (stats == nullptr) {
    stats = &local;
  }
  stats->Clear();
  static constexpr const char* kSpan[] = {"read", "write", "append"};
  Phase whole(this, stats, kSpan[static_cast<int>(op)],
              {&fs::OpStats::total_ns});
  Charge(stats, &fs::OpStats::syscall_ns, params().syscall_enter_ns);
  Inode* in = ResolveFd(fd);
  StatusOr<size_t> r = size_t{0};
  if (in == nullptr) {
    r = BadFd();
  } else if (in->is_dir) {
    r = Status(ErrorCode::kIsDir);
  } else if (len > 0) {
    if (auto* t = obs::Get(); t != nullptr && t->Sample()) {
      stats->trace_op_id = t->NextOpId();
    }
    r = body(*in, stats);
    const bool read = op == DataOp::kRead;
    (read ? counters_.ops_read : counters_.ops_write)++;
    if (r.ok()) {
      (read ? counters_.bytes_read : counters_.bytes_written) += *r;
    }
  }
  const obs::Arg bytes{"bytes", r.ok() ? static_cast<uint64_t>(*r) : 0};
  if (op == DataOp::kAppend) {
    whole.Close({bytes});
  } else {
    whole.Close({{"off", off}, bytes});
  }
  stats->cpu_ns = stats->total_ns - stats->blocked_ns;
  return r;
}

StatusOr<size_t> NovaFs::Write(int fd, uint64_t off,
                               std::span<const std::byte> buf,
                               fs::OpStats* stats) {
  return RunDataOp(DataOp::kWrite, fd, off, buf.size(), stats,
                   [&](Inode& in, fs::OpStats* s) {
                     return WriteInternal(in, off, buf, /*append=*/false, s);
                   });
}

StatusOr<size_t> NovaFs::Append(int fd, std::span<const std::byte> buf,
                                fs::OpStats* stats) {
  return RunDataOp(DataOp::kAppend, fd, 0, buf.size(), stats,
                   [&](Inode& in, fs::OpStats* s) {
                     return WriteInternal(in, 0, buf, /*append=*/true, s);
                   });
}

StatusOr<size_t> NovaFs::Read(int fd, uint64_t off, std::span<std::byte> buf,
                              fs::OpStats* stats) {
  return RunDataOp(DataOp::kRead, fd, off, buf.size(), stats,
                   [&](Inode& in, fs::OpStats* s) {
                     return ReadInternal(in, off, buf, s);
                   });
}

Status NovaFs::Fsync(int fd) {
  Inode* in = ResolveFd(fd);
  if (in == nullptr) {
    return BadFd();
  }
  sim_->Advance(params().syscall_enter_ns + params().syscall_exit_ns);
  // The (single possible) outstanding orderless write must land.
  WaitPendingWrite(*in, nullptr);
  return OkStatus();
}

// -------------------------------------------------------- namespace ops -----

template <typename Body>
auto NovaFs::RunNamespaceOp(Body&& body) {
  sim_->Advance(params().syscall_enter_ns);
  uthread::MutexLock ns(&namespace_lock_);
  auto r = body();
  if (r.ok()) {
    sim_->Advance(params().syscall_exit_ns);
  }
  return r;
}

StatusOr<NovaFs::Inode*> NovaFs::Walk(const std::vector<std::string>& parts) {
  Inode* cur = inodes_.at(kRootIno).get();
  for (const auto& part : parts) {
    if (!cur->is_dir) {
      return Status(ErrorCode::kNotDir);
    }
    sim_->Advance(params().index_base_ns);  // dcache lookup per component
    auto it = cur->dentries.find(part);
    if (it == cur->dentries.end()) {
      return NotFound(part);
    }
    cur = inodes_.at(it->second).get();
  }
  return cur;
}

StatusOr<NovaFs::Inode*> NovaFs::ResolvePath(const std::string& path) {
  EASYIO_ASSIGN_OR_RETURN(auto parts, fs::SplitPath(path));
  return Walk(parts);
}

StatusOr<NovaFs::Inode*> NovaFs::ResolveParent(const std::string& path,
                                               std::string* leaf) {
  std::vector<std::string> parent;
  EASYIO_RETURN_IF_ERROR(fs::SplitParent(path, &parent, leaf));
  if (leaf->size() > kMaxNameLen) {
    return Status(ErrorCode::kNameTooLong, *leaf);
  }
  EASYIO_ASSIGN_OR_RETURN(Inode * dir, Walk(parent));
  if (!dir->is_dir) {
    return Status(ErrorCode::kNotDir);
  }
  return dir;
}

StatusOr<NovaFs::Inode*> NovaFs::AllocInode(bool is_dir) {
  if (free_slots_.empty()) {
    return NoSpace("inode table full");
  }
  const uint64_t slot = free_slots_.back();
  free_slots_.pop_back();
  const uint64_t ino = slot + 1;

  // Persist the inode body with the valid bit clear; the journal commit of
  // the namespace operation flips it together with the dentry.
  PInode pi{};
  pi.ino = ino;
  pi.flags = is_dir ? PInode::kFlagDir : 0;
  pi.nlink = 1;
  pi.mtime_ns = sim_->now();
  mem_->MetaWrite(PInodeOff(slot), &pi, sizeof(pi));

  auto in = std::make_unique<Inode>(sim_, ino, slot);
  in->is_dir = is_dir;
  in->mtime_ns = pi.mtime_ns;
  Inode* raw = in.get();
  inodes_.emplace(ino, std::move(in));
  return raw;
}

Status NovaFs::AppendDentry(Inode& dir, EntryType type,
                            const std::string& name, uint64_t child_ino) {
  const DentryEntry e = EncodeDentry(type, name, child_ino, sim_->now());
  return AppendLogEntry(dir, &e);
}

void NovaFs::ApplyDentry(Inode& dir, EntryType type, const std::string& name,
                         uint64_t child_ino) {
  dir.log_tail = dir.log_next;
  if (type == EntryType::kDentryAdd) {
    dir.dentries[name] = child_ino;
  } else {
    dir.dentries.erase(name);
  }
  dir.mtime_ns = sim_->now();
}

void NovaFs::DropLink(Inode* in) {
  if (--in->nlink > 0) {
    return;
  }
  if (in->open_count > 0) {
    in->unlinked = true;  // freed on last close
  } else {
    DestroyInode(in);
  }
}

StatusOr<NovaFs::Inode*> NovaFs::CreateNode(const std::string& path,
                                            bool is_dir) {
  std::string leaf;
  EASYIO_ASSIGN_OR_RETURN(Inode * dir, ResolveParent(path, &leaf));
  if (dir->dentries.contains(leaf)) {
    return AlreadyExists(path);
  }
  MaybeCompactLog(*dir, nullptr);
  EASYIO_ASSIGN_OR_RETURN(Inode * child, AllocInode(is_dir));
  if (const Status st =
          AppendDentry(*dir, EntryType::kDentryAdd, leaf, child->ino);
      !st.ok()) {
    DestroyInode(child);  // its persistent body is not valid yet
    return st;
  }
  const JournalRecord::JWrite writes[] = {
      TailWrite(*dir),
      {PInodeOff(child->slot) + offsetof(PInode, flags),
       PInode::kFlagValid | (is_dir ? PInode::kFlagDir : 0)},
  };
  CommitJournal(writes);
  ApplyDentry(*dir, EntryType::kDentryAdd, leaf, child->ino);
  return child;
}

StatusOr<int> NovaFs::Create(const std::string& path) {
  return RunNamespaceOp([&]() -> StatusOr<int> {
    EASYIO_ASSIGN_OR_RETURN(Inode * child, CreateNode(path, /*is_dir=*/false));
    return AllocFd(child);
  });
}

Status NovaFs::Mkdir(const std::string& path) {
  return RunNamespaceOp(
      [&] { return CreateNode(path, /*is_dir=*/true).status(); });
}

StatusOr<int> NovaFs::Open(const std::string& path) {
  return RunNamespaceOp([&]() -> StatusOr<int> {
    EASYIO_ASSIGN_OR_RETURN(Inode * in, ResolvePath(path));
    return AllocFd(in);
  });
}

Status NovaFs::Close(int fd) {
  Inode* in = ResolveFd(fd);
  if (in == nullptr) {
    return BadFd();
  }
  fd_table_[static_cast<size_t>(fd - kFirstFd)] = 0;
  free_fds_.push_back(fd);
  in->open_count--;
  if (in->open_count == 0 && in->unlinked) {
    DestroyInode(in);
  }
  return OkStatus();
}

void NovaFs::FreeInodeResources(Inode& in) {
  // Wait out any in-flight orderless write, then free data + log pages.
  WaitPendingWrite(in, nullptr);
  std::vector<Extent> extents;
  in.pages.Clear(&extents);
  extents.insert(extents.end(), in.deferred_free.begin(),
                 in.deferred_free.end());
  in.deferred_free.clear();
  for (const Extent& e : extents) {
    allocator_->Free(e);
  }
  FreeLogChain(in.log_head, in.log_tail);
  in.log_head = 0;
  in.log_tail = 0;
  in.log_next = 0;
  in.log_pages = 0;
}

void NovaFs::DestroyInode(Inode* in) {
  FreeInodeResources(*in);
  free_slots_.push_back(in->slot);
  inodes_.erase(in->ino);
}

Status NovaFs::Unlink(const std::string& path) {
  return RunNamespaceOp([&]() -> Status {
    std::string leaf;
    EASYIO_ASSIGN_OR_RETURN(Inode * dir, ResolveParent(path, &leaf));
    auto it = dir->dentries.find(leaf);
    if (it == dir->dentries.end()) {
      return NotFound(path);
    }
    Inode* child = inodes_.at(it->second).get();
    if (child->is_dir && !child->dentries.empty()) {
      return Status(ErrorCode::kNotEmpty, path);
    }
    MaybeCompactLog(*dir, nullptr);
    EASYIO_RETURN_IF_ERROR(
        AppendDentry(*dir, EntryType::kDentryRemove, leaf, child->ino));
    const uint64_t nlink = child->nlink - 1;
    const JournalRecord::JWrite writes[] = {
        TailWrite(*dir),
        {PInodeOff(child->slot) + offsetof(PInode, nlink), nlink},
        {PInodeOff(child->slot) + offsetof(PInode, flags),
         nlink == 0 ? 0 : PInode::kFlagValid},
    };
    CommitJournal(writes);
    ApplyDentry(*dir, EntryType::kDentryRemove, leaf, child->ino);
    DropLink(child);
    return OkStatus();
  });
}

Status NovaFs::Link(const std::string& existing,
                    const std::string& link_path) {
  return RunNamespaceOp([&]() -> Status {
    EASYIO_ASSIGN_OR_RETURN(Inode * target, ResolvePath(existing));
    if (target->is_dir) {
      return Status(ErrorCode::kIsDir, existing);
    }
    std::string leaf;
    EASYIO_ASSIGN_OR_RETURN(Inode * dir, ResolveParent(link_path, &leaf));
    if (dir->dentries.contains(leaf)) {
      return AlreadyExists(link_path);
    }
    MaybeCompactLog(*dir, nullptr);
    EASYIO_RETURN_IF_ERROR(
        AppendDentry(*dir, EntryType::kDentryAdd, leaf, target->ino));
    const JournalRecord::JWrite writes[] = {
        TailWrite(*dir),
        {PInodeOff(target->slot) + offsetof(PInode, nlink), target->nlink + 1},
    };
    CommitJournal(writes);
    ApplyDentry(*dir, EntryType::kDentryAdd, leaf, target->ino);
    target->nlink++;
    return OkStatus();
  });
}

Status NovaFs::Rename(const std::string& from, const std::string& to) {
  return RunNamespaceOp([&]() -> Status {
    std::string from_leaf;
    EASYIO_ASSIGN_OR_RETURN(Inode * from_dir, ResolveParent(from, &from_leaf));
    auto from_it = from_dir->dentries.find(from_leaf);
    if (from_it == from_dir->dentries.end()) {
      return NotFound(from);
    }
    Inode* moving = inodes_.at(from_it->second).get();
    std::string to_leaf;
    EASYIO_ASSIGN_OR_RETURN(Inode * to_dir, ResolveParent(to, &to_leaf));
    // A directory moved below itself would leave its subtree a cycle that
    // no path reaches.
    if (moving->is_dir && IsBelow(from, to)) {
      return Status(ErrorCode::kInvalidArgument, to);
    }
    Inode* displaced = nullptr;
    if (auto to_it = to_dir->dentries.find(to_leaf);
        to_it != to_dir->dentries.end()) {
      displaced = inodes_.at(to_it->second).get();
      if (displaced == moving) {
        return OkStatus();
      }
      if (displaced->is_dir != moving->is_dir) {
        return Status(displaced->is_dir ? ErrorCode::kIsDir
                                        : ErrorCode::kNotDir,
                      to);
      }
      if (displaced->is_dir && !displaced->dentries.empty()) {
        return Status(ErrorCode::kNotEmpty, to);
      }
    }
    MaybeCompactLog(*from_dir, nullptr);
    if (to_dir != from_dir) {
      MaybeCompactLog(*to_dir, nullptr);
    }

    // A failed append leaves nothing behind, but the first one may have
    // succeeded: rewind both logs to their tails.
    const uint64_t from_pages = from_dir->log_pages;
    const uint64_t to_pages = to_dir->log_pages;
    Status st = AppendDentry(*from_dir, EntryType::kDentryRemove, from_leaf,
                             moving->ino);
    if (st.ok()) {
      st = AppendDentry(*to_dir, EntryType::kDentryAdd, to_leaf, moving->ino);
    }
    if (!st.ok()) {
      RewindLog(*from_dir, from_pages);
      RewindLog(*to_dir, to_pages);
      return st;
    }

    JournalRecord::JWrite writes[JournalRecord::kMaxWrites];
    size_t n = 0;
    writes[n++] = TailWrite(*from_dir);
    if (to_dir != from_dir) {
      writes[n++] = TailWrite(*to_dir);
    }
    if (displaced != nullptr) {
      const uint64_t nlink = displaced->nlink - 1;
      writes[n++] = {PInodeOff(displaced->slot) + offsetof(PInode, nlink),
                     nlink};
      if (nlink == 0) {
        writes[n++] = {PInodeOff(displaced->slot) + offsetof(PInode, flags),
                       0};
      }
    }
    CommitJournal({writes, n});
    ApplyDentry(*from_dir, EntryType::kDentryRemove, from_leaf, moving->ino);
    ApplyDentry(*to_dir, EntryType::kDentryAdd, to_leaf, moving->ino);
    if (displaced != nullptr) {
      DropLink(displaced);
    }
    return OkStatus();
  });
}

fs::FileStat NovaFs::StatOf(const Inode& in) const {
  fs::FileStat st;
  st.ino = in.ino;
  st.size = in.size;
  st.nlink = in.nlink;
  st.mtime_ns = in.mtime_ns;
  st.is_dir = in.is_dir;
  return st;
}

StatusOr<fs::FileStat> NovaFs::StatPath(const std::string& path) {
  // Stat after the exit charge: a write may grow the file meanwhile.
  EASYIO_ASSIGN_OR_RETURN(Inode * in,
                          RunNamespaceOp([&] { return ResolvePath(path); }));
  return StatOf(*in);
}

StatusOr<fs::FileStat> NovaFs::StatFd(int fd) {
  Inode* in = ResolveFd(fd);
  if (in == nullptr) {
    return BadFd();
  }
  sim_->Advance(params().syscall_enter_ns + params().syscall_exit_ns);
  return StatOf(*in);
}

}  // namespace easyio::nova
