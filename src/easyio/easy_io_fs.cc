#include "src/easyio/easy_io_fs.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace easyio::core {

StatusOr<size_t> EasyIoFs::WriteInternal(Inode& in, uint64_t off,
                                         std::span<const std::byte> buf,
                                         bool append, fs::OpStats* stats) {
  in.lock.WriteLock();
  const sim::SimTime l1_start = sim()->now();
  if (append) {
    off = in.size;
  }
  // Level-2: a write-write conflict must wait for the outstanding orderless
  // write to actually finish (§4.3, Fig 7b).
  WaitPendingWrite(in, stats);
  MaybeCompactLog(in, stats);
  if (buf.size() > easy_.dma_min_bytes && cm_ != nullptr) {
    return easy_.ordered_naive ? WriteNaive(in, off, buf, stats, l1_start)
                               : WriteOrderless(in, off, buf, stats, l1_start);
  }
  // Small I/O: the DMA engine is less efficient than memcpy below 4KB and
  // the transfer completes before the core even returns to userspace
  // (§4.4), so EasyIO keeps the synchronous CPU path.
  ScratchLease scratch(this);
  EASYIO_RETURN_IF_ERROR(PrepareWrite(in, off, buf.size(), *scratch, stats));
  ChunkifyInto(scratch->extents, off, buf.size(), &scratch->ranges);
  return CpuWriteTail(in, off, buf, stats, l1_start, *scratch);
}

StatusOr<size_t> EasyIoFs::CpuWriteTail(Inode& in, uint64_t off,
                                        std::span<const std::byte> buf,
                                        fs::OpStats* stats,
                                        sim::SimTime l1_start,
                                        OpScratch& scratch) {
  {
    Phase copy(this, stats, nullptr, {&fs::OpStats::data_ns});
    for (const ByteRange& c : scratch.ranges) {
      memory()->CpuWrite(c.pmem_off, buf.data() + c.buf_off, c.bytes);
    }
  }
  AddCpuBytes(buf.size());  // once copied, unlike MoveToPmem
  const Status st =
      CommitWrite(in, off, buf.size(), scratch.extents, {}, stats);
  ExitWriteLocked(in, l1_start, stats);
  writes_memcpy_++;
  if (!st.ok()) {
    return st;
  }
  return buf.size();
}

dma::Channel* EasyIoFs::SubmitWrite(uint64_t off,
                                    std::span<const std::byte> buf,
                                    OpScratch& scratch, fs::OpStats* stats) {
  dma::Channel* ch = cm_->PickWriteChannel();
  ChunkifyInto(scratch.extents, off, buf.size(), &scratch.ranges);
  if (ch == nullptr) {
    return nullptr;
  }
  for (const ByteRange& c : scratch.ranges) {
    dma::Descriptor d;
    d.dir = dma::Descriptor::Dir::kWrite;
    d.pmem_off = c.pmem_off;
    d.dram = const_cast<std::byte*>(buf.data() + c.buf_off);
    d.size = static_cast<uint32_t>(c.bytes);
    scratch.batch.push_back(std::move(d));
  }
  SubmitBatch(ch, scratch, stats);
  AddDmaBytes(buf.size());
  return ch;
}

void EasyIoFs::SubmitBatch(dma::Channel* ch, OpScratch& scratch,
                           fs::OpStats* stats) {
  Phase submit(this, stats, "dma_submit", {&fs::OpStats::data_ns},
               {{"descs", scratch.batch.size()}, {"chan", ch->id()}});
  ch->SubmitBatch(std::span<dma::Descriptor>(scratch.batch), &scratch.sns);
}

void EasyIoFs::WaitSns(std::span<const ChanSn> waits, fs::OpStats* stats) {
  Charge(stats, &fs::OpStats::data_ns, params().uthread_switch_ns);
  const obs::Arg where = waits.size() == 1
                             ? obs::Arg{"chan", waits[0].first->id()}
                             : obs::Arg{"stripes", waits.size()};
  Phase wait(this, stats, "sn_wait",
             {&fs::OpStats::blocked_ns, &fs::OpStats::data_ns}, {where});
  for (const auto& [ch, sn] : waits) {
    if (sn.none()) {
      continue;
    }
    const uint64_t errs0 = ch->transfer_errors();
    ch->WaitSnRecover(sn, RecoverPolicyFor(*ch));
    NoteChannelFaults(*ch, errs0);
  }
}

void EasyIoFs::ExitWriteLocked(Inode& in, sim::SimTime l1_start,
                               fs::OpStats* stats) {
  Phase(this, stats, "l1_hold", {}, {}, l1_start);
  in.lock.WriteUnlock();
  Charge(stats, &fs::OpStats::syscall_ns, params().syscall_exit_ns);
}

// The paper's write path (§4.2): DMA submission and metadata commit proceed
// in parallel; the lock drops at commit; the uthread parks until the
// completion record covers the SN.
StatusOr<size_t> EasyIoFs::WriteOrderless(Inode& in, uint64_t off,
                                          std::span<const std::byte> buf,
                                          fs::OpStats* stats,
                                          sim::SimTime l1_start) {
  const size_t n = buf.size();
  // Striping only pays off for large block-aligned writes (each chunk is
  // its own log entry, so unaligned edges would need read-modify-write per
  // chunk); everything else stays on the single-channel path.
  if (easy_.write_stripe_channels > 1 && off % nova::kBlockSize == 0 &&
      n % nova::kBlockSize == 0 && n > easy_.stripe_chunk_bytes) {
    std::vector<dma::Channel*> chans;
    cm_->PickWriteChannels(easy_.write_stripe_channels, &chans);
    if (chans.size() > 1) {
      return WriteOrderlessStriped(in, off, buf, stats, l1_start,
                                   std::move(chans));
    }
  }
  ScratchLease scratch(this);
  EASYIO_RETURN_IF_ERROR(PrepareWrite(in, off, n, *scratch, stats));
  dma::Channel* ch = SubmitWrite(off, buf, *scratch, stats);
  if (ch == nullptr) {
    // Every L channel quarantined: degrade to the synchronous CPU path,
    // reusing the index/alloc/edge work already done above.
    return CpuWriteTail(in, off, buf, stats, l1_start, *scratch);
  }

  // Metadata commits while the DMA engine is still copying: the log entries
  // embed the SNs, so durability of the data is described indirectly.
  const Status st =
      CommitWrite(in, off, n, scratch->extents, scratch->sns, stats);
  const ChanSn last{ch, scratch->sns.back()};
  in.pending_channel = ch;
  in.pending_sn = last.second;
  ExitWriteLocked(in, l1_start, stats);  // before the data lands
  writes_offloaded_++;
  if (!st.ok()) {
    return st;
  }
  WaitSns({&last, 1}, stats);
  return n;
}

// Striped variant of the orderless write: the chunks of one large write
// round-robin over several L channels. Each chunk is one log entry AND one
// descriptor, so every entry's SN names exactly the transfer that moves its
// bytes — a chunk on a slow channel cannot hide behind a fast channel's
// completion record. Durability therefore needs *every* channel's record to
// cover its own last SN (per-channel SN monotonicity says nothing across
// channels), both in the wait below and in the inode's level-2 state.
StatusOr<size_t> EasyIoFs::WriteOrderlessStriped(
    Inode& in, uint64_t off, std::span<const std::byte> buf,
    fs::OpStats* stats, sim::SimTime l1_start,
    std::vector<dma::Channel*>&& chans) {
  const size_t n = buf.size();
  assert(off % nova::kBlockSize == 0 && n % nova::kBlockSize == 0);
  ScratchLease scratch(this);
  EASYIO_RETURN_IF_ERROR(PrepareWrite(in, off, n, *scratch, stats));

  // Split the allocated extents into stripe chunks (block-granular by the
  // alignment precondition).
  const uint64_t chunk_pages =
      std::max<uint64_t>(1, easy_.stripe_chunk_bytes / nova::kBlockSize);
  std::vector<nova::Extent> subs;
  subs.reserve(n / nova::kBlockSize / chunk_pages + scratch->extents.size());
  for (const nova::Extent& e : scratch->extents) {
    for (uint64_t p = 0; p < e.pages; p += chunk_pages) {
      subs.push_back({e.block_off + p * nova::kBlockSize,
                      std::min(chunk_pages, e.pages - p)});
    }
  }

  // Chunks round-robin over the channels; one doorbell per channel. The
  // scatter through per_idx keeps scratch->sns positionally 1:1 with subs,
  // which CommitWrite requires.
  std::vector<std::vector<dma::Descriptor>> per_chan(chans.size());
  std::vector<std::vector<size_t>> per_idx(chans.size());
  uint64_t cum = 0;
  for (size_t i = 0; i < subs.size(); ++i) {
    const size_t ci = i % chans.size();
    dma::Descriptor d;
    d.dir = dma::Descriptor::Dir::kWrite;
    d.pmem_off = subs[i].block_off;
    d.dram = const_cast<std::byte*>(buf.data() + cum);
    d.size = static_cast<uint32_t>(subs[i].pages * nova::kBlockSize);
    per_chan[ci].push_back(std::move(d));
    per_idx[ci].push_back(i);
    cum += subs[i].pages * nova::kBlockSize;
  }
  scratch->sns.assign(subs.size(), dma::Sn::None());
  std::vector<ChanSn> last;  // each channel's last SN
  {
    Phase submit(this, stats, "dma_submit", {&fs::OpStats::data_ns},
                 {{"descs", subs.size()}, {"stripes", chans.size()}});
    std::vector<dma::Sn> sns_c;
    for (size_t c = 0; c < chans.size(); ++c) {
      last.push_back({chans[c], dma::Sn::None()});
      if (per_chan[c].empty()) {
        continue;
      }
      sns_c.clear();
      chans[c]->SubmitBatch(std::span<dma::Descriptor>(per_chan[c]), &sns_c);
      for (size_t j = 0; j < sns_c.size(); ++j) {
        scratch->sns[per_idx[c][j]] = sns_c[j];
      }
      last[c].second = sns_c.back();
    }
  }
  AddDmaBytes(n);

  const Status st = CommitWrite(in, off, n, subs, scratch->sns, stats);
  in.pending_channel = last[0].first;
  in.pending_sn = last[0].second;
  for (size_t c = 1; c < last.size(); ++c) {
    if (!last[c].second.none()) {
      in.pending_stripes.push_back(last[c]);
    }
  }
  ExitWriteLocked(in, l1_start, stats);
  writes_offloaded_++;
  if (!st.ok()) {
    return st;
  }
  WaitSns(last, stats);
  return n;
}

// Fig 11's "Naive": strictly ordered, two interactions with the filesystem,
// lock held across the DMA wait.
StatusOr<size_t> EasyIoFs::WriteNaive(Inode& in, uint64_t off,
                                      std::span<const std::byte> buf,
                                      fs::OpStats* stats,
                                      sim::SimTime l1_start) {
  const size_t n = buf.size();
  ScratchLease scratch(this);
  EASYIO_RETURN_IF_ERROR(PrepareWrite(in, off, n, *scratch, stats));
  dma::Channel* ch = SubmitWrite(off, buf, *scratch, stats);
  if (ch == nullptr) {
    // Every L channel quarantined: degrade to the synchronous CPU path,
    // reusing the index/alloc/edge work already done above.
    return CpuWriteTail(in, off, buf, stats, l1_start, *scratch);
  }

  // First interaction returns (lock still held!); the uthread parks.
  Charge(stats, &fs::OpStats::syscall_ns, params().syscall_exit_ns);
  const ChanSn last{ch, scratch->sns.back()};
  WaitSns({&last, 1}, stats);

  // Second interaction: commit the metadata, with no SNs, now that the data
  // is durable.
  Charge(stats, &fs::OpStats::syscall_ns, params().syscall_enter_ns);
  const Status st = CommitWrite(in, off, n, scratch->extents, {}, stats);
  ExitWriteLocked(in, l1_start, stats);
  writes_offloaded_++;
  if (!st.ok()) {
    return st;
  }
  return n;
}

StatusOr<size_t> EasyIoFs::ReadInternal(Inode& in, uint64_t off,
                                        std::span<std::byte> buf,
                                        fs::OpStats* stats) {
  in.lock.ReadLock();
  const sim::SimTime l1_start = sim()->now();
  // Level-2: wait out a conflicting unfinished write (§4.3, Fig 7b).
  WaitPendingWrite(in, stats);
  if (off >= in.size) {
    in.lock.ReadUnlock();
    Charge(stats, &fs::OpStats::syscall_ns, params().syscall_exit_ns);
    return size_t{0};
  }
  const size_t n = std::min<uint64_t>(buf.size(), in.size - off);
  ScratchLease scratch(this);
  PrepareRead(in, off, n, *scratch, stats);

  // Listing 2: DMA only for >4KB and an L channel below the depth bound.
  dma::Channel* ch = nullptr;
  if (n > easy_.dma_min_bytes && cm_ != nullptr) {
    ch = cm_->PickReadChannel();
  }

  if (ch == nullptr) {
    // memcpy fallback: reads never leave an SN behind, and CoW plus the
    // pending-read count protect the blocks, so the lock drops first.
    Phase(this, stats, "l1_hold", {}, {}, l1_start);
    in.lock.ReadUnlock();
    reads_memcpy_++;
    for (const ByteRange& r : scratch->ranges) {
      if (r.hole) {
        FillZero(buf.data() + r.buf_off, r.bytes, stats);
        continue;
      }
      {
        Phase copy(this, stats, nullptr, {&fs::OpStats::data_ns});
        memory()->CpuRead(buf.data() + r.buf_off, r.pmem_off, r.bytes);
      }
      AddCpuBytes(r.bytes);  // once copied, unlike MoveFromPmem
    }
    OnReadDone(in);
    Charge(stats, &fs::OpStats::syscall_ns, params().syscall_exit_ns);
    return n;
  }

  // DMA path: holes are zero-filled by the CPU, mapped ranges become one
  // batch of read descriptors.
  for (const ByteRange& r : scratch->ranges) {
    if (r.hole) {
      FillZero(buf.data() + r.buf_off, r.bytes, stats);
      continue;
    }
    dma::Descriptor d;
    d.dir = dma::Descriptor::Dir::kRead;
    d.pmem_off = r.pmem_off;
    d.dram = buf.data() + r.buf_off;
    d.size = static_cast<uint32_t>(r.bytes);
    scratch->batch.push_back(std::move(d));
  }
  reads_offloaded_++;
  if (scratch->batch.empty()) {
    Phase(this, stats, "l1_hold", {}, {}, l1_start);
    in.lock.ReadUnlock();
    OnReadDone(in);
    Charge(stats, &fs::OpStats::syscall_ns, params().syscall_exit_ns);
    return n;
  }
  for (const dma::Descriptor& d : scratch->batch) {
    AddDmaBytes(d.size);
  }
  SubmitBatch(ch, *scratch, stats);
  const ChanSn last{ch, scratch->sns.back()};
  Phase(this, stats, "l1_hold", {}, {}, l1_start);
  in.lock.ReadUnlock();  // reads only touch timestamps; unlock at once
  Charge(stats, &fs::OpStats::syscall_ns, params().syscall_exit_ns);
  WaitSns({&last, 1}, stats);
  OnReadDone(in);
  return n;
}

Status EasyIoFs::FsyncInternal(Inode& in) {
  // Data of the (single possible) outstanding orderless write must land.
  WaitPendingWrite(in, nullptr);
  return OkStatus();
}

}  // namespace easyio::core
