#include "src/easyio/easy_io_fs.h"

#include <algorithm>

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
    ReleaseBlocks(in, scratch.extents);
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

void EasyIoFs::WaitSn(dma::Channel* ch, dma::Sn sn, fs::OpStats* stats) {
  Charge(stats, &fs::OpStats::data_ns, params().uthread_switch_ns);
  Phase wait(this, stats, "sn_wait",
             {&fs::OpStats::blocked_ns, &fs::OpStats::data_ns},
             {{"chan", ch->id()}});
  const uint64_t errs0 = ch->transfer_errors();
  ch->WaitSnRecover(sn, RecoverPolicyFor(*ch));
  NoteChannelFaults(*ch, errs0);
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
  ScratchLease scratch(this);
  EASYIO_RETURN_IF_ERROR(PrepareWrite(in, off, n, *scratch, stats));
  dma::Channel* ch = SubmitWrite(off, buf, *scratch, stats);
  if (ch == nullptr) {
    // Every L channel quarantined: degrade to the synchronous CPU path,
    // reusing the index/alloc/edge work already done above.
    return CpuWriteTail(in, off, buf, stats, l1_start, *scratch);
  }

  // Metadata commits while the DMA engine is still copying: the log entries
  // embed the SNs, so durability of the data is described indirectly. All
  // descriptors went to one channel, so its last SN covers the whole write.
  const Status st =
      CommitWrite(in, off, n, scratch->extents, scratch->sns, stats);
  const dma::Sn last = scratch->sns.back();
  in.pending_channel = ch;
  in.pending_sn = last;
  ExitWriteLocked(in, l1_start, stats);  // before the data lands
  writes_offloaded_++;
  WaitSn(ch, last, stats);
  if (!st.ok()) {
    ReleaseBlocks(in, scratch->extents);  // the transfer wrote them until now
    return st;
  }
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
  WaitSn(ch, scratch->sns.back(), stats);

  // Second interaction: commit the metadata, with no SNs, now that the data
  // is durable.
  Charge(stats, &fs::OpStats::syscall_ns, params().syscall_enter_ns);
  const Status st = CommitWrite(in, off, n, scratch->extents, {}, stats);
  ExitWriteLocked(in, l1_start, stats);
  writes_offloaded_++;
  if (!st.ok()) {
    ReleaseBlocks(in, scratch->extents);
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
  Phase(this, stats, "l1_hold", {}, {}, l1_start);
  in.lock.ReadUnlock();  // reads only touch timestamps; unlock at once
  Charge(stats, &fs::OpStats::syscall_ns, params().syscall_exit_ns);
  WaitSn(ch, scratch->sns.back(), stats);
  OnReadDone(in);
  return n;
}

Status EasyIoFs::FsyncInternal(Inode& in) {
  // Data of the (single possible) outstanding orderless write must land.
  WaitPendingWrite(in, nullptr);
  return OkStatus();
}

}  // namespace easyio::core
