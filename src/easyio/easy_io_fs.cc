#include "src/easyio/easy_io_fs.h"

namespace easyio::core {

dma::Channel* EasyIoFs::MoveToPmem(std::span<const std::byte> buf,
                                   OpScratch& scratch, fs::OpStats* stats) {
  // Small I/O: the DMA engine is less efficient than memcpy below 4KB and
  // the transfer completes before the core even returns to userspace
  // (§4.4), so EasyIO keeps the synchronous CPU path. So does a write that
  // finds every L channel quarantined.
  dma::Channel* ch = buf.size() > easy_.dma_min_bytes && cm_ != nullptr
                         ? cm_->PickWriteChannel()
                         : nullptr;
  if (ch == nullptr) {
    writes_memcpy_++;
    return NovaFs::MoveToPmem(buf, scratch, stats);
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
  writes_offloaded_++;
  if (!easy_.ordered_naive) {
    return ch;  // orderless: the commit carries the SNs (§4.2)
  }
  // Fig 11's "Naive": the first interaction returns (lock still held!) and
  // the uthread parks; the second commits the metadata, with no SNs, once
  // the data is durable.
  Charge(stats, &fs::OpStats::syscall_ns, params().syscall_exit_ns);
  WaitSn(ch, scratch.sns.back(), stats);
  Charge(stats, &fs::OpStats::syscall_ns, params().syscall_enter_ns);
  return nullptr;
}

dma::Channel* EasyIoFs::SubmitRead(std::span<std::byte> buf,
                                   OpScratch& scratch, fs::OpStats* stats) {
  // Listing 2: DMA only for >4KB and an L channel below the depth bound.
  dma::Channel* ch = buf.size() > easy_.dma_min_bytes && cm_ != nullptr
                         ? cm_->PickReadChannel()
                         : nullptr;
  if (ch == nullptr) {
    reads_memcpy_++;
    return nullptr;
  }
  // Holes are zero-filled by the CPU, mapped ranges become one batch of
  // read descriptors.
  reads_offloaded_++;
  for (const ByteRange& r : scratch.ranges) {
    if (r.hole) {
      FillZero(buf.data() + r.buf_off, r.bytes, stats);
      continue;
    }
    dma::Descriptor d;
    d.dir = dma::Descriptor::Dir::kRead;
    d.pmem_off = r.pmem_off;
    d.dram = buf.data() + r.buf_off;
    d.size = static_cast<uint32_t>(r.bytes);
    scratch.batch.push_back(std::move(d));
  }
  scratch.ranges.clear();
  if (scratch.batch.empty()) {
    return nullptr;  // all holes: nothing in flight
  }
  for (const dma::Descriptor& d : scratch.batch) {
    AddDmaBytes(d.size);
  }
  SubmitBatch(ch, scratch, stats);
  return ch;
}

void EasyIoFs::SubmitBatch(dma::Channel* ch, OpScratch& scratch,
                           fs::OpStats* stats) {
  Phase submit(this, stats, "dma_submit", {&fs::OpStats::data_ns},
               {{"descs", scratch.batch.size()}, {"chan", ch->id()}});
  ch->SubmitBatch(std::span<dma::Descriptor>(scratch.batch), &scratch.sns);
}

void EasyIoFs::RecoverSn(dma::Channel& ch, dma::Sn sn) {
  // A quarantined channel goes straight to the CPU-copy fallback: no point
  // re-feeding a channel the manager already pulled from rotation.
  dma::RetryPolicy policy = recover_policy_;
  if (cm_ != nullptr && cm_->quarantined(ch)) {
    policy.max_attempts = 0;
  }
  const uint64_t errors_before = ch.transfer_errors();
  ch.WaitSnRecover(sn, policy);
  if (ch.transfer_errors() != errors_before && cm_ != nullptr) {
    cm_->ReportChannelFault(ch);
  }
}

}  // namespace easyio::core
