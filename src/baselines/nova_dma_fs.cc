#include "src/baselines/nova_dma_fs.h"

#include <cassert>

namespace easyio::baselines {

dma::Channel* NovaDmaFs::MoveToPmem(std::span<const std::byte> buf,
                                    OpScratch& scratch, fs::OpStats* stats) {
  for (const ByteRange& r : scratch.ranges) {
    Transfer(dma::Descriptor::Dir::kWrite, r.pmem_off,
             const_cast<std::byte*>(buf.data() + r.buf_off), r.bytes, stats);
  }
  return nullptr;  // durable: every transfer was waited for
}

void NovaDmaFs::MoveFromPmem(std::byte* dst, uint64_t pmem_off, size_t bytes,
                             fs::OpStats* stats) {
  Transfer(dma::Descriptor::Dir::kRead, pmem_off, dst, bytes, stats);
}

void NovaDmaFs::Transfer(dma::Descriptor::Dir dir, uint64_t pmem_off,
                         std::byte* dram, size_t bytes, fs::OpStats* stats) {
  assert(engine_ != nullptr && "AttachEngine before I/O");
  Phase copy(this, stats, nullptr, {&fs::OpStats::data_ns});
  dma::Channel& ch = engine_->channel(
      static_cast<int>(round_robin_++ % engine_->num_channels()));
  dma::Descriptor d;
  d.dir = dir;
  d.pmem_off = pmem_off;
  d.dram = dram;
  d.size = static_cast<uint32_t>(bytes);
  const dma::Sn sn = ch.Submit(std::move(d));
  // Synchronous interface: poll, core stays busy. Recovery-aware so an
  // injected transfer error is retried (and finally CPU-copied) instead
  // of spinning forever on a halted channel.
  ch.WaitSnRecover(sn, recover_policy_);
  AddDmaBytes(bytes);
}

}  // namespace easyio::baselines
