#include "src/baselines/nova_dma_fs.h"

#include <cassert>

namespace easyio::baselines {

dma::Channel* NovaDmaFs::NextChannel() {
  assert(engine_ != nullptr && "AttachEngine before I/O");
  return &engine_->channel(
      static_cast<int>(round_robin_++ % engine_->num_channels()));
}

void NovaDmaFs::MoveToPmem(uint64_t pmem_off, const std::byte* src,
                           size_t bytes, fs::OpStats* stats) {
  Phase copy(this, stats, nullptr, {&fs::OpStats::data_ns});
  dma::Channel* ch = NextChannel();
  dma::Descriptor d;
  d.dir = dma::Descriptor::Dir::kWrite;
  d.pmem_off = pmem_off;
  d.dram = const_cast<std::byte*>(src);
  d.size = static_cast<uint32_t>(bytes);
  const dma::Sn sn = ch->Submit(std::move(d));
  // Synchronous interface: poll, core stays busy. Recovery-aware so an
  // injected transfer error is retried (and finally CPU-copied) instead
  // of spinning forever on a halted channel.
  ch->WaitSnRecover(sn, recover_policy_);
}

void NovaDmaFs::MoveFromPmem(std::byte* dst, uint64_t pmem_off, size_t bytes,
                             fs::OpStats* stats) {
  Phase copy(this, stats, nullptr, {&fs::OpStats::data_ns});
  dma::Channel* ch = NextChannel();
  dma::Descriptor d;
  d.dir = dma::Descriptor::Dir::kRead;
  d.pmem_off = pmem_off;
  d.dram = dst;
  d.size = static_cast<uint32_t>(bytes);
  const dma::Sn sn = ch->Submit(std::move(d));
  ch->WaitSnRecover(sn, recover_policy_);
}

}  // namespace easyio::baselines
