// NOVA-DMA: the paper's stand-in for Fastmove [FAST'23] (§6.1) — NOVA with
// the memcpys in the read and write paths replaced by DMA-offloaded copies,
// but still a *synchronous* interface: the calling thread busy-polls the
// completion, burning its core the whole time. Requests round-robin over all
// available channels, which is exactly what makes its write throughput
// collapse under concurrency (§6.2: "NOVA-DMA uses all available DMA
// channels, and our empirical study shows that using more channels is
// harmful").

#ifndef EASYIO_BASELINES_NOVA_DMA_FS_H_
#define EASYIO_BASELINES_NOVA_DMA_FS_H_

#include "src/dma/dma_engine.h"
#include "src/nova/nova_fs.h"

namespace easyio::baselines {

class NovaDmaFs : public nova::NovaFs {
 public:
  NovaDmaFs(pmem::SlowMemory* mem, const nova::NovaFs::Options& options)
      : NovaFs(mem, options) {}

  // Attach after Format()/Mount(); see EasyIoFs::AttachChannelManager.
  void AttachEngine(dma::DmaEngine* engine) { engine_ = engine; }

  std::string_view name() const override { return "NOVA-DMA"; }

 protected:
  dma::Channel* MoveToPmem(std::span<const std::byte> buf, OpScratch& scratch,
                           fs::OpStats* stats) override;
  void MoveFromPmem(std::byte* dst, uint64_t pmem_off, size_t bytes,
                    fs::OpStats* stats) override;

 private:
  // One descriptor on the next channel, busy-polled to completion.
  void Transfer(dma::Descriptor::Dir dir, uint64_t pmem_off, std::byte* dram,
                size_t bytes, fs::OpStats* stats);

  dma::DmaEngine* engine_ = nullptr;
  uint64_t round_robin_ = 0;
};

}  // namespace easyio::baselines

#endif  // EASYIO_BASELINES_NOVA_DMA_FS_H_
