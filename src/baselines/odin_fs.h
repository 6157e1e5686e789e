// OdinFS baseline [OSDI'22]: NOVA layout + opportunistic delegation for data
// movement. The application thread handles metadata itself but ships data
// copies to the DelegationPool's reserved-core threads, which parallelize
// large I/Os across 32 KiB chunks. I/Os below kInlineCopyBytes (8 KiB) skip
// delegation, as the ring round-trip would cost more than the copy (OdinFS's
// "opportunistic" part); those from 8 KiB up to 32 KiB go to one thread as a
// single chunk.

#ifndef EASYIO_BASELINES_ODIN_FS_H_
#define EASYIO_BASELINES_ODIN_FS_H_

#include "src/baselines/delegation.h"
#include "src/nova/nova_fs.h"

namespace easyio::baselines {

class OdinFs : public nova::NovaFs {
 public:
  OdinFs(pmem::SlowMemory* mem, const nova::NovaFs::Options& options,
         DelegationPool* pool)
      : NovaFs(mem, options), pool_(pool) {}

  std::string_view name() const override { return "ODINFS"; }

 protected:
  dma::Channel* MoveToPmem(std::span<const std::byte> buf, OpScratch& scratch,
                           fs::OpStats* stats) override {
    for (const ByteRange& r : scratch.ranges) {
      Move(/*to_pmem=*/true, r.pmem_off,
           const_cast<std::byte*>(buf.data() + r.buf_off), r.bytes, stats);
    }
    return nullptr;
  }

  void MoveFromPmem(std::byte* dst, uint64_t pmem_off, size_t bytes,
                    fs::OpStats* stats) override {
    Move(/*to_pmem=*/false, pmem_off, dst, bytes, stats);
  }

 private:
  // Copies inline on the application core or delegates; either way the
  // bytes cross the bus by CPU copy.
  void Move(bool to_pmem, uint64_t pmem_off, std::byte* dram, size_t bytes,
            fs::OpStats* stats) {
    Phase copy(this, stats, nullptr, {&fs::OpStats::data_ns});
    if (bytes >= kInlineCopyBytes) {
      pool_->Move(to_pmem, pmem_off, dram, bytes);
    } else if (to_pmem) {
      memory()->CpuWrite(pmem_off, dram, bytes);
    } else {
      memory()->CpuRead(dram, pmem_off, bytes);
    }
    AddCpuBytes(bytes);
  }

  // I/Os below this copy inline on the application core. From here up to
  // the pool's kChunkBytes (32 KiB, delegation.cc), an I/O goes to one
  // delegation thread as a single chunk; larger ones fan out in 32 KiB
  // chunks across the threads.
  static constexpr size_t kInlineCopyBytes = 8192;

  DelegationPool* pool_;
};

}  // namespace easyio::baselines

#endif  // EASYIO_BASELINES_ODIN_FS_H_
