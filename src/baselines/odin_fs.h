// OdinFS baseline [OSDI'22]: NOVA layout + opportunistic delegation for data
// movement. The application thread handles metadata itself but ships data
// copies to the DelegationPool's reserved-core threads, which parallelize
// large I/Os across chunks. Small I/Os (< one chunk) skip delegation — the
// ring round-trip would cost more than the copy (OdinFS's "opportunistic"
// part).

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
  void MoveToPmem(uint64_t pmem_off, const std::byte* src, size_t bytes,
                  fs::OpStats* stats) override {
    Phase copy(this, stats, nullptr, {&fs::OpStats::data_ns});
    if (bytes < 8192) {
      // Below ~2 chunks delegation doesn't pay; copy inline.
      memory()->CpuWrite(pmem_off, src, bytes);
    } else {
      pool_->Move(/*to_pmem=*/true, pmem_off, const_cast<std::byte*>(src),
                  bytes);
    }
  }

  void MoveFromPmem(std::byte* dst, uint64_t pmem_off, size_t bytes,
                    fs::OpStats* stats) override {
    Phase copy(this, stats, nullptr, {&fs::OpStats::data_ns});
    if (bytes < 8192) {
      memory()->CpuRead(dst, pmem_off, bytes);
    } else {
      pool_->Move(/*to_pmem=*/false, pmem_off, dst, bytes);
    }
  }

 private:
  DelegationPool* pool_;
};

}  // namespace easyio::baselines

#endif  // EASYIO_BASELINES_ODIN_FS_H_
