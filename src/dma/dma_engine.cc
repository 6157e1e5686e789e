#include "src/dma/dma_engine.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace easyio::dma {

DmaEngine::DmaEngine(pmem::SlowMemory* mem, uint64_t record_region_off,
                     int num_channels) {
  assert(num_channels > 0 && num_channels <= 256);
  assert(record_region_off + RecordRegionSize(num_channels) <= mem->size());
  channels_.reserve(static_cast<size_t>(num_channels));
  for (int i = 0; i < num_channels; ++i) {
    channels_.push_back(std::make_unique<Channel>(
        mem, static_cast<uint8_t>(i),
        record_region_off + static_cast<uint64_t>(i) *
                                sizeof(CompletionRecord)));
  }
}

Channel& DmaEngine::ChannelFor(Sn sn) {
  if (sn.channel >= channels_.size()) {
    std::fprintf(stderr,
                 "dma: Sn{channel=%u, seq=%llu} names a channel outside this "
                 "engine (%zu channels)\n",
                 sn.channel, static_cast<unsigned long long>(sn.seq),
                 channels_.size());
    std::abort();
  }
  return *channels_[sn.channel];
}

const Channel& DmaEngine::ChannelFor(Sn sn) const {
  return const_cast<DmaEngine*>(this)->ChannelFor(sn);
}

void DmaEngine::AttachFaultInjector(FaultInjector* injector) {
  for (auto& ch : channels_) {
    ch->set_fault_injector(injector);
  }
}

}  // namespace easyio::dma
