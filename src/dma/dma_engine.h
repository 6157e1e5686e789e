// DmaEngine: the machine's set of on-chip DMA channels.
//
// The channel count is the filesystem's (nova::kCompChannels sizes the
// completion-record region). No channel is tied to an engine: the
// SlowMemory flow model caps the aggregate bandwidth of the active channels
// as if they were spread over MediaParams::dma_engines engines.
// Completion records for all channels live in one contiguous persistent
// region whose offset the filesystem layout reserves (§4.2: "we place these
// completion buffers in a persistent region with their starting addresses
// recorded in advance").

#ifndef EASYIO_DMA_DMA_ENGINE_H_
#define EASYIO_DMA_DMA_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/dma/channel.h"
#include "src/dma/fault_plan.h"
#include "src/dma/sn.h"
#include "src/pmem/slow_memory.h"

namespace easyio::dma {

class DmaEngine {
 public:
  // Creates channels backed by completion records at `record_region_off`.
  // Existing record contents (e.g. from a crash image) are honoured; see
  // Channel's constructor.
  DmaEngine(pmem::SlowMemory* mem, uint64_t record_region_off,
            int num_channels);

  static size_t RecordRegionSize(int num_channels) {
    return static_cast<size_t>(num_channels) * sizeof(CompletionRecord);
  }

  int num_channels() const { return static_cast<int>(channels_.size()); }
  Channel& channel(int i) { return *channels_[i]; }
  const Channel& channel(int i) const { return *channels_[i]; }

  // Checked SN-to-channel routing: the only safe way to resolve an SN whose
  // channel index comes from data (a log entry, a remapped inode field)
  // rather than from the submitting code path. Hard-fails on an index this
  // engine never issued, in every build mode — comparing against another
  // channel's record would silently return a wrong durability answer.
  Channel& ChannelFor(Sn sn);
  const Channel& ChannelFor(Sn sn) const;
  bool IsComplete(Sn sn) const {
    return sn.none() || ChannelFor(sn).IsComplete(sn);
  }

  // Arms fault injection on every channel. `injector` must outlive the
  // engine; pass nullptr to detach. With no injector the engine models
  // infallible hardware, bit-for-bit identical to a build without this call.
  void AttachFaultInjector(FaultInjector* injector);

 private:
  std::vector<std::unique_ptr<Channel>> channels_;
};

}  // namespace easyio::dma

#endif  // EASYIO_DMA_DMA_ENGINE_H_
