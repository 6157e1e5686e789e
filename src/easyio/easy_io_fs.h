// EasyIoFs: NOVA with EasyIO's asynchronous I/O (the paper's contribution).
//
// NovaFs's one write and one read routine run every EasyIO op; this class
// supplies only how the bytes move (the byte-movement hooks), which is
// where the differences from §4 live:
//
//  * Orderless write (§4.2): the data DMA is submitted and the metadata
//    (write log entry carrying the descriptor's SN) committed in parallel,
//    in one interaction; the uthread then yields and resumes when the
//    channel's completion record covers the SN.
//  * Two-level locking (§4.3): the file lock (level 1) is released right
//    after the metadata commit; any later read or write that finds an
//    incomplete outstanding write SN on the inode blocks first (level 2).
//    Reads never leave an SN behind (CoW protects later writers), so
//    write-after-read proceeds immediately, and a read drops the lock
//    before its bytes move.
//  * Selective offloading (§4.4, Listing 2): I/O <= 4KB uses memcpy; reads
//    use a DMA channel only when one has queue depth < 2, else memcpy.
//  * Channel placement via the ChannelManager: writes and admitted reads go
//    to the L channels, and a transfer error any of its SN waits sees
//    (level-2, sn_wait or Naive's) is a strike against the channel.
//
// The `ordered_naive` option builds the paper's Fig 11 "Naive" comparison:
// data and metadata strictly ordered in two kernel interactions, with the
// file lock held across the DMA wait.

#ifndef EASYIO_EASYIO_EASY_IO_FS_H_
#define EASYIO_EASYIO_EASY_IO_FS_H_

#include <cstdint>
#include <span>

#include "src/easyio/channel_manager.h"
#include "src/nova/nova_fs.h"

namespace easyio::core {

class EasyIoFs : public nova::NovaFs {
 public:
  struct EasyOptions {
    bool ordered_naive = false;
    uint64_t dma_min_bytes = 4096;  // <= this uses memcpy (Listing 2)
  };

  EasyIoFs(pmem::SlowMemory* mem, const nova::NovaFs::Options& options,
           const EasyOptions& easy_options)
      : NovaFs(mem, options, /*read_unlocks_first=*/true),
        easy_(easy_options) {}

  // The ChannelManager (and its DmaEngine) must be attached after Format()
  // or Mount(): engine construction starts a fresh completion-record era,
  // which would defeat mount-time SN validation if it ran first.
  void AttachChannelManager(ChannelManager* cm) { cm_ = cm; }
  ChannelManager* channel_manager() const { return cm_; }

  std::string_view name() const override {
    return easy_.ordered_naive ? "EasyIO-Naive" : "EasyIO";
  }

  // Counters for the evaluation. A read counts as offloaded only if it
  // submitted a descriptor: an all-hole read, which the CPU zero-fills,
  // counts as memcpy.
  uint64_t reads_offloaded() const { return reads_offloaded_; }
  uint64_t reads_memcpy() const { return reads_memcpy_; }
  uint64_t writes_offloaded() const { return writes_offloaded_; }
  uint64_t writes_memcpy() const { return writes_memcpy_; }

 protected:
  // Listing 2 picks memcpy or an L channel. An orderless write returns the
  // channel its commit's SNs are on; Naive waits for the data between two
  // kernel interactions and returns nullptr. A write that finds every L
  // channel quarantined degrades to the CPU copy.
  dma::Channel* MoveToPmem(std::span<const std::byte> buf, OpScratch& scratch,
                           fs::OpStats* stats) override;
  // An offloaded read zero-fills its holes and submits one batch of read
  // descriptors, leaving nothing for the CPU; a memcpy read leaves every
  // range.
  dma::Channel* SubmitRead(std::span<std::byte> buf, OpScratch& scratch,
                           fs::OpStats* stats) override;
  // A wait that saw a transfer error strikes the channel (quarantine).
  void OnChannelFault(dma::Channel& ch) override {
    cm_->ReportChannelFault(ch);
  }

 private:
  // Doorbells scratch.batch on `ch` as one timed batch (dma_submit).
  void SubmitBatch(dma::Channel* ch, OpScratch& scratch, fs::OpStats* stats);

  EasyOptions easy_;
  ChannelManager* cm_ = nullptr;
  uint64_t reads_offloaded_ = 0;
  uint64_t reads_memcpy_ = 0;
  uint64_t writes_offloaded_ = 0;
  uint64_t writes_memcpy_ = 0;
};

}  // namespace easyio::core

#endif  // EASYIO_EASYIO_EASY_IO_FS_H_
