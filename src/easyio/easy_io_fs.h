// EasyIoFs: NOVA with EasyIO's asynchronous I/O (the paper's contribution).
//
// Differences from the synchronous base class, all from §4:
//
//  * Orderless write (§4.2): the data DMA is submitted and the metadata
//    (write log entry carrying the descriptor's SN) committed in parallel,
//    in one interaction; the uthread then yields and resumes when the
//    channel's completion record covers the SN.
//  * Two-level locking (§4.3): the file lock (level 1) is released right
//    after the metadata commit; any later read or write that finds an
//    incomplete outstanding write SN on the inode blocks first (level 2).
//    Reads never leave an SN behind (CoW protects later writers), so
//    write-after-read proceeds immediately.
//  * Selective offloading (§4.4, Listing 2): I/O <= 4KB uses memcpy; reads
//    use a DMA channel only when one has queue depth < 2, else memcpy.
//  * Channel placement via the ChannelManager: writes and admitted reads go
//    to the L channels.
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
      : NovaFs(mem, options), easy_(easy_options) {}

  // The ChannelManager (and its DmaEngine) must be attached after Format()
  // or Mount(): engine construction starts a fresh completion-record era,
  // which would defeat mount-time SN validation if it ran first.
  void AttachChannelManager(ChannelManager* cm) { cm_ = cm; }
  ChannelManager* channel_manager() const { return cm_; }

  std::string_view name() const override {
    return easy_.ordered_naive ? "EasyIO-Naive" : "EasyIO";
  }

  // Counters for the evaluation.
  uint64_t reads_offloaded() const { return reads_offloaded_; }
  uint64_t reads_memcpy() const { return reads_memcpy_; }
  uint64_t writes_offloaded() const { return writes_offloaded_; }
  uint64_t writes_memcpy() const { return writes_memcpy_; }

 protected:
  StatusOr<size_t> WriteInternal(Inode& in, uint64_t off,
                                 std::span<const std::byte> buf, bool append,
                                 fs::OpStats* stats) override;
  StatusOr<size_t> ReadInternal(Inode& in, uint64_t off,
                                std::span<std::byte> buf,
                                fs::OpStats* stats) override;
  Status FsyncInternal(Inode& in) override;

 private:
  // All write paths enter with the level-1 lock held; `l1_start` is its
  // acquisition time, so the path can attribute the full lock-hold window to
  // the traced op when it releases the lock.
  StatusOr<size_t> WriteOrderless(Inode& in, uint64_t off,
                                  std::span<const std::byte> buf,
                                  fs::OpStats* stats, sim::SimTime l1_start);
  StatusOr<size_t> WriteNaive(Inode& in, uint64_t off,
                              std::span<const std::byte> buf,
                              fs::OpStats* stats, sim::SimTime l1_start);
  // Finishes a write on the CPU: small I/O (§4.4), and any write that finds
  // every L channel quarantined. Enters after PrepareWrite and ChunkifyInto.
  StatusOr<size_t> CpuWriteTail(Inode& in, uint64_t off,
                                std::span<const std::byte> buf,
                                fs::OpStats* stats, sim::SimTime l1_start,
                                OpScratch& scratch);
  // Maps `buf` onto scratch.extents and submits one write descriptor per
  // range, as one timed batch (dma_submit), on a picked L channel; the SNs
  // land in scratch.sns. Returns that channel, or nullptr with nothing
  // submitted when every L channel is quarantined.
  dma::Channel* SubmitWrite(uint64_t off, std::span<const std::byte> buf,
                            OpScratch& scratch, fs::OpStats* stats);
  // Doorbells scratch.batch on `ch` as one timed batch (dma_submit).
  void SubmitBatch(dma::Channel* ch, OpScratch& scratch, fs::OpStats* stats);
  // Back in the runtime, the uthread yields and parks until `ch`'s
  // completion record covers `sn` (§4.1), through retry/fallback and
  // quarantine reporting. The wait is blocked data time (sn_wait).
  void WaitSn(dma::Channel* ch, dma::Sn sn, fs::OpStats* stats);
  // Ends the level-1 hold taken at `l1_start` (its l1_hold span), drops
  // the write lock and leaves the kernel.
  void ExitWriteLocked(Inode& in, sim::SimTime l1_start, fs::OpStats* stats);

  // Per-wait retry policy: RetryPolicy's defaults, but a quarantined channel
  // gets zero retry attempts (straight to the CPU-copy fallback — no point
  // re-feeding a channel the manager already pulled from rotation).
  dma::RetryPolicy RecoverPolicyFor(const dma::Channel& ch) const {
    dma::RetryPolicy p = recover_policy_;
    if (cm_ != nullptr && cm_->quarantined(ch)) {
      p.max_attempts = 0;
    }
    return p;
  }
  // Report transfer errors observed across a wait to the channel manager's
  // quarantine scorekeeping.
  void NoteChannelFaults(dma::Channel& ch, uint64_t errors_before) {
    if (ch.transfer_errors() != errors_before && cm_ != nullptr) {
      cm_->ReportChannelFault(ch);
    }
  }

  EasyOptions easy_;
  ChannelManager* cm_ = nullptr;
  uint64_t reads_offloaded_ = 0;
  uint64_t reads_memcpy_ = 0;
  uint64_t writes_offloaded_ = 0;
  uint64_t writes_memcpy_ = 0;
};

}  // namespace easyio::core

#endif  // EASYIO_EASYIO_EASY_IO_FS_H_
