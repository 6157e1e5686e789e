// NovaFs: a NOVA-style log-structured slow-memory filesystem (paper §5).
//
// This class is the complete synchronous baseline ("NOVA" in the paper's
// evaluation): per-inode metadata logs with a persistent tail as the commit
// point, CoW data blocks, journaled multi-inode namespace operations, and a
// mount-time recovery scan. It owns the one write routine and the one read
// routine (WriteInternal / ReadInternal) of every filesystem kind: locking,
// level-2 waits, allocation, the log commit and the level-1 release. A kind
// supplies only how bytes move, through the byte-movement hooks: NOVA-DMA
// and OdinFS replace the CPU copies, and EasyIO adds selective offloading,
// the orderless commit and its quarantine-aware SN wait on top of the same
// layout, allocator, log and recovery machinery — mirroring how the real
// EasyIO patches NOVA with <50 lines.
//
// All operations must be called from inside a sim::Task; they charge modeled
// syscall/index/metadata/data time per MediaParams.

#ifndef EASYIO_NOVA_NOVA_FS_H_
#define EASYIO_NOVA_NOVA_FS_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/dma/channel.h"
#include "src/dma/sn.h"
#include "src/fs/file_system.h"
#include "src/nova/allocator.h"
#include "src/nova/journal.h"
#include "src/nova/layout.h"
#include "src/nova/page_map.h"
#include "src/obs/trace.h"
#include "src/pmem/slow_memory.h"
#include "src/uthread/scheduler.h"

namespace easyio::nova {

class NovaFs : public fs::FileSystem {
 public:
  struct Options {
    uint64_t inode_count = 16384;
    uint64_t journal_slots = 64;
    uint64_t comp_channels = 16;  // completion-record region in the layout
    // Log-GC trigger: compact once the chain exceeds this many pages AND is
    // 4x what its live entries need. Tests lower it to exercise compaction
    // cheaply.
    uint64_t gc_min_pages = 16;
  };

  NovaFs(pmem::SlowMemory* mem, const Options& options);
  ~NovaFs() override;

  // Initializes a fresh filesystem on the device.
  Status Format();
  // Mounts an existing image: replays journals, scans inode logs, validates
  // write entries against the completion records (§4.2), rebuilds the
  // allocator. Must run before any DmaEngine is constructed on the device
  // (engine construction starts a fresh completion era).
  Status Mount();

  const Layout& layout() const { return layout_; }
  pmem::SlowMemory* memory() const { return mem_; }

  // ---- fs::FileSystem ----
  std::string_view name() const override { return "NOVA"; }
  StatusOr<int> Create(const std::string& path) override;
  StatusOr<int> Open(const std::string& path) override;
  Status Close(int fd) override;
  Status Mkdir(const std::string& path) override;
  Status Unlink(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Link(const std::string& existing,
              const std::string& link_path) override;
  StatusOr<fs::FileStat> StatPath(const std::string& path) override;
  StatusOr<fs::FileStat> StatFd(int fd) override;
  StatusOr<size_t> Read(int fd, uint64_t off, std::span<std::byte> buf,
                        fs::OpStats* stats) override;
  StatusOr<size_t> Write(int fd, uint64_t off, std::span<const std::byte> buf,
                         fs::OpStats* stats) override;
  StatusOr<size_t> Append(int fd, std::span<const std::byte> buf,
                          fs::OpStats* stats) override;
  Status Fsync(int fd) override;
  using fs::FileSystem::Append;
  using fs::FileSystem::Read;
  using fs::FileSystem::Write;

  // ---- introspection (tests, EXPERIMENTS.md) ----
  uint64_t recovery_discarded_entries() const {
    return recovery_discarded_entries_;
  }
  uint64_t recovery_replayed_journals() const {
    return recovery_replayed_journals_;
  }
  uint64_t free_pages() const { return allocator_->free_pages(); }
  uint64_t free_inodes() const { return free_slots_.size(); }
  uint64_t log_compactions() const { return log_compactions_; }

  // Cumulative data-path counters (obs::FsStats source). `bytes_cpu` counts
  // data moved by CPU copy paths, `bytes_dma` by DMA offload; subclasses
  // report their own movement via AddCpuBytes/AddDmaBytes.
  struct Counters {
    uint64_t ops_read = 0;
    uint64_t ops_write = 0;  // Write + Append entry points
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;
    uint64_t bytes_cpu = 0;
    uint64_t bytes_dma = 0;
  };
  const Counters& counters() const { return counters_; }

 protected:
  // For a kind whose reads drop the level-1 lock before their bytes move
  // on the CPU (EasyIO, §4.3); the public constructor's kinds copy under
  // the lock.
  NovaFs(pmem::SlowMemory* mem, const Options& options,
         bool read_unlocks_first);

  // ---- shared machinery for subclasses ----
  const pmem::MediaParams& params() const { return mem_->params(); }

  // Charges `ns` of CPU time and attributes it to a breakdown category.
  void Charge(fs::OpStats* stats, uint64_t fs::OpStats::*cat, uint64_t ns);

  // One per-op phase, timed once in virtual time for both outputs: when it
  // closes (Close() or scope exit) it adds the elapsed time to each of
  // `cats` in *stats and, if the op is traced (trace_op_id != 0), records
  // the async span `name` with `args`. A null `stats` records nothing, a
  // null `name` no span. `start` backdates the phase to an instant taken
  // earlier, for windows known only once they end (l1_hold, l2_wait). It
  // only reads the clock.
  class Phase {
   public:
    using Cat = uint64_t fs::OpStats::*;
    Phase(const NovaFs* fs, fs::OpStats* stats, const char* name,
          std::initializer_list<Cat> cats,
          std::initializer_list<obs::Arg> args = {},
          std::optional<sim::SimTime> start = std::nullopt)
        : fs_(fs),
          stats_(stats),
          name_(name),
          start_(start ? *start : fs->sim_->now()) {
      assert(cats.size() <= std::size(cats_) &&
             args.size() <= std::size(args_));
      for (Cat c : cats) {
        cats_[num_cats_++] = c;
      }
      for (const obs::Arg& a : args) {
        args_[num_args_++] = a;
      }
    }
    ~Phase() { Close(); }
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;
    // Ends the phase now; `more` args follow the constructor's. Later
    // calls do nothing.
    void Close(std::initializer_list<obs::Arg> more = {}) {
      if (fs_ == nullptr) {
        return;
      }
      const sim::SimTime end = fs_->sim_->now();
      fs_ = nullptr;
      if (stats_ == nullptr) {
        return;
      }
      for (uint8_t i = 0; i < num_cats_; ++i) {
        stats_->*cats_[i] += end - start_;
      }
      if (name_ != nullptr && stats_->trace_op_id != 0) {
        Record(end, more);
      }
    }

   private:
    void Record(sim::SimTime end, std::initializer_list<obs::Arg> more);

    const NovaFs* fs_;  // null once closed
    fs::OpStats* stats_;
    const char* name_;
    sim::SimTime start_;
    Cat cats_[2] = {};
    obs::Arg args_[3] = {};
    uint8_t num_cats_ = 0;
    uint8_t num_args_ = 0;
  };

  // Retry/fallback policy for every SN wait issued on behalf of this
  // filesystem (level-2 waits and the byte-movement hooks). Subclasses may
  // override the defaults at construction.
  dma::RetryPolicy recover_policy_{};

  // Zero-fill for holes (DRAM-side memset, charged at DRAM speed).
  void FillZero(std::byte* dst, size_t n, fs::OpStats* stats);

  // One contiguous piece of an op: its offset within the user buffer, its
  // device offset (unless it is a hole) and its length.
  struct ByteRange {
    size_t buf_off;
    uint64_t pmem_off;  // valid when !hole
    size_t bytes;
    bool hole;
  };

  // ---- per-operation scratch buffers ----
  // The read/write hot paths materialize small vectors (segments, byte
  // ranges, extents, SNs, DMA descriptors). Allocating them per operation
  // dominates the simulator's real-time cost, so operations lease a scratch
  // set from a free list instead: capacity persists across operations, and
  // after warmup the steady-state data paths perform no heap allocation.
  // One lease per in-flight operation — a leased set is never shared, so
  // scratch contents survive the task switches inside a modeled operation.
  struct OpScratch {
    std::vector<PageMap::Segment> segs;
    std::vector<ByteRange> ranges;
    std::vector<Extent> extents;
    std::vector<Extent> displaced;
    std::vector<dma::Sn> sns;
    std::vector<dma::Descriptor> batch;
  };

  // ---- byte-movement hooks ----
  // WriteInternal and ReadInternal call these with the inode lock held,
  // except MoveFromPmem in a kind whose reads drop the lock first, and the
  // hooks charge what they move into stats->data_ns. A hook that leaves a
  // transfer in flight returns its DMA channel; the last SN it put in
  // scratch.sns covers the whole transfer.
  //
  // Moves a write's bytes into scratch.ranges (one per fresh extent).
  // Returns nullptr once they are durable, so the commit carries no SNs;
  // a returned channel's SNs go into the log entries and the write waits
  // for them after the lock drops (orderless commit, §4.2). The base
  // copies with the CPU.
  virtual dma::Channel* MoveToPmem(std::span<const std::byte> buf,
                                   OpScratch& scratch, fs::OpStats* stats);
  // Offloads a read of scratch.ranges into `buf`, with the lock held.
  // Returns the channel the read waits on once the lock drops, or nullptr
  // with what is left in scratch.ranges for the CPU. The base offloads
  // nothing.
  virtual dma::Channel* SubmitRead(std::span<std::byte> buf,
                                   OpScratch& scratch, fs::OpStats* stats) {
    return nullptr;
  }
  // Moves one mapped range of a read; the base copies with the CPU.
  virtual void MoveFromPmem(std::byte* dst, uint64_t pmem_off, size_t bytes,
                            fs::OpStats* stats);
  // Drives `ch` until its completion record covers `sn`, through
  // retry/fallback per recover_policy_.
  virtual void RecoverSn(dma::Channel& ch, dma::Sn sn) {
    ch.WaitSnRecover(sn, recover_policy_);
  }

  // Back in the runtime, the uthread yields and parks until `ch`'s
  // completion record covers `sn` (§4.1, RecoverSn). The wait is blocked
  // data time (sn_wait).
  void WaitSn(dma::Channel* ch, dma::Sn sn, fs::OpStats* stats);

  void AddCpuBytes(uint64_t n) { counters_.bytes_cpu += n; }
  void AddDmaBytes(uint64_t n) { counters_.bytes_dma += n; }

 private:
  // In-DRAM inode state, rebuilt from the log at mount.
  struct Inode {
    Inode(sim::Simulation* sim, uint64_t ino, uint64_t slot)
        : ino(ino), slot(slot), lock(sim) {}

    uint64_t ino;
    uint64_t slot;
    bool is_dir = false;
    uint64_t nlink = 1;
    uint64_t size = 0;
    uint64_t mtime_ns = 0;
    uint64_t log_head = 0;   // mirrors PInode
    uint64_t log_tail = 0;   // committed tail (mirrors PInode)
    uint64_t log_next = 0;   // next free slot (>= log_tail; uncommitted)
    uint64_t log_pages = 0;  // pages in the chain (GC trigger)
    PageMap pages;
    std::map<std::string, uint64_t> dentries;  // directories only
    uthread::RwLock lock;  // level-1 file lock

    // The (single) outstanding orderless write (§4.3 ensures at most one
    // per file) and in-flight-read accounting for deferred free.
    // An orderless write puts all its descriptors on one channel, so that
    // channel's last SN alone says when the write is durable.
    dma::Channel* pending_channel = nullptr;
    dma::Sn pending_sn = dma::Sn::None();
    int pending_reads = 0;
    std::vector<Extent> deferred_free;

    int open_count = 0;
    bool unlinked = false;  // free resources on last close
  };

  Inode* ResolveFd(int fd);
  uint64_t PInodeOff(uint64_t slot) const {
    return layout_.inode_table_off + slot * kPInodeSize;
  }

  // Appends a 64-byte entry to the inode's log (allocating/chaining pages as
  // needed); does not commit. Returns OK or allocation failure.
  Status AppendLogEntry(Inode& in, const void* entry);
  // Commits in.log_next as the new persistent tail.
  void CommitLogTail(Inode& in);
  // Drops the entries appended since the committed tail, freeing the log
  // pages they chained; `log_pages` is in.log_pages as of that tail.
  void RewindLog(Inode& in, uint64_t log_pages);

  // Builds and appends the write entries for `extents` (one per extent) and
  // commits; updates DRAM size/mtime/page map and releases displaced blocks.
  // `sns` gives the DMA SN for each extent; empty means the data is
  // already durable (Sn::None). On failure the log is as it was; the caller
  // releases `extents` once no transfer still writes them.
  Status CommitWrite(Inode& in, uint64_t off, size_t n,
                     const std::vector<Extent>& extents,
                     std::span<const dma::Sn> sns, fs::OpStats* stats);

  // Level-2 wait (§4.3): blocks until the inode's outstanding orderless
  // write completes, attributing the wait to stats->blocked_ns (traced as
  // l2_wait). Recovery-aware: a channel halted on a transfer error is
  // driven through retry/fallback per recover_policy_, so the wait always
  // ends with the data durable.
  void WaitPendingWrite(Inode& in, fs::OpStats* stats);

  // NOVA-style log garbage collection (NOVA §3.6): when an inode's log has
  // grown well past what its live entries need, rewrite the live state into
  // a fresh log chain and atomically switch head+tail via the journal.
  // Must be called at an operation boundary (no uncommitted appends) with
  // the file lock / namespace lock held and no pending orderless write.
  void MaybeCompactLog(Inode& in, fs::OpStats* stats);

  // Deferred free: displaced blocks are freed immediately when no reads are
  // in flight, else parked until the last one drains.
  void ReleaseBlocks(Inode& in, const std::vector<Extent>& displaced);
  void OnReadDone(Inode& in);

  // Appends the byte ranges of `segs` intersected with [off, off+n) to
  // *out (which is not cleared).
  static void SegmentsToByteRanges(const std::vector<PageMap::Segment>& segs,
                                   uint64_t off, size_t n,
                                   std::vector<ByteRange>* out);

  class ScratchLease {
   public:
    explicit ScratchLease(NovaFs* fs) : fs_(fs), s_(fs->AcquireScratch()) {}
    ~ScratchLease() { fs_->ReleaseScratch(s_); }
    ScratchLease(const ScratchLease&) = delete;
    ScratchLease& operator=(const ScratchLease&) = delete;
    OpScratch* operator->() const { return s_; }
    OpScratch& operator*() const { return *s_; }

   private:
    NovaFs* fs_;
    OpScratch* s_;
  };
  OpScratch* AcquireScratch();
  void ReleaseScratch(OpScratch* s);

  // The one write routine and the one read routine, entered after fd
  // resolution with the syscall entry charged. Each takes the level-1
  // lock, runs the level-2 wait and drops the lock at one site (the
  // l1_hold span, then the unlock, then the syscall exit charge).
  StatusOr<size_t> WriteInternal(Inode& in, uint64_t off,
                                 std::span<const std::byte> buf, bool append,
                                 fs::OpStats* stats);
  StatusOr<size_t> ReadInternal(Inode& in, uint64_t off,
                                std::span<std::byte> buf, fs::OpStats* stats);
  // Write prologue, entered with the write lock held: charges the index
  // walk over [off, off+n), allocates CoW blocks into scratch.extents and
  // preserves the partially overwritten edge bytes.
  Status PrepareWrite(Inode& in, uint64_t off, size_t n, OpScratch& scratch,
                      fs::OpStats* stats);
  // Read counterpart, entered with the read lock held and n > 0: charges
  // the index walk, maps [off, off+n) into scratch.ranges and registers
  // the read for deferred free (pair with OnReadDone).
  void PrepareRead(Inode& in, uint64_t off, size_t n, OpScratch& scratch,
                   fs::OpStats* stats);
  // Moves the ranges SubmitRead left into `buf` (holes zero-filled, the
  // rest through MoveFromPmem) and ends the read (OnReadDone).
  void CopyOut(Inode& in, std::span<std::byte> buf, const OpScratch& scratch,
               fs::OpStats* stats);
  // Maps the user buffer onto freshly allocated extents: one range per
  // contiguous extent (never a hole), honoring the unaligned head offset.
  // Appends to *out (not cleared).
  static void ChunkifyInto(const std::vector<Extent>& extents, uint64_t off,
                           size_t n, std::vector<ByteRange>* out);

  enum class DataOp { kRead, kWrite, kAppend };
  // Entry and exit shared by Read/Write/Append: charges the syscall entry,
  // rejects a bad fd, a directory or an empty buffer, picks the op's trace
  // id and runs `body(inode, stats)`. The whole op is one phase, so
  // total_ns and cpu_ns are set on every return path.
  template <typename Body>
  StatusOr<size_t> RunDataOp(DataOp op, int fd, uint64_t off, size_t len,
                             fs::OpStats* stats, Body&& body);
  // Copies the preserved head/tail bytes of a partially overwritten edge
  // page from the old mapping into the new blocks.
  void FillWriteEdges(Inode& in, uint64_t off, size_t n,
                      const std::vector<Extent>& extents, fs::OpStats* stats);

  // Entry and exit shared by the path ops (Create, Mkdir, Open, StatPath,
  // Unlink, Link, Rename): charges the syscall entry, takes
  // namespace_lock_ and runs `body()`, a Status or StatusOr. Only an OK
  // result pays the syscall exit, still under the lock; an error returns
  // at once.
  template <typename Body>
  auto RunNamespaceOp(Body&& body);

  // Namespace helpers (all under namespace_lock_).
  StatusOr<Inode*> Walk(const std::vector<std::string>& parts);
  StatusOr<Inode*> ResolvePath(const std::string& path);
  StatusOr<Inode*> ResolveParent(const std::string& path, std::string* leaf);
  StatusOr<Inode*> AllocInode(bool is_dir);
  // Create and Mkdir: a new file or directory named `path`, its dentry and
  // valid bit committed in one journal record.
  StatusOr<Inode*> CreateNode(const std::string& path, bool is_dir);
  Status AppendDentry(Inode& dir, EntryType type, const std::string& name,
                      uint64_t child_ino);
  // DRAM side of a dentry entry the journal has committed: moves dir's
  // tail, adds or removes the name and stamps mtime.
  void ApplyDentry(Inode& dir, EntryType type, const std::string& name,
                   uint64_t child_ino);
  // DRAM side of a name dropped by a committed journal record: one link
  // fewer; at zero the inode is freed now, or on its last close.
  void DropLink(Inode* in);
  // The journal write that commits dir's appended entries.
  JournalRecord::JWrite TailWrite(const Inode& dir) const {
    return {PInodeOff(dir.slot) + offsetof(PInode, log_tail), dir.log_next};
  }
  // Every journaled metadata update goes through here, on the calling
  // core's journal slot.
  void CommitJournal(std::span<const JournalRecord::JWrite> writes);
  // The calling task's core (0 outside a task): the allocator shard and
  // journal slot an op uses.
  int CoreHint() const {
    return sim_->current() != nullptr ? sim_->current()->core() : 0;
  }
  // Frees the log pages from `head` through the page holding `tail`.
  void FreeLogChain(uint64_t head, uint64_t tail);
  void FreeInodeResources(Inode& in);  // blocks + log pages
  void DestroyInode(Inode* in);
  StatusOr<int> AllocFd(Inode* in);
  fs::FileStat StatOf(const Inode& in) const;
  uint64_t CompletedSeqOf(uint8_t channel) const;  // from completion records
  Status RecoverInode(uint64_t slot);

  pmem::SlowMemory* mem_;
  sim::Simulation* sim_;
  Options options_;
  Layout layout_{};
  std::unique_ptr<BlockAllocator> allocator_;
  std::unique_ptr<Journal> journal_;

  const bool read_unlocks_first_;
  uthread::Mutex namespace_lock_;
  std::vector<std::unique_ptr<OpScratch>> scratch_pool_;  // free list
  std::unordered_map<uint64_t, std::unique_ptr<Inode>> inodes_;
  std::vector<uint64_t> free_slots_;
  std::vector<uint64_t> fd_table_;  // fd -> ino (0 = free)
  std::vector<int> free_fds_;
  uint64_t recovery_discarded_entries_ = 0;
  uint64_t recovery_replayed_journals_ = 0;
  uint64_t log_compactions_ = 0;
  Counters counters_;
};

}  // namespace easyio::nova

#endif  // EASYIO_NOVA_NOVA_FS_H_
