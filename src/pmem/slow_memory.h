// SlowMemory: the simulated slow-memory device (Optane DCPMM array).
//
// A flat byte array plus two FlowResources (read and write direction) that
// arbitrate bandwidth between concurrent CPU streams and DMA channels using
// the calibration in MediaParams. Data movement is real — actual bytes land
// in the array — but its *timing* is virtual, and a write's payload lands
// when its modeled transfer completes; until then the range reads old bytes.
//
// Crash-consistency support: persist barriers (fence boundaries) are counted
// and exposed via a hook so the CrashMonkey-style harness can stop the
// simulation at an exact barrier; each in-flight write is a write flow that
// carries its landing (destination and source buffer), so a crash image can
// lay each one's durable prefix over the device.

#ifndef EASYIO_PMEM_SLOW_MEMORY_H_
#define EASYIO_PMEM_SLOW_MEMORY_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/pmem/media_params.h"
#include "src/sim/flow_resource.h"
#include "src/sim/simulation.h"

namespace easyio::pmem {

// Demand-zero backing store for the modeled device. Semantically identical
// to a value-initialized std::vector<std::byte> (every byte reads as zero
// until written) but backed by an anonymous mmap, so constructing a 512 MiB
// device costs a page-table entry, not a half-gigabyte memset. Benchmarks pay
// for the pages the workload actually touches, nothing more.
//
// Mappings are recycled, never unmapped, and keep every page they ever
// mapped. Two bitmaps move with the mapping:
//  * dirty, one bit per 4 KiB page: the current owner wrote to the page;
//  * stale, one bit per 64-byte line: an earlier owner wrote to the line's
//    page, and the current owner has not touched the line since. Its bytes
//    are junk, but it reads as zero: the first access of its new owner
//    zeroes it.
// A page is therefore clean (all zero, no bit set), stale (every line
// stale), dirty, or dirty with the lines its owner has not touched still
// stale. Writes go through Write() (a copy in), which marks the pages it
// touches dirty and the lines it touches not stale, or Zero(), which writes
// only to dirty pages. Because the types force every write through them, a
// page that is not dirty is clean or stale, without reading it; that holds
// for a swapped-out page too.
//
// Reads go through Read(), which zeroes the stale lines in its range first,
// or CopyOut(), which copies a stale line out as zeros and leaves it stale;
// both test one bitmap word inline first. Write() zeroes only a stale line
// it covers partly, so a write over whole lines pays no memset, and a small
// first touch of a stale page zeroes a line or two, not the page. data()
// zeroes every stale line of the mapping before handing out the whole array:
// it costs a scan of the bitmap plus a memset per stale run, and is meant
// for tests and crash images.
//
// Release memsets nothing: the destructor turns every line of each dirty
// page stale and parks the mapping in a process-wide pool. The constructor
// takes the parked mapping of exactly `size` bytes that holds the most
// pages, else mmaps a new one. A device therefore always starts reading
// all-zero with no dirty page, whichever mapping it gets.
//
// An undo session makes a stretch of writes temporary. Between BeginUndo()
// and Rollback(), the first Write(), Zero() or stale-line zeroing to touch
// a page saves the page's bytes, dirty bit and stale word first;
// Rollback() puts every saved page back. Outside a session the write paths
// pay one test of the session pointer.
class ZeroMappedBytes {
 public:
  explicit ZeroMappedBytes(size_t size);
  ~ZeroMappedBytes();

  ZeroMappedBytes(const ZeroMappedBytes&) = delete;
  ZeroMappedBytes& operator=(const ZeroMappedBytes&) = delete;

  // The whole array, every stale line zeroed first.
  const std::byte* data() const {
    ZeroStale(0, pages() * 64);
    return m_.data;
  }
  size_t size() const { return m_.size; }

  // [off, off+n) for reading, its stale lines zeroed first.
  std::span<const std::byte> Read(size_t off, size_t n) const {
    assert(off + n <= m_.size);
    Unstale(off, n);
    return {m_.data + off, n};
  }

  // Copies [off, off+n) to dst. A stale line copies out as zeros and stays
  // stale: the copy zeroes its destination, not the device.
  void CopyOut(void* dst, size_t off, size_t n) const {
    assert(off + n <= m_.size);
    if (MaybeStale(off, n)) {
      CopyOutStale(dst, off, n);
    } else {
      std::memcpy(dst, m_.data + off, n);
    }
  }

  // Copies [src, src+n) to [off, off+n) and marks what it covers. Inline
  // for the common case, a write within one page that has no stale line in
  // its range.
  void Write(size_t off, const void* src, size_t n) {
    assert(off + n <= m_.size);
    const size_t page = off / kPageBytes;
    if (n == 0 || page != (off + n - 1) / kPageBytes || MaybeStale(off, n) ||
        undo_ != nullptr) {
      WriteSpan(off, src, n);
      return;
    }
    m_.dirty[page / 64] |= uint64_t{1} << (page % 64);
    std::memcpy(m_.data + off, src, n);
  }

  // Zeroes [off, off+n), writing only to dirty pages: the rest read as zero.
  void Zero(size_t off, size_t n);

  // Exchanges the two mappings with their bitmaps; each destructor then
  // parks what it holds. Neither may have an undo session open.
  void swap(ZeroMappedBytes& other) noexcept {
    assert(undo_ == nullptr && other.undo_ == nullptr);
    std::swap(m_, other.m_);
  }

  // Opens an undo session; see the class comment.
  void BeginUndo();
  // Restores every page the session saved and closes it.
  void Rollback();

 private:
  static constexpr size_t kPageBytes = 4096;
  static constexpr size_t kLineBytes = 64;  // a stale word is one page

  struct Mapping {
    std::byte* data = nullptr;
    size_t size = 0;
    std::vector<uint64_t> dirty;  // pages written by the current owner
    // Lines of pages an earlier owner wrote that this one has not touched,
    // one word per page. The words live in the mapping, past its last
    // page, so a word no owner ever set costs no memory. Zeroing a stale
    // line is invisible to readers, so const reads may do it.
    uint64_t* stale = nullptr;
    std::vector<uint64_t> held;   // pages written by any owner: mapped
    size_t held_pages = 0;        // popcount of `held`, as of the last park
  };
  class Pool;
  struct UndoLog;

  size_t pages() const { return (m_.size + kPageBytes - 1) / kPageBytes; }
  // Bits lo..hi (inclusive) of a bitmap word.
  static uint64_t Bits(size_t lo, size_t hi) {
    return (~uint64_t{0} >> (63 - hi)) & (~uint64_t{0} << lo);
  }
  // Calls fn(word index, bits) for each bitmap word bits [first, end) cover.
  template <typename Fn>
  static void ForEachWord(size_t first, size_t end, Fn fn);
  // Whether a line [off, off+n) touches may be stale: exact within one page,
  // else true.
  bool MaybeStale(size_t off, size_t n) const {
    if (n == 0) {
      return false;
    }
    const size_t first = off / kLineBytes;
    const size_t last = (off + n - 1) / kLineBytes;
    return first / 64 != last / 64 ||
           (m_.stale[first / 64] & Bits(first % 64, last % 64)) != 0;
  }
  // Zeroes the stale lines among those [off, off+n) touches.
  void Unstale(size_t off, size_t n) const {
    if (MaybeStale(off, n)) {
      ZeroStale(off / kLineBytes, (off + n - 1) / kLineBytes + 1);
    }
  }
  // Zeroes the stale lines in [first, end) and makes them clean.
  void ZeroStale(size_t first, size_t end) const;
  void CopyOutStale(void* dst, size_t off, size_t n) const;
  void WriteSpan(size_t off, const void* src, size_t n);
  // Makes the pages [off, off+n) touches dirty and its lines not stale.
  void Mark(size_t off, size_t n);
  // Saves each page [off, off+n) touches that the open session has not
  // saved yet. Const for ZeroStale, whose zeroing readers cannot see.
  void SaveForUndo(size_t off, size_t n) const;

  Mapping m_;
  std::unique_ptr<UndoLog> undo_;  // the open undo session, if any
};

class SlowMemory {
 public:
  SlowMemory(sim::Simulation* sim, const MediaParams& params, size_t size);

  SlowMemory(const SlowMemory&) = delete;
  SlowMemory& operator=(const SlowMemory&) = delete;

  size_t size() const { return data_.size(); }
  const MediaParams& params() const { return params_; }
  sim::Simulation* simulation() const { return sim_; }

  // Direct access to the persistent array (zero simulated cost; callers
  // charge their own modeled costs). Every read is ranged (As, Read,
  // CopyOut) and every write goes through Write() or Zero(), so
  // that the backing store knows which pages a released device leaves
  // behind (see ZeroMappedBytes).
  template <typename T>
  const T* As(uint64_t offset) const {
    return reinterpret_cast<const T*>(data_.Read(offset, sizeof(T)).data());
  }
  std::span<const std::byte> Read(uint64_t offset, size_t n) const {
    return data_.Read(offset, n);
  }
  // Copies [offset, offset+n) to dst; see ZeroMappedBytes::CopyOut.
  void CopyOut(void* dst, uint64_t offset, size_t n) const {
    data_.CopyOut(dst, offset, n);
  }
  void Write(uint64_t offset, const void* src, size_t n) {
    data_.Write(offset, src, n);
  }
  // The whole array (every stale line zeroed first; see ZeroMappedBytes).
  // For tests; the simulator reads through As(), Read() and CopyOut().
  const std::byte* raw() const { return data_.data(); }
  // Zeroes [offset, offset+n) at the cost of only the pages this device
  // wrote: on a fresh device it writes nothing.
  void Zero(uint64_t offset, size_t n) { data_.Zero(offset, n); }

  // ---- CPU data path (must be called from inside a task) ----
  // Synchronous copies through load/store: the calling task's core is held
  // busy for the whole (contention-dependent) duration.
  void CpuWrite(uint64_t dst_off, const void* src, size_t n);
  void CpuRead(void* dst, uint64_t src_off, size_t n);

  // ---- Metadata path ----
  // Small persisted store (store + clwb + fence). Performs the real copy,
  // charges the modeled latency, and marks a persist barrier.
  void MetaWrite(uint64_t dst_off, const void* src, size_t n);
  uint64_t MetaCostNs(size_t n) const;

  // Marks a legal crash point (everything modeled-durable before it survives,
  // nothing after).
  void PersistBarrier();
  uint64_t barrier_count() const { return barriers_; }
  // Hook fired after each barrier with its index (1-based); the crash harness
  // uses it to stop the run at a chosen barrier.
  void set_barrier_hook(std::function<void(uint64_t)> hook) {
    barrier_hook_ = std::move(hook);
  }

  // ---- Flow plumbing (used by the DMA engine and CpuWrite/CpuRead) ----
  sim::FlowResource& read_flows() { return *read_flows_; }
  sim::FlowResource& write_flows() { return *write_flows_; }

  // ---- Crash tracking ----
  // The in-flight writes are the write direction's active flows: CpuWrite
  // and a DMA channel start each with its landing, and the submitter keeps
  // the source buffer stable until the flow completes. Crash images lay
  // their durable prefixes only once tracking is enabled.
  void EnableCrashTracking() { crash_tracking_ = true; }

  // A crash image is the device contents with each in-flight write's
  // completed prefix (64B granularity) laid over it. There are two ways to
  // get one onto a recovery device:
  //
  //  * Snapshot — CrashImage() + LoadImage(). Copies the whole device twice
  //    and leaves this device untouched, so it can keep running (e.g. to take
  //    a second image later, or to compare before/after completion).
  //  * In place — crashed.LendCrashImage(recovery), recover on `recovery`,
  //    then crashed.ReclaimCrashImage(recovery). Copies the prefixes and the
  //    pages recovery writes, nothing else: the mapping itself moves to the
  //    recovery device and back, and whatever was written to it in between
  //    is rolled back. A stopped run then resumes as if it had never been
  //    looked at, as at every stop of a CrashMonkey sweep.
  //
  // Both produce byte-identical images (tests/crashmonkey_test.cc).

  // Snapshot: a copy of the post-crash image.
  std::vector<std::byte> CrashImage() const;

  // Overwrites the device contents (used to mount a snapshot).
  void LoadImage(const std::vector<std::byte>& image);

  // In place: makes this device's post-crash image `recovery`'s contents.
  // Swaps the two backing stores with their bitmaps, opens an undo session
  // on the lent one and lands this device's durable prefixes on it. Until
  // ReclaimCrashImage, this device holds `recovery`'s spare mapping, and
  // its simulation must not run: a transfer completing meanwhile would land
  // in the spare. Requires equal sizes and no in-flight writes on
  // `recovery`.
  void LendCrashImage(SlowMemory& recovery);
  // Rolls back everything written to the lent mapping since
  // LendCrashImage, the prefixes included, and swaps it back.
  void ReclaimCrashImage(SlowMemory& recovery);

 private:
  double ReadDerate() const;
  double WriteDerate() const;
  void CrossPoke(sim::FlowResource* target, double* last_util,
                 sim::FlowResource* source, double source_total);
  // The poke record's action (arg: this, tag: 1 to poke the write
  // direction, 0 the read one).
  static void RunCrossPoke(void* mem, uint64_t poke_write);
  // With crash tracking on, calls land(off, src, n) for each in-flight
  // write whose first n bytes, from `src` to `off`, are durable and belong
  // in a crash image.
  template <typename Fn>
  void ForEachDurablePrefix(Fn land) const;

  sim::Simulation* sim_;
  MediaParams params_;
  ZeroMappedBytes data_;
  std::unique_ptr<sim::FlowResource> read_flows_;
  std::unique_ptr<sim::FlowResource> write_flows_;
  uint64_t barriers_ = 0;
  std::function<void(uint64_t)> barrier_hook_;
  bool crash_tracking_ = false;
  double read_poke_util_ = 0;
  double write_poke_util_ = 0;
  sim::Simulation::Timer poke_;  // armed while a cross-poke is pending
};

}  // namespace easyio::pmem

#endif  // EASYIO_PMEM_SLOW_MEMORY_H_
