// SlowMemory: the simulated slow-memory device (Optane DCPMM array).
//
// A flat byte array plus two FlowResources (read and write direction) that
// arbitrate bandwidth between concurrent CPU streams and DMA channels using
// the calibration in MediaParams. Data movement is real — actual bytes land
// in the array — but its *timing* is virtual, and writes are attributed
// durability at their modeled completion.
//
// Crash-consistency support: persist barriers (fence boundaries) are counted
// and exposed via a hook so the CrashMonkey-style harness can stop the
// simulation at an exact barrier; in-flight write transfers are tracked with
// undo snapshots so a crash image shows only the prefix that had durably
// landed.

#ifndef EASYIO_PMEM_SLOW_MEMORY_H_
#define EASYIO_PMEM_SLOW_MEMORY_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
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
// stale. Writes go through Write() (a copy in) or Mutable() (a
// read-modify-write view); both mark the pages they touch dirty and the
// lines they touch not stale. Because the types force every write through
// them, a page that is not dirty is clean or stale, without reading it; that
// holds for a swapped-out page too.
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
    if (n == 0 || page != (off + n - 1) / kPageBytes || MaybeStale(off, n)) {
      WriteSpan(off, src, n);
      return;
    }
    m_.dirty[page / 64] |= uint64_t{1} << (page % 64);
    std::memcpy(m_.data + off, src, n);
  }

  // The writable view of [off, off+n), stale lines zeroed; marks what it
  // covers.
  std::span<std::byte> Mutable(size_t off, size_t n) {
    assert(off + n <= m_.size);
    Unstale(off, n);
    Mark(off, n);
    return {m_.data + off, n};
  }

  // Zeroes [off, off+n), writing only to dirty pages: the rest read as zero.
  void Zero(size_t off, size_t n);

  // Exchanges the two mappings with their bitmaps; each destructor then
  // parks what it holds.
  void swap(ZeroMappedBytes& other) noexcept { std::swap(m_, other.m_); }

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

  Mapping m_;
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
  // CopyOut) and every write goes through Write(), Mutable() or Zero(), so
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
  // The read-modify-write view of [offset, offset+n), marked.
  std::span<std::byte> Mutable(uint64_t offset, size_t n) {
    return data_.Mutable(offset, n);
  }
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
  // Persist already-written bytes (for in-place structure updates).
  void MetaPersist(uint64_t dst_off, size_t n);
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
  // When enabled, every write transfer snapshots the destination so a crash
  // image can be produced with only the completed prefix applied.
  void EnableCrashTracking() { crash_tracking_ = true; }
  bool crash_tracking() const { return crash_tracking_; }

  // Registers an in-flight write of `n` bytes at `dst_off` whose real memcpy
  // has already been performed eagerly. Returns a token (0 if tracking off).
  uint64_t RegisterInflightWrite(uint64_t dst_off, size_t n);
  // Associates the flow so progress can be queried at crash time.
  void SetInflightFlow(uint64_t token, sim::FlowResource* res,
                       sim::FlowResource::FlowId flow);
  void CompleteInflightWrite(uint64_t token);

  // A crash image is the device contents with every in-flight write rolled
  // back to its completed prefix (64B granularity). There are two ways to
  // get one onto a recovery device:
  //
  //  * Snapshot — CrashImage() + LoadImage(). Copies the whole device twice
  //    and leaves this device untouched, so it can keep running (e.g. to take
  //    a second image later, or to compare before/after completion).
  //  * Hand-off — recovery.AdoptCrashImage(crashed). Copies nothing: the
  //    rollback happens in place and the mapping moves to the recovery
  //    device. Use it when the crashed device is done, as after every crash
  //    point of a CrashMonkey sweep.
  //
  // Both produce byte-identical images (tests/crashmonkey_test.cc).

  // Snapshot: a copy of the post-crash image.
  std::vector<std::byte> CrashImage() const;

  // Overwrites the device contents (used to mount a snapshot).
  void LoadImage(const std::vector<std::byte>& image);

  // Hand-off: makes `crashed`'s post-crash image this device's contents.
  // Rolls `crashed`'s in-flight writes back in place, then swaps the two
  // backing stores with their bitmaps, so `crashed` ends up holding this
  // device's fresh mapping, which reads all-zero, and no in-flight writes.
  // Its simulation, flows and suspended tasks may still be torn down
  // afterwards; anything they touch lands, marked, in that spare mapping.
  // Requires equal sizes and no in-flight writes on this device.
  void AdoptCrashImage(SlowMemory& crashed);

 private:
  double ReadDerate() const;
  double WriteDerate() const;
  void CrossPoke(sim::FlowResource* target, double* last_util,
                 sim::FlowResource* source, double source_total);
  // The poke record's action (arg: this, tag: 1 to poke the write
  // direction, 0 the read one).
  static bool RunCrossPoke(void* mem, uint64_t poke_write);
  // Calls restore(off, undo, n) for each in-flight write whose last n bytes,
  // at `off`, are not yet durable and must read as `undo` in a crash image.
  template <typename Fn>
  void ForEachRollback(Fn restore) const;

  struct Inflight {
    uint64_t dst_off;
    size_t n;
    std::unique_ptr<std::byte[]> undo;
    sim::FlowResource* res = nullptr;
    sim::FlowResource::FlowId flow = 0;
  };

  sim::Simulation* sim_;
  MediaParams params_;
  ZeroMappedBytes data_;
  std::unique_ptr<sim::FlowResource> read_flows_;
  std::unique_ptr<sim::FlowResource> write_flows_;
  uint64_t barriers_ = 0;
  std::function<void(uint64_t)> barrier_hook_;
  bool crash_tracking_ = false;
  uint64_t next_token_ = 1;
  std::unordered_map<uint64_t, Inflight> inflight_;
  double read_poke_util_ = 0;
  double write_poke_util_ = 0;
  bool poke_pending_ = false;
};

}  // namespace easyio::pmem

#endif  // EASYIO_PMEM_SLOW_MEMORY_H_
