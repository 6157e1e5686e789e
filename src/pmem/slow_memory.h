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
// The bytes are read-only except through Mutable(), which marks every 4 KiB
// page it hands out in a dirty bitmap that belongs to the mapping. Because
// the types force every write through that call, a page the bitmap does not
// mark is zero, without reading it; that holds for a swapped-out page too.
//
// Mappings are recycled, never unmapped, and keep every page they ever
// mapped. The destructor memsets exactly the marked pages back to zero, in
// coalesced runs, clears the bitmap and parks the mapping in a process-wide
// pool. The constructor takes the parked mapping of exactly `size` bytes
// that holds the most pages, else mmaps a new one. A device therefore always
// starts all-zero with a clear bitmap, whichever mapping it gets.
class ZeroMappedBytes {
 public:
  explicit ZeroMappedBytes(size_t size);
  ~ZeroMappedBytes();

  ZeroMappedBytes(const ZeroMappedBytes&) = delete;
  ZeroMappedBytes& operator=(const ZeroMappedBytes&) = delete;

  const std::byte* data() const { return m_.data; }
  size_t size() const { return m_.size; }

  // The writable view of [off, off+n); marks the pages it covers.
  std::span<std::byte> Mutable(size_t off, size_t n) {
    assert(off + n <= m_.size);
    if (n > 0) {
      for (size_t p = off / kPageBytes; p <= (off + n - 1) / kPageBytes; ++p) {
        m_.dirty[p / 64] |= uint64_t{1} << (p % 64);
      }
    }
    return {m_.data + off, n};
  }

  // Zeroes [off, off+n), writing only to marked pages: the rest are zero.
  void Zero(size_t off, size_t n);

  // Exchanges the two mappings with their bitmaps; each destructor then
  // scrubs and parks what it holds.
  void swap(ZeroMappedBytes& other) noexcept { std::swap(m_, other.m_); }

 private:
  static constexpr size_t kPageBytes = 4096;

  struct Mapping {
    std::byte* data = nullptr;
    size_t size = 0;
    std::vector<uint64_t> dirty;  // pages written by the current owner
    std::vector<uint64_t> held;   // pages written by any owner: mapped
    size_t held_pages = 0;        // popcount of `held`, as of the last park
  };
  class Pool;

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

  // Raw access to the persistent array (zero simulated cost; callers charge
  // their own modeled costs). Reads are direct; every write goes through
  // Mutable() or Zero(), so that the backing store knows which pages to
  // scrub when the device is released (see ZeroMappedBytes).
  template <typename T>
  const T* As(uint64_t offset) const {
    return reinterpret_cast<const T*>(data_.data() + offset);
  }
  const std::byte* raw() const { return data_.data(); }
  // The only writable view of the array: [offset, offset+n), marked.
  std::span<std::byte> Mutable(uint64_t offset, size_t n) {
    return data_.Mutable(offset, n);
  }
  // Zeroes [offset, offset+n) at the cost of only the pages ever written:
  // on a fresh device it writes nothing.
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
  // backing stores with their dirty bitmaps, so `crashed` ends up holding
  // this device's fresh all-zero mapping and no in-flight writes. Its
  // simulation, flows and suspended tasks may still be torn down afterwards;
  // anything they touch lands, marked, in that spare mapping. Requires equal
  // sizes and no in-flight writes on this device.
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
    std::vector<std::byte> undo;
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
