// Calibration tables for the simulated slow-memory device (Optane DCPMM) and
// the on-chip DMA engine (I/OAT), encoding the measured curves of the paper's
// §2.1-2.2 (Figs 1-4) and §6.1 (peak bandwidths).
//
// All of the paper's conclusions are *shape* statements (who wins, where the
// crossover falls); the parameters below are the single place where those
// shapes are encoded, so EXPERIMENTS.md can trace every reproduced curve back
// to a line here.

#ifndef EASYIO_PMEM_MEDIA_PARAMS_H_
#define EASYIO_PMEM_MEDIA_PARAMS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace easyio::pmem {

// Piecewise log2(size)-linear curve over {4K, 8K, 16K, 32K, 64K}; clamped
// outside the range. Used for per-stream bandwidth caps that depend on I/O
// size (small I/Os cannot reach streaming bandwidth).
struct SizeCurve {
  double at_4k;
  double at_8k;
  double at_16k;
  double at_32k;
  double at_64k;

  double Lookup(size_t io_size) const {
    const double pts[5] = {at_4k, at_8k, at_16k, at_32k, at_64k};
    if (io_size <= 4096) {
      return at_4k;
    }
    if (io_size >= 65536) {
      return at_64k;
    }
    const double idx = std::log2(static_cast<double>(io_size)) - 12.0;
    const int lo = std::clamp(static_cast<int>(idx), 0, 3);
    const double frac = idx - lo;
    return pts[lo] + (pts[lo + 1] - pts[lo]) * frac;
  }
};

struct MediaParams {
  // ---- Device ceilings (GiB/s) ----
  double read_total_gbps = 37.6;   // §6.1: all 6 DIMMs, both sockets
  double write_total_gbps = 13.2;

  // ---- CPU (load/store) path ----
  // Per-stream (single core) caps by I/O size.
  SizeCurve cpu_read_cap{2.6, 3.1, 3.6, 4.1, 4.6};
  SizeCurve cpu_write_cap{2.6, 3.4, 4.2, 4.8, 5.2};
  // Optane's CPU-write behaviour has two regimes (Fig 2 + Fig 9):
  //  * concave ramp-up — the XPBuffer limits aggregate CPU-write bandwidth
  //    at low concurrency, so aggregate(n) = total * n / (n + concavity)
  //    (a single stream sees ~total/ (1+concavity); full bandwidth needs
  //    many writers — why NOVA's 16K writes peak only at 16 cores);
  //  * collapse — beyond `degrade_start` writers the total *declines*
  //    toward `degrade_floor` (why NOVA's throughput drops at high core
  //    counts).
  double cpu_write_concavity = 2.14;
  int cpu_write_degrade_start = 18;
  double cpu_write_degrade_per_stream = 0.05;
  double cpu_write_degrade_floor = 0.45;

  // ---- DMA engine ----
  int dma_engines = 2;  // one per socket
  // Per-channel caps by I/O size (GiB/s). Reads are the weak side of I/OAT
  // (§2.2 takeaway 2): a single channel reads at ~3 GiB/s max.
  SizeCurve dma_write_chan_cap{2.4, 3.9, 6.0, 6.5, 6.8};
  SizeCurve dma_read_chan_cap{2.2, 3.4, 4.6, 5.6, 6.5};
  // After each descriptor the channel stays busy for an extra
  // `elapsed * cooldown_factor` before fetching the next one. Reads pay a
  // full extra transfer time (I/OAT's read path round-trips), which is what
  // makes single-shot DMA reads fast (Fig 8) while sustained one-channel
  // read bandwidth stays ~3 GiB/s (Figs 2-3).
  double dma_read_cooldown_factor = 1.0;
  double dma_write_cooldown_factor = 0.0;

  // Cross-direction interference on the media (Fig 4: bulk writes more than
  // double foreground read latency): the fraction of read capacity lost at
  // full write utilization, and vice versa.
  double read_loss_at_full_write = 0.55;
  double write_loss_at_full_read = 0.15;
  // Aggregate DMA caps per engine given n active channels on that engine.
  // Writes *shrink* as channels are added (Fig 3 left): base - slope*(n-1).
  double dma_write_agg_base = 6.8;
  double dma_write_agg_slope = 0.45;
  double dma_write_agg_floor = 2.5;
  // Reads never decline and plateau at ~6 GiB/s per engine (Fig 3 right).
  double dma_read_agg = 6.0;

  // Descriptor costs. `submit` is CPU-side (prepare + MMIO doorbell);
  // batching pays `submit` once plus `batch_extra` per additional
  // descriptor. `startup` is the engine-side gap between descriptors in a
  // channel (fetch + launch), which is what makes small DMA I/Os lose to
  // memcpy (§2.2 takeaway 3).
  uint64_t dma_submit_ns = 600;
  uint64_t dma_batch_extra_ns = 150;
  uint64_t dma_startup_ns = 500;
  // CHANCMD suspend/resume cost (§4.4: 74 ns).
  uint64_t chancmd_ns = 74;
  // A suspended in-flight descriptor restarts from scratch on resume if it
  // was less than this fraction complete (§4.4 restart semantics).
  double suspend_restart_threshold = 0.5;

  // ---- Software path costs (Fig 1 breakdown) ----
  uint64_t syscall_enter_ns = 700;  // syscall & VFS, charged on entry...
  uint64_t syscall_exit_ns = 500;   // ...and on exit
  uint64_t index_base_ns = 300;     // in-DRAM radix lookup
  uint64_t index_per_page_ns = 40;
  uint64_t meta_write_base_ns = 180;   // one persisted store + fence
  uint64_t meta_write_per_cl_ns = 60;  // per 64B cacheline
  uint64_t meta_write_fixed_ns = 800;  // per-write inode/VFS bookkeeping
  uint64_t alloc_per_page_ns = 140;    // allocator bookkeeping per 4K page
  uint64_t uthread_switch_ns = 120;    // userspace context switch (§2.3)

  // ---- Derived helpers ----
  double CpuWriteAggregate(int n_streams) const {
    if (n_streams <= 0) {
      return 0;
    }
    const double n = static_cast<double>(n_streams);
    const double ramp = n / (n + cpu_write_concavity);
    double degrade = 1.0;
    if (n_streams > cpu_write_degrade_start) {
      degrade -= cpu_write_degrade_per_stream *
                 (n_streams - cpu_write_degrade_start);
    }
    degrade = std::max(degrade, cpu_write_degrade_floor);
    return write_total_gbps * ramp * degrade;
  }

  double CpuReadAggregate(int n_streams) const {
    return n_streams <= 0 ? 0 : read_total_gbps;
  }

  // Aggregate DMA capacity with n channels active machine-wide, assuming the
  // channel manager spreads them across engines.
  double DmaWriteAggregate(int n_channels) const {
    if (n_channels <= 0) {
      return 0;
    }
    const int engines = std::min(dma_engines, n_channels);
    const int per_engine = (n_channels + engines - 1) / engines;
    const double per = std::max(
        dma_write_agg_floor,
        dma_write_agg_base - dma_write_agg_slope * (per_engine - 1));
    return per * engines;
  }

  double DmaReadAggregate(int n_channels) const {
    if (n_channels <= 0) {
      return 0;
    }
    return dma_read_agg * std::min(dma_engines, n_channels);
  }

  // The testbed of §2.2: a single NUMA node with 3 of the 6 DCPMMs.
  static MediaParams OneNode() {
    MediaParams p;
    p.read_total_gbps = 15.5;
    p.write_total_gbps = 6.2;
    p.cpu_read_cap = SizeCurve{2.2, 2.7, 3.2, 3.7, 4.2};
    p.cpu_write_cap = SizeCurve{2.0, 2.5, 3.0, 3.3, 3.6};
    p.cpu_write_concavity = 0.72;  // agg(1) ~= the 64K per-stream cap
    p.cpu_write_degrade_start = 5;
    p.dma_engines = 1;
    return p;
  }

  // The full evaluation testbed of §6.1 (both sockets, 6 DCPMMs).
  static MediaParams TwoNode() { return MediaParams{}; }

  // A DSA-flavoured preset for the paper's §5 discussion: faster small-I/O
  // handling and stronger reads than I/OAT.
  static MediaParams Dsa() {
    MediaParams p;
    p.dma_submit_ns = 250;  // SVM: no pinning, direct virtual addresses
    p.dma_batch_extra_ns = 60;
    p.dma_startup_ns = 200;
    p.dma_write_chan_cap = SizeCurve{4.0, 5.5, 7.0, 7.6, 8.0};
    p.dma_read_chan_cap = SizeCurve{3.0, 4.2, 5.4, 6.2, 6.6};
    p.dma_read_agg = 12.0;
    p.dma_write_agg_base = 8.2;
    return p;
  }
};

}  // namespace easyio::pmem

#endif  // EASYIO_PMEM_MEDIA_PARAMS_H_
