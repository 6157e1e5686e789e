// Isolated loops over each layer's public API, with call mixes shaped like
// the fxmark workloads: 4 KiB and 64 KiB transfers, ~8 live flows (4 cores x
// 2 uthreads), a 4 MiB file's page range. They give host ns per call for the
// per-layer metrics; the simulated results of the loops are not used.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <functional>

#include "hostbench/hostbench.h"
#include "src/common/rng.h"
#include "src/dma/dma_engine.h"
#include "src/nova/allocator.h"
#include "src/nova/layout.h"
#include "src/nova/page_map.h"
#include "src/sim/flow_resource.h"

namespace hostbench {

namespace easy = easyio;

namespace {

constexpr uint64_t kSmall = 4096;
constexpr uint64_t kLarge = 65536;
constexpr uint64_t kDataOff = 1ull << 20;

// Runs `body` (which returns the number of calls it made) `repeats` times
// and returns the median host ns per call.
double MedianNsPerCall(int repeats, const std::function<uint64_t()>& body) {
  std::vector<double> ns;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = NowS();
    const uint64_t calls = body();
    ns.push_back((NowS() - t0) * 1e9 / static_cast<double>(calls));
  }
  return Median(ns);
}

uint64_t YieldLoop(uint64_t iters) {
  easy::sim::Simulation sim({.num_cores = 1});
  uint64_t remaining = iters;
  for (int t = 0; t < 2; ++t) {
    sim.Spawn(0, [&sim, &remaining] {
      while (remaining > 0) {
        remaining--;
        sim.Advance(50);
        sim.Yield();
      }
    });
  }
  sim.Run();
  return sim.context_switches();
}

uint64_t EventLoop(uint64_t iters) {
  easy::sim::Simulation sim({.num_cores = 1});
  easy::Rng rng(23);
  uint64_t fired = 0;
  std::vector<easy::sim::EventId> cancelable;
  for (uint64_t i = 0; i < iters; ++i) {
    sim.ScheduleAfter(1 + rng.Below(200), [&fired] { fired++; });
    if (i % 4 == 0) {
      cancelable.push_back(
          sim.ScheduleAfter(100 + rng.Below(4000), [&fired] { fired++; }));
    }
    if (i % 5 == 0 && !cancelable.empty()) {
      sim.Cancel(cancelable.back());
      cancelable.pop_back();
    }
    sim.RunFor(150);
  }
  sim.Run();
  if (fired == 0) {
    std::fprintf(stderr, "hostbench: event loop fired nothing\n");
  }
  return iters;
}

uint64_t FlowLoop(uint64_t iters) {
  easy::sim::Simulation sim({.num_cores = 1});
  easy::sim::CapacityModel model;
  model.cpu_aggregate = [](int) { return 8.0; };
  model.dma_aggregate = [](int) { return 6.0; };
  model.total = 12.0;
  easy::sim::FlowResource res(&sim, "hostbench", model);
  easy::Rng rng(11);
  std::vector<easy::sim::FlowResource::FlowId> live;
  for (uint64_t i = 0; i < iters; ++i) {
    live.push_back(res.StartFlow(
        rng.Below(2) == 0 ? kSmall : kLarge, 2.0,
        i % 3 == 0 ? easy::sim::FlowType::kCpu : easy::sim::FlowType::kDma,
        [] {}));
    if (live.size() >= 8) {
      const size_t k = rng.Below(live.size());
      if (res.HasFlow(live[k])) {
        res.CancelFlow(live[k]);
      }
      live[k] = live.back();
      live.pop_back();
      sim.RunFor(2000);
      std::erase_if(live, [&res](easy::sim::FlowResource::FlowId id) {
        return !res.HasFlow(id);
      });
    }
  }
  sim.Run();
  return iters;
}

uint64_t DmaLoop(uint64_t iters) {
  easy::sim::Simulation sim({.num_cores = 1});
  easy::pmem::SlowMemory mem(&sim, easy::pmem::MediaParams::TwoNode(),
                             16ull << 20);
  easy::dma::DmaEngine engine(&mem, 0, 4);
  std::vector<std::byte> buf(kLarge, std::byte{0x3c});
  uint64_t errors = 0;
  sim.Spawn(0, [&] {
    for (uint64_t i = 0; i < iters; ++i) {
      easy::dma::Descriptor d;
      d.dir = i % 2 == 0 ? easy::dma::Descriptor::Dir::kWrite
                         : easy::dma::Descriptor::Dir::kRead;
      d.pmem_off = kDataOff + (i % 128) * kLarge;
      d.dram = buf.data();
      d.size = static_cast<uint32_t>(i % 4 < 2 ? kSmall : kLarge);
      easy::dma::Channel& ch = engine.channel(static_cast<int>(i % 4));
      if (ch.WaitSn(ch.Submit(std::move(d))) != easy::dma::DmaResult::kOk) {
        errors++;
      }
    }
  });
  sim.Run();
  if (errors != 0) {
    std::fprintf(stderr, "hostbench: dma loop saw %llu errors\n",
                 static_cast<unsigned long long>(errors));
  }
  return iters;
}

uint64_t CopyLoop(uint64_t iters) {
  easy::sim::Simulation sim({.num_cores = 1});
  easy::pmem::SlowMemory mem(&sim, easy::pmem::MediaParams::TwoNode(),
                             16ull << 20);
  std::vector<std::byte> buf(kLarge, std::byte{0x5a});
  sim.Spawn(0, [&] {
    for (uint64_t i = 0; i < iters; ++i) {
      const uint64_t n = i % 4 < 2 ? kSmall : kLarge;
      const uint64_t off = kDataOff + (i % 128) * kLarge;
      if (i % 2 == 0) {
        mem.CpuWrite(off, buf.data(), n);
      } else {
        mem.CpuRead(buf.data(), off, n);
      }
    }
  });
  sim.Run();
  return iters;
}

uint64_t PageMapLoop(uint64_t iters) {
  easy::nova::PageMap map;
  easy::Rng rng(31);
  uint64_t sink = 0;
  for (uint64_t i = 0; i < iters; ++i) {
    const uint64_t pages = rng.Below(2) == 0 ? 1 : 16;
    const uint64_t pgoff = rng.Below(1024 / pages) * pages;
    map.Insert(pgoff, pages, kDataOff + i * easy::nova::kBlockSize, 0);
    for (const auto& seg : map.Lookup(pgoff, pages)) {
      sink += seg.block_off;
    }
  }
  if (sink == 0) {
    std::fprintf(stderr, "hostbench: pagemap loop looked up nothing\n");
  }
  return iters;
}

uint64_t AllocLoop(uint64_t iters) {
  easy::nova::BlockAllocator alloc(kDataOff, 1 << 18, 16);
  easy::Rng rng(7);
  std::deque<easy::nova::Extent> held;
  for (uint64_t i = 0; i < iters; ++i) {
    auto e = alloc.Alloc(rng.Below(2) == 0 ? 1 : 16, static_cast<int>(i % 16));
    if (e.ok()) {
      held.push_back(*e);
    }
    // Copy-on-write steady state: each new extent retires an old one.
    if (held.size() > 256 || (!e.ok() && !held.empty())) {
      alloc.Free(held.front());
      held.pop_front();
    }
  }
  return iters;
}

}  // namespace

LayerLoops RunLayerLoops(double scale, int repeats) {
  auto n = [scale](double base) {
    return std::max<uint64_t>(16, static_cast<uint64_t>(base * scale));
  };
  LayerLoops out;
  Span span("layers.loops");
  out.yield_ns = MedianNsPerCall(repeats, [&] { return YieldLoop(n(1e5)); });
  out.event_ns = MedianNsPerCall(repeats, [&] { return EventLoop(n(2e5)); });
  out.flow_recompute_ns =
      MedianNsPerCall(repeats, [&] { return FlowLoop(n(3e4)); });
  out.submit_wait_ns =
      MedianNsPerCall(repeats, [&] { return DmaLoop(n(2e4)); });
  out.copy_ns = MedianNsPerCall(repeats, [&] { return CopyLoop(n(2e4)); });
  out.pagemap_ns =
      MedianNsPerCall(repeats, [&] { return PageMapLoop(n(2e5)); });
  out.alloc_ns = MedianNsPerCall(repeats, [&] { return AllocLoop(n(2e5)); });
  return out;
}

}  // namespace hostbench
