// Testbed: one-stop construction of the paper's evaluation machine — the
// simulated 36-core / 2-socket box with 6 Optane DCPMMs (§6.1) — with any of
// the four evaluated filesystems mounted on it.
//
// Core map (default): worker cores are [0, worker_cores); OdinFS's reserved
// delegation cores sit at the top of the machine, mirroring the paper's
// 12-cores-per-node reservation.

#ifndef EASYIO_HARNESS_TESTBED_H_
#define EASYIO_HARNESS_TESTBED_H_

#include <memory>
#include <string>

#include "src/baselines/delegation.h"
#include "src/baselines/nova_dma_fs.h"
#include "src/baselines/odin_fs.h"
#include "src/common/units.h"
#include "src/dma/dma_engine.h"
#include "src/dma/fault_plan.h"
#include "src/easyio/channel_manager.h"
#include "src/easyio/easy_io_fs.h"
#include "src/nova/nova_fs.h"
#include "src/obs/stats.h"
#include "src/pmem/slow_memory.h"
#include "src/sim/simulation.h"
#include "src/uthread/scheduler.h"

namespace easyio::harness {

enum class FsKind { kNova, kNovaDma, kOdin, kEasy, kEasyNaive };

inline const char* FsKindName(FsKind kind) {
  switch (kind) {
    case FsKind::kNova: return "NOVA";
    case FsKind::kNovaDma: return "NOVA-DMA";
    case FsKind::kOdin: return "ODINFS";
    case FsKind::kEasy: return "EasyIO";
    case FsKind::kEasyNaive: return "Naive";
  }
  return "?";
}

// OdinFS's reserved delegation cores: 12 per node on the paper's 2-node
// machine (§6.1), so its workloads stop at 12 worker cores of 36.
inline constexpr int kOdinReservedCores = 24;

struct TestbedConfig {
  FsKind fs = FsKind::kEasy;
  int machine_cores = 36;
  size_t device_bytes = 1_GB;
  pmem::MediaParams media = pmem::MediaParams::TwoNode();
  nova::NovaFs::Options fs_options;
  core::ChannelManager::Options cm_options;
  core::EasyIoFs::EasyOptions easy_options;  // kEasy/kEasyNaive only
  // DMA fault plan (fs kinds with an engine only). Empty = infallible
  // hardware, byte-identical behavior to a build without fault injection.
  dma::FaultPlan faults;
};

class Testbed {
 public:
  explicit Testbed(const TestbedConfig& config)
      : config_(config),
        sim_(sim::Simulation::Options{.num_cores = config.machine_cores}),
        mem_(&sim_, config.media, config.device_bytes) {
    switch (config.fs) {
      case FsKind::kNova:
        nova_ = std::make_unique<nova::NovaFs>(&mem_, config.fs_options);
        EASYIO_CHECK_OK(nova_->Format());
        break;
      case FsKind::kNovaDma: {
        auto fs = std::make_unique<baselines::NovaDmaFs>(&mem_,
                                                         config.fs_options);
        EASYIO_CHECK_OK(fs->Format());
        MakeEngine(fs->layout().comp_region_off);
        fs->AttachEngine(engine_.get());
        nova_ = std::move(fs);
        break;
      }
      case FsKind::kOdin: {
        pool_ = std::make_unique<baselines::DelegationPool>(
            &sim_, &mem_,
            baselines::DelegationPool::Options{
                .first_core = config.machine_cores - kOdinReservedCores,
                .num_threads = kOdinReservedCores});
        pool_->Start();
        nova_ = std::make_unique<baselines::OdinFs>(&mem_, config.fs_options,
                                                    pool_.get());
        EASYIO_CHECK_OK(nova_->Format());
        break;
      }
      case FsKind::kEasy:
      case FsKind::kEasyNaive: {
        core::EasyIoFs::EasyOptions eo = config.easy_options;
        eo.ordered_naive = config.fs == FsKind::kEasyNaive;
        auto fs = std::make_unique<core::EasyIoFs>(&mem_, config.fs_options,
                                                   eo);
        EASYIO_CHECK_OK(fs->Format());
        MakeEngine(fs->layout().comp_region_off);
        cm_ = std::make_unique<core::ChannelManager>(&sim_, engine_.get(),
                                                     config.cm_options);
        fs->AttachChannelManager(cm_.get());
        easy_view_ = fs.get();
        nova_ = std::move(fs);
        break;
      }
    }
  }

  // Creates a Caladan-style runtime over the first `cores` worker cores.
  uthread::Scheduler* MakeScheduler(int cores, bool work_stealing = true) {
    uthread::Scheduler::Options opts;
    opts.first_core = 0;
    opts.num_cores = cores;
    opts.work_stealing = work_stealing;
    opts.switch_cost_ns = config_.media.uthread_switch_ns;
    scheduler_ = std::make_unique<uthread::Scheduler>(&sim_, opts);
    return scheduler_.get();
  }

  const TestbedConfig& config() const { return config_; }
  sim::Simulation& sim() { return sim_; }
  pmem::SlowMemory& mem() { return mem_; }
  fs::FileSystem& fs() { return *nova_; }
  nova::NovaFs& nova() { return *nova_; }
  core::EasyIoFs* easy() { return easy_view_; }  // null unless kEasy*
  dma::DmaEngine* engine() { return engine_.get(); }
  core::ChannelManager* channel_manager() { return cm_.get(); }
  baselines::DelegationPool* delegation() { return pool_.get(); }
  uthread::Scheduler* scheduler() { return scheduler_.get(); }

  // Usable worker cores for this filesystem on this machine.
  int max_worker_cores() const {
    return config_.fs == FsKind::kOdin
               ? config_.machine_cores - kOdinReservedCores
               : config_.machine_cores;
  }

  // Snapshot of every actor's cumulative counters at the current virtual
  // time (schema: docs/OBSERVABILITY.md). Cheap — plain reads, no events —
  // so benches can collect one per run and Print() it behind --stats.
  obs::StatsSnapshot CollectStats() {
    obs::StatsSnapshot s;
    s.now_ns = sim_.now();
    s.context_switches = sim_.context_switches();
    s.tasks_spawned = sim_.tasks_spawned();
    s.events_scheduled = sim_.events_scheduled();
    s.pmem_barriers = mem_.barrier_count();
    for (int c = 0; c < sim_.num_cores(); ++c) {
      obs::CoreStats cs;
      cs.core = c;
      cs.busy_ns = sim_.core_busy_ns(c);
      cs.run_queue = sim_.run_queue_depth(c);
      cs.busy_fraction =
          s.now_ns == 0 ? 0.0
                        : static_cast<double>(cs.busy_ns) /
                              static_cast<double>(s.now_ns);
      s.cores.push_back(cs);
    }
    if (engine_) {
      for (int i = 0; i < engine_->num_channels(); ++i) {
        const dma::Channel& ch = engine_->channel(i);
        obs::ChannelStats xs;
        xs.id = i;
        xs.bytes_completed = ch.bytes_completed();
        xs.descriptors_completed = ch.descriptors_completed();
        xs.queue_depth = ch.queue_depth();
        xs.suspended = ch.suspended();
        xs.transfer_errors = ch.transfer_errors();
        xs.retries = ch.retries();
        xs.software_completions = ch.software_completions();
        xs.stalls_injected = ch.stalls_injected();
        xs.torn_records = ch.torn_records();
        xs.record_repairs = ch.record_repairs();
        s.channels.push_back(xs);
      }
    }
    const nova::NovaFs::Counters& c = nova_->counters();
    obs::FsStats fsv;
    fsv.name = std::string(nova_->name());
    fsv.ops_read = c.ops_read;
    fsv.ops_write = c.ops_write;
    fsv.bytes_read = c.bytes_read;
    fsv.bytes_written = c.bytes_written;
    fsv.bytes_cpu = c.bytes_cpu;
    fsv.bytes_dma = c.bytes_dma;
    fsv.log_compactions = nova_->log_compactions();
    s.fs.push_back(std::move(fsv));
    return s;
  }

 private:
  void MakeEngine(uint64_t comp_region_off) {
    engine_ = std::make_unique<dma::DmaEngine>(
        &mem_, comp_region_off,
        static_cast<int>(config_.fs_options.comp_channels));
    if (!config_.faults.empty()) {
      injector_ = std::make_unique<dma::FaultInjector>(config_.faults);
      engine_->AttachFaultInjector(injector_.get());
    }
  }

  TestbedConfig config_;
  sim::Simulation sim_;
  pmem::SlowMemory mem_;
  std::unique_ptr<dma::FaultInjector> injector_;
  std::unique_ptr<dma::DmaEngine> engine_;
  std::unique_ptr<core::ChannelManager> cm_;
  std::unique_ptr<baselines::DelegationPool> pool_;
  std::unique_ptr<nova::NovaFs> nova_;  // every FsKind is a NovaFs
  core::EasyIoFs* easy_view_ = nullptr;
  std::unique_ptr<uthread::Scheduler> scheduler_;
};

}  // namespace easyio::harness

#endif  // EASYIO_HARNESS_TESTBED_H_
