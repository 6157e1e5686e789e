// ChannelManager (paper §4.4): mediates between DMA requests and channels to
// meet the diverse goals of latency-critical (L-) and bandwidth-oriented
// (B-) applications.
//
//  * Channel separation: L-apps steer requests to up to 4 dedicated channels
//    (more causes write-bandwidth decline, §2.2); all B-apps share one.
//  * Selective offloading (Listing 2): reads are admitted to a DMA channel
//    only if some L-channel has queue depth < 2, otherwise the caller falls
//    back to memcpy; I/O <= 4KB always uses memcpy (handled by the FS).
//  * Bandwidth throttling: B-app bulk I/O is split into 64KB descriptors; an
//    epoch loop accounts the B-channel's bytes and suspends it via CHANCMD
//    once it exceeds B_APP_BW_LIMIT for the epoch, resuming at the next
//    epoch boundary.
//  * QoS feedback (Listing 1): every epoch, the minimum SLO headroom across
//    registered L-apps throttles the limit down (violation) or up (ample
//    headroom) by Delta.

#ifndef EASYIO_EASYIO_CHANNEL_MANAGER_H_
#define EASYIO_EASYIO_CHANNEL_MANAGER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/units.h"
#include "src/dma/dma_engine.h"
#include "src/sim/simulation.h"

namespace easyio::core {

// Contract (paper §4.4, Listings 1 & 2): the L set is channels
// [0, num_l_channels) and the shared B channel is channel num_l_channels, the
// first one past it ("<= 4 L channels + 1 shared B channel").
// PickWriteChannel always returns an L channel (writes are never denied
// DMA); PickReadChannel returns an L channel with queue depth below
// read_admission_qdepth or nullptr, and the caller MUST fall back to memcpy
// on nullptr (Listing 2). SubmitBulkWrite never splits a request across
// channels — all chunks land on the single shared B channel, preserving SN
// monotonicity for the returned last-SN. While StartThrottling is active the
// manager owns the B channel's Suspend/Resume: every budget check it
// suspends once the epoch's byte budget (b_limit_gbps × epoch) is spent,
// every epoch it resumes and moves the limit by delta_gbps following
// Listing 1's min-headroom feedback. Callers must not Suspend/Resume the B
// channel concurrently. The fixed design constants live in
// channel_manager.cc.
class ChannelManager {
 public:
  struct Options {
    int num_l_channels = 4;  // §2.2: more than 4 costs write bandwidth
    size_t read_admission_qdepth = 2;  // Listing 2's q_deps bound
    double delta_gbps = 0.25;          // Listing 1's Delta
    double b_limit_init_gbps = 8.0;    // Listing 1's initial B_APP_BW_LIMIT
  };

  // Tracks one L-app's SLO. The app (or the FS on its behalf) reports each
  // operation's latency; the manager consumes the per-epoch maximum.
  class LApp {
   public:
    explicit LApp(uint64_t target_ns) : target_ns_(target_ns) {}
    void ReportLatency(uint64_t ns) {
      epoch_max_ns_ = std::max(epoch_max_ns_, ns);
      samples_++;
    }
    uint64_t target_ns() const { return target_ns_; }

   private:
    friend class ChannelManager;
    uint64_t TakeEpochMax() {
      const uint64_t v = epoch_max_ns_;
      epoch_max_ns_ = 0;
      samples_ = 0;
      return v;
    }
    uint64_t target_ns_;
    uint64_t epoch_max_ns_ = 0;
    uint64_t samples_ = 0;
  };

  ChannelManager(sim::Simulation* sim, dma::DmaEngine* engine,
                 const Options& options);

  ChannelManager(const ChannelManager&) = delete;
  ChannelManager& operator=(const ChannelManager&) = delete;

  dma::DmaEngine* engine() const { return engine_; }
  const Options& options() const { return options_; }

  // L-app channel selection: least-loaded of the L channels (writes always
  // get one; the paper steers to up to 4 to balance reads and writes).
  // Quarantined channels are skipped; nullptr (fall back to memcpy) only
  // when every L channel is quarantined.
  dma::Channel* PickWriteChannel();
  // Listing 2's admission control: an L channel with q_deps < 2, or nullptr
  // (caller falls back to memcpy).
  dma::Channel* PickReadChannel();

  // B-app bulk write: split into 64 KB descriptors on the shared
  // B channel (so suspension never re-executes a large transfer, §4.4) and
  // batch-submitted. Returns the last SN.
  dma::Sn SubmitBulkWrite(uint64_t pmem_off, const void* src, size_t n);
  // Blocking variant used by background apps (GC): parks the calling uthread
  // until the bulk transfer completes.
  void BulkWriteAndWait(uint64_t pmem_off, const void* src, size_t n);

  dma::Channel* b_channel() {
    return &engine_->channel(options_.num_l_channels);
  }

  // ---- QoS loop ----
  LApp* RegisterLApp(uint64_t target_latency_ns);
  void StartThrottling();
  void StopThrottling();
  bool throttling() const { return throttling_; }
  double b_limit_gbps() const { return b_limit_gbps_; }

  // ---- Quarantine (graceful degradation under channel faults) ----
  // A channel enters quarantine when consumers report transfer errors on it
  // (ReportChannelFault, two strikes): the manager sets the channel's
  // quarantined() bit, and for 200 µs the channel receives no new
  // placements (picks skip it; bulk writes reroute to a healthy L channel).
  // It then returns on probation with a cleared fault score. Outstanding
  // work on it still completes: a wait that begins while it is quarantined
  // skips the retries and falls back to the CPU copy at once.
  //
  // One fault strike against `ch` (a consumer's wait on it returned
  // kRecovered).
  void ReportChannelFault(dma::Channel& ch);
  // Strikes against `ch` since it last left quarantine.
  int fault_score(const dma::Channel& ch) const {
    return health_[ch.id()].fault_score;
  }
  uint64_t quarantines() const { return quarantines_; }

 private:
  struct ChannelHealth {
    int fault_score = 0;
    sim::SimTime quarantined_until = 0;
  };

  // The action of the QoS loop's records (arg: this, tag: 1 for the epoch
  // tick, 0 for the budget check), armed while throttling.
  static void OnTimer(void* cm, uint64_t epoch);
  void EpochTick();
  void BudgetCheck();
  void Quarantine(dma::Channel& ch);

  sim::Simulation* sim_;
  dma::DmaEngine* engine_;
  Options options_;
  std::vector<std::unique_ptr<LApp>> l_apps_;
  bool throttling_ = false;
  double b_limit_gbps_;
  uint64_t epoch_start_bytes_ = 0;
  uint64_t read_rotor_ = 0;
  sim::Simulation::Timer budget_check_;
  sim::Simulation::Timer epoch_tick_;
  std::vector<ChannelHealth> health_;
  uint64_t quarantines_ = 0;
};

}  // namespace easyio::core

#endif  // EASYIO_EASYIO_CHANNEL_MANAGER_H_
