// FlowResource: fluid-flow bandwidth sharing for the slow-memory media.
//
// Every in-flight transfer (a CPU memcpy stream or one DMA channel's current
// descriptor) is a *flow*. Active flows share the device with max-min
// fairness, subject to three kinds of limits taken from the paper's
// measurements (§2.1-2.2):
//
//   * a per-flow cap (a single CPU core or a single DMA channel can only
//     drive so much bandwidth, dependent on I/O size for DMA),
//   * per-type aggregate caps that depend on how many flows of that type are
//     active (CPU writes to Optane *lose* total bandwidth as writers are
//     added; DMA write bandwidth shrinks as channels are added for large
//     I/Os),
//   * a total device ceiling.
//
// Whenever the flow set changes, rates are recomputed and the earliest
// completion is (re)scheduled. Completion callbacks fire at exact virtual
// times, so queueing effects (head-of-line blocking in a channel, latency
// spikes when a bulk flow joins) emerge from the model rather than being
// scripted.

#ifndef EASYIO_SIM_FLOW_RESOURCE_H_
#define EASYIO_SIM_FLOW_RESOURCE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace easyio::sim {

enum class FlowType { kCpu, kDma };

// Aggregate capacity model for one transfer direction (read or write).
struct CapacityModel {
  // Aggregate GiB/s available to all CPU flows when `n` of them are active.
  std::function<double(int n)> cpu_aggregate;
  // Aggregate GiB/s available to all DMA flows when `n` channels are active.
  std::function<double(int n)> dma_aggregate;
  // Hard device ceiling in GiB/s across both types.
  double total = 1e9;
};

class FlowResource {
 public:
  using FlowId = uint64_t;
  using DoneFn = SmallFn<void()>;

  // Where a write flow's payload goes: its bytes, read from `src`, land at
  // device offset `dst_off` when the flow completes. A null `src` means the
  // flow carries no landing.
  struct Landing {
    uint64_t dst_off;
    const void* src;
  };

  FlowResource(Simulation* sim, std::string name, CapacityModel model);

  FlowResource(const FlowResource&) = delete;
  FlowResource& operator=(const FlowResource&) = delete;

  // Starts a transfer of `bytes` limited to `per_flow_cap_gbps`; `done` fires
  // (as a simulation event) when the last byte has moved. The resource keeps
  // `landing` only to report it (ForEachLanding); `done` lands the bytes.
  FlowId StartFlow(uint64_t bytes, double per_flow_cap_gbps, FlowType type,
                   DoneFn done, Landing landing = {});

  // Fraction of the flow's bytes already transferred, in [0, 1].
  // Returns 1.0 for unknown (already completed) flows.
  double Progress(FlowId id) const;

  // Aborts the flow (used by channel suspension with restart semantics and by
  // the crash injector). Returns the fraction completed at abort time.
  double CancelFlow(FlowId id);

  bool HasFlow(FlowId id) const;
  int active_flows(FlowType type) const {
    return static_cast<int>(FlowsOf(type).size());
  }
  const std::string& name() const { return name_; }

  // Calls fn(landing, bytes, progress) for each active flow that carries a
  // landing: its byte count and its Progress(). A cancelled or finished
  // flow is no longer active.
  template <typename Fn>
  void ForEachLanding(Fn fn) const {
    for (const std::vector<Flow>& flows : flows_) {
      for (const Flow& f : flows) {
        if (f.landing.src != nullptr) {
          fn(f.landing, static_cast<uint64_t>(f.bytes_total), ProgressOf(f));
        }
      }
    }
  }

  // Total bytes completed since construction (for bandwidth accounting).
  uint64_t bytes_completed() const { return bytes_completed_; }

  // Sum of all active flows' current rates (bytes/s). Used for cross-
  // direction interference modeling.
  double total_rate_bps() const { return total_rate_bps_; }

  // Fires (synchronously, after each rate recomputation) whenever the
  // aggregate rate changes; used to poke a coupled resource.
  void set_rates_changed_hook(std::function<void()> hook) {
    rates_changed_hook_ = std::move(hook);
  }

  // Re-settles and recomputes rates; for externally-driven capacity changes
  // (e.g. the other direction's utilization moved).
  void Poke() {
    Settle();
    Recompute();
  }

 private:
  struct Flow {
    FlowId id;
    double bytes_total;
    double bytes_left;
    double cap_gbps;       // per-flow cap
    double rate_bps = 0;   // current rate, bytes per second
    DoneFn done;
    Landing landing;
  };

  std::vector<Flow>& FlowsOf(FlowType type) {
    return flows_[static_cast<size_t>(type)];
  }
  const std::vector<Flow>& FlowsOf(FlowType type) const {
    return flows_[static_cast<size_t>(type)];
  }
  // The active flow `id`, or null.
  const Flow* Find(FlowId id) const;
  double ProgressOf(const Flow& f) const;
  void Settle();       // account transferred bytes up to now
  void Recompute();    // recompute rates + (re)schedule next completion
  // The completion record's action (arg: this).
  static void OnCompletion(void* resource, uint64_t unused);
  void CompleteFinished();  // retire finished flows, run their callbacks
  // Water-fills one type's flows in list order; returns their rate sum.
  static double MaxMin(std::vector<Flow>& flows, double aggregate_gbps);

  Simulation* sim_;
  std::string name_;
  CapacityModel model_;
  // The active flows, one list per FlowType, each sorted by (per-flow cap,
  // id): the order the water-fill walks. Caps never change after
  // StartFlow, so a flow is placed once, on start, instead of sorted on
  // every recomputation; ties on cap fall back to id, which is start order.
  // A lookup by id scans both lists, which hold at most one flow per core
  // or DMA channel.
  std::array<std::vector<Flow>, 2> flows_;
  FlowId next_id_ = 1;
  SimTime last_settle_ = 0;
  // The earliest completion's record. Every Recompute moves it (or disarms
  // it when nothing can complete); destroying the resource removes it.
  Simulation::Timer completion_;
  uint64_t bytes_completed_ = 0;
  double total_rate_bps_ = 0;
  std::function<void()> rates_changed_hook_;
  // Finished flows' callbacks, keyed by id; recycled across completions.
  std::vector<std::pair<FlowId, DoneFn>> done_scratch_;
};

}  // namespace easyio::sim

#endif  // EASYIO_SIM_FLOW_RESOURCE_H_
