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

#include <cstdint>
#include <functional>
#include <string>
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

  FlowResource(Simulation* sim, std::string name, CapacityModel model);

  FlowResource(const FlowResource&) = delete;
  FlowResource& operator=(const FlowResource&) = delete;

  // Starts a transfer of `bytes` limited to `per_flow_cap_gbps`; `done` fires
  // (as a simulation event) when the last byte has moved.
  FlowId StartFlow(uint64_t bytes, double per_flow_cap_gbps, FlowType type,
                   DoneFn done);

  // Fraction of the flow's bytes already transferred, in [0, 1].
  // Returns 1.0 for unknown (already completed) flows.
  double Progress(FlowId id) const;

  // Aborts the flow (used by channel suspension with restart semantics and by
  // the crash injector). Returns the fraction completed at abort time.
  double CancelFlow(FlowId id);

  bool HasFlow(FlowId id) const;
  int active_flows(FlowType type) const {
    return type == FlowType::kCpu ? cpu_flows_ : dma_flows_;
  }
  const std::string& name() const { return name_; }

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

  // Defers rate recomputation across a run of StartFlow/CancelFlow calls
  // that happen at one virtual instant: each mutation would otherwise
  // supersede and reschedule the completion record and re-run the
  // water-fill, only for the next mutation to redo it all. The scope must
  // be strictly synchronous (no Advance/Yield/RunUntil inside). Eliding the
  // intermediate recomputes is determinism-safe: the elided completion
  // records could never have fired (they would have been superseded within
  // the same instant), and dropping their sequence numbers is an
  // order-preserving renumbering of every surviving event.
  class BatchScope {
   public:
    explicit BatchScope(FlowResource* r) : r_(r) { r_->BeginBatch(); }
    ~BatchScope() { r_->EndBatch(); }
    BatchScope(const BatchScope&) = delete;
    BatchScope& operator=(const BatchScope&) = delete;

   private:
    FlowResource* r_;
  };

 private:
  struct Flow {
    FlowId id;
    FlowType type;
    double bytes_total;
    double bytes_left;
    double cap_gbps;       // per-flow cap
    double rate_bps = 0;   // current rate, bytes per second
    DoneFn done;
  };

  void Settle();       // account transferred bytes up to now
  void Recompute();    // recompute rates + (re)schedule next completion
  // The completion record's action (arg: this, tag: the generation it was
  // scheduled under); stale once a later Recompute bumped event_gen_.
  static bool OnCompletion(void* resource, uint64_t gen);
  void CompleteFinished();  // retire finished flows, run their callbacks
  void BeginBatch() { batch_depth_++; }
  void EndBatch();
  // Water-fills one type's flows, walking its pre-sorted (cap, id) order.
  void MaxMin(const std::vector<std::pair<double, FlowId>>& order,
              double aggregate_gbps, double* sum_rate_bps);
  std::vector<std::pair<double, FlowId>>& OrderFor(FlowType type) {
    return type == FlowType::kCpu ? cpu_order_ : dma_order_;
  }
  // Binary search by id; flows_.end() if absent.
  std::vector<Flow>::iterator FindFlow(FlowId id);
  std::vector<Flow>::const_iterator FindFlow(FlowId id) const;

  Simulation* sim_;
  std::string name_;
  CapacityModel model_;
  // Settle/Recompute walk every flow on each flow-set change, so the
  // container is the hot path. Ids are handed out monotonically, so
  // push_back keeps the vector sorted by id and iteration order matches the
  // std::map this replaced (ascending id => deterministic); lookups are
  // binary searches, erases shift the tail and preserve order.
  std::vector<Flow> flows_;
  // Per-type water-filling order, kept sorted by (per-flow cap, id)
  // incrementally on start/finish/cancel. Replaces the per-Recompute
  // group-gather + stable_sort: caps never change after StartFlow, so the
  // sort is paid once per flow instead of once per recomputation — and the
  // hot path stops allocating. Ties on cap fall back to id, which is
  // insertion order, matching what the stable sort produced.
  std::vector<std::pair<double, FlowId>> cpu_order_;
  std::vector<std::pair<double, FlowId>> dma_order_;
  int cpu_flows_ = 0;
  int dma_flows_ = 0;
  FlowId next_id_ = 1;
  SimTime last_settle_ = 0;
  // Generation of the one live completion record. Every Recompute bumps it,
  // which supersedes the record scheduled before, instead of a Cancel.
  // Superseded records still name this object until they pop, so a
  // FlowResource must not die while its simulation keeps running.
  uint64_t event_gen_ = 0;
  int batch_depth_ = 0;
  bool recompute_deferred_ = false;
  uint64_t bytes_completed_ = 0;
  double total_rate_bps_ = 0;
  std::function<void()> rates_changed_hook_;
  std::vector<DoneFn> done_scratch_;  // completion-callback buffer, reused
};

}  // namespace easyio::sim

#endif  // EASYIO_SIM_FLOW_RESOURCE_H_
