// A single DMA channel of the on-chip engine (I/OAT abstraction).
//
// Descriptors submitted to a channel are processed strictly in FIFO order by
// the (simulated) hardware: per-descriptor startup gap, then a bandwidth
// flow through the slow-memory arbiter. Head-of-line blocking, the paper's
// Fig 4 latency spikes and the multi-channel bandwidth shapes of Fig 3 all
// emerge from this structure plus the MediaParams calibration.
//
// The channel's CompletionRecord lives in the persistent region of the
// SlowMemory device and is updated by the "hardware" at completion time —
// this is the object EasyIO's orderless commit and two-level locking read.
// A write's payload lands just before the record covers its SN; a transfer
// that errors or restarts has landed nothing. A read copies at its start.
//
// Contract (paper §2.2, §4.2, §4.4): Submit/SubmitBatch charge the caller
// the CPU-side doorbell cost and return an Sn that is strictly monotonic in
// this channel's completion order; IsComplete(sn) becomes true exactly when
// the persistent CompletionRecord covers sn and never reverts (even across
// a crash, because a new incarnation opens a fresh CNT era above every
// pre-crash SN). WaitSn is the one way to consume a completion: it parks
// the calling uthread (Wait::kPark: asynchronous consumption, EasyIO) or
// spins holding the core (Wait::kSpin: synchronous consumption,
// NOVA-DMA/Fastmove), and on a halted channel the waiter itself drives
// recovery, so every wait ends with `sn` durable. Suspend/Resume model
// CHANCMD (74ns each, §4.4): while suspended no new descriptor starts, and
// an in-flight one either drains or restarts per
// MediaParams::suspend_restart_threshold.

#ifndef EASYIO_DMA_CHANNEL_H_
#define EASYIO_DMA_CHANNEL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <vector>

#include "src/dma/fault_plan.h"
#include "src/dma/sn.h"
#include "src/pmem/slow_memory.h"
#include "src/sim/simulation.h"

namespace easyio::dma {

// How a task waits for an SN: park the uthread (EasyIO) or spin holding
// the core (synchronous consumers: NOVA-DMA/Fastmove and the raw benches).
enum class Wait { kPark, kSpin };

struct Descriptor {
  enum class Dir { kWrite, kRead };  // write: DRAM -> pmem; read: pmem -> DRAM

  Dir dir = Dir::kWrite;
  uint64_t pmem_off = 0;
  void* dram = nullptr;  // write source or read target, live until done
  uint32_t size = 0;
};

class Channel {
 public:
  // `record_off` is the pmem offset of this channel's CompletionRecord.
  // An existing record (from a previous incarnation / crash image) is
  // honoured: the new era starts at cnt = old_cnt + 1 so every SN issued
  // before the crash compares as completed (they were either validated or
  // discarded by recovery).
  Channel(pmem::SlowMemory* mem, uint8_t id, uint64_t record_off);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  uint8_t id() const { return id_; }

  // Submits one descriptor; charges the CPU-side submission cost to the
  // calling task. Returns the SN identifying its completion.
  Sn Submit(Descriptor desc);
  // Batch submission: one doorbell, amortized per-descriptor cost
  // (§2.2: both I/OAT and DSA support batch submission). Consumes the
  // descriptors in place and appends the SNs to *sns (not cleared), so a
  // caller can reuse its own buffers across operations.
  void SubmitBatch(std::span<Descriptor> descs, std::vector<Sn>* sns);

  // True once the channel's completion record covers `sn`. Hard-fails (in
  // every build mode) on an SN belonging to a different channel: comparing a
  // foreign SN against this channel's record would silently return a wrong
  // durability answer. Route cross-channel SNs through DmaEngine::ChannelFor.
  bool IsComplete(Sn sn) const;
  uint64_t CompletedSeq() const { return record().CompletedSeq(); }

  // Waits until the completion record covers `sn`; returns at once if it
  // already does. When the channel halts on a failed descriptor the waiter
  // re-submits it (3 attempts, 2 µs backoff doubling per attempt; none if
  // the channel was quarantined when the wait began) and then moves the
  // bytes itself with a synchronous CPU copy. Returns kRecovered if a
  // transfer error was raised on the channel during the wait, else kOk;
  // either way `sn` is durable.
  DmaResult WaitSn(Sn sn, Wait how = Wait::kPark);

  // Outstanding descriptors (queued + in flight). Listing 2's admission
  // control reads this as `q_deps`.
  size_t queue_depth() const { return queue_.size(); }
  bool idle() const { return queue_.empty(); }

  // CHANCMD suspend/resume (paper §4.4). Suspension cost (74ns) is charged
  // to the calling task if any. An in-flight descriptor either runs to
  // completion or is restarted on resume, depending on how far it has
  // progressed (MediaParams::suspend_restart_threshold).
  void Suspend();
  void Resume();
  bool suspended() const { return suspended_; }

  // Bandwidth-accounting for the channel manager's epoch loop.
  uint64_t bytes_completed() const { return bytes_completed_; }
  uint64_t descriptors_completed() const { return descriptors_completed_; }

  // ---- Fault injection (see fault_plan.h). Null = infallible hardware. ----
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  // True while the channel sits halted on a failed head descriptor.
  bool halted() const { return halted_; }
  // Quarantine (set and cleared by the channel manager): a wait that
  // begins while it is set skips the retries and falls back at once.
  bool quarantined() const { return quarantined_; }
  void set_quarantined(bool quarantined) { quarantined_ = quarantined; }
  // Fault/recovery counters (all zero with no injector attached).
  uint64_t transfer_errors() const { return transfer_errors_; }
  uint64_t retries() const { return retries_; }
  uint64_t software_completions() const { return software_completions_; }
  uint64_t stalls_injected() const { return stalls_injected_; }
  uint64_t torn_records() const { return torn_records_; }
  uint64_t record_repairs() const { return record_repairs_; }

 private:
  struct Pending {
    Descriptor desc;
    uint64_t slot = 0;
    uint64_t cnt = 0;
    bool started = false;
    sim::FlowResource::FlowId flow = 0;
    sim::SimTime transfer_start = 0;
    sim::SimTime enqueue_time = 0;  // for the trace's queued_ns attribution
    // Fault-injection state, resolved once at enqueue time from the
    // injector's plan by this descriptor's per-channel ordinal.
    int planned_errors = 0;    // remaining injected failures for this desc
    uint64_t stall_ns = 0;     // engine stall before this desc starts
    bool torn = false;         // lose this desc's completion-record update
    int attempts = 0;          // software retries issued so far
  };

  const CompletionRecord& record() const {
    return *mem_->As<CompletionRecord>(record_off_);
  }
  void PersistRecord(uint64_t addr, uint64_t cnt);
  // Persist a fresh completion value: clears torn-record shadow state and
  // cancels any scheduled repair before writing.
  void CommitRecord(uint64_t addr, uint64_t cnt);
  void WakeCovered();        // wake waiters covered by the persistent record
  Sn Enqueue(Descriptor desc);
  void MaybeStart();         // engine side: begin head-of-queue descriptor
  void OnTransferDone();     // engine side: head descriptor finished
  void FailHead();           // engine side: head raised a transfer error
  void RetryHead();          // software side: re-submit the failed head
  void CompleteHeadBySoftware();  // software side: CPU-copy fallback
  void RepairRecord();       // driver scrub: rewrite a torn record
  void ChargeSubmit(size_t batch_size);

  pmem::SlowMemory* mem_;
  sim::Simulation* sim_;
  uint8_t id_;
  uint64_t record_off_;
  uint64_t next_slot_ = 1;  // 1-based; wraps to 1 after kRingSlots
  uint64_t cnt_;
  std::deque<Pending> queue_;
  bool engine_busy_ = false;   // startup gap or flow in progress
  bool suspended_ = false;
  sim::SimTime suspend_start_ = 0;  // trace: open CHANCMD suspension window
  uint64_t bytes_completed_ = 0;
  uint64_t descriptors_completed_ = 0;
  std::multimap<uint64_t, sim::Task*> waiters_;  // seq -> parked task

  // ---- Fault-injection state (inert with injector_ == nullptr) ----
  FaultInjector* injector_ = nullptr;
  uint64_t next_ordinal_ = 0;  // per-channel descriptor ordinal (plan key)
  bool halted_ = false;        // head failed; awaiting software recovery
  bool quarantined_ = false;
  // Torn-record shadow: the true completion value the hardware reached while
  // the persistent record stayed stale. Durability queries and waiter wakes
  // use only the persistent record (the shadow must never be trusted for
  // crash consistency); the next completion or the scheduled scrub
  // re-persists it.
  bool record_stale_ = false;
  uint64_t shadow_addr_ = 0;
  uint64_t shadow_cnt_ = 0;
  sim::Simulation::Timer repair_;  // the scheduled scrub, while stale
  uint64_t transfer_errors_ = 0;
  uint64_t retries_ = 0;
  uint64_t software_completions_ = 0;
  uint64_t stalls_injected_ = 0;
  uint64_t torn_records_ = 0;
  uint64_t record_repairs_ = 0;
};

}  // namespace easyio::dma

#endif  // EASYIO_DMA_CHANNEL_H_
