// Deterministic DMA fault injection.
//
// Real I/OAT / DSA deployments see hardware misbehave in three ways the
// completion-record protocol (§4.2) must survive:
//
//   * transfer errors  - a descriptor aborts partway; the channel halts with
//     an error status and nothing it was moving is durable. Software reads
//     the error, fixes the cause and restarts the channel (re-executing the
//     failed descriptor), or gives up and moves the bytes itself.
//   * channel stalls   - the engine stops fetching descriptors for a while
//     (firmware hiccup, PCIe backpressure). No error is raised; the queue
//     simply does not drain.
//   * torn completion-record updates - the hardware finished a transfer but
//     its completion-buffer write was not durable at the crash point, so a
//     crash image shows a *stale* record. The watermark self-heals at the
//     next completion; a driver-side scrub repairs the tail case.
//
// A FaultPlan is a fully deterministic schedule of such faults keyed by
// (channel, per-channel descriptor ordinal): the Nth descriptor ever
// enqueued on channel C. Seeded plans (Random) and hand-written plans replay
// identically run over run, which is what lets the crash harness sample
// barriers *inside* an error/retry window and still compare against the
// model. A FaultInjector is the runtime consumption state for one engine;
// with no injector attached the DMA layer behaves exactly as before, to the
// byte, so figure outputs are unchanged when injection is off.

#ifndef EASYIO_DMA_FAULT_PLAN_H_
#define EASYIO_DMA_FAULT_PLAN_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace easyio::dma {

struct FaultPlan {
  // The descriptor at `ordinal` on `channel` raises a transfer error `count`
  // times: the first `count` executions (initial + retries) abort having
  // landed nothing (a write's payload lands only when its transfer
  // completes); execution count+1 succeeds.
  struct TransferError {
    uint8_t channel = 0;
    uint64_t ordinal = 0;
    int count = 1;
  };
  // The engine stops fetching for `stall_ns` right before starting the
  // descriptor at `ordinal` on `channel`.
  struct Stall {
    uint8_t channel = 0;
    uint64_t ordinal = 0;
    uint64_t stall_ns = 0;
  };
  // The completion-record update for the descriptor at `ordinal` on
  // `channel` is lost (torn at the persistence boundary): the persistent
  // record keeps its stale value until the next completion or the scheduled
  // driver scrub (torn_repair_ns later) rewrites it.
  struct TornRecord {
    uint8_t channel = 0;
    uint64_t ordinal = 0;
  };

  std::vector<TransferError> errors;
  std::vector<Stall> stalls;
  std::vector<TornRecord> torn;
  // Driver completion-timeout scrub: how long a torn record stays stale
  // before the channel's self-repair event rewrites it.
  uint64_t torn_repair_ns = 50'000;

  bool empty() const {
    return errors.empty() && stalls.empty() && torn.empty();
  }

  // Seeded random plan: n_errors/n_stalls/n_torn faults spread uniformly
  // over channels [0, num_channels) and ordinals [0, ordinal_range).
  // Deterministic in (seed, shape) — the same arguments always produce the
  // same plan.
  static FaultPlan Random(uint64_t seed, int num_channels, int n_errors,
                          int n_stalls, int n_torn, uint64_t ordinal_range,
                          uint64_t stall_ns = 100'000);
};

// Runtime consumption state of one FaultPlan for one DmaEngine. Channels ask
// it, per descriptor ordinal, whether a fault is scheduled; each scheduled
// fault fires exactly once. Single-simulation object, not thread-safe (the
// sim kernel is single-threaded).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  // Number of times the descriptor at (channel, ordinal) should raise a
  // transfer error (0 = none). Consumed: later calls return 0.
  int TakeTransferError(uint8_t channel, uint64_t ordinal);
  // Stall duration scheduled before (channel, ordinal) starts (0 = none).
  // Consumed.
  uint64_t TakeStall(uint8_t channel, uint64_t ordinal);
  // True if the completion-record update of (channel, ordinal) is torn.
  // Consumed.
  bool TakeTornRecord(uint8_t channel, uint64_t ordinal);

  // How many scheduled faults have been consumed so far (fired or armed).
  uint64_t errors_armed() const { return errors_armed_; }
  uint64_t stalls_armed() const { return stalls_armed_; }
  uint64_t torn_armed() const { return torn_armed_; }

 private:
  using Key = std::pair<uint8_t, uint64_t>;  // (channel, ordinal)

  FaultPlan plan_;
  std::map<Key, int> errors_;
  std::map<Key, uint64_t> stalls_;
  std::map<Key, bool> torn_;
  uint64_t errors_armed_ = 0;
  uint64_t stalls_armed_ = 0;
  uint64_t torn_armed_ = 0;
};

}  // namespace easyio::dma

#endif  // EASYIO_DMA_FAULT_PLAN_H_
