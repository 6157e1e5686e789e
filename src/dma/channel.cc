#include "src/dma/channel.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/obs/trace.h"

namespace easyio::dma {

namespace {

// Recovery of a halted channel (fault handling, DESIGN.md §8; not a paper
// parameter): a waiter re-submits the failed descriptor up to kMaxRetries
// times, backing off kRetryBackoffNs doubled per attempt, before it moves
// the bytes with the CPU.
constexpr int kMaxRetries = 3;
constexpr uint64_t kRetryBackoffNs = 2'000;

}  // namespace

Channel::Channel(pmem::SlowMemory* mem, uint8_t id, uint64_t record_off)
    : mem_(mem), sim_(mem->simulation()), id_(id), record_off_(record_off) {
  // Start a fresh CNT era above anything a previous incarnation issued, so
  // every pre-crash SN compares as completed (recovery has already decided
  // their fate by the time new I/O is admitted).
  const CompletionRecord old = record();
  cnt_ = old.cnt + 1;
  PersistRecord(/*addr=*/0, cnt_);
}

void Channel::PersistRecord(uint64_t addr, uint64_t cnt) {
  // Hardware-side update: no CPU cost, but it is a persistence event (the
  // completion buffers live in a persistent region, §4.2).
  CompletionRecord rec{addr, cnt};
  mem_->Write(record_off_, &rec, sizeof(rec));
  mem_->PersistBarrier();
}

void Channel::CommitRecord(uint64_t addr, uint64_t cnt) {
  record_stale_ = false;
  sim_->Disarm(repair_);
  PersistRecord(addr, cnt);
}

void Channel::WakeCovered() {
  const uint64_t completed = record().CompletedSeq();
  while (!waiters_.empty() && waiters_.begin()->first <= completed) {
    sim::Task* t = waiters_.begin()->second;
    waiters_.erase(waiters_.begin());
    sim_->Wake(t);
  }
}

void Channel::ChargeSubmit(size_t batch_size) {
  if (!sim_->in_task() || batch_size == 0) {
    return;
  }
  const auto& p = mem_->params();
  sim_->Advance(p.dma_submit_ns + (batch_size - 1) * p.dma_batch_extra_ns);
}

Sn Channel::Enqueue(Descriptor desc) {
  assert(desc.size > 0);
  Pending pending;
  pending.slot = next_slot_;
  pending.cnt = cnt_;
  if (++next_slot_ > kRingSlots) {
    next_slot_ = 1;
    cnt_++;
  }
  if (injector_ != nullptr) {
    const uint64_t ordinal = next_ordinal_++;
    pending.planned_errors = injector_->TakeTransferError(id_, ordinal);
    pending.stall_ns = injector_->TakeStall(id_, ordinal);
    pending.torn = injector_->TakeTornRecord(id_, ordinal);
  }
  const Sn sn = Sn::Make(id_, pending.cnt, pending.slot);
  pending.desc = std::move(desc);
  pending.enqueue_time = sim_->now();
  queue_.push_back(std::move(pending));
  OBS_EVENT_SAMPLED(obs::Track(obs::kProcDma, id_), "submit",
                    {"bytes", queue_.back().desc.size},
                    {"qdepth", queue_.size()});
  return sn;
}

Sn Channel::Submit(Descriptor desc) {
  ChargeSubmit(1);
  const Sn sn = Enqueue(std::move(desc));
  MaybeStart();
  return sn;
}

void Channel::SubmitBatch(std::span<Descriptor> descs, std::vector<Sn>* sns) {
  ChargeSubmit(descs.size());
  sns->reserve(sns->size() + descs.size());
  for (auto& d : descs) {
    sns->push_back(Enqueue(std::move(d)));
  }
  MaybeStart();
}

bool Channel::IsComplete(Sn sn) const {
  if (sn.none()) {
    return true;
  }
  if (sn.channel != id_) {
    // Comparing a foreign SN against this channel's record would return a
    // wrong durability answer silently (e.g. a log entry consulted after
    // channel remapping). This is unconditionally fatal — release builds
    // included — because the caller would otherwise act on garbage.
    std::fprintf(stderr,
                 "dma: Sn{channel=%u, seq=%llu} checked against channel %u\n",
                 sn.channel, static_cast<unsigned long long>(sn.seq), id_);
    std::abort();
  }
  return record().CompletedSeq() >= sn.seq;
}

DmaResult Channel::WaitSn(Sn sn, Wait how) {
  const uint64_t errors_before = transfer_errors_;
  const int max_attempts = quarantined_ ? 0 : kMaxRetries;
  while (!IsComplete(sn)) {
    if (!halted_) {
      waiters_.emplace(sn.seq, sim_->current());
      how == Wait::kSpin ? sim_->BlockHoldingCore() : sim_->Block();
      continue;
    }
    // A halted channel makes no progress without software, so this task
    // drives recovery of the failed head (which may not be the descriptor
    // `sn` names — FIFO order means nothing behind the head completes
    // until the head is dealt with). Several waiters can race here; the
    // backoff re-checks halted_ so only one retry is issued.
    const int attempts = queue_.front().attempts;
    if (attempts >= max_attempts) {
      CompleteHeadBySoftware();
      continue;
    }
    const uint64_t backoff = kRetryBackoffNs << attempts;
    how == Wait::kSpin ? sim_->Advance(backoff) : sim_->SleepFor(backoff);
    if (halted_) {
      RetryHead();
    }
  }
  return transfer_errors_ != errors_before ? DmaResult::kRecovered
                                           : DmaResult::kOk;
}

void Channel::MaybeStart() {
  if (engine_busy_ || suspended_ || halted_ || queue_.empty()) {
    return;
  }
  engine_busy_ = true;
  uint64_t launch_delay = mem_->params().dma_startup_ns;
  if (Pending& head = queue_.front(); head.stall_ns > 0) {
    // Injected engine stall: the channel stops fetching for a while before
    // this descriptor starts. No error is raised; the queue just sits.
    stalls_injected_++;
    OBS_EVENT(obs::Track(obs::kProcDmaState, id_), "fault_stall",
              {"stall_ns", head.stall_ns}, {"qdepth", queue_.size()});
    launch_delay += head.stall_ns;
    head.stall_ns = 0;
  }
  // Engine-side fetch/launch gap, then the bandwidth flow.
  sim_->ScheduleAfter(launch_delay, [this] {
    if (suspended_) {
      engine_busy_ = false;  // Resume() will restart us
      return;
    }
    assert(!queue_.empty());
    Pending& head = queue_.front();
    head.started = true;
    head.transfer_start = sim_->now();
    const auto& p = mem_->params();
    const bool is_write = head.desc.dir == Descriptor::Dir::kWrite;
    sim::FlowResource::Landing landing{};  // a read carries none
    if (is_write) {
      // The payload lands when the transfer completes (OnTransferDone); the
      // submitter keeps its buffer stable until then, so a crash image can
      // lay the durable prefix of the unfinished flow from it.
      landing = {head.desc.pmem_off, head.desc.dram};
    } else {
      // Reads materialize into the destination buffer at transfer start;
      // CoW + deferred free guarantee the source blocks stay immutable.
      mem_->CopyOut(head.desc.dram, head.desc.pmem_off, head.desc.size);
    }
    auto& flows = is_write ? mem_->write_flows() : mem_->read_flows();
    const double cap = is_write ? p.dma_write_chan_cap.Lookup(head.desc.size)
                                : p.dma_read_chan_cap.Lookup(head.desc.size);
    head.flow = flows.StartFlow(head.desc.size, cap, sim::FlowType::kDma,
                                [this] { OnTransferDone(); }, landing);
  });
}

void Channel::OnTransferDone() {
  assert(!queue_.empty());
  if (queue_.front().planned_errors > 0) {
    FailHead();
    return;
  }
  Pending done = std::move(queue_.front());
  queue_.pop_front();
  if (done.desc.dir == Descriptor::Dir::kWrite) {  // lands before CommitRecord
    mem_->Write(done.desc.pmem_off, done.desc.dram, done.desc.size);
  }

  if (auto* t = obs::Get(); t != nullptr && t->Sample()) {
    const bool is_write = done.desc.dir == Descriptor::Dir::kWrite;
    t->CompleteSpan(obs::Track(obs::kProcDma, id_),
                    is_write ? "xfer_write" : "xfer_read",
                    done.transfer_start, sim_->now(),
                    {{"bytes", done.desc.size},
                     {"queued_ns", done.transfer_start - done.enqueue_time},
                     {"qdepth", queue_.size()}});
    t->Counter(obs::Track(obs::kProcDma, id_), "qdepth", sim_->now(),
               queue_.size());
  }

  // Post-descriptor housekeeping keeps the channel busy for a
  // direction-dependent fraction of the transfer time (see MediaParams);
  // the requester already observes completion now.
  const auto& p = mem_->params();
  const double factor = done.desc.dir == Descriptor::Dir::kRead
                            ? p.dma_read_cooldown_factor
                            : p.dma_write_cooldown_factor;
  const uint64_t cooldown = static_cast<uint64_t>(
      static_cast<double>(sim_->now() - done.transfer_start) * factor);
  if (cooldown > 0) {
    sim_->ScheduleAfter(cooldown, [this] {
      engine_busy_ = false;
      MaybeStart();
    });
  } else {
    engine_busy_ = false;
  }

  if (done.torn) {
    // Injected torn record: the transfer finished (the completion interrupt
    // below still fires) but the completion-buffer update was not durable.
    // Keep the true value as an in-DRAM shadow only — waiters stay parked,
    // because waking them would claim durability the record cannot back.
    // The next completion re-covers it; a driver scrub handles the tail.
    record_stale_ = true;
    shadow_addr_ = done.slot;
    shadow_cnt_ = done.cnt;
    torn_records_++;
    OBS_EVENT(obs::Track(obs::kProcDmaState, id_), "torn_record",
              {"slot", done.slot}, {"cnt", done.cnt});
    // Only an attached injector marks a descriptor torn.
    sim_->Rearm(
        repair_, sim_->now() + injector_->plan().torn_repair_ns,
        [](void* ch, uint64_t) { static_cast<Channel*>(ch)->RepairRecord(); },
        this, 0);
  } else {
    CommitRecord(done.slot, done.cnt);
  }
  bytes_completed_ += done.desc.size;
  descriptors_completed_++;

  // Wake SN waiters now covered by the completion record.
  WakeCovered();
  MaybeStart();
}

void Channel::FailHead() {
  Pending& head = queue_.front();
  head.planned_errors--;
  transfer_errors_++;
  if (auto* t = obs::Get()) {
    t->CompleteSpan(obs::Track(obs::kProcDma, id_), "xfer_error",
                    head.transfer_start, sim_->now(),
                    {{"bytes", head.desc.size},
                     {"attempt", static_cast<uint64_t>(head.attempts)}});
  }
  OBS_EVENT(obs::Track(obs::kProcDmaState, id_), "xfer_error",
            {"bytes", head.desc.size}, {"qdepth", queue_.size()});
  // An aborted transfer has landed nothing, and as its flow is gone, a
  // crash image before the retry lands none of it either.
  head.started = false;
  head.flow = 0;
  halted_ = true;
  engine_busy_ = false;
  // The hardware reports the failure in the completion record's status bits
  // (persistent, like the rest of the record).
  const CompletionRecord cur = record();
  PersistRecord(cur.addr | CompletionRecord::kErrorBit, cur.cnt);
  // Every waiter is queued behind the failed head; wake them all so one can
  // drive recovery (WaitSn).
  while (!waiters_.empty()) {
    sim::Task* t = waiters_.begin()->second;
    waiters_.erase(waiters_.begin());
    sim_->Wake(t);
  }
}

void Channel::RetryHead() {
  assert(halted_ && !queue_.empty());
  Pending& head = queue_.front();
  halted_ = false;
  head.attempts++;
  retries_++;
  // Software restart: doorbell cost for the re-submission, and the record's
  // error status is acknowledged/cleared.
  ChargeSubmit(1);
  const CompletionRecord cur = record();
  PersistRecord(cur.addr & ~CompletionRecord::kErrorBit, cur.cnt);
  OBS_EVENT(obs::Track(obs::kProcDmaState, id_), "retry",
            {"attempt", static_cast<uint64_t>(head.attempts)},
            {"bytes", head.desc.size});
  MaybeStart();
}

void Channel::CompleteHeadBySoftware() {
  if (!halted_ || queue_.empty()) {
    return;
  }
  assert(sim_->in_task());
  Pending done = std::move(queue_.front());
  queue_.pop_front();
  halted_ = false;
  software_completions_++;
  OBS_EVENT(obs::Track(obs::kProcDmaState, id_), "sw_complete",
            {"bytes", done.desc.size},
            {"attempts", static_cast<uint64_t>(done.attempts)});
  // Graceful degradation: the waiting task moves the bytes itself through
  // the CPU path (synchronous, core held, persist barrier at the end).
  if (done.desc.dir == Descriptor::Dir::kWrite) {
    mem_->CpuWrite(done.desc.pmem_off, done.desc.dram, done.desc.size);
  } else {
    mem_->CpuRead(done.desc.dram, done.desc.pmem_off, done.desc.size);
  }
  // Only now — with the data durable — may the record advance over its SN;
  // the watermark must never cover bytes that could still be lost.
  CommitRecord(done.slot, done.cnt);
  bytes_completed_ += done.desc.size;
  descriptors_completed_++;
  WakeCovered();
  MaybeStart();
}

void Channel::RepairRecord() {
  assert(record_stale_);  // a fresh commit disarms the repair
  // Driver completion-timeout scrub: the hardware reached (shadow_addr_,
  // shadow_cnt_) but the persistent record missed the update; rewrite it,
  // preserving a pending error status.
  record_stale_ = false;
  record_repairs_++;
  uint64_t addr = shadow_addr_;
  if (halted_) {
    addr |= CompletionRecord::kErrorBit;
  }
  PersistRecord(addr, shadow_cnt_);
  OBS_EVENT(obs::Track(obs::kProcDmaState, id_), "record_repair",
            {"slot", shadow_addr_}, {"cnt", shadow_cnt_});
  WakeCovered();
}

void Channel::Suspend() {
  if (suspended_) {
    return;
  }
  suspended_ = true;
  suspend_start_ = sim_->now();
  if (sim_->in_task()) {
    sim_->Advance(mem_->params().chancmd_ns);
  }
  if (!queue_.empty() && queue_.front().started) {
    Pending& head = queue_.front();
    const bool is_write = head.desc.dir == Descriptor::Dir::kWrite;
    auto& flows = is_write ? mem_->write_flows() : mem_->read_flows();
    const double progress = flows.Progress(head.flow);
    if (progress < mem_->params().suspend_restart_threshold) {
      // Restart semantics: abort the transfer; it re-runs from scratch on
      // resume. It has landed nothing, and with its flow gone a crash in
      // between lands none.
      flows.CancelFlow(head.flow);
      head.started = false;
      head.flow = 0;
      engine_busy_ = false;
      OBS_EVENT(obs::Track(obs::kProcDmaState, id_), "xfer_restart",
                {"bytes", head.desc.size});
    }
    // Otherwise the in-flight transfer runs to completion; no new descriptor
    // starts while suspended.
  }
}

void Channel::Resume() {
  if (!suspended_) {
    return;
  }
  suspended_ = false;
  if (sim_->in_task()) {
    sim_->Advance(mem_->params().chancmd_ns);
  }
  // The CHANCMD suspension window is control-plane activity (one per epoch
  // at most), so it is always recorded, never sampled.
  if (auto* t = obs::Get()) {
    t->CompleteSpan(obs::Track(obs::kProcDmaState, id_), "suspended",
                    suspend_start_, sim_->now());
  }
  MaybeStart();
}

}  // namespace easyio::dma
