#include "src/easyio/channel_manager.h"

#include <algorithm>
#include <cassert>

#include "src/obs/trace.h"

namespace easyio::core {

namespace {

// ---- Throttling and bulk split (paper §4.4) ----
// Length of one throttling epoch, µs-scale as in Caladan: the B channel's
// byte budget is b_limit_gbps × kEpochNs, and Listing 1's feedback runs
// once per epoch.
constexpr uint64_t kEpochNs = 20_us;
// Sub-epoch budget checks: how soon an overspent B channel is suspended
// (the simulator's granularity; the paper gives none).
constexpr uint64_t kCheckIntervalNs = 4_us;
// Listing 1's threshold: the B limit rises only while every L-app's SLO
// headroom exceeds it.
constexpr double kQosThreshold = 0.25;
// Clamp on B_APP_BW_LIMIT as Listing 1 moves it, so that it stays positive
// and bounded (the simulator's choice; the paper gives none).
constexpr double kBLimitMinGbps = 0.25;
constexpr double kBLimitMaxGbps = 16.0;
// §4.4: B-app bulk I/O is split into 64 KB descriptors so that suspending
// the B channel never re-executes a large transfer.
constexpr uint64_t kBulkSplitBytes = 64_KB;

// ---- Quarantine (fault handling, DESIGN.md §8; not a paper parameter) ----
// Probation before a quarantined channel returns to rotation.
constexpr uint64_t kQuarantineNs = 200_us;
constexpr int kQuarantineFaultThreshold = 2;  // consumer-reported faults

}  // namespace

ChannelManager::ChannelManager(sim::Simulation* sim, dma::DmaEngine* engine,
                               const Options& options)
    : sim_(sim),
      engine_(engine),
      options_(options),
      b_limit_gbps_(options.b_limit_init_gbps),
      health_(static_cast<size_t>(engine->num_channels())) {
  assert(options.num_l_channels >= 1);
  assert(options.num_l_channels < engine->num_channels() &&
         "the B channel is the first channel past the L set");
}

dma::Channel* ChannelManager::PickWriteChannel() {
  dma::Channel* best = nullptr;
  for (int i = 0; i < options_.num_l_channels; ++i) {
    dma::Channel& c = engine_->channel(i);
    if (c.quarantined()) {
      continue;
    }
    if (best == nullptr || c.queue_depth() < best->queue_depth()) {
      best = &c;
    }
  }
  return best;  // nullptr only when every L channel is quarantined
}

dma::Channel* ChannelManager::PickReadChannel() {
  // Rotate the scan start so consecutive reads spread over the L channels
  // (a channel is busy with post-descriptor housekeeping after a read even
  // when its queue looks empty).
  const int n = options_.num_l_channels;
  const int start = static_cast<int>(read_rotor_++ % static_cast<uint64_t>(n));
  for (int k = 0; k < n; ++k) {
    dma::Channel& c = engine_->channel((start + k) % n);
    if (c.quarantined()) {
      continue;
    }
    if (c.queue_depth() < options_.read_admission_qdepth) {
      return &c;
    }
  }
  return nullptr;  // shunt to memcpy (Listing 2)
}

dma::Sn ChannelManager::SubmitBulkWrite(uint64_t pmem_off, const void* src,
                                        size_t n) {
  assert(n > 0);
  // Rebalance: a quarantined B channel sheds bulk traffic onto the
  // least-loaded healthy L channel (the L-apps pay some interference, but
  // the transfer makes progress). With everything quarantined the B channel
  // is used regardless — WaitSn's fallback still guarantees completion.
  dma::Channel* target = b_channel();
  if (target->quarantined()) {
    if (dma::Channel* l = PickWriteChannel(); l != nullptr) {
      target = l;
    }
  }
  std::vector<dma::Descriptor> batch;
  const auto* p = static_cast<const std::byte*>(src);
  size_t done = 0;
  while (done < n) {
    const size_t chunk = std::min<size_t>(kBulkSplitBytes, n - done);
    dma::Descriptor d;
    d.dir = dma::Descriptor::Dir::kWrite;
    d.pmem_off = pmem_off + done;
    d.dram = const_cast<std::byte*>(p + done);
    d.size = static_cast<uint32_t>(chunk);
    batch.push_back(std::move(d));
    done += chunk;
  }
  std::vector<dma::Sn> sns;
  target->SubmitBatch(std::span<dma::Descriptor>(batch), &sns);
  return sns.back();
}

void ChannelManager::BulkWriteAndWait(uint64_t pmem_off, const void* src,
                                      size_t n) {
  const dma::Sn last = SubmitBulkWrite(pmem_off, src, n);
  dma::Channel& ch = engine_->ChannelFor(last);
  if (ch.WaitSn(last) == dma::DmaResult::kRecovered) {
    ReportChannelFault(ch);
  }
}

ChannelManager::LApp* ChannelManager::RegisterLApp(uint64_t target_ns) {
  l_apps_.push_back(std::make_unique<LApp>(target_ns));
  return l_apps_.back().get();
}

void ChannelManager::StartThrottling() {
  if (throttling_) {
    return;
  }
  throttling_ = true;
  epoch_start_bytes_ = b_channel()->bytes_completed();
  OBS_EVENT(obs::Track(obs::kProcChanMgr, 0), "throttle_start",
            {"b_chan", static_cast<uint64_t>(options_.num_l_channels)});
  sim_->Rearm(budget_check_, sim_->now() + kCheckIntervalNs, &OnTimer, this, 0);
  sim_->Rearm(epoch_tick_, sim_->now() + kEpochNs, &OnTimer, this, 1);
}

void ChannelManager::OnTimer(void* cm, uint64_t epoch) {
  auto* self = static_cast<ChannelManager*>(cm);
  epoch != 0 ? self->EpochTick() : self->BudgetCheck();
}

void ChannelManager::StopThrottling() {
  if (!throttling_) {
    return;
  }
  throttling_ = false;
  sim_->Disarm(budget_check_);
  sim_->Disarm(epoch_tick_);
  OBS_EVENT(obs::Track(obs::kProcChanMgr, 0), "throttle_stop");
  if (b_channel()->suspended()) {
    b_channel()->Resume();
  }
}

void ChannelManager::BudgetCheck() {
  // Budget for a whole epoch at the current limit; once the B channel has
  // moved that much in this epoch, suspend it until the epoch ends.
  const double budget_bytes =
      b_limit_gbps_ * kGiB * (static_cast<double>(kEpochNs) / 1e9);
  const uint64_t used = b_channel()->bytes_completed() - epoch_start_bytes_;
  if (static_cast<double>(used) >= budget_bytes &&
      !b_channel()->suspended()) {
    OBS_EVENT(obs::Track(obs::kProcChanMgr, 0), "budget_suspend",
              {"used_bytes", used},
              {"budget_bytes", static_cast<uint64_t>(budget_bytes)});
    b_channel()->Suspend();
  }
  sim_->Rearm(budget_check_, sim_->now() + kCheckIntervalNs, &OnTimer, this, 0);
}

void ChannelManager::ReportChannelFault(dma::Channel& ch) {
  ChannelHealth& h = health_[ch.id()];
  h.fault_score++;
  OBS_EVENT(obs::Track(obs::kProcChanMgr, 0), "channel_fault",
            {"chan", ch.id()}, {"score", static_cast<uint64_t>(h.fault_score)});
  if (!ch.quarantined() && h.fault_score >= kQuarantineFaultThreshold) {
    Quarantine(ch);
  }
}

void ChannelManager::Quarantine(dma::Channel& ch) {
  if (ch.quarantined()) {
    return;
  }
  ChannelHealth& h = health_[ch.id()];
  ch.set_quarantined(true);
  h.quarantined_until = sim_->now() + kQuarantineNs;
  quarantines_++;
  OBS_EVENT(obs::Track(obs::kProcChanMgr, 0), "quarantine", {"chan", ch.id()},
            {"qdepth", ch.queue_depth()});
  // CHANCMD kick: suspend/resume resets the engine's fetch state — an
  // in-flight descriptor below the restart threshold is aborted and re-run,
  // which is what un-sticks a wedged channel. The throttler owns the B
  // channel's suspend state while active, so don't fight it.
  if (!(throttling_ && &ch == b_channel())) {
    ch.Suspend();
    ch.Resume();
  }
  // Probation: the channel returns to rotation after kQuarantineNs with a
  // clean slate. The event checks quarantined_until so overlapping
  // quarantines (re-reported faults) keep the latest deadline.
  sim_->ScheduleAfter(kQuarantineNs, [this, &ch] {
    ChannelHealth& hh = health_[ch.id()];
    if (ch.quarantined() && sim_->now() >= hh.quarantined_until) {
      ch.set_quarantined(false);
      hh.fault_score = 0;
      OBS_EVENT(obs::Track(obs::kProcChanMgr, 0), "quarantine_end",
                {"chan", ch.id()});
    }
  });
}

void ChannelManager::EpochTick() {
  // Listing 1: min headroom across L-apps decides the direction.
  double min_headroom = 1e9;
  bool any_samples = false;
  for (auto& app : l_apps_) {
    if (app->samples_ == 0) {
      continue;
    }
    any_samples = true;
    const double target = static_cast<double>(app->target_ns());
    const double latency = static_cast<double>(app->TakeEpochMax());
    min_headroom = std::min(min_headroom, (target - latency) / target);
  }
  if (any_samples) {
    if (min_headroom < 0) {
      b_limit_gbps_ -= options_.delta_gbps;  // throttle down B-apps
    } else if (min_headroom > kQosThreshold) {
      b_limit_gbps_ += options_.delta_gbps;  // throttle up B-apps
    }
    b_limit_gbps_ = std::clamp(b_limit_gbps_, kBLimitMinGbps, kBLimitMaxGbps);
  }
  // Epoch ticks are control-plane events (one per 20µs): always recorded.
  if (auto* t = obs::Get()) {
    const uint64_t epoch_bytes =
        b_channel()->bytes_completed() - epoch_start_bytes_;
    t->Instant(obs::Track(obs::kProcChanMgr, 0), "epoch", sim_->now(),
               {{"epoch_bytes", epoch_bytes}});
    t->Counter(obs::Track(obs::kProcChanMgr, 0), "b_limit_mbps", sim_->now(),
               static_cast<uint64_t>(b_limit_gbps_ * 1000.0));
  }
  // New epoch: reset accounting and resume the B channel.
  epoch_start_bytes_ = b_channel()->bytes_completed();
  if (b_channel()->suspended()) {
    b_channel()->Resume();
  }
  sim_->Rearm(epoch_tick_, sim_->now() + kEpochNs, &OnTimer, this, 1);
}

}  // namespace easyio::core
