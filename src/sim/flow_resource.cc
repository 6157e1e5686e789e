#include "src/sim/flow_resource.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/common/units.h"

namespace easyio::sim {

namespace {
constexpr double kDoneEpsilonBytes = 0.5;

double GbpsToBps(double gbps) { return gbps * kGiB; }
}  // namespace

FlowResource::FlowResource(Simulation* sim, std::string name,
                           CapacityModel model)
    : sim_(sim), name_(std::move(name)), model_(std::move(model)),
      last_settle_(sim->now()) {}

std::vector<FlowResource::Flow>::iterator FlowResource::FindFlow(FlowId id) {
  auto it = std::lower_bound(
      flows_.begin(), flows_.end(), id,
      [](const Flow& f, FlowId value) { return f.id < value; });
  return it != flows_.end() && it->id == id ? it : flows_.end();
}

std::vector<FlowResource::Flow>::const_iterator FlowResource::FindFlow(
    FlowId id) const {
  auto it = std::lower_bound(
      flows_.begin(), flows_.end(), id,
      [](const Flow& f, FlowId value) { return f.id < value; });
  return it != flows_.end() && it->id == id ? it : flows_.end();
}

bool FlowResource::HasFlow(FlowId id) const {
  return FindFlow(id) != flows_.end();
}

FlowResource::FlowId FlowResource::StartFlow(uint64_t bytes,
                                             double per_flow_cap_gbps,
                                             FlowType type, DoneFn done) {
  Settle();
  const FlowId id = next_id_++;
  Flow flow;
  flow.id = id;
  flow.type = type;
  flow.bytes_total = static_cast<double>(bytes);
  flow.bytes_left = static_cast<double>(bytes);
  flow.cap_gbps = per_flow_cap_gbps;
  flow.done = std::move(done);
  flows_.push_back(std::move(flow));  // ids are monotonic: stays sorted
  (type == FlowType::kCpu ? cpu_flows_ : dma_flows_)++;
  auto& order = OrderFor(type);
  const auto entry = std::make_pair(per_flow_cap_gbps, id);
  order.insert(std::upper_bound(order.begin(), order.end(), entry), entry);
  Recompute();
  return id;
}

double FlowResource::Progress(FlowId id) const {
  auto it = FindFlow(id);
  if (it == flows_.end()) {
    return 1.0;
  }
  const Flow& f = *it;
  if (f.bytes_total <= 0) {
    return 1.0;
  }
  const double elapsed_s =
      static_cast<double>(sim_->now() - last_settle_) / 1e9;
  const double left = std::max(0.0, f.bytes_left - f.rate_bps * elapsed_s);
  return std::clamp(1.0 - left / f.bytes_total, 0.0, 1.0);
}

double FlowResource::CancelFlow(FlowId id) {
  Settle();
  auto it = FindFlow(id);
  if (it == flows_.end()) {
    return 1.0;
  }
  const Flow& f = *it;
  const double progress =
      f.bytes_total <= 0
          ? 1.0
          : std::clamp(1.0 - f.bytes_left / f.bytes_total, 0.0, 1.0);
  bytes_completed_ +=
      static_cast<uint64_t>(f.bytes_total - std::max(0.0, f.bytes_left));
  (f.type == FlowType::kCpu ? cpu_flows_ : dma_flows_)--;
  auto& order = OrderFor(f.type);
  const auto entry = std::make_pair(f.cap_gbps, id);
  const auto oit = std::lower_bound(order.begin(), order.end(), entry);
  assert(oit != order.end() && *oit == entry);
  order.erase(oit);
  flows_.erase(it);  // shifts the tail; ascending-id order is preserved
  Recompute();
  return progress;
}

void FlowResource::Settle() {
  const SimTime now = sim_->now();
  if (now == last_settle_) {
    return;
  }
  const double elapsed_s = static_cast<double>(now - last_settle_) / 1e9;
  for (Flow& flow : flows_) {
    flow.bytes_left = std::max(0.0, flow.bytes_left - flow.rate_bps * elapsed_s);
  }
  last_settle_ = now;
}

void FlowResource::MaxMin(
    const std::vector<std::pair<double, FlowId>>& order,
    double aggregate_gbps, double* sum_rate_bps) {
  // Water-filling in ascending per-flow-cap order (pre-sorted, maintained
  // incrementally by StartFlow/CancelFlow/completion).
  *sum_rate_bps = 0;
  if (order.empty()) {
    return;
  }
  double remaining = GbpsToBps(std::max(0.0, aggregate_gbps));
  size_t left = order.size();
  for (const auto& [cap_gbps, id] : order) {
    auto it = FindFlow(id);
    assert(it != flows_.end());
    const double share = remaining / static_cast<double>(left);
    const double rate = std::min(GbpsToBps(cap_gbps), share);
    it->rate_bps = rate;
    remaining -= rate;
    left--;
    *sum_rate_bps += rate;
  }
}

void FlowResource::EndBatch() {
  assert(batch_depth_ > 0);
  if (--batch_depth_ == 0 && recompute_deferred_) {
    recompute_deferred_ = false;
    Recompute();
  }
}

void FlowResource::Recompute() {
  if (batch_depth_ > 0) {
    // A BatchScope is open: one recomputation at scope exit covers every
    // mutation made at this instant. The still-current completion record
    // cannot fire meanwhile (no events run inside the synchronous scope).
    recompute_deferred_ = true;
    return;
  }
  ++event_gen_;  // the pending completion record, if any, is now stale
  if (flows_.empty()) {
    if (total_rate_bps_ != 0) {
      total_rate_bps_ = 0;
      if (rates_changed_hook_) {
        rates_changed_hook_();
      }
    }
    return;
  }

  double cpu_sum = 0;
  double dma_sum = 0;
  MaxMin(cpu_order_,
         model_.cpu_aggregate ? model_.cpu_aggregate(cpu_flows_) : model_.total,
         &cpu_sum);
  MaxMin(dma_order_,
         model_.dma_aggregate ? model_.dma_aggregate(dma_flows_) : model_.total,
         &dma_sum);
  const double total_bps = GbpsToBps(model_.total);
  double rate_sum = cpu_sum + dma_sum;
  if (rate_sum > total_bps && rate_sum > 0) {
    const double scale = total_bps / rate_sum;
    for (Flow& flow : flows_) {
      flow.rate_bps *= scale;
    }
    rate_sum = total_bps;
  }
  if (rate_sum != total_rate_bps_) {
    total_rate_bps_ = rate_sum;
    if (rates_changed_hook_) {
      rates_changed_hook_();
    }
  }

  // Schedule the earliest completion.
  double min_dt_ns = -1;
  for (const Flow& flow : flows_) {
    if (flow.bytes_left <= kDoneEpsilonBytes) {
      min_dt_ns = 0;
      break;
    }
    if (flow.rate_bps <= 0) {
      continue;  // throttled to zero; no progress until rates change
    }
    const double dt_ns = flow.bytes_left / flow.rate_bps * 1e9;
    if (min_dt_ns < 0 || dt_ns < min_dt_ns) {
      min_dt_ns = dt_ns;
    }
  }
  if (min_dt_ns < 0) {
    return;  // everything stalled
  }
  const uint64_t delay =
      std::max<uint64_t>(min_dt_ns <= 0 ? 0 : 1,
                         static_cast<uint64_t>(std::ceil(min_dt_ns)));
  sim_->ScheduleCall(sim_->now() + delay, &FlowResource::OnCompletion, this,
                     event_gen_);
}

bool FlowResource::OnCompletion(void* resource, uint64_t gen) {
  auto* self = static_cast<FlowResource*>(resource);
  if (gen != self->event_gen_) {
    return false;  // superseded by a later Recompute
  }
  self->CompleteFinished();
  return true;
}

void FlowResource::CompleteFinished() {
  Settle();
  // Collect and remove all flows that just finished, then recompute before
  // running callbacks (callbacks may start new flows). The in-place
  // compaction keeps surviving flows in ascending-id order. The callback
  // buffer is recycled across completions (swap out / swap back).
  std::vector<DoneFn> done;
  done.swap(done_scratch_);
  size_t keep = 0;
  for (size_t i = 0; i < flows_.size(); ++i) {
    Flow& flow = flows_[i];
    if (flow.bytes_left <= kDoneEpsilonBytes) {
      bytes_completed_ += static_cast<uint64_t>(flow.bytes_total);
      (flow.type == FlowType::kCpu ? cpu_flows_ : dma_flows_)--;
      auto& order = OrderFor(flow.type);
      const auto entry = std::make_pair(flow.cap_gbps, flow.id);
      const auto oit = std::lower_bound(order.begin(), order.end(), entry);
      assert(oit != order.end() && *oit == entry);
      order.erase(oit);
      done.push_back(std::move(flow.done));
    } else {
      if (keep != i) {
        flows_[keep] = std::move(flow);
      }
      keep++;
    }
  }
  flows_.resize(keep);
  Recompute();
  {
    // Callbacks often start follow-up flows synchronously (a DMA channel
    // launching its next descriptor); batch their recomputations so N
    // same-instant completions trigger one water-fill, not N.
    BatchScope batch(this);
    for (DoneFn& fn : done) {
      if (fn) {
        fn();
      }
    }
  }
  done.clear();
  done_scratch_.swap(done);
}

}  // namespace easyio::sim
