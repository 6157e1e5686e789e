#include "src/sim/flow_resource.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

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

const FlowResource::Flow* FlowResource::Find(FlowId id) const {
  for (const std::vector<Flow>& flows : flows_) {
    for (const Flow& f : flows) {
      if (f.id == id) {
        return &f;
      }
    }
  }
  return nullptr;
}

bool FlowResource::HasFlow(FlowId id) const { return Find(id) != nullptr; }

FlowResource::FlowId FlowResource::StartFlow(uint64_t bytes,
                                             double per_flow_cap_gbps,
                                             FlowType type, DoneFn done,
                                             Landing landing) {
  Settle();
  const FlowId id = next_id_++;
  // After every flow of equal cap: ids grow, so (cap, id) order holds.
  auto& flows = FlowsOf(type);
  flows.emplace(std::upper_bound(flows.begin(), flows.end(), per_flow_cap_gbps,
                                 [](double cap, const Flow& f) {
                                   return cap < f.cap_gbps;
                                 }),
                id, static_cast<double>(bytes), static_cast<double>(bytes),
                per_flow_cap_gbps, 0.0, std::move(done), landing);
  Recompute();
  return id;
}

double FlowResource::ProgressOf(const Flow& f) const {
  if (f.bytes_total <= 0) {
    return 1.0;
  }
  const double elapsed_s =
      static_cast<double>(sim_->now() - last_settle_) / 1e9;
  const double left = std::max(0.0, f.bytes_left - f.rate_bps * elapsed_s);
  return std::clamp(1.0 - left / f.bytes_total, 0.0, 1.0);
}

double FlowResource::Progress(FlowId id) const {
  const Flow* f = Find(id);
  return f == nullptr ? 1.0 : ProgressOf(*f);
}

double FlowResource::CancelFlow(FlowId id) {
  Settle();
  for (std::vector<Flow>& flows : flows_) {
    const auto it = std::find_if(flows.begin(), flows.end(),
                                 [id](const Flow& f) { return f.id == id; });
    if (it == flows.end()) {
      continue;
    }
    const double progress = ProgressOf(*it);  // settled: no elapsed time
    bytes_completed_ +=
        static_cast<uint64_t>(it->bytes_total - std::max(0.0, it->bytes_left));
    flows.erase(it);  // shifts the tail; (cap, id) order is preserved
    Recompute();
    return progress;
  }
  return 1.0;
}

void FlowResource::Settle() {
  const SimTime now = sim_->now();
  if (now == last_settle_) {
    return;
  }
  const double elapsed_s = static_cast<double>(now - last_settle_) / 1e9;
  for (std::vector<Flow>& flows : flows_) {
    for (Flow& flow : flows) {
      flow.bytes_left =
          std::max(0.0, flow.bytes_left - flow.rate_bps * elapsed_s);
    }
  }
  last_settle_ = now;
}

double FlowResource::MaxMin(std::vector<Flow>& flows, double aggregate_gbps) {
  // Water-filling in ascending per-flow-cap order: each flow takes its cap
  // or an equal share of what the flows before it left, whichever is less.
  double sum_rate_bps = 0;
  double remaining = GbpsToBps(std::max(0.0, aggregate_gbps));
  size_t left = flows.size();
  for (Flow& flow : flows) {
    const double share = remaining / static_cast<double>(left);
    const double rate = std::min(GbpsToBps(flow.cap_gbps), share);
    flow.rate_bps = rate;
    remaining -= rate;
    left--;
    sum_rate_bps += rate;
  }
  return sum_rate_bps;
}

void FlowResource::Recompute() {
  auto& cpu = FlowsOf(FlowType::kCpu);
  auto& dma = FlowsOf(FlowType::kDma);
  if (cpu.empty() && dma.empty()) {
    sim_->Disarm(completion_);
    if (total_rate_bps_ != 0) {
      total_rate_bps_ = 0;
      if (rates_changed_hook_) {
        rates_changed_hook_();
      }
    }
    return;
  }

  // A type with no flows shares out nothing: skip its capacity model.
  const double cpu_sum =
      cpu.empty() ? 0.0
                  : MaxMin(cpu, model_.cpu_aggregate
                                    ? model_.cpu_aggregate(
                                          static_cast<int>(cpu.size()))
                                    : model_.total);
  const double dma_sum =
      dma.empty() ? 0.0
                  : MaxMin(dma, model_.dma_aggregate
                                    ? model_.dma_aggregate(
                                          static_cast<int>(dma.size()))
                                    : model_.total);
  const double total_bps = GbpsToBps(model_.total);
  double rate_sum = cpu_sum + dma_sum;
  if (rate_sum > total_bps && rate_sum > 0) {
    const double scale = total_bps / rate_sum;
    for (std::vector<Flow>& flows : flows_) {
      for (Flow& flow : flows) {
        flow.rate_bps *= scale;
      }
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
  for (const std::vector<Flow>& flows : flows_) {
    for (const Flow& flow : flows) {
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
  }
  if (min_dt_ns < 0) {
    sim_->Disarm(completion_);  // everything stalled
    return;
  }
  const uint64_t delay =
      std::max<uint64_t>(min_dt_ns <= 0 ? 0 : 1,
                         static_cast<uint64_t>(std::ceil(min_dt_ns)));
  sim_->Rearm(completion_, sim_->now() + delay, &FlowResource::OnCompletion,
              this, 0);
}

void FlowResource::OnCompletion(void* resource, uint64_t /*unused*/) {
  static_cast<FlowResource*>(resource)->CompleteFinished();
}

void FlowResource::CompleteFinished() {
  Settle();
  // Collect and remove all flows that just finished, then recompute before
  // running callbacks (callbacks may start new flows). The in-place
  // compaction keeps surviving flows in (cap, id) order. The callback
  // buffer is recycled across completions (swap out / swap back).
  std::vector<std::pair<FlowId, DoneFn>> done;
  done.swap(done_scratch_);
  for (std::vector<Flow>& flows : flows_) {
    size_t keep = 0;
    for (size_t i = 0; i < flows.size(); ++i) {
      Flow& flow = flows[i];
      if (flow.bytes_left <= kDoneEpsilonBytes) {
        bytes_completed_ += static_cast<uint64_t>(flow.bytes_total);
        done.emplace_back(flow.id, std::move(flow.done));
      } else {
        if (keep != i) {
          flows[keep] = std::move(flow);
        }
        keep++;
      }
    }
    flows.erase(flows.begin() + static_cast<std::ptrdiff_t>(keep),
                flows.end());
  }
  // Same-instant completions run in start order, whatever their type or cap.
  if (done.size() > 1) {
    std::sort(done.begin(), done.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  Recompute();
  for (auto& [id, fn] : done) {
    if (fn) {
      fn();
    }
  }
  done.clear();
  done_scratch_.swap(done);
}

}  // namespace easyio::sim
