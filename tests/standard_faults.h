// The DMA fault plan the crash-consistency tests sweep under.

#ifndef EASYIO_TESTS_STANDARD_FAULTS_H_
#define EASYIO_TESTS_STANDARD_FAULTS_H_

#include "src/dma/fault_plan.h"

namespace easyio::crashmonkey {

// Sequential crashmonkey workloads submit one descriptor at a time and the
// channel picks are deterministic (least-loaded, channel 0 when idle), so
// low channel-0 ordinals are guaranteed to be consumed. One of each fault
// class, early in the run.
inline dma::FaultPlan StandardFaults() {
  dma::FaultPlan plan;
  plan.errors.push_back({/*channel=*/0, /*ordinal=*/0, /*count=*/1});
  plan.stalls.push_back({/*channel=*/0, /*ordinal=*/1, /*stall_ns=*/40'000});
  plan.torn.push_back({/*channel=*/0, /*ordinal=*/2});
  plan.errors.push_back({/*channel=*/0, /*ordinal=*/5, /*count=*/2});
  return plan;
}

}  // namespace easyio::crashmonkey

#endif  // EASYIO_TESTS_STANDARD_FAULTS_H_
