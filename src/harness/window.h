// RunWindow: the closed-loop measurement window of FxMark (§6.2), the
// eight applications (§6.3) and Fig 11's DWOM with colocated compute (§6.4).
//
// In this order it creates the testbed's scheduler over `cores` worker
// cores, schedules "measuring" at now + warmup_ns and then "stop" at
// now + warmup_ns + measure_ns, spawns workers w = 0 .. workers-1 on core
// w % cores, and runs the simulation until every worker returns. That order
// fixes the event records and spawn order, so a caller's simulated numbers
// depend only on its set-up and its worker body. Each worker loops until
// `stop` and counts the ops it finishes while counting() holds; it reaches
// the scheduler (to Yield) through tb.scheduler().

#ifndef EASYIO_HARNESS_WINDOW_H_
#define EASYIO_HARNESS_WINDOW_H_

#include <cstdint>

#include "src/harness/testbed.h"

namespace easyio::harness {

struct WindowFlags {
  bool measuring = false;
  bool stop = false;
  // True while an op that finishes now falls inside the measured window.
  bool counting() const { return measuring && !stop; }
};

// `worker(w, flags)` is worker w's whole uthread body.
template <typename Worker>
void RunWindow(Testbed& tb, int cores, bool work_stealing, int workers,
               uint64_t warmup_ns, uint64_t measure_ns,
               const Worker& worker) {
  uthread::Scheduler* sched = tb.MakeScheduler(cores, work_stealing);
  WindowFlags flags;
  const sim::SimTime start = tb.sim().now();
  tb.sim().ScheduleAt(start + warmup_ns, [&flags] { flags.measuring = true; });
  tb.sim().ScheduleAt(start + warmup_ns + measure_ns,
                      [&flags] { flags.stop = true; });
  for (int w = 0; w < workers; ++w) {
    sched->SpawnOn(w % cores, [&worker, &flags, w] { worker(w, flags); });
  }
  tb.sim().Run();
}

}  // namespace easyio::harness

#endif  // EASYIO_HARNESS_WINDOW_H_
