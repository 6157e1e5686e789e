// RAII glue between the obs tracer and the simulation's virtual clock.
//
// A TraceSession installs a global obs::Tracer whose clock reads
// Simulation::Get()->now() — i.e. whatever simulation is live when an event
// is recorded — and, at scope exit, uninstalls it and writes the collected
// events to a Chrome/Perfetto trace-event JSON file. Benches use it behind
// their --trace=<path> flag:
//
//   std::optional<sim::TraceSession> trace;
//   if (!trace_path.empty()) trace.emplace(trace_path, sample_every);
//   ... run the workload ...
//   // destruction writes the file and prints a one-line summary to stderr
//
// Because the clock goes through Simulation::Get(), the session may be
// created before the Simulation is constructed; it only requires a live
// simulation at the moment an event is actually recorded (which is always
// true — instrumentation sites run inside the simulation).
//
// Thread binding: both the tracer installation and Simulation::Get() are
// per-host-thread (thread_local), so a TraceSession instruments exactly the
// simulations run on the thread that constructed it. Under
// harness::RunIndexed this means a session created *inside* a scenario
// job traces that job alone, whichever worker runs it; a session created
// on the calling thread does not follow jobs onto workers.
// Construct, run, and destroy a session on one thread.

#ifndef EASYIO_SIM_OBS_SESSION_H_
#define EASYIO_SIM_OBS_SESSION_H_

#include <cstdio>
#include <string>
#include <utility>

#include "src/obs/trace.h"
#include "src/sim/simulation.h"

namespace easyio::sim {

class TraceSession {
 public:
  explicit TraceSession(std::string path, uint32_t sample_every = 1)
      : path_(std::move(path)),
        tracer_(obs::Tracer::Options{
            .clock = [] { return Simulation::Get()->now(); },
            .sample_every = sample_every}) {
    obs::Install(&tracer_);
  }

  ~TraceSession() {
    obs::Uninstall(&tracer_);
    if (tracer_.WriteJsonFile(path_)) {
      std::fprintf(stderr, "trace: wrote %zu events (%llu dropped) to %s\n",
                   tracer_.event_count(),
                   static_cast<unsigned long long>(tracer_.dropped_events()),
                   path_.c_str());
    } else {
      std::fprintf(stderr, "trace: FAILED to write %s\n", path_.c_str());
    }
  }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  obs::Tracer& tracer() { return tracer_; }

 private:
  std::string path_;
  obs::Tracer tracer_;
};

}  // namespace easyio::sim

#endif  // EASYIO_SIM_OBS_SESSION_H_
