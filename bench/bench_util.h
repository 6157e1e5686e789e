// Small shared helpers for the figure-reproduction benches.

#ifndef EASYIO_BENCH_BENCH_UTIL_H_
#define EASYIO_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>

#include "src/dma/fault_plan.h"

namespace easyio::bench {

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

// The command-line flags the benches share. Each bench names the flags it
// honors and parses argv once with ParseFlags; any other argument (a typo,
// or a flag this bench does not take) prints a usage line to stderr and
// exits 2, so a run never silently drops an option.
//   --jobs=<N>          worker threads for independent cells
//                       (harness::RunIndexed), N >= 1; the only way to set
//                       them (default: the host's hardware threads)
//   --faults=<seed>     a nonzero seed injects a seeded random FaultPlan
//                       (see MakeBenchFaultPlan); 0, the default, is
//                       byte-identical to omitting the flag
//   --trace=<path>      Perfetto trace of the bench's designated run (see
//                       docs/OBSERVABILITY.md)
//   --trace-sample=<N>  keep one in N sampled trace events, N >= 1
//                       (default: the bench's own)
struct Flags {
  enum Accepts : unsigned { kJobs = 1, kFaults = 2, kTrace = 4 };

  int jobs = 1;
  uint64_t faults = 0;
  std::string trace;  // empty = tracing stays off
  uint32_t trace_sample = 1;
  bool tracing() const { return !trace.empty(); }
};

// `accepts` is a mask of Flags::Accepts.
inline Flags ParseFlags(int argc, char** argv, unsigned accepts,
                        uint32_t default_trace_sample = 1) {
  Flags f;
  f.jobs = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  f.trace_sample = default_trace_sample;
  // Parses all of `text` as a decimal integer.
  const auto number = [](std::string_view text, auto* out) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
    return ec == std::errc() && ptr == end;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    // True when this bench accepts `flag` and `a` is `name` followed by a
    // value, which is stored in *out.
    const auto value = [&](std::string_view name, unsigned flag,
                           std::string_view* out) {
      if ((accepts & flag) == 0 || !a.starts_with(name)) {
        return false;
      }
      *out = a.substr(name.size());
      return true;
    };
    std::string_view v;
    bool ok = false;
    if (value("--jobs=", Flags::kJobs, &v)) {
      ok = number(v, &f.jobs) && f.jobs >= 1;
    } else if (value("--faults=", Flags::kFaults, &v)) {
      ok = number(v, &f.faults);
    } else if (value("--trace=", Flags::kTrace, &v)) {
      f.trace = v;
      ok = true;
    } else if (value("--trace-sample=", Flags::kTrace, &v)) {
      ok = number(v, &f.trace_sample) && f.trace_sample >= 1;
    }
    if (!ok) {
      std::fprintf(stderr, "%s: unrecognized argument '%s'\nusage: %s%s%s%s\n",
                   argv[0], argv[i], argv[0],
                   (accepts & Flags::kJobs) != 0 ? " [--jobs=<N>]" : "",
                   (accepts & Flags::kFaults) != 0 ? " [--faults=<seed>]" : "",
                   (accepts & Flags::kTrace) != 0
                       ? " [--trace=<path>] [--trace-sample=<N>]"
                       : "");
      std::exit(2);
    }
  }
  return f;
}

// The shared fault shape for figure benches: a couple of transfer errors,
// one stall and one torn record per channel on average, all inside the
// first 128 descriptors each channel sees so the faults actually fire on
// short runs. Deterministic in (seed, num_channels). Seed 0 is the empty
// plan (infallible hardware), so a bench assigns the result unconditionally.
inline dma::FaultPlan MakeBenchFaultPlan(uint64_t seed, int num_channels) {
  if (seed == 0) {
    return {};
  }
  return dma::FaultPlan::Random(seed, num_channels,
                                /*n_errors=*/2 * num_channels,
                                /*n_stalls=*/num_channels,
                                /*n_torn=*/num_channels,
                                /*ordinal_range=*/128,
                                /*stall_ns=*/50'000);
}

// Returns by value (not a shared static buffer): two SizeName calls in one
// printf argument list each keep their own text, and concurrent scenario
// jobs formatting labels never race.
inline std::string SizeName(uint64_t io_size) {
  char buf[16];
  if (io_size >= 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%lluM",
                  static_cast<unsigned long long>(io_size >> 20));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluK",
                  static_cast<unsigned long long>(io_size >> 10));
  }
  return buf;
}

}  // namespace easyio::bench

#endif  // EASYIO_BENCH_BENCH_UTIL_H_
