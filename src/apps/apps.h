// The paper's eight real-world applications (§6.3, Table 1), each a
// read-compute-write loop over the filesystem under test:
//
//   Snappy      read ~910KB compressed, decompress,    write ~1.9MB   (1:1)
//   JPGDecoder  read ~343KB coefficients, IDCT-decode, write ~6.3MB   (1:1)
//   AES         read 64KB, AES-128-CTR encrypt,        write 64KB     (1:1)
//   Grep        read 2MB text, match lines             (read-only)
//   KNN         read 1MB samples, k-d tree searches    (read-only)
//   BFS         read 1MB edges, build CSR + BFS        (read-only)
//   Fileserver  create/write/append/read/stat/delete over a file set  (1:2)
//   Webserver   read 256KB pages + append 16KB to one shared log      (10:1)
//
// Compute phases run real code (their outputs are checked), and each is
// charged analytic virtual CPU time on the simulated core: work units times
// a per-unit cost on the paper's reference core. The compute:I/O ratio —
// which decides how much CPU EasyIO can harvest — thus does not depend on
// the build host's speed.

#ifndef EASYIO_APPS_APPS_H_
#define EASYIO_APPS_APPS_H_

#include <cstdint>
#include <string>

#include "src/common/units.h"
#include "src/harness/testbed.h"

namespace easyio::apps {

enum class AppKind {
  kSnappy,
  kJpgDecoder,
  kAes,
  kGrep,
  kKnn,
  kBfs,
  kFileserver,
  kWebserver,
};

const char* AppName(AppKind app);

struct AppRunConfig {
  AppKind app = AppKind::kSnappy;
  // The machine and filesystem under test (FS kind, cores, device, DMA
  // fault plan).
  harness::TestbedConfig testbed;
  int cores = 1;
  int uthreads_per_core = 2;  // applied to EasyIO modes only
  uint64_t warmup_ns = 4_ms;
  uint64_t measure_ns = 25_ms;
  uint64_t seed = 7;
};

struct AppResult {
  uint64_t ops = 0;
  double ops_per_sec = 0;
  // Functional digest (match counts, reached vertices, output sizes...)
  // so correctness is checkable and the compute cannot be elided.
  uint64_t checksum = 0;
};

AppResult RunApp(const AppRunConfig& config);

}  // namespace easyio::apps

#endif  // EASYIO_APPS_APPS_H_
