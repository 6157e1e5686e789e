#include "src/apps/apps.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>

#include "src/apps/aes.h"
#include "src/apps/graph.h"
#include "src/apps/grep.h"
#include "src/apps/idct.h"
#include "src/apps/kdtree.h"
#include "src/apps/lz.h"
#include "src/common/rng.h"
#include "src/harness/window.h"

namespace easyio::apps {

namespace {

const char* kNeedle = "EasyIO";

// Compute phases execute their real code (outputs are checked), but the
// *virtual time charged* is analytic: work units times a per-unit cost on
// the reference core (the paper's Xeon Gold 6240M). This keeps every app's
// compute:I/O ratio — which decides how much CPU EasyIO can harvest —
// deterministic and independent of the build host's speed or codegen.
//
// Reference-core cost table (ns):
constexpr double kLzDecompressNsPerByte = 0.40;   // ~2.5 GB/s
constexpr double kIdctNsPerBlock = 900.0;         // 8x8 IDCT + RGB expand
constexpr double kAesNsPerByte = 10.0;            // plain software AES-128
constexpr double kGrepNsPerByte = 0.33;           // grep -i fold + search
constexpr double kKnnNsPerQuery = 400.0;          // ~20 node visits
constexpr double kBfsNsPerEdge = 1.2;
constexpr double kBfsNsPerVertex = 2.0;
constexpr double kDeserializeNsPerByte = 0.08;

// Runs `fn` for real, then charges `cost_ns` of virtual CPU time.
template <typename Fn>
void Compute(sim::Simulation* sim, double cost_ns, Fn&& fn) {
  fn();
  sim->Advance(static_cast<uint64_t>(std::max(cost_ns, 100.0)));
}

std::span<const std::byte> AsBytes(const std::vector<uint8_t>& v) {
  return std::span(reinterpret_cast<const std::byte*>(v.data()), v.size());
}

struct WorkerEnv {
  harness::Testbed* tb;
  int worker;
  Rng rng;
  uint64_t ops = 0;  // iterations so far, warm-up included
  uint64_t checksum = 0;
};

// Per-app setup (runs inside a task before measurement) and worker-iteration
// body. Setup state shared across workers lives in AppState.
struct AppState {
  std::vector<int> input_fds;       // per worker (or shared pool)
  std::vector<int> output_fds;      // per worker
  int shared_fd = -1;               // webserver log
  size_t input_bytes = 0;
  std::unique_ptr<KdTree> kdtree;   // KNN
};

void WriteWholeFile(harness::Testbed& tb, int fd,
                    std::span<const std::byte> data) {
  constexpr size_t kChunk = 1_MB;
  for (size_t off = 0; off < data.size(); off += kChunk) {
    const size_t n = std::min(kChunk, data.size() - off);
    EASYIO_CHECK_OK(tb.fs().Write(fd, off, data.subspan(off, n)).status());
  }
}

// ---- Snappy ----

void SnappySetup(harness::Testbed& tb, int workers, uint64_t seed,
                 AppState* st) {
  // ~1.9MB original with ~2:1 compressibility: compressible text
  // interleaved with incompressible noise.
  std::vector<uint8_t> original = SyntheticText(950_KB, kNeedle, 0.01, seed);
  Rng rng(seed + 1);
  original.reserve(1900_KB);
  for (size_t i = 0; i < 950_KB; ++i) {
    original.push_back(static_cast<uint8_t>(rng.Next()));
  }
  const std::vector<uint8_t> compressed =
      LzCompress(original.data(), original.size());
  st->input_bytes = compressed.size();
  for (int w = 0; w < workers; ++w) {
    int in_fd = *tb.fs().Create("/snappy_in" + std::to_string(w));
    WriteWholeFile(tb, in_fd, AsBytes(compressed));
    st->input_fds.push_back(in_fd);
    st->output_fds.push_back(
        *tb.fs().Create("/snappy_out" + std::to_string(w)));
  }
}

void SnappyIter(WorkerEnv& env, AppState& st) {
  auto& tb = *env.tb;
  std::vector<std::byte> in(st.input_bytes);
  EASYIO_CHECK_OK(
      tb.fs().Read(st.input_fds[env.worker], 0, in).status());
  std::vector<uint8_t> out;
  out.reserve(2 * in.size());
  const bool ok = LzDecompress(reinterpret_cast<const uint8_t*>(in.data()),
                               in.size(), &out);
  Compute(&tb.sim(), kLzDecompressNsPerByte * static_cast<double>(out.size()),
          [&] { env.checksum += ok ? out.size() : 0; });
  EASYIO_CHECK_OK(
      tb.fs().Write(st.output_fds[env.worker], 0, AsBytes(out)).status());
}

// ---- JPGDecoder ----

void JpgSetup(harness::Testbed& tb, int workers, uint64_t seed,
              AppState* st) {
  std::vector<uint8_t> stream;
  // The paper's images decode 343KB -> 6.3MB; we scale each image to 1/8 of
  // that (same 1:18 expansion) so one decode fits the measurement windows.
  constexpr int kBlocks = 4096;
  for (int b = 0; b < kBlocks; ++b) {
    const auto block = EncodeSyntheticBlock(seed * 977 + b + 1);
    stream.insert(stream.end(), block.begin(), block.end());
  }
  st->input_bytes = stream.size();
  for (int w = 0; w < workers; ++w) {
    int in_fd = *tb.fs().Create("/jpg_in" + std::to_string(w));
    WriteWholeFile(tb, in_fd, AsBytes(stream));
    st->input_fds.push_back(in_fd);
    st->output_fds.push_back(*tb.fs().Create("/jpg_out" + std::to_string(w)));
  }
}

void JpgIter(WorkerEnv& env, AppState& st) {
  auto& tb = *env.tb;
  std::vector<std::byte> in(st.input_bytes);
  EASYIO_CHECK_OK(tb.fs().Read(st.input_fds[env.worker], 0, in).status());
  std::vector<uint8_t> rgb;
  rgb.reserve(4096 * kBlockOutBytes);
  size_t blocks = 0;
  {
    size_t off = 0;
    while (off < in.size()) {
      if (!DecodeBlock(reinterpret_cast<const uint8_t*>(in.data()), in.size(),
                       &off, &rgb)) {
        break;
      }
      blocks++;
    }
  }
  Compute(&tb.sim(), kIdctNsPerBlock * static_cast<double>(blocks),
          [&] { env.checksum += rgb.size(); });
  // The decoded image is written out in 1MB stripes.
  WriteWholeFile(tb, st.output_fds[env.worker], AsBytes(rgb));
}

// ---- AES ----

void AesSetup(harness::Testbed& tb, int workers, uint64_t seed,
              AppState* st) {
  Rng rng(seed);
  std::vector<uint8_t> plain(64_KB);
  for (auto& b : plain) {
    b = static_cast<uint8_t>(rng.Next());
  }
  st->input_bytes = plain.size();
  for (int w = 0; w < workers; ++w) {
    int in_fd = *tb.fs().Create("/aes_in" + std::to_string(w));
    WriteWholeFile(tb, in_fd, AsBytes(plain));
    st->input_fds.push_back(in_fd);
    st->output_fds.push_back(*tb.fs().Create("/aes_out" + std::to_string(w)));
  }
}

void AesIter(WorkerEnv& env, AppState& st) {
  static const uint8_t kKey[16] = {1, 2,  3,  4,  5,  6,  7,  8,
                                   9, 10, 11, 12, 13, 14, 15, 16};
  static const Aes128 cipher(kKey);
  auto& tb = *env.tb;
  std::vector<std::byte> in(64_KB);
  EASYIO_CHECK_OK(tb.fs().Read(st.input_fds[env.worker], 0, in).status());
  std::vector<uint8_t> out(64_KB);
  Compute(&tb.sim(), kAesNsPerByte * static_cast<double>(in.size()), [&] {
    cipher.CtrCrypt(reinterpret_cast<const uint8_t*>(in.data()), out.data(),
                    in.size(), env.ops + 1);
    env.checksum += out[0];
  });
  EASYIO_CHECK_OK(
      tb.fs().Write(st.output_fds[env.worker], 0, AsBytes(out)).status());
}

// ---- Grep ----

void GrepSetup(harness::Testbed& tb, int workers, uint64_t seed,
               AppState* st) {
  for (int w = 0; w < workers; ++w) {
    const auto text =
        SyntheticText(2_MB, kNeedle, 0.02, seed + static_cast<uint64_t>(w));
    int fd = *tb.fs().Create("/grep_in" + std::to_string(w));
    WriteWholeFile(tb, fd, AsBytes(text));
    st->input_fds.push_back(fd);
  }
  st->input_bytes = 2_MB;
}

void GrepIter(WorkerEnv& env, AppState& st) {
  auto& tb = *env.tb;
  std::vector<std::byte> buf(st.input_bytes);
  EASYIO_CHECK_OK(tb.fs().Read(st.input_fds[env.worker], 0, buf).status());
  Compute(&tb.sim(), kGrepNsPerByte * static_cast<double>(buf.size()), [&] {
    // grep -i: case-insensitive match (the compute-bearing variant).
    env.checksum += CountMatchingLinesNoCase(
        std::string_view(reinterpret_cast<const char*>(buf.data()),
                         buf.size()),
        "easyio");
  });
}

// ---- KNN ----

void KnnSetup(harness::Testbed& tb, int workers, uint64_t seed,
              AppState* st) {
  Rng rng(seed);
  std::vector<KdPoint> points(200000);
  for (auto& p : points) {
    for (float& c : p) {
      c = static_cast<float>(rng.NextDouble());
    }
  }
  st->kdtree = std::make_unique<KdTree>(std::move(points));
  // 1MB of query samples per worker file.
  for (int w = 0; w < workers; ++w) {
    std::vector<uint8_t> samples(1_MB);
    Rng qrng(seed * 31 + static_cast<uint64_t>(w));
    for (size_t i = 0; i + sizeof(KdPoint) <= samples.size();
         i += sizeof(KdPoint)) {
      KdPoint p;
      for (float& c : p) {
        c = static_cast<float>(qrng.NextDouble());
      }
      std::memcpy(samples.data() + i, &p, sizeof(p));
    }
    int fd = *tb.fs().Create("/knn_in" + std::to_string(w));
    WriteWholeFile(tb, fd, AsBytes(samples));
    st->input_fds.push_back(fd);
  }
  st->input_bytes = 1_MB;
}

void KnnIter(WorkerEnv& env, AppState& st) {
  auto& tb = *env.tb;
  std::vector<std::byte> buf(st.input_bytes);
  EASYIO_CHECK_OK(tb.fs().Read(st.input_fds[env.worker], 0, buf).status());
  constexpr int kQueries = 1200;
  Compute(&tb.sim(), kKnnNsPerQuery * kQueries, [&] {
    // Search a subset of the samples (k=4), like the paper's classifier.
    size_t hits = 0;
    for (int q = 0; q < kQueries; ++q) {
      KdPoint p;
      std::memcpy(&p, buf.data() + static_cast<size_t>(q) * sizeof(KdPoint),
                  sizeof(p));
      const auto knn = st.kdtree->KNearest(p, 4);
      hits += knn.size();
    }
    env.checksum += hits;
  });
}

// ---- BFS ----

void BfsSetup(harness::Testbed& tb, int workers, uint64_t seed,
              AppState* st) {
  const auto edges = RandomEdges(/*num_vertices=*/30000,
                                 /*num_edges=*/131000, seed);
  const auto serialized = SerializeEdges(30000, edges);
  st->input_bytes = serialized.size();
  for (int w = 0; w < workers; ++w) {
    int fd = *tb.fs().Create("/bfs_in" + std::to_string(w));
    WriteWholeFile(tb, fd, AsBytes(serialized));
    st->input_fds.push_back(fd);
  }
}

void BfsIter(WorkerEnv& env, AppState& st) {
  auto& tb = *env.tb;
  std::vector<std::byte> buf(st.input_bytes);
  EASYIO_CHECK_OK(tb.fs().Read(st.input_fds[env.worker], 0, buf).status());
  CsrGraph graph;
  const bool ok = DeserializeToCsr(
      reinterpret_cast<const uint8_t*>(buf.data()), buf.size(), &graph);
  const double cost =
      kDeserializeNsPerByte * static_cast<double>(buf.size()) +
      (ok ? kBfsNsPerEdge * static_cast<double>(graph.neighbors.size()) +
                kBfsNsPerVertex * static_cast<double>(graph.num_vertices)
          : 0.0);
  Compute(&tb.sim(), cost, [&] {
    if (ok) {
      std::vector<int32_t> dist;
      env.checksum += Bfs(graph, 0, &dist);
    }
  });
}

// ---- Fileserver ----

void FileserverSetup(harness::Testbed& tb, int workers, uint64_t seed,
                     AppState* st) {
  st->input_bytes = 1_MB;
}

void FileserverIter(WorkerEnv& env, AppState& st) {
  auto& tb = *env.tb;
  const std::string path = "/fsrv_w" + std::to_string(env.worker) + "_" +
                           std::to_string(env.ops % 4);
  std::vector<std::byte> data(1_MB, std::byte{0x42});
  auto fd = tb.fs().Create(path);
  if (!fd.ok()) {
    fd = tb.fs().Open(path);
    EASYIO_CHECK_OK(tb.fs().Unlink(path));
    fd = tb.fs().Create(path);
  }
  EASYIO_CHECK_OK(tb.fs().Write(*fd, 0, data).status());
  EASYIO_CHECK_OK(
      tb.fs().Append(*fd, std::span(data).subspan(0, 64_KB)).status());
  std::vector<std::byte> back(1_MB);
  EASYIO_CHECK_OK(tb.fs().Read(*fd, 0, back).status());
  env.checksum += tb.fs().StatFd(*fd)->size;
  EASYIO_CHECK_OK(tb.fs().Close(*fd));
  EASYIO_CHECK_OK(tb.fs().Unlink(path));
}

// ---- Webserver ----

void WebserverSetup(harness::Testbed& tb, int workers, uint64_t seed,
                    AppState* st) {
  constexpr int kPages = 64;
  std::vector<std::byte> body(256_KB, std::byte{'<'});
  for (int i = 0; i < kPages; ++i) {
    int fd = *tb.fs().Create("/page" + std::to_string(i));
    WriteWholeFile(tb, fd, body);
    st->input_fds.push_back(fd);
  }
  st->shared_fd = *tb.fs().Create("/weblog");
  st->input_bytes = 256_KB;
}

void WebserverIter(WorkerEnv& env, AppState& st) {
  auto& tb = *env.tb;
  const int fd = st.input_fds[env.rng.Below(st.input_fds.size())];
  std::vector<std::byte> buf(st.input_bytes);
  EASYIO_CHECK_OK(tb.fs().Read(fd, 0, buf).status());
  env.checksum += static_cast<uint8_t>(buf[0]);
  if (env.ops % 10 == 9) {
    // Append a 16KB entry to the single shared log: the paper's
    // high-contention case.
    std::vector<std::byte> entry(16_KB, std::byte{'L'});
    // Bound the log so long runs don't exhaust the device.
    if (tb.fs().StatFd(st.shared_fd)->size > 64_MB) {
      return;
    }
    EASYIO_CHECK_OK(tb.fs().Append(st.shared_fd, entry).status());
  }
}

}  // namespace

const char* AppName(AppKind app) {
  switch (app) {
    case AppKind::kSnappy: return "Snappy";
    case AppKind::kJpgDecoder: return "JPGDecoder";
    case AppKind::kAes: return "AES";
    case AppKind::kGrep: return "Grep";
    case AppKind::kKnn: return "KNN";
    case AppKind::kBfs: return "BFS";
    case AppKind::kFileserver: return "Fileserver";
    case AppKind::kWebserver: return "Webserver";
  }
  return "?";
}

AppResult RunApp(const AppRunConfig& config) {
  harness::Testbed tb(config.testbed);

  const bool is_easy = config.testbed.fs == harness::FsKind::kEasy ||
                       config.testbed.fs == harness::FsKind::kEasyNaive;
  const int workers =
      config.cores * (is_easy ? config.uthreads_per_core : 1);

  using SetupFn = void (*)(harness::Testbed&, int, uint64_t, AppState*);
  using IterFn = void (*)(WorkerEnv&, AppState&);
  SetupFn setup = nullptr;
  IterFn iter = nullptr;
  switch (config.app) {
    case AppKind::kSnappy: setup = SnappySetup; iter = SnappyIter; break;
    case AppKind::kJpgDecoder: setup = JpgSetup; iter = JpgIter; break;
    case AppKind::kAes: setup = AesSetup; iter = AesIter; break;
    case AppKind::kGrep: setup = GrepSetup; iter = GrepIter; break;
    case AppKind::kKnn: setup = KnnSetup; iter = KnnIter; break;
    case AppKind::kBfs: setup = BfsSetup; iter = BfsIter; break;
    case AppKind::kFileserver:
      setup = FileserverSetup;
      iter = FileserverIter;
      break;
    case AppKind::kWebserver:
      setup = WebserverSetup;
      iter = WebserverIter;
      break;
  }

  AppState state;
  tb.sim().Spawn(0, [&] { setup(tb, workers, config.seed, &state); });
  tb.sim().Run();

  // Workers share one host thread, so they tally straight into the result.
  AppResult result;
  harness::RunWindow(
      tb, config.cores, /*work_stealing=*/is_easy, workers, config.warmup_ns,
      config.measure_ns, [&](int w, const harness::WindowFlags& window) {
        WorkerEnv env{&tb, w,
                      Rng(config.seed * 131 + static_cast<uint64_t>(w))};
        while (!window.stop) {
          iter(env, state);
          env.ops++;
          if (window.counting()) {
            result.ops++;
          }
        }
        result.checksum += env.checksum;
      });
  result.ops_per_sec = static_cast<double>(result.ops) /
                       (static_cast<double>(config.measure_ns) / 1e9);
  return result;
}

}  // namespace easyio::apps
