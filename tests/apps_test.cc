// Tests for the application kernels (LZ, AES, IDCT, k-d tree, BFS, grep)
// and an end-to-end smoke of each app workload on EasyIO.

#include <gtest/gtest.h>

#include <cstring>

#include "src/apps/aes.h"
#include "src/apps/apps.h"
#include "src/apps/graph.h"
#include "src/apps/grep.h"
#include "src/apps/idct.h"
#include "src/apps/kdtree.h"
#include "src/apps/lz.h"
#include "src/common/rng.h"

namespace easyio::apps {
namespace {

TEST(LzTest, RoundTripText) {
  const auto text = SyntheticText(100000, "needle", 0.05, 1);
  const auto compressed = LzCompress(text.data(), text.size());
  EXPECT_LT(compressed.size(), text.size());  // text compresses
  std::vector<uint8_t> back;
  ASSERT_TRUE(LzDecompress(compressed.data(), compressed.size(), &back));
  EXPECT_EQ(back, text);
}

TEST(LzTest, RoundTripRandomData) {
  Rng rng(2);
  std::vector<uint8_t> data(50000);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const auto compressed = LzCompress(data.data(), data.size());
  std::vector<uint8_t> back;
  ASSERT_TRUE(LzDecompress(compressed.data(), compressed.size(), &back));
  EXPECT_EQ(back, data);
}

TEST(LzTest, RoundTripRunLengths) {
  std::vector<uint8_t> data(10000, 0xAA);  // overlapping matches (RLE)
  const auto compressed = LzCompress(data.data(), data.size());
  EXPECT_LT(compressed.size(), 200u);
  std::vector<uint8_t> back;
  ASSERT_TRUE(LzDecompress(compressed.data(), compressed.size(), &back));
  EXPECT_EQ(back, data);
}

TEST(LzTest, EmptyInput) {
  const auto compressed = LzCompress(nullptr, 0);
  std::vector<uint8_t> back;
  ASSERT_TRUE(LzDecompress(compressed.data(), compressed.size(), &back));
  EXPECT_TRUE(back.empty());
}

TEST(LzTest, RejectsCorruptStream) {
  std::vector<uint8_t> bad = {0x01, 0x10, 0x00, 0xff, 0xff};  // dist > size
  std::vector<uint8_t> back;
  EXPECT_FALSE(LzDecompress(bad.data(), bad.size(), &back));
  std::vector<uint8_t> bad_tag = {0x07};
  EXPECT_FALSE(LzDecompress(bad_tag.data(), bad_tag.size(), &back));
}

TEST(AesTest, Fips197KnownAnswer) {
  // FIPS-197 Appendix B.
  const uint8_t key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                           0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const uint8_t plain[16] = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                             0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  const uint8_t expect[16] = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
                              0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32};
  Aes128 aes(key);
  uint8_t out[16];
  aes.EncryptBlock(plain, out);
  EXPECT_EQ(std::memcmp(out, expect, 16), 0);
}

TEST(AesTest, CtrRoundTrip) {
  const uint8_t key[16] = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6};
  Aes128 aes(key);
  Rng rng(3);
  std::vector<uint8_t> plain(10001);  // non-multiple of 16
  for (auto& b : plain) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::vector<uint8_t> cipher(plain.size());
  aes.CtrCrypt(plain.data(), cipher.data(), plain.size(), 42);
  EXPECT_NE(cipher, plain);
  std::vector<uint8_t> back(plain.size());
  aes.CtrCrypt(cipher.data(), back.data(), cipher.size(), 42);
  EXPECT_EQ(back, plain);
}

TEST(IdctTest, DcOnlyBlockIsFlat) {
  float coeffs[64] = {0};
  coeffs[0] = 64.0f;  // pure DC
  float out[64];
  Idct8x8(coeffs, out);
  // DC scale: sqrt(1/8)*sqrt(1/8)*64 = 8 in every pixel.
  for (int i = 0; i < 64; ++i) {
    EXPECT_NEAR(out[i], 8.0f, 1e-3);
  }
}

TEST(IdctTest, DecodeSyntheticStream) {
  std::vector<uint8_t> stream;
  for (int b = 0; b < 10; ++b) {
    const auto blk = EncodeSyntheticBlock(1000 + b);
    stream.insert(stream.end(), blk.begin(), blk.end());
  }
  std::vector<uint8_t> rgb;
  size_t off = 0;
  int blocks = 0;
  while (off < stream.size()) {
    ASSERT_TRUE(DecodeBlock(stream.data(), stream.size(), &off, &rgb));
    blocks++;
  }
  EXPECT_EQ(blocks, 10);
  EXPECT_EQ(rgb.size(), 10 * kBlockOutBytes);
  // RGB888 grey: triplets equal.
  for (size_t i = 0; i + 2 < rgb.size(); i += 3) {
    EXPECT_EQ(rgb[i], rgb[i + 1]);
    EXPECT_EQ(rgb[i], rgb[i + 2]);
  }
}

TEST(IdctTest, RejectsTruncatedStream) {
  std::vector<uint8_t> stream = {5, 0, 1};  // claims 5 coeffs, has <1
  size_t off = 0;
  std::vector<uint8_t> rgb;
  EXPECT_FALSE(DecodeBlock(stream.data(), stream.size(), &off, &rgb));
}

TEST(KdTreeTest, NearestMatchesBruteForce) {
  Rng rng(4);
  std::vector<KdPoint> points(2000);
  for (auto& p : points) {
    for (float& c : p) {
      c = static_cast<float>(rng.NextDouble());
    }
  }
  KdTree tree(points);
  EXPECT_EQ(tree.size(), points.size());
  for (int q = 0; q < 50; ++q) {
    KdPoint query;
    for (float& c : query) {
      c = static_cast<float>(rng.NextDouble());
    }
    float best = 1e30f;
    for (const auto& p : points) {
      best = std::min(best, Dist2(p, query));
    }
    EXPECT_NEAR(tree.Nearest(query).dist2, best, 1e-6);
  }
}

TEST(KdTreeTest, KNearestSortedAndCorrectCount) {
  Rng rng(5);
  std::vector<KdPoint> points(500);
  for (auto& p : points) {
    for (float& c : p) {
      c = static_cast<float>(rng.NextDouble());
    }
  }
  KdTree tree(points);
  KdPoint query{0.5f, 0.5f, 0.5f, 0.5f};
  const auto knn = tree.KNearest(query, 8);
  ASSERT_EQ(knn.size(), 8u);
  for (size_t i = 1; i < knn.size(); ++i) {
    EXPECT_LE(knn[i - 1].dist2, knn[i].dist2);
  }
}

TEST(GraphTest, SerializeRoundTripAndBfs) {
  // 0-1-2-3 path plus 0->3 chord.
  std::vector<std::pair<uint32_t, uint32_t>> edges = {
      {0, 1}, {1, 2}, {2, 3}, {0, 3}};
  const auto blob = SerializeEdges(4, edges);
  CsrGraph g;
  ASSERT_TRUE(DeserializeToCsr(blob.data(), blob.size(), &g));
  EXPECT_EQ(g.num_vertices, 4u);
  std::vector<int32_t> dist;
  EXPECT_EQ(Bfs(g, 0, &dist), 4u);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[3], 1);  // via the chord
  EXPECT_EQ(dist[2], 2);
}

TEST(GraphTest, RingGraphFullyReachable) {
  const auto edges = RandomEdges(1000, 3000, 6);
  const auto blob = SerializeEdges(1000, edges);
  CsrGraph g;
  ASSERT_TRUE(DeserializeToCsr(blob.data(), blob.size(), &g));
  std::vector<int32_t> dist;
  EXPECT_EQ(Bfs(g, 0, &dist), 1000u);  // the ring guarantees connectivity
}

TEST(GraphTest, RejectsMalformed) {
  std::vector<uint8_t> bad = {1, 0, 0, 0, 200, 0, 0, 0};  // 200 edges, no data
  CsrGraph g;
  EXPECT_FALSE(DeserializeToCsr(bad.data(), bad.size(), &g));
}

TEST(GrepTest, CountsMatchingLines) {
  const std::string text = "foo bar\nneedle here\nnope\nneedle needle\n";
  EXPECT_EQ(CountMatchingLines(text, "needle"), 2u);
  EXPECT_EQ(CountMatchingLines(text, "absent"), 0u);
  EXPECT_EQ(CountMatchingLines("", "x"), 0u);
}

TEST(GrepTest, SyntheticTextHasExpectedFrequency) {
  const auto text = SyntheticText(500000, "MAGIC", 0.10, 7);
  const auto matches = CountMatchingLines(
      std::string_view(reinterpret_cast<const char*>(text.data()),
                       text.size()),
      "MAGIC");
  // ~80 byte lines => ~6250 lines; ~10% carry the needle.
  EXPECT_GT(matches, 300u);
  EXPECT_LT(matches, 1300u);
}

// ---- end-to-end smokes: every app runs on EasyIO and makes progress ----

class AppSmoke : public ::testing::TestWithParam<AppKind> {};

TEST_P(AppSmoke, RunsOnEasyIo) {
  AppRunConfig cfg;
  cfg.app = GetParam();
  cfg.testbed.fs = harness::FsKind::kEasy;
  cfg.cores = 2;
  cfg.warmup_ns = 1_ms;
  cfg.measure_ns = 30_ms;  // heavy apps (JPG/KNN) need several ms per op
  const AppResult r = RunApp(cfg);
  EXPECT_GT(r.ops, 0u) << AppName(GetParam());
  EXPECT_GT(r.checksum, 0u) << AppName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppSmoke,
    ::testing::Values(AppKind::kSnappy, AppKind::kJpgDecoder, AppKind::kAes,
                      AppKind::kGrep, AppKind::kKnn, AppKind::kBfs,
                      AppKind::kFileserver, AppKind::kWebserver),
    [](const ::testing::TestParamInfo<AppKind>& info) {
      return AppName(info.param);
    });

TEST(AppCompare, IoHeavyAppGainsOnEasyIo) {
  // Grep (I/O-compute balanced) should speed up on EasyIO vs NOVA once
  // several cores contend for read bandwidth (the paper's Fig 10 regime).
  AppRunConfig cfg;
  cfg.app = AppKind::kGrep;
  cfg.cores = 8;
  cfg.warmup_ns = 2_ms;
  cfg.measure_ns = 40_ms;
  cfg.testbed.fs = harness::FsKind::kNova;
  const double nova = RunApp(cfg).ops_per_sec;
  cfg.testbed.fs = harness::FsKind::kEasy;
  const double easy = RunApp(cfg).ops_per_sec;
  EXPECT_GT(easy, nova * 1.1);
}

}  // namespace
}  // namespace easyio::apps
