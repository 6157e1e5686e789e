#include <gtest/gtest.h>

#include <vector>

#include "src/common/crc32.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/units.h"

namespace easyio {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFound("no such file");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: no such file");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(c)), "UNKNOWN");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(-1), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NotFound();
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(v.value_or(-1), -1);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) {
    return InvalidArgument("odd");
  }
  return x / 2;
}

Status UseHalf(int x, int* out) {
  EASYIO_ASSIGN_OR_RETURN(*out, Half(x));
  return OkStatus();
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseHalf(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_EQ(UseHalf(7, &out).code(), ErrorCode::kInvalidArgument);
}

TEST(UnitsTest, ByteLiterals) {
  EXPECT_EQ(4_KB, 4096u);
  EXPECT_EQ(2_MB, 2u * 1024 * 1024);
  EXPECT_EQ(1_GB, 1024ull * 1024 * 1024);
}

TEST(UnitsTest, TimeLiterals) {
  EXPECT_EQ(5_us, 5000u);
  EXPECT_EQ(3_ms, 3000000u);
  EXPECT_EQ(1_s, 1000000000u);
}

TEST(UnitsTest, TransferNsRoundTrip) {
  // 1 GiB at 1 GiB/s is one second.
  EXPECT_EQ(TransferNs(1_GB, 1.0), 1_s);
  // 64KB at 6.6 GiB/s is ~9.25us.
  const uint64_t ns = TransferNs(64_KB, 6.6);
  EXPECT_NEAR(static_cast<double>(ns), 9251.0, 10.0);
  EXPECT_NEAR(GibPerSec(64_KB, ns), 6.6, 0.01);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.Next() == b.Next());
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(10.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.2);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.Mean(), 1000.0);
  // Percentile is bucketed; must be within 1.6% above.
  EXPECT_GE(h.Percentile(0.5), 1000u);
  EXPECT_LE(h.Percentile(0.5), 1016u);
}

TEST(HistogramTest, PercentileAccuracy) {
  Histogram h;
  for (uint64_t v = 1; v <= 100000; ++v) {
    h.Record(v);
  }
  const uint64_t p50 = h.Percentile(0.50);
  const uint64_t p99 = h.Percentile(0.99);
  EXPECT_NEAR(static_cast<double>(p50), 50000.0, 50000.0 * 0.02);
  EXPECT_NEAR(static_cast<double>(p99), 99000.0, 99000.0 * 0.02);
  EXPECT_EQ(h.Percentile(1.0), 100000u);
}

TEST(HistogramTest, SmallValuesExact) {
  Histogram h;
  for (uint64_t v = 0; v < 64; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.Percentile(0.0), 0u);
  EXPECT_EQ(h.Percentile(1.0), 63u);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Record(10);
  b.Record(1000000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000000u);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, HugeValueClamped) {
  Histogram h;
  h.Record(UINT64_MAX);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.Percentile(1.0), UINT64_MAX);
}

// One bucket holding virtually all the mass ("saturating" bucket): every
// interior percentile must resolve to that bucket's upper bound, percentiles
// must stay monotone in q, and the outliers must still pin min/max.
TEST(HistogramTest, SaturatingBucketPercentiles) {
  Histogram h;
  h.Record(10);  // lone low outlier
  constexpr uint64_t kHot = 1000000;
  for (int i = 0; i < 100000; ++i) {
    h.Record(kHot);
  }
  EXPECT_EQ(h.count(), 100001u);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), kHot);
  const uint64_t p50 = h.Percentile(0.50);
  const uint64_t p99 = h.Percentile(0.99);
  const uint64_t p999 = h.Percentile(0.999);
  // All interior percentiles land in the hot bucket: >= the value, within
  // the 1/64-per-decade bucketing error above it.
  for (uint64_t p : {p50, p99, p999}) {
    EXPECT_GE(p, kHot);
    EXPECT_LE(static_cast<double>(p), kHot * 1.016);
  }
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, p999);
  EXPECT_EQ(h.Percentile(0.0), 10u);   // the outlier's (exact) low bucket
  EXPECT_EQ(h.Percentile(1.0), kHot);  // exact max
}

// Bytewise CRC32C, kept here as the reference both fast paths must match.
uint32_t Crc32cBytewise(const void* data, size_t n, uint32_t seed) {
  uint32_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
    }
  }
  return ~crc;
}

TEST(Crc32cTest, KnownAnswer) {
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  EXPECT_EQ(internal::Crc32cTable("123456789", 9, 0), 0xE3069283u);
}

TEST(Crc32cTest, MatchesBytewiseAtEveryLengthAndAlignment) {
  // Lengths 0-300 cover the all-tail, all-sliced and mixed cases; the eight
  // start offsets put the 8-byte loads at every alignment. Crc32c is the
  // hardware path on a CPU that has one, checked here alongside the table
  // path; elsewhere both legs run the table.
#if defined(__x86_64__)
  EXPECT_EQ(internal::Crc32cUsesHardware(),
            static_cast<bool>(__builtin_cpu_supports("sse4.2")));
#endif
  constexpr size_t kMaxLen = 300;
  Rng rng(42);
  std::vector<unsigned char> buf(kMaxLen + 8);
  for (auto& b : buf) {
    b = static_cast<unsigned char>(rng.Next());
  }
  for (const uint32_t seed : {0u, 1u, 0xdeadbeefu, 0xffffffffu}) {
    for (size_t align = 0; align < 8; ++align) {
      for (size_t len = 0; len <= kMaxLen; ++len) {
        const unsigned char* p = buf.data() + align;
        const uint32_t want = Crc32cBytewise(p, len, seed);
        ASSERT_EQ(internal::Crc32cTable(p, len, seed), want)
            << "table: seed " << seed << " align " << align << " len " << len;
        ASSERT_EQ(Crc32c(p, len, seed), want)
            << "Crc32c (hardware " << internal::Crc32cUsesHardware()
            << "): seed " << seed << " align " << align << " len " << len;
      }
    }
  }
}

}  // namespace
}  // namespace easyio
