// Differential fuzz suite for the SIMD kernel layer (common/simd/):
// every kernel, at every dispatch level compiled into this binary, must
// be BIT-IDENTICAL to the scalar reference table — the exactness
// contract simd.h pins (the shared 4-lane-strided reduction
// association).  Inputs sweep the shapes that break lane code: length
// 0, 1, odd, one-below/above a lane multiple, long; values include ±0,
// denormals, and mixed magnitudes.  Seeded via tests/fuzz_util.h
// (MUVE_FUZZ_SEED to soak).
//
// Also pins the dispatch plumbing itself: level naming, the
// BinIndexReference clamp semantics, and SetActiveLevel round-trips.

#include "common/simd/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/simd/aligned.h"
#include "fuzz_util.h"

namespace muve::common::simd {
namespace {

// Bitwise double equality (distinguishes +0/-0; NaN is outside the
// kernel contract and never generated here).
::testing::AssertionResult BitEqual(double a, double b) {
  uint64_t ab = 0;
  uint64_t bb = 0;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  if (ab == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits 0x" << std::hex << ab << " vs 0x"
         << bb << ")";
}

// The lengths that break lane code: empty, sub-lane, lane boundaries
// +/- 1, odd, and long-with-tail.
const size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                           31, 33, 63, 64, 100, 255, 1024, 1027};

// Fills `out` with adversarial doubles: mixed magnitudes, negatives,
// exact zeros of both signs, and denormals.
void FillAdversarial(Rng& rng, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const double roll = rng.NextDouble();
    if (roll < 0.05) {
      out[i] = 0.0;
    } else if (roll < 0.10) {
      out[i] = -0.0;
    } else if (roll < 0.15) {
      out[i] = std::numeric_limits<double>::denorm_min() *
               static_cast<double>(rng.UniformInt(1, 1000));
    } else if (roll < 0.25) {
      out[i] = rng.Uniform(-1e-12, 1e-12);
    } else if (roll < 0.35) {
      out[i] = rng.Uniform(-1e9, 1e9);
    } else {
      out[i] = rng.Uniform(-1.0, 1.0);
    }
  }
}

// Every non-scalar table compiled into this binary and supported by
// this CPU.
std::vector<const KernelTable*> VectorTables() {
  std::vector<const KernelTable*> tables;
  for (const auto level : {DispatchLevel::kNeon, DispatchLevel::kAvx2}) {
    const KernelTable* t = KernelsFor(level);
    if (t != nullptr && t != &ScalarKernels()) tables.push_back(t);
  }
  return tables;
}

class SimdKernelDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (VectorTables().empty()) {
      GTEST_SKIP() << "no vector dispatch level compiled in / supported; "
                      "scalar-only binary is trivially self-consistent";
    }
  }
};

TEST_F(SimdKernelDifferentialTest, ReductionsBitIdenticalAcrossLevels) {
  const KernelTable& ref = ScalarKernels();
  uint64_t case_index = 0;
  for (const KernelTable* table : VectorTables()) {
    for (const size_t n : kLengths) {
      for (int round = 0; round < 8; ++round) {
        const uint64_t seed = testutil::FuzzSeed(case_index++);
        SCOPED_TRACE(testutil::FuzzTrace(case_index - 1, seed));
        SCOPED_TRACE(std::string("level=") + table->name +
                     " n=" + std::to_string(n));
        Rng rng(seed);
        AlignedVector<double> p(n), q(n);
        FillAdversarial(rng, p.data(), n);
        FillAdversarial(rng, q.data(), n);
        EXPECT_TRUE(BitEqual(ref.squared_l2_diff(p.data(), q.data(), n),
                             table->squared_l2_diff(p.data(), q.data(), n)));
        EXPECT_TRUE(BitEqual(ref.abs_diff_sum(p.data(), q.data(), n),
                             table->abs_diff_sum(p.data(), q.data(), n)));
        EXPECT_TRUE(BitEqual(ref.max_abs_diff(p.data(), q.data(), n),
                             table->max_abs_diff(p.data(), q.data(), n)));
        EXPECT_TRUE(
            BitEqual(ref.prefix_abs_diff_sum(p.data(), q.data(), n),
                     table->prefix_abs_diff_sum(p.data(), q.data(), n)));
        EXPECT_TRUE(BitEqual(ref.sum(p.data(), n), table->sum(p.data(), n)));
        // relative_sse's guard (g != 0) must agree across levels even
        // with exact ±0 entries in g.
        EXPECT_TRUE(BitEqual(ref.relative_sse(p.data(), q.data(), n),
                             table->relative_sse(p.data(), q.data(), n)));
      }
    }
  }
}

TEST_F(SimdKernelDifferentialTest, NormalizeIntoBitIdenticalAcrossLevels) {
  const KernelTable& ref = ScalarKernels();
  uint64_t case_index = 1000;
  for (const KernelTable* table : VectorTables()) {
    for (const size_t n : kLengths) {
      for (int round = 0; round < 8; ++round) {
        const uint64_t seed = testutil::FuzzSeed(case_index++);
        SCOPED_TRACE(testutil::FuzzTrace(case_index - 1, seed));
        SCOPED_TRACE(std::string("level=") + table->name +
                     " n=" + std::to_string(n));
        Rng rng(seed);
        AlignedVector<double> src(n);
        FillAdversarial(rng, src.data(), n);
        // Round 0 forces the all-clamped branch (uniform fallback).
        if (round == 0) {
          for (size_t i = 0; i < n; ++i) src[i] = -std::fabs(src[i]);
        }
        AlignedVector<double> dst_ref(n, -7.0), dst_vec(n, -7.0);
        const double total_ref = ref.normalize_into(src.data(), n,
                                                    dst_ref.data());
        const double total_vec = table->normalize_into(src.data(), n,
                                                       dst_vec.data());
        EXPECT_TRUE(BitEqual(total_ref, total_vec));
        for (size_t i = 0; i < n; ++i) {
          EXPECT_TRUE(BitEqual(dst_ref[i], dst_vec[i])) << "i=" << i;
        }
      }
    }
  }
}

TEST_F(SimdKernelDifferentialTest, BinIndexIntoBitExactAcrossLevels) {
  const KernelTable& ref = ScalarKernels();
  uint64_t case_index = 2000;
  for (const KernelTable* table : VectorTables()) {
    for (const size_t n : kLengths) {
      const uint64_t seed = testutil::FuzzSeed(case_index++);
      SCOPED_TRACE(testutil::FuzzTrace(case_index - 1, seed));
      SCOPED_TRACE(std::string("level=") + table->name +
                   " n=" + std::to_string(n));
      Rng rng(seed);
      AlignedVector<double> values(n);
      // Values straddling [lo, hi] with exact-boundary hits.
      const double lo = -3.0, hi = 5.0;
      for (size_t i = 0; i < n; ++i) {
        const double roll = rng.NextDouble();
        if (roll < 0.1) {
          values[i] = lo;
        } else if (roll < 0.2) {
          values[i] = hi;
        } else {
          values[i] = rng.Uniform(lo - 2.0, hi + 2.0);
        }
      }
      for (const int num_bins : {1, 2, 7, 64, 1024}) {
        std::vector<int32_t> out_ref(n, -1), out_vec(n, -1);
        ref.bin_index_into(values.data(), n, lo, hi, num_bins,
                           out_ref.data());
        table->bin_index_into(values.data(), n, lo, hi, num_bins,
                              out_vec.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(out_ref[i], out_vec[i])
              << "i=" << i << " v=" << values[i] << " bins=" << num_bins;
          // And both must equal the reference semantics.
          ASSERT_EQ(out_ref[i],
                    BinIndexReference(values[i], lo, hi, num_bins));
        }
      }
    }
  }
}

TEST_F(SimdKernelDifferentialTest, KeyedAccumulatorsBitIdentical) {
  const KernelTable& ref = ScalarKernels();
  uint64_t case_index = 4000;
  for (const KernelTable* table : VectorTables()) {
    for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{8},
                           size_t{37}, size_t{1000}}) {
      for (const bool with_validity : {false, true}) {
        const uint64_t seed = testutil::FuzzSeed(case_index++);
        SCOPED_TRACE(testutil::FuzzTrace(case_index - 1, seed));
        SCOPED_TRACE(std::string("level=") + table->name +
                     " n=" + std::to_string(n) +
                     " validity=" + (with_validity ? "y" : "n"));
        Rng rng(seed);
        const size_t num_rows = n + 16;
        const int num_keys = 13;
        std::vector<uint32_t> rows(n), keys(num_rows);
        AlignedVector<double> f64(num_rows);
        std::vector<int64_t> i64(num_rows);
        std::vector<uint64_t> validity((num_rows + 63) / 64, 0);
        for (size_t i = 0; i < num_rows; ++i) {
          // ~10% NULL keys exercise the sentinel skip.
          keys[i] = rng.NextDouble() < 0.1
                        ? kNullKey32
                        : static_cast<uint32_t>(
                              rng.UniformInt(0, num_keys - 1));
          f64[i] = rng.Uniform(-100.0, 100.0);
          i64[i] = rng.UniformInt(-1000, 1000);
          if (rng.NextDouble() < 0.8) {
            validity[i >> 6] |= uint64_t{1} << (i & 63);
          }
        }
        for (size_t i = 0; i < n; ++i) {
          rows[i] = static_cast<uint32_t>(
              rng.UniformInt(0, static_cast<int64_t>(num_rows) - 1));
        }
        const uint64_t* words = with_validity ? validity.data() : nullptr;
        // Split the range mid-way: kernels must honor [begin, end).
        const size_t begin = n / 3;
        const size_t end = n;
        {
          AlignedVector<int64_t> c_ref(num_keys, 2), c_vec(num_keys, 2);
          AlignedVector<double> s_ref(num_keys, 0.5), s_vec(num_keys, 0.5);
          AlignedVector<double> q_ref(num_keys, 0.25), q_vec(num_keys, 0.25);
          ref.accumulate_count_sum_sq_f64(rows.data(), begin, end,
                                          keys.data(), words, f64.data(),
                                          c_ref.data(), s_ref.data(),
                                          q_ref.data());
          table->accumulate_count_sum_sq_f64(rows.data(), begin, end,
                                             keys.data(), words, f64.data(),
                                             c_vec.data(), s_vec.data(),
                                             q_vec.data());
          for (int k = 0; k < num_keys; ++k) {
            ASSERT_EQ(c_ref[k], c_vec[k]) << "f64 key " << k;
            ASSERT_TRUE(BitEqual(s_ref[k], s_vec[k])) << "f64 key " << k;
            ASSERT_TRUE(BitEqual(q_ref[k], q_vec[k])) << "f64 key " << k;
          }
        }
        {
          AlignedVector<int64_t> c_ref(num_keys, 2), c_vec(num_keys, 2);
          AlignedVector<double> s_ref(num_keys, 0.5), s_vec(num_keys, 0.5);
          AlignedVector<double> q_ref(num_keys, 0.25), q_vec(num_keys, 0.25);
          ref.accumulate_count_sum_sq_i64(rows.data(), begin, end,
                                          keys.data(), words, i64.data(),
                                          c_ref.data(), s_ref.data(),
                                          q_ref.data());
          table->accumulate_count_sum_sq_i64(rows.data(), begin, end,
                                             keys.data(), words, i64.data(),
                                             c_vec.data(), s_vec.data(),
                                             q_vec.data());
          for (int k = 0; k < num_keys; ++k) {
            ASSERT_EQ(c_ref[k], c_vec[k]) << "i64 key " << k;
            ASSERT_TRUE(BitEqual(s_ref[k], s_vec[k])) << "i64 key " << k;
            ASSERT_TRUE(BitEqual(q_ref[k], q_vec[k])) << "i64 key " << k;
          }
        }
      }
    }
  }
}

// --------------------------------------------------------------------------
// Dispatch plumbing.

TEST(SimdDispatchTest, ScalarTableAlwaysAvailable) {
  const KernelTable& scalar = ScalarKernels();
  EXPECT_EQ(scalar.level, DispatchLevel::kScalar);
  EXPECT_STREQ(scalar.name, "scalar");
  EXPECT_EQ(KernelsFor(DispatchLevel::kScalar), &scalar);
}

TEST(SimdDispatchTest, BestSupportedLevelHasTable) {
  const DispatchLevel best = BestSupportedLevel();
  const KernelTable* table = KernelsFor(best);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->level, best);
}

TEST(SimdDispatchTest, SetActiveLevelRoundTrips) {
  const DispatchLevel original = ActiveLevel();
  ASSERT_TRUE(SetActiveLevel(DispatchLevel::kScalar));
  EXPECT_EQ(ActiveLevel(), DispatchLevel::kScalar);
  EXPECT_STREQ(ActiveLevelName(), "scalar");
  // Restore.
  ASSERT_TRUE(SetActiveLevel(original));
  EXPECT_EQ(ActiveLevel(), original);
}

TEST(SimdDispatchTest, SetActiveLevelRejectsUnsupported) {
  // At most one of NEON/AVX2 can be supported on a given host; the other
  // must be rejected without disturbing the active table.
  const DispatchLevel original = ActiveLevel();
  int unsupported = 0;
  for (const auto level : {DispatchLevel::kNeon, DispatchLevel::kAvx2}) {
    if (KernelsFor(level) == nullptr) {
      EXPECT_FALSE(SetActiveLevel(level));
      EXPECT_EQ(ActiveLevel(), original);
      ++unsupported;
    }
  }
  EXPECT_GE(unsupported, 1);
}

TEST(SimdDispatchTest, BinIndexReferenceClampSemantics) {
  EXPECT_EQ(BinIndexReference(0.5, 0.0, 1.0, 1), 0);
  EXPECT_EQ(BinIndexReference(123.0, 0.0, 1.0, 0), 0);
  EXPECT_EQ(BinIndexReference(-5.0, 0.0, 1.0, 4), 0);
  EXPECT_EQ(BinIndexReference(0.0, 0.0, 1.0, 4), 0);
  EXPECT_EQ(BinIndexReference(1.0, 0.0, 1.0, 4), 3);
  EXPECT_EQ(BinIndexReference(7.0, 0.0, 1.0, 4), 3);
  EXPECT_EQ(BinIndexReference(0.25, 0.0, 1.0, 4), 1);
}

}  // namespace
}  // namespace muve::common::simd
