// Exactness oracle for the sparse probe path: coarsening a base
// histogram into its non-empty bins and taking the deviation (Eq. 2) and
// accuracy (Eq. 4) from that sparse form must give the SAME doubles, bit
// for bit, as the dense formulas it replaced — one slot per bin, every
// bin finished, normalized and compared.  Those dense formulas are kept
// below as a test-only reference.
//
// Inputs are random base histograms (sorted distinct fine values with
// per-bin count / sum / sum-of-squares moments), probed at every b in
// 1..B for all six distance kinds and all five moment-servable
// functions.  The generator deliberately covers negative and NaN
// measures (clamping), all-nonpositive totals (the uniform fallback),
// a single fine bin, values exactly on lo / hi, zero-count fine bins,
// and b far above d.
// Every case runs under every supported SIMD dispatch level.
//
// Seeding: per-case seeds derive from MUVE_FUZZ_SEED (fixed default) via
// tests/fuzz_util.h; every failure prints the seeds to reproduce it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd/simd.h"
#include "core/distance.h"
#include "core/distribution.h"
#include "core/objectives.h"
#include "core/view_evaluator.h"
#include "data/toy.h"
#include "fuzz_util.h"
#include "test_util.h"
#include "storage/base_histogram_cache.h"

// Heap allocations made while `armed`: this test binary replaces the
// global operator new (plain and aligned) to count them.  The deletes
// pair with the replaced news (malloc / aligned_alloc, both released
// with free), which GCC's -Wmismatched-new-delete cannot see.
namespace alloc_count {
std::atomic<bool> armed{false};
std::atomic<int64_t> allocations{0};

void* Allocate(size_t size, size_t alignment) {
  if (armed.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  size = size == 0 ? 1 : size;
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(alignment,
                                     (size + alignment - 1) / alignment *
                                         alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace alloc_count

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(size_t size) { return alloc_count::Allocate(size, 1); }
void* operator new(size_t size, std::align_val_t alignment) {
  return alloc_count::Allocate(size, static_cast<size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace muve::core {
namespace {

namespace simd = common::simd;
using storage::AggregateFunction;
using storage::BaseHistogram;
using storage::BinnedResult;
using storage::SparseBinnedResult;

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

constexpr AggregateFunction kFunctions[] = {
    AggregateFunction::kSum, AggregateFunction::kCount,
    AggregateFunction::kAvg, AggregateFunction::kStd,
    AggregateFunction::kVar};

constexpr DistanceKind kKinds[] = {
    DistanceKind::kEuclidean,   DistanceKind::kManhattan,
    DistanceKind::kChebyshev,   DistanceKind::kEarthMovers,
    DistanceKind::kKlDivergence, DistanceKind::kJensenShannon};

// --- The dense reference: the pre-sparse probe formulas. ---

// Dense coarsening: zeroed per-bin moment slabs, one run sweep over the
// fine bins (each run's moments are prefix differences), and every bin
// finished from its moments.
BinnedResult DenseCoarsen(const BaseHistogram& base,
                          AggregateFunction function, int num_bins,
                          double lo, double hi) {
  const size_t nb = static_cast<size_t>(num_bins);
  std::vector<int64_t> counts(nb, 0);
  std::vector<double> sums(nb, 0.0);
  std::vector<double> sum_sqs(nb, 0.0);
  const size_t d = base.num_fine_bins();
  int run_bin = -1;
  size_t run_start = 0;
  const auto flush = [&](size_t run_end) {
    const int64_t count =
        base.prefix_counts[run_end] - base.prefix_counts[run_start];
    if (count > 0) {
      counts[run_bin] = count;
      sums[run_bin] = base.prefix_sums[run_end] - base.prefix_sums[run_start];
      sum_sqs[run_bin] =
          base.prefix_sum_sqs[run_end] - base.prefix_sum_sqs[run_start];
    }
  };
  for (size_t j = 0; j < d; ++j) {
    const int idx = simd::BinIndexReference(base.values[j], lo, hi, num_bins);
    if (idx != run_bin) {
      if (run_bin >= 0) flush(j);
      run_bin = idx;
      run_start = j;
    }
  }
  if (d > 0) flush(d);

  BinnedResult out;
  out.lo = lo;
  out.hi = hi;
  out.num_bins = num_bins;
  out.aggregates.assign(nb, 0.0);
  out.row_counts.assign(nb, 0);
  for (size_t k = 0; k < nb; ++k) {
    if (counts[k] > 0) {
      out.aggregates[k] = storage::FinishFromMoments(function, counts[k],
                                                     sums[k], sum_sqs[k]);
      out.row_counts[k] = static_cast<size_t>(counts[k]);
    }
  }
  return out;
}

// Dense deviation: both series normalized over all b bins, then the
// dense distance.
double DenseDeviation(DistanceKind kind, const BinnedResult& target,
                      const BinnedResult& comparison) {
  return Distance(kind, NormalizeToDistribution(target.aggregates),
                  NormalizeToDistribution(comparison.aggregates));
}

// Dense accuracy: per-bin distinct-key counts and representatives over
// all b bins.
double DenseAccuracy(const std::vector<double>& raw_keys,
                     const std::vector<double>& raw_aggregates,
                     const BinnedResult& binned) {
  const size_t t = raw_keys.size();
  if (t == 0) return 1.0;
  std::vector<int32_t> bin_of_key(t);
  std::vector<size_t> distinct_per_bin(static_cast<size_t>(binned.num_bins),
                                       0);
  for (size_t j = 0; j < t; ++j) {
    bin_of_key[j] = simd::BinIndexReference(raw_keys[j], binned.lo, binned.hi,
                                            binned.num_bins);
    ++distinct_per_bin[static_cast<size_t>(bin_of_key[j])];
  }
  std::vector<double> representative(t);
  for (size_t j = 0; j < t; ++j) {
    const size_t bin = static_cast<size_t>(bin_of_key[j]);
    representative[j] = binned.aggregates[bin] /
                        static_cast<double>(distinct_per_bin[bin]);
  }
  const double r = simd::ActiveKernels().relative_sse(
      raw_aggregates.data(), representative.data(), t);
  return std::clamp(1.0 - r / static_cast<double>(t), 0.0, 1.0);
}

// --- Random base histograms. ---

struct Shape {
  bool nonpositive = false;  // every measure <= 0 (uniform fallback)
  bool with_nan = false;     // some fine bins carry NaN moments
};

// A base histogram of `d` distinct sorted values spread over
// [lo, hi] (both ends included when `touch_ends`).
BaseHistogram RandomBase(common::Rng& rng, size_t d, double lo, double hi,
                         bool touch_ends, const Shape& shape) {
  // At most 4 * (hi - lo) grid values fit in [lo, hi).
  d = std::min(d, static_cast<size_t>(4.0 * (hi - lo)));
  std::vector<double> values;
  while (values.size() < d) {
    values.push_back(
        std::floor(rng.Uniform(lo, hi) * 4.0) / 4.0);  // clustered grid
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
  }
  if (touch_ends) {
    values.front() = lo;
    values.back() = hi;
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
  }
  BaseHistogram base;
  base.values = values;
  base.prefix_counts.push_back(0);
  base.prefix_sums.push_back(0.0);
  base.prefix_sum_sqs.push_back(0.0);
  for (size_t j = 0; j < base.values.size(); ++j) {
    // Mostly real rows; now and then a zero-count fine bin.
    const int64_t count =
        rng.Bernoulli(0.05) ? 0 : 1 + static_cast<int64_t>(rng.UniformInt(0, 6));
    double sum = 0.0;
    double sum_sq = 0.0;
    for (int64_t r = 0; r < count; ++r) {
      double m = rng.Bernoulli(0.15) ? -rng.Uniform(0, 10)
                                     : std::floor(rng.Uniform(0, 40));
      if (shape.nonpositive) m = -std::abs(m);
      sum += m;
      sum_sq += m * m;
    }
    if (shape.with_nan && rng.Bernoulli(0.1)) {
      sum = std::numeric_limits<double>::quiet_NaN();
      sum_sq = sum;
    }
    base.sums.push_back(sum);
    base.sum_sqs.push_back(sum_sq);
    base.prefix_counts.push_back(base.prefix_counts.back() + count);
    base.prefix_sums.push_back(base.prefix_sums.back() + sum);
    base.prefix_sum_sqs.push_back(base.prefix_sum_sqs.back() + sum_sq);
  }
  base.source_rows = base.prefix_counts.back();
  return base;
}

std::vector<simd::DispatchLevel> SupportedLevels() {
  std::vector<simd::DispatchLevel> levels{simd::DispatchLevel::kScalar};
  if (simd::BestSupportedLevel() != simd::DispatchLevel::kScalar) {
    levels.push_back(simd::BestSupportedLevel());
  }
  return levels;
}

class LevelGuard {
 public:
  LevelGuard() : original_(simd::ActiveLevel()) {}
  ~LevelGuard() { simd::SetActiveLevel(original_); }

 private:
  simd::DispatchLevel original_;
};

// One (target, comparison) pair probed at every b in 1..max_bins, every
// function and every distance kind; sparse vs dense must be bit-equal.
void CheckPair(const BaseHistogram& target, const BaseHistogram& comparison,
               double lo, double hi, int max_bins) {
  DeviationScratch deviation_scratch;
  AccuracyScratch accuracy_scratch;
  SparseBinnedResult sparse_target;
  SparseBinnedResult sparse_comparison;
  for (const AggregateFunction function : kFunctions) {
    std::vector<double> raw_keys;
    std::vector<double> raw_aggregates;
    storage::BaseRawSeries(target, function, &raw_keys, &raw_aggregates);
    for (int b = 1; b <= max_bins; ++b) {
      SCOPED_TRACE(std::string("function=") +
                   storage::AggregateName(function) +
                   " b=" + std::to_string(b));
      const BinnedResult dense_target = DenseCoarsen(target, function, b, lo, hi);
      const BinnedResult dense_comparison =
          DenseCoarsen(comparison, function, b, lo, hi);
      storage::CoarsenBaseHistogramSparse(target, function, b, lo, hi,
                                          &sparse_target);
      storage::CoarsenBaseHistogramSparse(comparison, function, b, lo, hi,
                                          &sparse_comparison);

      // The sparse form is the dense one's non-empty bins, exactly.
      const BinnedResult scattered = testutil::ScatterDense(sparse_comparison);
      ASSERT_EQ(scattered.row_counts, dense_comparison.row_counts);
      for (size_t k = 0; k < scattered.aggregates.size(); ++k) {
        ASSERT_TRUE(BitEqual(scattered.aggregates[k],
                             dense_comparison.aggregates[k]))
            << "bin " << k;
      }

      for (const DistanceKind kind : kKinds) {
        const double dense = DenseDeviation(kind, dense_target,
                                            dense_comparison);
        const double sparse = DeviationFromSparse(
            kind, sparse_target, sparse_comparison, &deviation_scratch);
        ASSERT_TRUE(BitEqual(sparse, dense))
            << DistanceKindName(kind) << ": sparse " << sparse << " vs dense "
            << dense;
      }
      const double dense_accuracy =
          DenseAccuracy(raw_keys, raw_aggregates, dense_target);
      const double sparse_accuracy = AccuracyFromSparse(
          raw_keys, raw_aggregates, sparse_target, &accuracy_scratch);
      ASSERT_TRUE(BitEqual(sparse_accuracy, dense_accuracy))
          << "accuracy: sparse " << sparse_accuracy << " vs dense "
          << dense_accuracy;
    }
  }
}

class SparseProbeExactnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SparseProbeExactnessTest, SparseProbeMatchesDenseBitForBit) {
  const uint64_t seed = testutil::FuzzSeed(GetParam() ^ 0x5BA25EULL);
  SCOPED_TRACE(testutil::FuzzTrace(GetParam(), seed));
  common::Rng rng(seed);

  const uint64_t variant = GetParam() % 6;
  Shape shape;
  shape.nonpositive = variant == 1;
  shape.with_nan = variant == 2;
  const double lo = std::floor(rng.Uniform(-20, 20));
  const double hi = lo + 1.0 + std::floor(rng.Uniform(0, 60));
  // Variant 3: a single fine bin on each side.  Variant 4: few fine bins
  // over a wide domain, so b runs far past d.
  const int64_t d_comparison = variant == 3   ? 1
                               : variant == 4 ? 2 + rng.UniformInt(0, 3)
                                              : 1 + rng.UniformInt(0, 60);
  const int64_t d_target =
      variant == 3 ? 1
                   : 1 + rng.UniformInt(0, std::min<int64_t>(d_comparison, 20));
  const bool touch_ends = rng.Bernoulli(0.5);
  const BaseHistogram comparison = RandomBase(
      rng, static_cast<size_t>(d_comparison), lo, hi, touch_ends, shape);
  const BaseHistogram target =
      RandomBase(rng, static_cast<size_t>(d_target), lo, hi, false, shape);
  const int max_bins = variant == 4
                           ? 200
                           : std::max(1, static_cast<int>(std::ceil(hi - lo)));

  LevelGuard guard;
  for (const simd::DispatchLevel level : SupportedLevels()) {
    SCOPED_TRACE(std::string("level=") + simd::DispatchLevelName(level));
    ASSERT_TRUE(simd::SetActiveLevel(level));
    CheckPair(target, comparison, lo, hi, max_bins);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseProbeExactnessTest,
                         ::testing::Range<uint64_t>(0, 36));

// A warm histogram-served probe allocates nothing: every buffer it uses
// is grow-only scratch that reached its high-water mark on the first
// pass over the same views and bin counts.  Every distance kind.
TEST(ProbeAllocationTest, WarmHistogramProbesDoNotAllocate) {
  const data::Dataset ds = data::MakeToyDataset();
  auto space = ViewSpace::Create(ds);
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  for (const DistanceKind kind : kKinds) {
    SCOPED_TRACE(DistanceKindName(kind));
    ViewEvaluator::Options options;
    options.use_base_histogram_cache = true;
    options.distance = kind;
    ViewEvaluator evaluator(ds, *space, options);
    evaluator.PrewarmBaseHistograms();
    double sink = 0.0;
    const auto probe_all = [&] {
      for (const View& view : space->views()) {
        const DimensionInfo& dim = space->dimension_info(view.dimension);
        if (dim.categorical) continue;
        for (int b = 1; b <= dim.max_bins; ++b) {
          sink += evaluator.EvaluateDeviation(view, b);
          sink += evaluator.EvaluateAccuracy(view, b);
        }
      }
    };
    probe_all();
    alloc_count::allocations = 0;
    alloc_count::armed = true;
    probe_all();
    alloc_count::armed = false;
    EXPECT_EQ(alloc_count::allocations.load(), 0);
    EXPECT_EQ(evaluator.stats().probe_rows_scanned, 0);
    EXPECT_TRUE(std::isfinite(sink));
  }
}

}  // namespace
}  // namespace muve::core
