#include "core/objectives.h"

#include <gtest/gtest.h>

#include "core/utility.h"

namespace muve::core {
namespace {

storage::BinnedResult MakeBinned(double lo, double hi,
                                 std::vector<double> aggregates) {
  storage::BinnedResult binned;
  binned.lo = lo;
  binned.hi = hi;
  binned.num_bins = static_cast<int>(aggregates.size());
  binned.aggregates = std::move(aggregates);
  binned.row_counts.assign(binned.aggregates.size(), 1);
  return binned;
}

// The accuracy of a dense binned view: its non-empty bins are gathered
// into the sparse form the probe path scores.
double AccuracyFromDense(const std::vector<double>& raw_keys,
                         const std::vector<double>& raw_aggregates,
                         const storage::BinnedResult& binned) {
  storage::SparseBinnedResult sparse;
  storage::GatherNonEmpty(binned, &sparse);
  AccuracyScratch scratch;
  return AccuracyFromSparse(raw_keys, raw_aggregates, sparse, &scratch);
}

TEST(AccuracyTest, PerfectWhenEachValueOwnsABin) {
  // 4 distinct values, 4 bins, each bin holds exactly its value's mass:
  // representative = aggregate / 1 = raw value -> zero error.
  const std::vector<double> keys = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> aggs = {5.0, 7.0, 9.0, 11.0};
  // Bins over [0,3] with 4 bins: widths 0.75 -> values 0,1,2,3 land in
  // bins 0,1,2,3.
  const auto binned = MakeBinned(0.0, 3.0, {5.0, 7.0, 9.0, 11.0});
  EXPECT_DOUBLE_EQ(AccuracyFromDense(keys, aggs, binned), 1.0);
}

TEST(AccuracyTest, UniformSeriesStaysPerfectUnderCoarseBinning) {
  // Constant per-value aggregates: any binning's representative equals
  // the raw value, so accuracy stays 1 regardless of bin count.
  const std::vector<double> keys = {0, 1, 2, 3, 4, 5};
  const std::vector<double> aggs(6, 4.0);
  const auto two_bins = MakeBinned(0.0, 5.0, {12.0, 12.0});
  EXPECT_DOUBLE_EQ(AccuracyFromDense(keys, aggs, two_bins), 1.0);
  const auto one_bin = MakeBinned(0.0, 5.0, {24.0});
  EXPECT_DOUBLE_EQ(AccuracyFromDense(keys, aggs, one_bin), 1.0);
}

TEST(AccuracyTest, SkewWithinBinReducesAccuracy) {
  // Values {1, 9} merged into one bin: representative 5 is far from both.
  const std::vector<double> keys = {0.0, 1.0};
  const std::vector<double> aggs = {1.0, 9.0};
  const auto binned = MakeBinned(0.0, 1.0, {10.0});
  // R = (1-5)^2/1 + (9-5)^2/81 = 16 + 0.1975..; A = 1 - R/2 < 0 -> clamped.
  EXPECT_DOUBLE_EQ(AccuracyFromDense(keys, aggs, binned), 0.0);
}

TEST(AccuracyTest, ModerateErrorInUnitRange) {
  const std::vector<double> keys = {0.0, 1.0};
  const std::vector<double> aggs = {4.0, 6.0};
  const auto binned = MakeBinned(0.0, 1.0, {10.0});
  // Representative 5: R = (4-5)^2/16 + (6-5)^2/36 = 0.0625 + 0.02777...
  const double expected = 1.0 - (0.0625 + 1.0 / 36.0) / 2.0;
  EXPECT_NEAR(AccuracyFromDense(keys, aggs, binned), expected, 1e-12);
}

TEST(AccuracyTest, FinerBinningNeverLessAccurateForThisSeries) {
  // Monotone series: accuracy should improve (weakly) with more bins.
  std::vector<double> keys;
  std::vector<double> aggs;
  for (int i = 0; i < 16; ++i) {
    keys.push_back(i);
    aggs.push_back(1.0 + i);
  }
  double prev = -1.0;
  for (int bins : {1, 2, 4, 8, 16}) {
    // Build the binned SUM aggregates directly.
    std::vector<double> bin_aggs(bins, 0.0);
    for (int i = 0; i < 16; ++i) {
      bin_aggs[storage::BinIndexFor(keys[i], 0.0, 15.0, bins)] += aggs[i];
    }
    const double acc =
        AccuracyFromDense(keys, aggs, MakeBinned(0.0, 15.0, bin_aggs));
    EXPECT_GE(acc + 1e-12, prev) << "bins=" << bins;
    prev = acc;
  }
  EXPECT_DOUBLE_EQ(prev, 1.0);  // 16 bins = one value per bin
}

TEST(AccuracyTest, ZeroRawValuesSkipRelativeTerms) {
  const std::vector<double> keys = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> aggs = {0.0, 0.0, 5.0, 5.0};
  // 4 bins, perfect placement: zero values contribute nothing either way.
  const auto binned = MakeBinned(0.0, 3.0, {0.0, 0.0, 5.0, 5.0});
  EXPECT_DOUBLE_EQ(AccuracyFromDense(keys, aggs, binned), 1.0);
}

TEST(AccuracyTest, EmptySeriesIsPerfect) {
  EXPECT_DOUBLE_EQ(AccuracyFromDense({}, {}, MakeBinned(0, 1, {0.0})), 1.0);
}

TEST(AccuracyTest, AlwaysInUnitRange) {
  // Random-ish adversarial values stay clamped to [0, 1].
  const std::vector<double> keys = {0, 1, 2};
  const std::vector<double> aggs = {0.001, 100.0, -50.0};
  for (int bins : {1, 2, 3}) {
    std::vector<double> bin_aggs(bins, 0.0);
    for (size_t i = 0; i < keys.size(); ++i) {
      bin_aggs[storage::BinIndexFor(keys[i], 0.0, 2.0, bins)] += aggs[i];
    }
    const double acc =
        AccuracyFromDense(keys, aggs, MakeBinned(0.0, 2.0, bin_aggs));
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
  }
}

TEST(UsabilityTest, InverseBins) {
  EXPECT_DOUBLE_EQ(Usability(1), 1.0);
  EXPECT_DOUBLE_EQ(Usability(2), 0.5);
  EXPECT_DOUBLE_EQ(Usability(10), 0.1);
}

TEST(WeightsTest, PaperDefaultValidates) {
  EXPECT_TRUE(Weights::PaperDefault().Validate().ok());
  EXPECT_TRUE(Weights::Equal().Validate().ok());
  EXPECT_TRUE(Weights::DeviationOnly().Validate().ok());
}

TEST(WeightsTest, InvalidWeightsRejected) {
  EXPECT_FALSE((Weights{0.5, 0.5, 0.5}).Validate().ok());   // sums to 1.5
  EXPECT_FALSE((Weights{-0.2, 0.6, 0.6}).Validate().ok());  // negative
  EXPECT_FALSE((Weights{1.2, -0.1, -0.1}).Validate().ok());
}

TEST(UtilityTest, WeightedSumAndBound) {
  const Weights w{0.6, 0.2, 0.2};
  EXPECT_NEAR(Utility(w, 0.29, 0.30, 1.0 / 3), 0.6 * 0.29 + 0.2 * 0.30 +
                                                    0.2 / 3.0,
              1e-12);
  EXPECT_NEAR(UtilityUpperBound(w, 0.5), 0.6 + 0.2 + 0.1, 1e-12);
  // The bound dominates any achievable utility at the same usability.
  EXPECT_GE(UtilityUpperBound(w, 0.5), Utility(w, 1.0, 1.0, 0.5) - 1e-12);
  EXPECT_GE(UtilityUpperBound(w, 0.5), Utility(w, 0.3, 0.7, 0.5));
}

TEST(UtilityTest, UtilityStaysInUnitRange) {
  const Weights w = Weights::PaperDefault();
  EXPECT_LE(Utility(w, 1.0, 1.0, 1.0), 1.0 + 1e-12);
  EXPECT_GE(Utility(w, 0.0, 0.0, 0.0), 0.0);
}

}  // namespace
}  // namespace muve::core
