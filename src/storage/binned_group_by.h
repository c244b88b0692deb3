// Equi-width binned aggregation (the paper's binned views, Definition 1).
//
// `SELECT A, F(M) FROM ... GROUP BY A NUMBER OF BINS b` partitions the
// numeric dimension A's range [lo, hi] into b equal-width, non-overlapping
// bins and aggregates the measure per bin.  Target and comparison views of
// the same candidate must share the binning range, so the range is an
// explicit input here (the caller derives it from the full database D_B).

#ifndef MUVE_STORAGE_BINNED_GROUP_BY_H_
#define MUVE_STORAGE_BINNED_GROUP_BY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/aggregate.h"
#include "storage/table.h"

namespace muve::storage {

// Result of a binned aggregation: one slot per bin, empty bins hold 0.
struct BinnedResult {
  double lo = 0.0;      // range start (inclusive)
  double hi = 0.0;      // range end (inclusive; last bin is closed)
  int num_bins = 0;
  std::vector<double> aggregates;  // size num_bins
  std::vector<size_t> row_counts;  // rows landing in each bin

  double bin_width() const {
    return num_bins == 0 ? 0.0 : (hi - lo) / static_cast<double>(num_bins);
  }
  // [start, end) of `bin` (last bin is closed at hi).
  double BinStart(int bin) const { return lo + bin_width() * bin; }
  double BinEnd(int bin) const { return lo + bin_width() * (bin + 1); }
};

// The same binned view in sparse form: only the bins that hold rows, in
// ascending bin order.  A bin not listed holds no rows and aggregates to
// 0, exactly as in the dense BinnedResult, so the two forms carry the
// same information.  The probe path keeps one of these per side and
// refills it on every probe: Reset() keeps the vectors' capacity, so a
// warm probe loop allocates nothing, and its work is proportional to the
// non-empty bins, not to num_bins.
struct SparseBinnedResult {
  double lo = 0.0;
  double hi = 0.0;
  int num_bins = 0;
  std::vector<int32_t> bins;       // ascending; each has row_count > 0
  std::vector<size_t> row_counts;  // parallel to `bins`
  std::vector<double> aggregates;  // parallel to `bins`

  size_t size() const { return bins.size(); }
  void Reset(double range_lo, double range_hi, int bin_count) {
    lo = range_lo;
    hi = range_hi;
    num_bins = bin_count;
    bins.clear();
    row_counts.clear();
    aggregates.clear();
  }
};

// The bins of `dense` with row_count > 0, into `*out`.
void GatherNonEmpty(const BinnedResult& dense, SparseBinnedResult* out);

// Maps `value` to its bin index for range [lo, hi] with `num_bins` bins.
// Values outside the range clamp to the first/last bin (robustness against
// floating-point edge effects; the recommendation pipeline always bins with
// the enclosing database range, so clamping is a no-op there).
int BinIndexFor(double value, double lo, double hi, int num_bins);

// Bins `rows` of `table` on `dimension` into `num_bins` bins over
// [lo, hi] and aggregates `measure` with `function`.  NULL handling
// matches GroupByAggregate.  Errors: non-numeric dimension, num_bins < 1,
// or hi < lo.
common::Result<BinnedResult> BinnedAggregate(
    const Table& table, const RowSet& rows, std::string_view dimension,
    std::string_view measure, AggregateFunction function, int num_bins,
    double lo, double hi);

}  // namespace muve::storage

#endif  // MUVE_STORAGE_BINNED_GROUP_BY_H_
