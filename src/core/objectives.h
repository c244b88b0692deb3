// The deviation and accuracy objectives over sparse binned views, and
// the accuracy objective's definition (Section III-A, Eq. 4).
//
// A binned view V_{i,b} approximates the raw series <(a_1,g_1)..(a_t,g_t)>
// by one representative value per bin: g'_x = g_hat_x / n_x, where g_hat_x
// is the bin's aggregate and n_x the number of distinct dimension values
// inside bin x.  Every raw g_j inside bin x is estimated as g'_x, giving
// the relative sum-squared error
//
//   R(V_{i,b}) = sum_p (g_p - g'_p)^2 / g_p^2
//
// and accuracy A(V_{i,b}) = 1 - R / t, clamped into [0, 1].
//
// Two documented generalizations of the paper's integer-attribute setup:
//  * n_x counts *observed* distinct values in the bin (equals e_x - s_x + 1
//    for dense integer attributes; stays meaningful for sparse or float
//    dimensions).
//  * raw values with g_p = 0 contribute no relative-error term (the
//    paper's formula divides by g_p^2); they still count towards t.

#ifndef MUVE_CORE_OBJECTIVES_H_
#define MUVE_CORE_OBJECTIVES_H_

#include <cstdint>
#include <vector>

#include "common/simd/aligned.h"
#include "core/distance.h"
#include "storage/binned_group_by.h"

namespace muve::core {

// Grow-only scratch for DeviationFromSparse: two dense buffers that are
// all zero between calls (each call clears what it set).
struct DeviationScratch {
  common::simd::AlignedVector<double> dense_target;
  common::simd::AlignedVector<double> dense_comparison;
};

// D(V_{i,b}) (Eq. 2) from the sparse binned target and comparison
// aggregates over the same num_bins bins: scatter each side's clamped
// values into its zeroed dense buffer, normalize (Section II-A), and
// take `kind`'s distance with the dense kernels.  Bit-identical to
// normalizing the dense series and calling Distance(): the buffers hold
// exactly the dense series, and the same kernels sum them.  Only the
// scatter and the clearing are O(listed bins); the kernels run over
// num_bins.
double DeviationFromSparse(DistanceKind kind,
                           const storage::SparseBinnedResult& target,
                           const storage::SparseBinnedResult& comparison,
                           DeviationScratch* scratch);

// Grow-only scratch for AccuracyFromSparse.  The two per-bin arrays are
// all zero between calls (each call clears exactly the entries it set),
// so a probe touches O(t + non-empty bins) of them, never all b.
struct AccuracyScratch {
  std::vector<int32_t> bin_of_key;
  std::vector<double> representative;
  std::vector<uint32_t> keys_in_bin;
  std::vector<double> aggregate_of_bin;
};

// Computes A(V_{i,b}) from the raw (non-binned) series and the binned
// aggregates.  `raw_keys` are the sorted distinct dimension values, and
// `raw_aggregates` their per-value aggregates; `binned` is the same view
// binned over [binned.lo, binned.hi], in sparse form (an unlisted bin
// aggregates to 0).  Returns 1.0 for an empty raw series (nothing to
// misrepresent).  No allocation once `scratch` has grown.
double AccuracyFromSparse(const std::vector<double>& raw_keys,
                          const std::vector<double>& raw_aggregates,
                          const storage::SparseBinnedResult& binned,
                          AccuracyScratch* scratch);

}  // namespace muve::core

#endif  // MUVE_CORE_OBJECTIVES_H_
