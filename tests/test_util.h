// Shared helpers for the MuVE test suite.

#ifndef MUVE_TESTS_TEST_UTIL_H_
#define MUVE_TESTS_TEST_UTIL_H_

#include <cstddef>

#include "data/dataset.h"
#include "data/toy.h"
#include "storage/binned_group_by.h"

namespace muve::testutil {

// The small deterministic exploration dataset the suites share; now owned
// by the library (src/data/toy) so the CLI's `--dataset=toy` and the
// golden-file regression test build the exact same workload.
inline data::Dataset MakeToyDataset() { return data::MakeToyDataset(); }

// The dense form of a sparse binned view, one slot per bin: unlisted bins
// hold 0 rows and aggregate 0.  The reference shape for parity checks of
// the sparse coarsening against BinnedAggregate and the dense formulas.
inline storage::BinnedResult ScatterDense(
    const storage::SparseBinnedResult& sparse) {
  storage::BinnedResult out;
  out.lo = sparse.lo;
  out.hi = sparse.hi;
  out.num_bins = sparse.num_bins;
  out.aggregates.assign(static_cast<size_t>(sparse.num_bins), 0.0);
  out.row_counts.assign(static_cast<size_t>(sparse.num_bins), 0);
  for (size_t i = 0; i < sparse.size(); ++i) {
    const size_t bin = static_cast<size_t>(sparse.bins[i]);
    out.aggregates[bin] = sparse.aggregates[i];
    out.row_counts[bin] = sparse.row_counts[i];
  }
  return out;
}

}  // namespace muve::testutil

#endif  // MUVE_TESTS_TEST_UTIL_H_
