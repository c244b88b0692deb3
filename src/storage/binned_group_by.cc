#include "storage/binned_group_by.h"

#include <cmath>

#include "common/simd/simd.h"

namespace muve::storage {

int BinIndexFor(double value, double lo, double hi, int num_bins) {
  // Single source of truth: the SIMD layer's reference semantics (every
  // vectorized bin_index_into kernel is pinned bit-exact against it).
  return common::simd::BinIndexReference(value, lo, hi, num_bins);
}

void GatherNonEmpty(const BinnedResult& dense, SparseBinnedResult* out) {
  out->Reset(dense.lo, dense.hi, dense.num_bins);
  for (size_t k = 0; k < dense.row_counts.size(); ++k) {
    if (dense.row_counts[k] > 0) {
      out->bins.push_back(static_cast<int32_t>(k));
      out->row_counts.push_back(dense.row_counts[k]);
      out->aggregates.push_back(dense.aggregates[k]);
    }
  }
}

common::Result<BinnedResult> BinnedAggregate(
    const Table& table, const RowSet& rows, std::string_view dimension,
    std::string_view measure, AggregateFunction function, int num_bins,
    double lo, double hi) {
  if (num_bins < 1) {
    return common::Status::InvalidArgument(
        "number of bins must be >= 1, got " + std::to_string(num_bins));
  }
  if (hi < lo) {
    return common::Status::InvalidArgument("binning range is inverted");
  }
  MUVE_ASSIGN_OR_RETURN(const Column* dim, table.ColumnByName(dimension));
  MUVE_ASSIGN_OR_RETURN(const Column* mea, table.ColumnByName(measure));
  if (dim->type() == ValueType::kString) {
    return common::Status::TypeMismatch(
        "cannot bin string dimension '" + std::string(dimension) + "'");
  }
  if (mea->type() == ValueType::kString &&
      function != AggregateFunction::kCount) {
    return common::Status::TypeMismatch(
        "cannot aggregate string measure '" + std::string(measure) +
        "' with " + AggregateName(function));
  }

  std::vector<AggregateAccumulator> bins(
      static_cast<size_t>(num_bins), AggregateAccumulator(function));
  const bool is_count = function == AggregateFunction::kCount;
  for (uint32_t row : rows) {
    if (dim->IsNull(row)) continue;
    // SQL semantics: COUNT(M) also ignores NULL measures.
    if (mea->IsNull(row)) continue;
    const double v = dim->NumericAt(row);
    const int idx = BinIndexFor(v, lo, hi, num_bins);
    bins[static_cast<size_t>(idx)].Add(is_count ? 1.0 : mea->NumericAt(row));
  }

  BinnedResult out;
  out.lo = lo;
  out.hi = hi;
  out.num_bins = num_bins;
  out.aggregates.reserve(bins.size());
  out.row_counts.reserve(bins.size());
  for (const auto& acc : bins) {
    out.aggregates.push_back(acc.Finish());
    out.row_counts.push_back(acc.count());
  }
  return out;
}

}  // namespace muve::storage
