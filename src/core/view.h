// View model (Section II-A / III-A).
//
// A non-binned view V_i is the triple (A, M, F): group the analyst's data
// by dimension A and aggregate measure M with function F.  A binned view
// V_{i,b} additionally fixes the number of equi-width bins b over A's
// range.  `ViewSpace` enumerates the candidate views of a dataset's
// workload (|A| x |M| x |F| views) and knows each dimension's binning
// range and maximum bin count B_j.

#ifndef MUVE_CORE_VIEW_H_
#define MUVE_CORE_VIEW_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "storage/aggregate.h"

namespace muve::core {

// A non-binned candidate view (A, M, F).
struct View {
  std::string dimension;
  std::string measure;
  storage::AggregateFunction function = storage::AggregateFunction::kSum;

  // "SUM(3PAr) BY MP" — used in logs, examples, and test failure messages.
  std::string Label() const;

  // Stable key for hashing/caching.
  std::string Key() const;

  bool operator==(const View& other) const {
    return dimension == other.dimension && measure == other.measure &&
           function == other.function;
  }
};

// Binning metadata for one dimension.  Categorical dimensions carry no
// range and exactly one binning choice (their distinct groups ARE the
// bars); numeric dimensions span [lo, hi] with B_j = ceil(range) choices.
struct DimensionInfo {
  std::string name;
  bool categorical = false;
  double lo = 0.0;        // min over the whole database D_B (numeric only)
  double hi = 0.0;        // max over the whole database D_B (numeric only)
  int max_bins = 1;       // the paper's B_j = ceil(range L); 1 if categorical
  size_t distinct_values = 0;  // t, the raw group count over D_B

  double range() const { return hi - lo; }
};

// The enumerated candidate-view space of a dataset workload.
class ViewSpace {
 public:
  // Enumerates |A| x |M| x |F| views in (dimension, measure, function)
  // lexicographic workload order, and computes each dimension's binning
  // range from the dataset's full table.
  static common::Result<ViewSpace> Create(const data::Dataset& dataset);

  const std::vector<View>& views() const { return views_; }
  const std::vector<DimensionInfo>& dimensions() const { return dims_; }

  const DimensionInfo& dimension_info(const std::string& name) const;

  // The element of views() equal to `view`; aborts when there is none.
  // A linear scan, for callers holding a copy (the top-k refinement,
  // tests): the evaluator takes views by reference into the space.
  const View& Find(const View& view) const;

  // Maximum bin count across all dimensions (the vertical round-robin's
  // round limit).
  int max_bins_overall() const;

  // Total number of binned views N_B = sum_j 2 |M| |F| B_j (Section III-C).
  int64_t TotalBinnedViews() const;

 private:
  std::vector<View> views_;
  std::vector<DimensionInfo> dims_;
  std::unordered_map<std::string, size_t> dim_index_;
  size_t measures_per_dimension_ = 0;
};

}  // namespace muve::core

#endif  // MUVE_CORE_VIEW_H_
