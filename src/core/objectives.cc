#include "core/objectives.h"

#include <algorithm>
#include <cstdint>

#include "common/logging.h"
#include "common/simd/simd.h"
#include "core/distribution.h"

namespace muve::core {

namespace {

// Writes the normalized form of `sparse` into the all-zero `dense`
// exactly as the dense normalize_into kernel would: the clamped values
// summed by the `sum` kernel (the same association, over the same
// zeros), then each listed bin divided by the total — or, for a total
// <= 0, the uniform fallback over all num_bins.  Returns whether the
// uniform fallback filled the whole buffer.
bool Densify(const storage::SparseBinnedResult& sparse, double* dense) {
  const size_t n = static_cast<size_t>(sparse.num_bins);
  for (size_t i = 0; i < sparse.size(); ++i) {
    const double v = sparse.aggregates[i];
    dense[sparse.bins[i]] = v > 0.0 ? v : 0.0;
  }
  const double total = common::simd::ActiveKernels().sum(dense, n);
  if (total <= 0.0) {
    std::fill(dense, dense + n, 1.0 / static_cast<double>(n));
    return true;
  }
  for (size_t i = 0; i < sparse.size(); ++i) {
    const double v = sparse.aggregates[i];
    dense[sparse.bins[i]] = (v > 0.0 ? v : 0.0) / total;
  }
  return false;
}

// Restores the all-zero invariant after Densify.
void Undensify(const storage::SparseBinnedResult& sparse, bool filled,
               double* dense) {
  if (filled) {
    std::fill(dense, dense + sparse.num_bins, 0.0);
    return;
  }
  for (size_t i = 0; i < sparse.size(); ++i) dense[sparse.bins[i]] = 0.0;
}

}  // namespace

double DeviationFromSparse(DistanceKind kind,
                           const storage::SparseBinnedResult& target,
                           const storage::SparseBinnedResult& comparison,
                           DeviationScratch* scratch) {
  MUVE_DCHECK(target.num_bins == comparison.num_bins);
  const size_t n = static_cast<size_t>(target.num_bins);
  if (scratch->dense_target.size() < n) {
    scratch->dense_target.resize(n, 0.0);
    scratch->dense_comparison.resize(n, 0.0);
  }
  double* p = scratch->dense_target.data();
  double* q = scratch->dense_comparison.data();
  const bool p_filled = Densify(target, p);
  const bool q_filled = Densify(comparison, q);
  const double distance = Distance(kind, p, q, n);
  Undensify(target, p_filled, p);
  Undensify(comparison, q_filled, q);
  return distance;
}

double AccuracyFromSparse(const std::vector<double>& raw_keys,
                          const std::vector<double>& raw_aggregates,
                          const storage::SparseBinnedResult& binned,
                          AccuracyScratch* scratch) {
  MUVE_DCHECK(raw_keys.size() == raw_aggregates.size());
  const size_t t = raw_keys.size();
  if (t == 0) return 1.0;
  MUVE_DCHECK(binned.num_bins >= 1);

  const auto& kernels = common::simd::ActiveKernels();
  const size_t num_bins = static_cast<size_t>(binned.num_bins);
  if (scratch->bin_of_key.size() < t) {
    scratch->bin_of_key.resize(t);
    scratch->representative.resize(t);
  }
  if (scratch->keys_in_bin.size() < num_bins) {
    scratch->keys_in_bin.resize(num_bins, 0);
    scratch->aggregate_of_bin.resize(num_bins, 0.0);
  }
  int32_t* bin_of_key = scratch->bin_of_key.data();
  double* representative = scratch->representative.data();
  uint32_t* keys_in_bin = scratch->keys_in_bin.data();
  double* aggregate_of_bin = scratch->aggregate_of_bin.data();

  // Bin index per distinct key (bit-exact across dispatch levels), and
  // n_x, the observed distinct values per bin.
  kernels.bin_index_into(raw_keys.data(), t, binned.lo, binned.hi,
                         binned.num_bins, bin_of_key);
  for (size_t j = 0; j < t; ++j) ++keys_in_bin[bin_of_key[j]];
  for (size_t i = 0; i < binned.size(); ++i) {
    aggregate_of_bin[binned.bins[i]] = binned.aggregates[i];
  }

  // Per-key representative g'_x = g_hat_x / n_x, then the relative-SSE
  // reduction over the t keys.
  for (size_t j = 0; j < t; ++j) {
    const int32_t bin = bin_of_key[j];
    representative[j] =
        aggregate_of_bin[bin] / static_cast<double>(keys_in_bin[bin]);
  }
  const double r =
      kernels.relative_sse(raw_aggregates.data(), representative, t);

  // Leave the per-bin arrays all zero for the next call.
  for (size_t j = 0; j < t; ++j) keys_in_bin[bin_of_key[j]] = 0;
  for (size_t i = 0; i < binned.size(); ++i) {
    aggregate_of_bin[binned.bins[i]] = 0.0;
  }

  const double accuracy = 1.0 - r / static_cast<double>(t);
  return std::clamp(accuracy, 0.0, 1.0);
}

}  // namespace muve::core
