// Portable reference kernels.
//
// The element-wise semantics are the historical open-coded loops from
// distance.cc / distribution.cc / objectives.cc /
// base_histogram_cache.cc / fused_scan.cc.  The REDUCTION association,
// however, is pinned to a fixed 4-lane-strided scheme: lane j owns
// elements i with i % 4 == j over the body (i + 4 <= n), lanes combine
// as (l0 + l2) + (l1 + l3), and the tail (< 4 elements) folds
// sequentially into the combined sum.  Every vector table reproduces
// exactly this association (a 4-wide register IS the four lanes; NEON
// pairs two 2-wide registers), which is what makes ALL kernels —
// floating-point reductions included — bit-identical across dispatch
// levels, so top-k output can never depend on the dispatch path.  For
// n < 4 every reduction degenerates to the historical sequential loop.

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/simd/internal.h"
#include "common/simd/simd.h"

namespace muve::common::simd {
namespace scalar_impl {

namespace {

// The pinned lane-combine order (matches the vector tables' horizontal
// sum: low/high 128-bit halves add first, then the remaining pair).
inline double Combine4(double l0, double l1, double l2, double l3) {
  return (l0 + l2) + (l1 + l3);
}

}  // namespace

double SquaredL2Diff(const double* p, const double* q, size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = p[i] - q[i];
    const double d1 = p[i + 1] - q[i + 1];
    const double d2 = p[i + 2] - q[i + 2];
    const double d3 = p[i + 3] - q[i + 3];
    a0 += d0 * d0;
    a1 += d1 * d1;
    a2 += d2 * d2;
    a3 += d3 * d3;
  }
  double sum = Combine4(a0, a1, a2, a3);
  for (; i < n; ++i) {
    const double d = p[i] - q[i];
    sum += d * d;
  }
  return sum;
}

double AbsDiffSum(const double* p, const double* q, size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 += std::abs(p[i] - q[i]);
    a1 += std::abs(p[i + 1] - q[i + 1]);
    a2 += std::abs(p[i + 2] - q[i + 2]);
    a3 += std::abs(p[i + 3] - q[i + 3]);
  }
  double sum = Combine4(a0, a1, a2, a3);
  for (; i < n; ++i) sum += std::abs(p[i] - q[i]);
  return sum;
}

double MaxAbsDiff(const double* p, const double* q, size_t n) {
  // max never rounds, so any association yields the same bits (NaN is
  // outside the contract); the plain loop is the reference.
  double best = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = std::abs(p[i] - q[i]);
    best = best < d ? d : best;
  }
  return best;
}

double PrefixAbsDiffSum(const double* p, const double* q, size_t n) {
  // 1-D EMD core: sum over i < n of |prefix-sum difference|.  The
  // distance wrapper passes n = bins - 1 (the last prefix is excluded).
  // The per-block prefix values use the vector tables' shift-add tree
  //   t0 = d0            t1 = d1 + d0
  //   t2 = (d2 + d1) + d0  t3 = (d3 + d2) + (d1 + d0)
  // with the previous block's last prefix added as a carry.
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  double carry = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = p[i] - q[i];
    const double d1 = p[i + 1] - q[i + 1];
    const double d2 = p[i + 2] - q[i + 2];
    const double d3 = p[i + 3] - q[i + 3];
    const double s1 = d1 + d0;
    const double s2 = d2 + d1;
    const double s3 = d3 + d2;
    const double c0 = d0 + carry;
    const double c1 = s1 + carry;
    const double c2 = (s2 + d0) + carry;
    const double c3 = (s3 + s1) + carry;
    a0 += std::abs(c0);
    a1 += std::abs(c1);
    a2 += std::abs(c2);
    a3 += std::abs(c3);
    carry = c3;
  }
  double total = Combine4(a0, a1, a2, a3);
  double cum = carry;
  for (; i < n; ++i) {
    cum += p[i] - q[i];
    total += std::abs(cum);
  }
  return total;
}

double Sum(const double* a, size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a0 += a[i];
    a1 += a[i + 1];
    a2 += a[i + 2];
    a3 += a[i + 3];
  }
  double sum = Combine4(a0, a1, a2, a3);
  for (; i < n; ++i) sum += a[i];
  return sum;
}

double RelativeSse(const double* g, const double* rep, size_t n) {
  // Masked lanes contribute +0.0 (adding +0.0 is the identity here:
  // every unmasked term is a non-negative quotient), which is exactly
  // what the vector tables' bitwise mask produces.
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t i = 0;
  const auto term = [](double gj, double rj) {
    const double diff = gj - rj;
    return gj != 0.0 ? (diff * diff) / (gj * gj) : 0.0;
  };
  for (; i + 4 <= n; i += 4) {
    a0 += term(g[i], rep[i]);
    a1 += term(g[i + 1], rep[i + 1]);
    a2 += term(g[i + 2], rep[i + 2]);
    a3 += term(g[i + 3], rep[i + 3]);
  }
  double r = Combine4(a0, a1, a2, a3);
  for (; i < n; ++i) {
    if (g[i] == 0.0) continue;  // relative error undefined (objectives.h)
    const double diff = g[i] - rep[i];
    r += (diff * diff) / (g[i] * g[i]);
  }
  return r;
}

double NormalizeInto(const double* src, size_t n, double* dst) {
  if (n == 0) return 0.0;
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double c0 = src[i] > 0.0 ? src[i] : 0.0;
    const double c1 = src[i + 1] > 0.0 ? src[i + 1] : 0.0;
    const double c2 = src[i + 2] > 0.0 ? src[i + 2] : 0.0;
    const double c3 = src[i + 3] > 0.0 ? src[i + 3] : 0.0;
    dst[i] = c0;
    dst[i + 1] = c1;
    dst[i + 2] = c2;
    dst[i + 3] = c3;
    a0 += c0;
    a1 += c1;
    a2 += c2;
    a3 += c3;
  }
  double total = Combine4(a0, a1, a2, a3);
  for (; i < n; ++i) {
    dst[i] = src[i] > 0.0 ? src[i] : 0.0;
    total += dst[i];
  }
  // The clamped terms are all non-negative, so association cannot
  // change whether the total is zero: the uniform-fallback branch is
  // taken identically under every association.
  if (total <= 0.0) {
    const double uniform = 1.0 / static_cast<double>(n);
    for (size_t j = 0; j < n; ++j) dst[j] = uniform;
    return total;
  }
  for (size_t j = 0; j < n; ++j) dst[j] /= total;
  return total;
}

void BinIndexInto(const double* values, size_t n, double lo, double hi,
                  int num_bins, int32_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = BinIndexReference(values[i], lo, hi, num_bins);
  }
}

namespace {

// Shared body of the keyed accumulators; mirrors fused_scan.cc's
// AccumulatePair (adds stay in row order per key).
template <typename T>
inline void AccumulateImpl(const uint32_t* rows, size_t begin, size_t end,
                           const uint32_t* keys,
                           const uint64_t* validity_words, const T* data,
                           int64_t* counts, double* sums,
                           double* sum_sqs) {
  for (size_t p = begin; p < end; ++p) {
    const uint32_t k = keys[p];
    if (k == kNullKey32) continue;  // NULL dimension cell
    const uint32_t row = rows[p];
    if (validity_words != nullptr &&
        ((validity_words[row >> 6] >> (row & 63)) & 1u) == 0) {
      continue;  // NULL measure cell
    }
    const double m = static_cast<double>(data[row]);
    ++counts[k];
    sums[k] += m;
    sum_sqs[k] += m * m;
  }
}

}  // namespace

void AccumulateCountSumSqF64(const uint32_t* rows, size_t begin, size_t end,
                             const uint32_t* keys,
                             const uint64_t* validity_words,
                             const double* data, int64_t* counts,
                             double* sums, double* sum_sqs) {
  AccumulateImpl(rows, begin, end, keys, validity_words, data, counts, sums,
                 sum_sqs);
}

void AccumulateCountSumSqI64(const uint32_t* rows, size_t begin, size_t end,
                             const uint32_t* keys,
                             const uint64_t* validity_words,
                             const int64_t* data, int64_t* counts,
                             double* sums, double* sum_sqs) {
  AccumulateImpl(rows, begin, end, keys, validity_words, data, counts, sums,
                 sum_sqs);
}

}  // namespace scalar_impl

const KernelTable& ScalarKernels() {
  static const KernelTable table = [] {
    KernelTable t;
    t.level = DispatchLevel::kScalar;
    t.name = "scalar";
    t.squared_l2_diff = &scalar_impl::SquaredL2Diff;
    t.abs_diff_sum = &scalar_impl::AbsDiffSum;
    t.max_abs_diff = &scalar_impl::MaxAbsDiff;
    t.prefix_abs_diff_sum = &scalar_impl::PrefixAbsDiffSum;
    t.sum = &scalar_impl::Sum;
    t.relative_sse = &scalar_impl::RelativeSse;
    t.normalize_into = &scalar_impl::NormalizeInto;
    t.bin_index_into = &scalar_impl::BinIndexInto;
    t.accumulate_count_sum_sq_f64 = &scalar_impl::AccumulateCountSumSqF64;
    t.accumulate_count_sum_sq_i64 = &scalar_impl::AccumulateCountSumSqI64;
    return t;
  }();
  return table;
}

}  // namespace muve::common::simd
