// NEON kernel table: 2-lane double ports of the simple reduction
// kernels for aarch64 builds.  Only compiled when the build enables
// MUVE_SIMD_NEON (aarch64 targets); the non-ported primitives (keyed
// accumulators, bin index, normalize) reuse the scalar
// reference implementations, which keeps the bit-identity contract
// trivially satisfied for them.

#if defined(__aarch64__) || defined(__ARM_NEON)

#include <arm_neon.h>

#include <cstddef>
#include <cstdint>

#include "common/simd/internal.h"
#include "common/simd/simd.h"

namespace muve::common::simd {
namespace {

// Every reduction reproduces the reference 4-lane-strided association
// (see kernels_scalar.cc): two 2-wide registers hold lanes {0,1} and
// {2,3} of a virtual 4-lane accumulator, combined as (l0+l2)+(l1+l3),
// with a sequential tail — bit-identical to the scalar reference.

inline double Combine4(float64x2_t a01, float64x2_t a23) {
  const float64x2_t pair = vaddq_f64(a01, a23);  // {l0+l2, l1+l3}
  return vgetq_lane_f64(pair, 0) + vgetq_lane_f64(pair, 1);
}

double SquaredL2Diff(const double* p, const double* q, size_t n) {
  float64x2_t a01 = vdupq_n_f64(0.0);
  float64x2_t a23 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float64x2_t d01 =
        vsubq_f64(vld1q_f64(p + i), vld1q_f64(q + i));
    const float64x2_t d23 =
        vsubq_f64(vld1q_f64(p + i + 2), vld1q_f64(q + i + 2));
    a01 = vaddq_f64(a01, vmulq_f64(d01, d01));
    a23 = vaddq_f64(a23, vmulq_f64(d23, d23));
  }
  double sum = Combine4(a01, a23);
  for (; i < n; ++i) {
    const double d = p[i] - q[i];
    sum += d * d;
  }
  return sum;
}

double AbsDiffSum(const double* p, const double* q, size_t n) {
  float64x2_t a01 = vdupq_n_f64(0.0);
  float64x2_t a23 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a01 = vaddq_f64(a01, vabdq_f64(vld1q_f64(p + i), vld1q_f64(q + i)));
    a23 = vaddq_f64(a23, vabdq_f64(vld1q_f64(p + i + 2),
                                   vld1q_f64(q + i + 2)));
  }
  double sum = Combine4(a01, a23);
  for (; i < n; ++i) {
    const double d = p[i] - q[i];
    sum += d < 0.0 ? -d : d;
  }
  return sum;
}

double MaxAbsDiff(const double* p, const double* q, size_t n) {
  // Max never rounds; any association gives the reference bits.
  float64x2_t acc = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc = vmaxq_f64(acc,
                    vabdq_f64(vld1q_f64(p + i), vld1q_f64(q + i)));
  }
  double best = vgetq_lane_f64(acc, 0);
  const double b1 = vgetq_lane_f64(acc, 1);
  best = best < b1 ? b1 : best;
  for (; i < n; ++i) {
    const double d = p[i] - q[i];
    const double a = d < 0.0 ? -d : d;
    best = best < a ? a : best;
  }
  return best;
}

double Sum(const double* a, size_t n) {
  float64x2_t a01 = vdupq_n_f64(0.0);
  float64x2_t a23 = vdupq_n_f64(0.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    a01 = vaddq_f64(a01, vld1q_f64(a + i));
    a23 = vaddq_f64(a23, vld1q_f64(a + i + 2));
  }
  double sum = Combine4(a01, a23);
  for (; i < n; ++i) sum += a[i];
  return sum;
}

const KernelTable& BuildTable() {
  static const KernelTable table = [] {
    KernelTable t;
    t.level = DispatchLevel::kNeon;
    t.name = "neon";
    t.squared_l2_diff = &SquaredL2Diff;
    t.abs_diff_sum = &AbsDiffSum;
    t.max_abs_diff = &MaxAbsDiff;
    t.prefix_abs_diff_sum = &scalar_impl::PrefixAbsDiffSum;
    t.sum = &Sum;
    t.relative_sse = &scalar_impl::RelativeSse;
    t.normalize_into = &scalar_impl::NormalizeInto;
    t.bin_index_into = &scalar_impl::BinIndexInto;
    t.accumulate_count_sum_sq_f64 = &scalar_impl::AccumulateCountSumSqF64;
    t.accumulate_count_sum_sq_i64 = &scalar_impl::AccumulateCountSumSqI64;
    return t;
  }();
  return table;
}

}  // namespace

const KernelTable& NeonKernelsImpl() { return BuildTable(); }

}  // namespace muve::common::simd

#endif  // __aarch64__ || __ARM_NEON
