// AVX2 kernel table: 4-lane double ports of the hot primitives.
//
// This TU is compiled with -mavx2 but deliberately WITHOUT -mfma: every
// per-lane multiply/add rounds exactly like its scalar counterpart, so
// the only divergence from scalar_impl is reduction order (lane-boundary
// re-association), which the ulp-bounded differential contract covers.
// Kernels with bit-identity requirements (bin_index_into, the keyed
// accumulators) are constructed so the per-element operation sequence
// matches scalar exactly:
//   * bin_index_into uses the same IEEE divide + truncate + clamp, with
//     the boundary cases handled by blends instead of branches;
//   * accumulate_* vectorizes only the gather/multiply of the measure
//     values — the scatter-adds stay scalar, in row order.
//
// All loads are unaligned (loadu); alignment is a performance hint, not
// a requirement (see simd.h).

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "common/simd/internal.h"
#include "common/simd/simd.h"

namespace muve::common::simd {
namespace {

const __m256d kSignMask =
    _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFll));

inline __m256d Abs(__m256d x) { return _mm256_and_pd(x, kSignMask); }

// Deterministic horizontal sum: (l0 + l1) + (l2 + l3).
inline double HSum(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);  // {l0+l2, l1+l3}
  return _mm_cvtsd_f64(pair) +
         _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

inline double HMax(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_max_pd(lo, hi);
  const double a = _mm_cvtsd_f64(pair);
  const double b = _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
  return a < b ? b : a;
}

double SquaredL2Diff(const double* p, const double* q, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(p + i), _mm256_loadu_pd(q + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double sum = HSum(acc);
  for (; i < n; ++i) {
    const double d = p[i] - q[i];
    sum += d * d;
  }
  return sum;
}

double AbsDiffSum(const double* p, const double* q, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, Abs(_mm256_sub_pd(_mm256_loadu_pd(p + i),
                                               _mm256_loadu_pd(q + i))));
  }
  double sum = HSum(acc);
  for (; i < n; ++i) {
    const double d = p[i] - q[i];
    sum += d < 0.0 ? -d : d;
  }
  return sum;
}

double MaxAbsDiff(const double* p, const double* q, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_max_pd(acc, Abs(_mm256_sub_pd(_mm256_loadu_pd(p + i),
                                               _mm256_loadu_pd(q + i))));
  }
  double best = HMax(acc);
  for (; i < n; ++i) {
    const double d = p[i] - q[i];
    const double a = d < 0.0 ? -d : d;
    best = best < a ? a : best;
  }
  return best;
}

// Lane-shift helpers for the in-register prefix sum: lane i receives
// lane i - k, shifted-in lanes are 0.
inline __m256d ShiftInOneZero(__m256d x) {
  const __m256d r = _mm256_permute4x64_pd(x, _MM_SHUFFLE(2, 1, 0, 0));
  return _mm256_blend_pd(r, _mm256_setzero_pd(), 0x1);
}

inline __m256d ShiftInTwoZeros(__m256d x) {
  const __m256d r = _mm256_permute4x64_pd(x, _MM_SHUFFLE(1, 0, 0, 0));
  return _mm256_blend_pd(r, _mm256_setzero_pd(), 0x3);
}

double PrefixAbsDiffSum(const double* p, const double* q, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  __m256d carry = _mm256_setzero_pd();  // running cum, broadcast
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(p + i), _mm256_loadu_pd(q + i));
    // In-register inclusive prefix sum of the 4 lanes.
    __m256d s = _mm256_add_pd(d, ShiftInOneZero(d));
    s = _mm256_add_pd(s, ShiftInTwoZeros(s));
    const __m256d cum = _mm256_add_pd(s, carry);
    acc = _mm256_add_pd(acc, Abs(cum));
    carry = _mm256_permute4x64_pd(cum, _MM_SHUFFLE(3, 3, 3, 3));
  }
  double total = HSum(acc);
  double cum = _mm_cvtsd_f64(_mm256_castpd256_pd128(carry));
  for (; i < n; ++i) {
    cum += p[i] - q[i];
    total += cum < 0.0 ? -cum : cum;
  }
  return total;
}

double Sum(const double* a, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(a + i));
  }
  double sum = HSum(acc);
  for (; i < n; ++i) sum += a[i];
  return sum;
}

double RelativeSse(const double* g, const double* rep, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d gv = _mm256_loadu_pd(g + i);
    const __m256d diff = _mm256_sub_pd(gv, _mm256_loadu_pd(rep + i));
    const __m256d term = _mm256_div_pd(_mm256_mul_pd(diff, diff),
                                       _mm256_mul_pd(gv, gv));
    // g != 0 keep-mask; NEQ_UQ treats NaN as "not equal", matching the
    // scalar `g == 0.0` exclusion test.  Masking is bitwise, so inf/NaN
    // terms from g == 0 lanes are cleanly zeroed.
    const __m256d keep = _mm256_cmp_pd(gv, zero, _CMP_NEQ_UQ);
    acc = _mm256_add_pd(acc, _mm256_and_pd(term, keep));
  }
  double r = HSum(acc);
  for (; i < n; ++i) {
    if (g[i] == 0.0) continue;
    const double diff = g[i] - rep[i];
    r += (diff * diff) / (g[i] * g[i]);
  }
  return r;
}

double NormalizeInto(const double* src, size_t n, double* dst) {
  if (n == 0) return 0.0;
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(src + i);
    // src > 0 ? src : 0 — GT_OQ is false for NaN and -0, exactly like
    // the scalar ternary (both produce +0).
    const __m256d clamped =
        _mm256_and_pd(v, _mm256_cmp_pd(v, zero, _CMP_GT_OQ));
    _mm256_storeu_pd(dst + i, clamped);
    acc = _mm256_add_pd(acc, clamped);
  }
  double total = HSum(acc);
  for (; i < n; ++i) {
    dst[i] = src[i] > 0.0 ? src[i] : 0.0;
    total += dst[i];
  }
  // The clamped terms are all non-negative, so re-association cannot
  // change whether the total is zero — the uniform-fallback branch is
  // taken identically across dispatch levels.
  if (total <= 0.0) {
    const double uniform = 1.0 / static_cast<double>(n);
    for (size_t j = 0; j < n; ++j) dst[j] = uniform;
    return total;
  }
  const __m256d vt = _mm256_set1_pd(total);
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(dst + j, _mm256_div_pd(_mm256_loadu_pd(dst + j), vt));
  }
  for (; j < n; ++j) dst[j] /= total;
  return total;
}

void BinIndexInto(const double* values, size_t n, double lo, double hi,
                  int num_bins, int32_t* out) {
  if (num_bins <= 1) {
    for (size_t i = 0; i < n; ++i) out[i] = 0;
    return;
  }
  // Interior lanes (lo < v < hi, which implies lo < hi) use the same
  // IEEE divide and truncation as BinIndexReference — correctly-rounded
  // divide + cvttpd is bit-exact against scalar.  Boundary/clamp lanes
  // are resolved by blends.
  const double width = (hi - lo) / static_cast<double>(num_bins);
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  const __m256d vwidth = _mm256_set1_pd(width);
  const __m128i vzero32 = _mm_setzero_si128();
  const __m128i vmax32 = _mm_set1_epi32(num_bins - 1);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(values + i);
    const __m256d scaled =
        _mm256_div_pd(_mm256_sub_pd(v, vlo), vwidth);
    __m128i idx = _mm256_cvttpd_epi32(scaled);
    idx = _mm_min_epi32(_mm_max_epi32(idx, vzero32), vmax32);
    // v <= lo -> 0, v >= hi -> num_bins - 1 (in that priority order,
    // matching the scalar early returns).
    const __m256d le_lo_d = _mm256_cmp_pd(v, vlo, _CMP_LE_OQ);
    const __m256d ge_hi_d = _mm256_cmp_pd(v, vhi, _CMP_GE_OQ);
    // Narrow the 64-bit lane masks to 32-bit via movemask + table-free
    // per-bit blends (4 lanes only).
    const int m_lo = _mm256_movemask_pd(le_lo_d);
    const int m_hi = _mm256_movemask_pd(ge_hi_d);
    if ((m_lo | m_hi) != 0) {
      alignas(16) int32_t tmp[4];
      _mm_store_si128(reinterpret_cast<__m128i*>(tmp), idx);
      for (int lane = 0; lane < 4; ++lane) {
        if (m_hi & (1 << lane)) tmp[lane] = num_bins - 1;
        if (m_lo & (1 << lane)) tmp[lane] = 0;
      }
      idx = _mm_load_si128(reinterpret_cast<const __m128i*>(tmp));
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), idx);
  }
  for (; i < n; ++i) {
    out[i] = BinIndexReference(values[i], lo, hi, num_bins);
  }
}

void AccumulateCountSumSqF64(const uint32_t* rows, size_t begin, size_t end,
                             const uint32_t* keys,
                             const uint64_t* validity_words,
                             const double* data, int64_t* counts,
                             double* sums, double* sum_sqs) {
  if (validity_words != nullptr) {
    // NULL-able measure: the per-row bit test dominates; keep scalar.
    scalar_impl::AccumulateCountSumSqF64(rows, begin, end, keys,
                                         validity_words, data, counts,
                                         sums, sum_sqs);
    return;
  }
  size_t p = begin;
  alignas(32) double m[4];
  alignas(32) double m2[4];
  for (; p + 4 <= end; p += 4) {
    const __m128i vrows = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(rows + p));
    const __m256d vm = _mm256_i32gather_pd(data, vrows, 8);
    _mm256_store_pd(m, vm);
    _mm256_store_pd(m2, _mm256_mul_pd(vm, vm));
    // Scatter-adds stay scalar and in row order: duplicate keys within
    // a block must accumulate in the same association as scalar.
    for (int lane = 0; lane < 4; ++lane) {
      const uint32_t k = keys[p + static_cast<size_t>(lane)];
      if (k == kNullKey32) continue;
      ++counts[k];
      sums[k] += m[lane];
      sum_sqs[k] += m2[lane];
    }
  }
  for (; p < end; ++p) {
    const uint32_t k = keys[p];
    if (k == kNullKey32) continue;
    const double mv = data[rows[p]];
    ++counts[k];
    sums[k] += mv;
    sum_sqs[k] += mv * mv;
  }
}

const KernelTable& BuildTable() {
  static const KernelTable table = [] {
    KernelTable t;
    t.level = DispatchLevel::kAvx2;
    t.name = "avx2";
    t.squared_l2_diff = &SquaredL2Diff;
    t.abs_diff_sum = &AbsDiffSum;
    t.max_abs_diff = &MaxAbsDiff;
    t.prefix_abs_diff_sum = &PrefixAbsDiffSum;
    t.sum = &Sum;
    t.relative_sse = &RelativeSse;
    t.normalize_into = &NormalizeInto;
    t.bin_index_into = &BinIndexInto;
    t.accumulate_count_sum_sq_f64 = &AccumulateCountSumSqF64;
    // Int64 measures need a 64-bit gather + exact int->double convert;
    // the scalar loop is already load-bound, so it is reused as-is.
    t.accumulate_count_sum_sq_i64 = &scalar_impl::AccumulateCountSumSqI64;
    return t;
  }();
  return table;
}

}  // namespace

const KernelTable& Avx2KernelsImpl() { return BuildTable(); }

bool Avx2SupportedAtRuntime() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace muve::common::simd
