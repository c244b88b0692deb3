// Runtime-dispatched SIMD kernel layer for the probe hot path.
//
// After the prefix-sum cache (PR 2) and the fused scan engine (PR 3) the
// recommender's cost is dominated by dense, branch-free array loops: the
// distance kernels behind Eq. 2, the relative-SSE accuracy of Eq. 4, the
// bin-index pass of every prefix-sum coarsening, and the count/sum/sum-sq
// morsel accumulators of the fused scan.  This module
// provides those primitives behind ONE dispatch table selected at
// startup:
//
//   * `scalar`  — portable reference implementations, bit-identical to
//                 the historical open-coded loops.  Always available.
//   * `avx2`    — 4-lane double kernels (x86-64, compiled with -mavx2 in
//                 its own TU, selected only when the CPU reports AVX2).
//   * `neon`    — 2-lane double kernels (aarch64, `#ifdef`-guarded; falls
//                 back to scalar entries for the non-ported kernels).
//
// Selection happens once, at first use: the best level the CPU supports,
// overridable with the MUVE_SIMD environment variable
// (`MUVE_SIMD=scalar|avx2|neon|native`).  Tests and benchmarks can force
// a level in-process via SetActiveLevel().
//
// Exactness contract (pinned by tests/common/simd_kernel_test.cc and the
// recommender-level dispatch-invariance suite): EVERY kernel is
// BIT-IDENTICAL across every dispatch level, by construction:
//   * Integer outputs (bin_index_into, accumulate counts) use the same
//     IEEE divide / truncate / clamp sequence in every table.
//   * The keyed accumulators preserve the row-order association (vector
//     tables vectorize only the gathers; the scatter-adds stay in order).
//   * The floating-point reductions (squared_l2_diff, abs_diff_sum,
//     prefix_abs_diff_sum, sum, relative_sse, normalize_into) all use
//     ONE pinned 4-lane-strided association — lane j owns elements
//     i % 4 == j, lanes combine as (l0+l2)+(l1+l3), tails fold
//     sequentially (see kernels_scalar.cc) — which every vector table
//     reproduces exactly.  max_abs_diff is association-free (max never
//     rounds).  Consequence: recommender top-k output can never depend
//     on the dispatch path.
//   * Versus the PRE-SIMD engine: results are unchanged for n < 4 and
//     differ by O(n * eps) re-association for longer reductions (the
//     goldens were refreshed once for this).
//   * NaN inputs are outside the contract (no recommender path produces
//     them); ±0 and denormals are inside it and fuzzed explicitly.
//
// Alignment contract: every kernel uses unaligned loads, so callers MAY
// pass arbitrary pointers; hot callers (fused scan arenas, evaluator
// distribution buffers) use AlignedVector (aligned.h) so accumulator
// slabs are cache-line aligned.

#ifndef MUVE_COMMON_SIMD_SIMD_H_
#define MUVE_COMMON_SIMD_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace muve::common::simd {

// Dispatch levels, ordered by preference (higher = wider).
enum class DispatchLevel : int {
  kScalar = 0,
  kNeon = 1,
  kAvx2 = 2,
};

// Sentinel dense-dictionary key for NULL cells in the keyed accumulators
// (shared with the fused scan engine's Phase B key arrays).
inline constexpr uint32_t kNullKey32 = 0xFFFFFFFFu;

// Reference bin-index semantics, shared with storage::BinIndexFor (which
// delegates here): values outside [lo, hi] clamp to the first/last bin.
// Every bin_index_into kernel must reproduce this function bit-exactly.
inline int BinIndexReference(double value, double lo, double hi,
                             int num_bins) {
  if (num_bins <= 1) return 0;
  if (value <= lo) return 0;
  if (value >= hi) return num_bins - 1;
  const double width = (hi - lo) / static_cast<double>(num_bins);
  int idx = static_cast<int>((value - lo) / width);
  if (idx >= num_bins) idx = num_bins - 1;
  if (idx < 0) idx = 0;
  return idx;
}

// One dispatch path: a table of function pointers over the hot
// primitives.  All tables expose identical semantics (see the exactness
// contract above); only the instruction mix differs.
struct KernelTable {
  DispatchLevel level = DispatchLevel::kScalar;
  const char* name = "scalar";

  // sum_i (p[i] - q[i])^2  — Euclidean deviation core (Eq. 2) and SSE.
  double (*squared_l2_diff)(const double* p, const double* q, size_t n);
  // sum_i |p[i] - q[i]|  — Manhattan / total-variation core.
  double (*abs_diff_sum)(const double* p, const double* q, size_t n);
  // max_i |p[i] - q[i]|  — Chebyshev core.  Exact across levels.
  double (*max_abs_diff)(const double* p, const double* q, size_t n);
  // sum_{i<n} |sum_{j<=i} (p[j] - q[j])|  — 1-D earth mover's core.
  double (*prefix_abs_diff_sum)(const double* p, const double* q, size_t n);
  // sum_i a[i].
  double (*sum)(const double* a, size_t n);
  // sum over i with g[i] != 0 of (g[i] - rep[i])^2 / g[i]^2 — the
  // relative SSE behind the accuracy objective (Eq. 4).
  double (*relative_sse)(const double* g, const double* rep, size_t n);
  // Clamps negatives to 0 and normalizes into a probability distribution
  // (uniform fallback when the clamped total is <= 0).  dst may not alias
  // src.  Returns the clamped pre-normalization total.
  double (*normalize_into)(const double* src, size_t n, double* dst);
  // out[i] = BinIndexReference(values[i], lo, hi, num_bins).  Bit-exact.
  void (*bin_index_into)(const double* values, size_t n, double lo,
                         double hi, int num_bins, int32_t* out);
  // Keyed scatter-add over one morsel of row positions [begin, end):
  // for each position p with keys[p] != kNullKey32 and (validity_words ==
  // nullptr or bit rows[p] set), accumulates counts/sums/sum_sqs[keys[p]]
  // with m = (double)data[rows[p]].  Additions stay in row order per key
  // (bit-identical across levels).  `validity_words` is the Arrow-style
  // word array of the measure's validity bitmap (nullptr = all valid).
  void (*accumulate_count_sum_sq_f64)(const uint32_t* rows, size_t begin,
                                      size_t end, const uint32_t* keys,
                                      const uint64_t* validity_words,
                                      const double* data, int64_t* counts,
                                      double* sums, double* sum_sqs);
  void (*accumulate_count_sum_sq_i64)(const uint32_t* rows, size_t begin,
                                      size_t end, const uint32_t* keys,
                                      const uint64_t* validity_words,
                                      const int64_t* data, int64_t* counts,
                                      double* sums, double* sum_sqs);
};

// "scalar" / "neon" / "avx2".
const char* DispatchLevelName(DispatchLevel level);

// The always-available portable reference table.
const KernelTable& ScalarKernels();

// The table for `level`, or nullptr when that level is not compiled in /
// not supported by this CPU.  ScalarKernels() is never null.
const KernelTable* KernelsFor(DispatchLevel level);

// The widest level this binary + CPU supports.
DispatchLevel BestSupportedLevel();

// The table all hot paths dispatch through.  Resolved once on first use:
// BestSupportedLevel(), overridden by MUVE_SIMD
// (scalar|neon|avx2|native; unsupported or unparsable values fall back
// to the best supported level with a warning to stderr).
const KernelTable& ActiveKernels();
DispatchLevel ActiveLevel();
const char* ActiveLevelName();

// Forces the active table in-process (tests, differential benches, the
// recommender-level dispatch-invariance suite).  Returns false — leaving
// the active table unchanged — when `level` is unsupported.  Thread-safe
// but not synchronized with in-flight kernel calls; call between runs.
bool SetActiveLevel(DispatchLevel level);

// Convenience alias: sum of squared differences (identical primitive to
// squared_l2_diff, named for the accuracy/fidelity call sites).
inline double SumSquaredError(const double* a, const double* b, size_t n) {
  return ActiveKernels().squared_l2_diff(a, b, n);
}

}  // namespace muve::common::simd

#endif  // MUVE_COMMON_SIMD_SIMD_H_
