// Internal glue between the dispatch table and the per-level kernel TUs.
// Not part of the public surface; include simd.h instead.

#ifndef MUVE_COMMON_SIMD_INTERNAL_H_
#define MUVE_COMMON_SIMD_INTERNAL_H_

#include <cstddef>
#include <cstdint>

#include "common/simd/simd.h"

namespace muve::common::simd {

// Portable reference kernels (kernels_scalar.cc).  Non-scalar tables
// reuse these for primitives they do not port (e.g. the NEON table keeps
// the scalar keyed accumulators).
namespace scalar_impl {

double SquaredL2Diff(const double* p, const double* q, size_t n);
double AbsDiffSum(const double* p, const double* q, size_t n);
double MaxAbsDiff(const double* p, const double* q, size_t n);
double PrefixAbsDiffSum(const double* p, const double* q, size_t n);
double Sum(const double* a, size_t n);
double RelativeSse(const double* g, const double* rep, size_t n);
double NormalizeInto(const double* src, size_t n, double* dst);
void BinIndexInto(const double* values, size_t n, double lo, double hi,
                  int num_bins, int32_t* out);
void AccumulateCountSumSqF64(const uint32_t* rows, size_t begin, size_t end,
                             const uint32_t* keys,
                             const uint64_t* validity_words,
                             const double* data, int64_t* counts,
                             double* sums, double* sum_sqs);
void AccumulateCountSumSqI64(const uint32_t* rows, size_t begin, size_t end,
                             const uint32_t* keys,
                             const uint64_t* validity_words,
                             const int64_t* data, int64_t* counts,
                             double* sums, double* sum_sqs);

}  // namespace scalar_impl

// Per-level table constructors compiled only when their TU is in the
// build; dispatch.cc references them behind the matching macro.
#if defined(MUVE_SIMD_AVX2)
const KernelTable& Avx2KernelsImpl();
bool Avx2SupportedAtRuntime();
#endif
#if defined(MUVE_SIMD_NEON)
const KernelTable& NeonKernelsImpl();
#endif

}  // namespace muve::common::simd

#endif  // MUVE_COMMON_SIMD_INTERNAL_H_
