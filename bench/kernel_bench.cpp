// Differential microbenchmark for the SIMD kernel layer
// (src/common/simd/): every kernel in the dispatch table, timed at every
// compiled-in dispatch level, reported as ns/element with the speedup
// over the scalar reference table.  This is the tentpole's speedup
// evidence — the vector tables are bit-identical to scalar by
// construction (see simd.h), so the ONLY thing this bench measures is
// time.
//
//   $ ./build/bench/kernel_bench [--smoke] [--repeat=N]
//         [--json-out[=path]]
//
// --smoke shrinks sizes and timing targets for CI.  With --json-out the
// shared BENCH_ schema gains one {"type":"record"} entry per
// (kernel, level, n) with ns_per_element (min over repetitions; median
// alongside) and speedup_vs_scalar.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/simd/aligned.h"
#include "common/simd/simd.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "harness.h"

namespace {

namespace simd = muve::common::simd;
using muve::common::FormatDouble;
using muve::common::Rng;
using muve::common::Stopwatch;

// Prevents the optimizer from discarding a kernel result (portable:
// a volatile store is a visible side effect on every target).
inline void Consume(double v) {
  volatile double sink = v;
  (void)sink;
}
inline void ConsumePtr(const void* p) {
  volatile const void* sink = p;
  (void)sink;
}

struct Timing {
  double ns_per_element_min = 0.0;
  double ns_per_element_median = 0.0;
};

// Times `fn` (one full kernel call over `elements` elements): calibrates
// an iteration count targeting `target_ms` per repetition, runs one
// unrecorded warmup repetition, then Repetitions() recorded ones, and
// reports min and median ns/element.
template <typename Fn>
Timing TimeKernel(size_t elements, double target_ms, Fn&& fn) {
  // Calibrate.
  Stopwatch calib;
  fn();
  double per_call_ms = std::max(calib.ElapsedMillis(), 1e-6);
  const int64_t iters = std::max<int64_t>(
      1, static_cast<int64_t>(target_ms / per_call_ms));
  const int reps = muve::bench::Repetitions();
  std::vector<double> samples;
  samples.reserve(reps);
  for (int r = -1; r < reps; ++r) {  // r == -1: warmup, unrecorded
    Stopwatch timer;
    for (int64_t i = 0; i < iters; ++i) fn();
    const double ns = static_cast<double>(timer.ElapsedNanos());
    if (r >= 0) {
      samples.push_back(ns / (static_cast<double>(iters) *
                              static_cast<double>(elements)));
    }
  }
  std::sort(samples.begin(), samples.end());
  Timing t;
  t.ns_per_element_min = samples.front();
  t.ns_per_element_median =
      (samples.size() % 2 == 1)
          ? samples[samples.size() / 2]
          : 0.5 * (samples[samples.size() / 2 - 1] + samples[samples.size() / 2]);
  return t;
}

// Shared random inputs for one problem size.
struct Inputs {
  simd::AlignedVector<double> p, q, scratch;
  std::vector<int32_t> idx;
  // Keyed-accumulator side: rows/keys over n positions into 64 groups.
  std::vector<uint32_t> rows, keys;
  simd::AlignedVector<double> f64_data;
  std::vector<int64_t> i64_data;
  simd::AlignedVector<int64_t> counts;
  simd::AlignedVector<double> sums, sum_sqs;

  explicit Inputs(size_t n) {
    Rng rng(2024);
    p.resize(n);
    q.resize(n);
    scratch.resize(n);
    idx.resize(n);
    rows.resize(n);
    keys.resize(n);
    f64_data.resize(n);
    i64_data.resize(n);
    counts.assign(64, 0);
    sums.assign(64, 0.0);
    sum_sqs.assign(64, 0.0);
    for (size_t i = 0; i < n; ++i) {
      p[i] = rng.NextDouble();
      q[i] = rng.NextDouble();
      rows[i] = static_cast<uint32_t>(i);
      keys[i] = static_cast<uint32_t>(rng.UniformInt(0, 63));
      f64_data[i] = rng.NextDouble() * 100.0;
      i64_data[i] = rng.UniformInt(0, 999);
    }
  }
};

struct KernelCase {
  const char* name;
  // Runs one call of this kernel from `table` over `in`.
  void (*run)(const simd::KernelTable& table, Inputs& in);
};

const KernelCase kCases[] = {
    {"squared_l2_diff",
     [](const simd::KernelTable& t, Inputs& in) {
       Consume(t.squared_l2_diff(in.p.data(), in.q.data(), in.p.size()));
     }},
    {"abs_diff_sum",
     [](const simd::KernelTable& t, Inputs& in) {
       Consume(t.abs_diff_sum(in.p.data(), in.q.data(), in.p.size()));
     }},
    {"max_abs_diff",
     [](const simd::KernelTable& t, Inputs& in) {
       Consume(t.max_abs_diff(in.p.data(), in.q.data(), in.p.size()));
     }},
    {"prefix_abs_diff_sum",
     [](const simd::KernelTable& t, Inputs& in) {
       Consume(t.prefix_abs_diff_sum(in.p.data(), in.q.data(), in.p.size()));
     }},
    {"sum",
     [](const simd::KernelTable& t, Inputs& in) {
       Consume(t.sum(in.p.data(), in.p.size()));
     }},
    {"relative_sse",
     [](const simd::KernelTable& t, Inputs& in) {
       Consume(t.relative_sse(in.p.data(), in.q.data(), in.p.size()));
     }},
    {"normalize_into",
     [](const simd::KernelTable& t, Inputs& in) {
       Consume(t.normalize_into(in.p.data(), in.p.size(), in.scratch.data()));
     }},
    {"bin_index_into",
     [](const simd::KernelTable& t, Inputs& in) {
       t.bin_index_into(in.p.data(), in.p.size(), 0.0, 1.0, 64,
                        in.idx.data());
       ConsumePtr(in.idx.data());
     }},
    {"accumulate_count_sum_sq_f64",
     [](const simd::KernelTable& t, Inputs& in) {
       t.accumulate_count_sum_sq_f64(in.rows.data(), 0, in.rows.size(),
                                     in.keys.data(), nullptr,
                                     in.f64_data.data(), in.counts.data(),
                                     in.sums.data(), in.sum_sqs.data());
       ConsumePtr(in.sums.data());
     }},
    {"accumulate_count_sum_sq_i64",
     [](const simd::KernelTable& t, Inputs& in) {
       t.accumulate_count_sum_sq_i64(in.rows.data(), 0, in.rows.size(),
                                     in.keys.data(), nullptr,
                                     in.i64_data.data(), in.counts.data(),
                                     in.sums.data(), in.sum_sqs.data());
       ConsumePtr(in.sums.data());
     }},
};

}  // namespace

int main(int argc, char** argv) {
  const auto& options = muve::bench::InitBench(&argc, argv);
  const bool smoke = options.smoke;
  const double target_ms = smoke ? 1.0 : 20.0;
  const std::vector<size_t> sizes =
      smoke ? std::vector<size_t>{1024} : std::vector<size_t>{64, 4096, 65536};

  // Levels: scalar first (the baseline), then every other level this
  // binary + CPU supports.
  std::vector<const simd::KernelTable*> tables = {&simd::ScalarKernels()};
  for (const auto level :
       {simd::DispatchLevel::kNeon, simd::DispatchLevel::kAvx2}) {
    const simd::KernelTable* t = simd::KernelsFor(level);
    if (t != nullptr) tables.push_back(t);
  }

  std::cout << "=== SIMD kernel bench (active dispatch: "
            << simd::ActiveLevelName() << ", levels timed:";
  for (const auto* t : tables) std::cout << ' ' << t->name;
  std::cout << ") ===\n";

  for (const size_t n : sizes) {
    Inputs in(n);
    std::vector<std::string> headers = {"kernel"};
    for (const auto* t : tables) {
      headers.push_back(std::string(t->name) + "(ns/elem)");
    }
    if (tables.size() > 1) headers.push_back("speedup");
    muve::bench::TablePrinter table(headers);

    for (const KernelCase& kernel : kCases) {
      std::vector<std::string> row = {kernel.name};
      double scalar_ns = 0.0;
      double best_ns = 0.0;
      for (const auto* t : tables) {
        const Timing timing = TimeKernel(
            n, target_ms, [&] { kernel.run(*t, in); });
        if (t == tables.front()) scalar_ns = timing.ns_per_element_min;
        best_ns = timing.ns_per_element_min;
        row.push_back(FormatDouble(timing.ns_per_element_min, 3));
        muve::bench::RecordJsonResult(
            kernel.name, {{"level", t->name}},
            {{"n", static_cast<double>(n)},
             {"ns_per_element", timing.ns_per_element_min},
             {"median_ns_per_element", timing.ns_per_element_median},
             {"speedup_vs_scalar",
              timing.ns_per_element_min > 0.0
                  ? scalar_ns / timing.ns_per_element_min
                  : 0.0}});
      }
      if (tables.size() > 1) {
        row.push_back(FormatDouble(best_ns > 0.0 ? scalar_ns / best_ns : 0.0,
                                   2) +
                      "x");
      }
      table.AddRow(std::move(row));
    }
    table.Print("SIMD kernels, n = " + std::to_string(n) + " (min of " +
                std::to_string(muve::bench::Repetitions()) +
                " reps, warmup excluded)");
  }
  return 0;
}
