// google-benchmark microbenchmarks for the engine kernels behind the
// paper's cost components: binned aggregation (C_t / C_c), raw group-by,
// predicate filtering, the distance functions (C_d), and one whole
// histogram-served probe (C_t + C_c + C_d + C_a).
//
//   $ ./build/bench/micro_engine [--benchmark_filter=...]

#include <benchmark/benchmark.h>

#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "harness.h"
#include "core/distance.h"
#include "core/distribution.h"
#include "core/view_evaluator.h"
#include "data/nba.h"
#include "storage/binned_group_by.h"
#include "storage/group_by.h"
#include "storage/predicate.h"

namespace {

const muve::data::Dataset& Nba() {
  static const muve::data::Dataset* kDataset =
      new muve::data::Dataset(muve::data::MakeNbaDataset());
  return *kDataset;
}

// C_c analogue: binned aggregation over the whole database, across bin
// counts (the per-candidate query cost of the comparison view).
void BM_BinnedAggregateComparison(benchmark::State& state) {
  const auto& ds = Nba();
  const int bins = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = muve::storage::BinnedAggregate(
        *ds.table, ds.all_rows, "MP", "3PAr",
        muve::storage::AggregateFunction::kSum, bins, 0.0, 1440.0);
    MUVE_CHECK(result.ok());
    benchmark::DoNotOptimize(result->aggregates.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.all_rows.size()));
}
BENCHMARK(BM_BinnedAggregateComparison)->Arg(1)->Arg(4)->Arg(16)->Arg(64)
    ->Arg(256)->Arg(1024);

// C_t analogue: the same query over the (much smaller) target subset.
void BM_BinnedAggregateTarget(benchmark::State& state) {
  const auto& ds = Nba();
  const int bins = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = muve::storage::BinnedAggregate(
        *ds.table, ds.target_rows, "MP", "3PAr",
        muve::storage::AggregateFunction::kSum, bins, 0.0, 1440.0);
    MUVE_CHECK(result.ok());
    benchmark::DoNotOptimize(result->aggregates.data());
  }
}
BENCHMARK(BM_BinnedAggregateTarget)->Arg(4)->Arg(64)->Arg(1024);

// Raw group-by (the accuracy objective's non-binned series).
void BM_GroupByAggregate(benchmark::State& state) {
  const auto& ds = Nba();
  for (auto _ : state) {
    auto result = muve::storage::GroupByAggregate(
        *ds.table, ds.all_rows, "MP", "PER",
        muve::storage::AggregateFunction::kAvg);
    MUVE_CHECK(result.ok());
    benchmark::DoNotOptimize(result->aggregates.data());
  }
}
BENCHMARK(BM_GroupByAggregate);

// Predicate filtering (building D_Q from Q's WHERE clause).
void BM_FilterPredicate(benchmark::State& state) {
  const auto& ds = Nba();
  for (auto _ : state) {
    auto pred = muve::storage::MakeComparison(
        "Team", muve::storage::CompareOp::kEq, muve::storage::Value("GSW"));
    auto rows = muve::storage::Filter(*ds.table, pred.get());
    MUVE_CHECK(rows.ok());
    benchmark::DoNotOptimize(rows->data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.table->num_rows()));
}
BENCHMARK(BM_FilterPredicate);

// C_d analogue: distance kernels across distribution sizes.
void BM_Distance(benchmark::State& state) {
  const auto kind = static_cast<muve::core::DistanceKind>(state.range(0));
  const size_t n = static_cast<size_t>(state.range(1));
  muve::common::Rng rng(42);
  std::vector<double> a(n);
  std::vector<double> b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.NextDouble();
    b[i] = rng.NextDouble();
  }
  const auto p = muve::core::NormalizeToDistribution(a);
  const auto q = muve::core::NormalizeToDistribution(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(muve::core::Distance(kind, p, q));
  }
}
BENCHMARK(BM_Distance)
    ->ArgsProduct({{0, 3, 4},  // Euclidean, EMD, KL
                   {4, 64, 1024}});

// One histogram-served candidate probe of SUM(3PAr) BY MP, the NBA MP
// shape (at most 22 target and 651 comparison fine bins; B = 1440): the
// deviation probe (C_t + C_c + C_d) plus the accuracy probe that reuses
// its binned target (C_a), on warm base histograms.  One iteration is
// one candidate, so ns/iteration is ns/probe.
void BM_Probe(benchmark::State& state) {
  const auto& ds = Nba();
  static const muve::core::ViewSpace* kSpace = [] {
    auto space = muve::core::ViewSpace::Create(Nba());
    MUVE_CHECK(space.ok());
    return new muve::core::ViewSpace(std::move(space).value());
  }();
  const int bins = static_cast<int>(state.range(0));
  muve::core::ViewEvaluator::Options options;
  options.use_base_histogram_cache = true;
  muve::core::ViewEvaluator evaluator(ds, *kSpace, options);
  const muve::core::View* view = nullptr;
  for (const muve::core::View& v : kSpace->views()) {
    if (v.dimension == "MP" && v.measure == "3PAr" &&
        v.function == muve::storage::AggregateFunction::kSum) {
      view = &v;
    }
  }
  MUVE_CHECK(view != nullptr);
  evaluator.PrewarmBaseHistograms();
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.EvaluateDeviation(*view, bins));
    benchmark::DoNotOptimize(evaluator.EvaluateAccuracy(*view, bins));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Probe)->Arg(16)->Arg(180)->Arg(720)->Arg(1440);

// Console reporter that additionally captures every finished run into
// the shared BENCH_<name>.json schema when --json-out is active (the
// record fields mirror google-benchmark's own JSON: adjusted real/cpu
// time in the run's time unit, iteration count, items/s when set).
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& run : report) {
      if (run.error_occurred) continue;
      std::vector<std::pair<std::string, double>> nums = {
          {"real_time", run.GetAdjustedRealTime()},
          {"cpu_time", run.GetAdjustedCPUTime()},
          {"iterations", static_cast<double>(run.iterations)},
      };
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        nums.emplace_back("items_per_second", items->second.value);
      }
      muve::bench::RecordJsonResult(
          run.benchmark_name(),
          {{"time_unit", benchmark::GetTimeUnitString(run.time_unit)}},
          nums);
    }
    ConsoleReporter::ReportRuns(report);
  }
};

}  // namespace

int main(int argc, char** argv) {
  muve::bench::InitBench(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
