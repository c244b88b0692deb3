// Extension bench: the fused morsel-parallel scan engine.
//
// Two questions, both on horizontal Linear (the scheme that executes
// every candidate, so build costs dominate and the engine's effect is
// cleanest):
//
//   1. Row-scan savings.  Before the fused engine, every cache-eligible
//      (dimension, measure) pair paid its own full-row-set build pass on
//      first touch — |A| x |M| traversals per side.  The fused prewarm
//      builds all of them in a single traversal per side.  The bench
//      reproduces the per-pair baseline at the storage layer (one
//      BuildBaseHistogram per eligible pair and side over the run's row
//      sets), checks each of those histograms is bit-identical to the
//      one fused pass's, and reports the rows-scanned ratio against a
//      fused Linear-Linear run on NBA and DIAB.  Direct probe rows are
//      the same under both plans, so the savings are entirely on the
//      build side.
//
//   2. Thread scaling.  The fused pass splits its row set into morsels
//      dispatched on the shared pool.  The bench sweeps 1/2/4/8 threads
//      with a deliberately small morsel size (so even the bundled
//      datasets split into multiple morsels) and verifies the top-k is
//      bit-stable across thread counts — the determinism contract: the
//      morsel partitioning, never the worker schedule, fixes the output.
//      Speedup numbers need real cores; on a single-core host the
//      correctness columns are the meaningful part (same caveat as
//      parallel_scaling).
//
// `--smoke` runs the toy dataset only with a reduced thread sweep — the
// CI smoke step uses this to keep the engine's end-to-end path exercised
// on every push without benchmark-scale runtimes.
//
// A machine-readable JSON block follows the tables for tracking across
// commits.

#include <cmath>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/recommender.h"
#include "data/diab.h"
#include "data/nba.h"
#include "data/toy.h"
#include "harness.h"
#include "storage/base_histogram_cache.h"
#include "storage/fused_scan.h"

namespace {

bool SameTopK(const muve::core::Recommendation& a,
              const muve::core::Recommendation& b) {
  if (a.views.size() != b.views.size()) return false;
  for (size_t i = 0; i < a.views.size(); ++i) {
    const auto& va = a.views[i];
    const auto& vb = b.views[i];
    if (va.view.Key() != vb.view.Key() || va.bins != vb.bins ||
        std::abs(va.utility - vb.utility) > 1e-9) {
      return false;
    }
  }
  return true;
}

bool SameHistogram(const muve::storage::BaseHistogram& a,
                   const muve::storage::BaseHistogram& b) {
  return a.values == b.values && a.sums == b.sums && a.sum_sqs == b.sum_sqs &&
         a.prefix_counts == b.prefix_counts &&
         a.prefix_sums == b.prefix_sums &&
         a.prefix_sum_sqs == b.prefix_sum_sqs;
}

// The per-pair build plan: one BuildBaseHistogram pass per cache-eligible
// (A, M) pair and side (target rows, then all rows), as each pair's first
// probe paid before the fused engine.  Every histogram must equal the one
// the single fused pass over the same side builds — bit for bit, since
// each bundled row set fits one morsel (DESIGN.md §8's contract).
struct PerPairBaseline {
  int64_t builds = 0;
  int64_t build_rows = 0;
  double build_ms = 0.0;
};

PerPairBaseline RunPerPairBuilds(const muve::data::Dataset& dataset,
                                 const muve::core::ViewSpace& space) {
  std::vector<muve::storage::FusedScanPair> pairs;
  for (const muve::core::View& view : space.views()) {
    auto measure = dataset.table->ColumnByName(view.measure);
    MUVE_CHECK(measure.ok()) << measure.status().ToString();
    if (space.dimension_info(view.dimension).categorical ||
        !muve::storage::BaseServableFunction(view.function) ||
        (*measure)->type() == muve::storage::ValueType::kString) {
      continue;
    }
    bool seen = false;
    for (const auto& pair : pairs) {
      seen = seen || (pair.dimension == view.dimension &&
                      pair.measure == view.measure);
    }
    if (!seen) pairs.push_back({view.dimension, view.measure});
  }

  PerPairBaseline baseline;
  for (const muve::storage::RowSet* rows :
       {&dataset.target_rows, &dataset.all_rows}) {
    auto fused = muve::storage::FusedBuildBaseHistograms(*dataset.table,
                                                         *rows, pairs);
    MUVE_CHECK(fused.ok()) << fused.status().ToString();
    for (size_t i = 0; i < pairs.size(); ++i) {
      muve::common::Stopwatch timer;
      auto built = muve::storage::BuildBaseHistogram(
          *dataset.table, *rows, pairs[i].dimension, pairs[i].measure);
      baseline.build_ms += timer.ElapsedMillis();
      MUVE_CHECK(built.ok()) << built.status().ToString();
      // The fused pass must never buy its savings with a different answer.
      MUVE_CHECK(SameHistogram(*built, (*fused)[i]))
          << dataset.name << ": fused histogram of " << pairs[i].dimension
          << " x " << pairs[i].measure << " diverged from the per-pair build";
      ++baseline.builds;
      baseline.build_rows += static_cast<int64_t>(rows->size());
    }
  }
  return baseline;
}

// One dataset: the per-pair build plan vs a fused Linear-Linear run (one
// prewarm pass per side), then the thread sweep.  Appends this dataset's
// JSON object to `json`.
void RunDataset(const muve::data::Dataset& dataset, bool smoke,
                const std::vector<int>& thread_counts, std::ostream& json) {
  using muve::bench::Ms;
  using muve::bench::RunScheme;

  auto recommender = muve::core::Recommender::Create(dataset);
  MUVE_CHECK(recommender.ok()) << recommender.status().ToString();

  auto fused = muve::bench::LinearLinear();
  fused.base_histogram_cache = true;
  const auto r_fused = RunScheme(*recommender, fused);
  const PerPairBaseline per_pair =
      RunPerPairBuilds(dataset, recommender->space());

  // The per-pair plan scans what its builds scan plus the same direct
  // probe rows (cache-ineligible views) the fused run scans.
  const int64_t per_pair_rows =
      per_pair.build_rows + r_fused.stats.probe_rows_scanned;
  const double ratio =
      r_fused.stats.rows_scanned > 0
          ? static_cast<double>(per_pair_rows) /
                static_cast<double>(r_fused.stats.rows_scanned)
          : 0.0;
  // Acceptance floor on the bundled datasets (toy is too small a
  // workload to clear it, so the smoke run only reports).
  if (!smoke) {
    MUVE_CHECK(ratio >= 5.0)
        << dataset.name << ": expected >= 5x fewer rows scanned, got "
        << ratio << "x";
  }

  muve::bench::TablePrinter table({"build mode", "cost(ms)", "rows scanned",
                                   "build rows", "probe rows", "build passes",
                                   "fused passes", "morsels"});
  table.AddRow({"per-pair", Ms(per_pair.build_ms) + " (builds)",
                std::to_string(per_pair_rows),
                std::to_string(per_pair.build_rows),
                std::to_string(r_fused.stats.probe_rows_scanned),
                std::to_string(per_pair.builds), "0", "-"});
  table.AddRow({"fused", Ms(r_fused.cost_ms),
                std::to_string(r_fused.stats.rows_scanned),
                std::to_string(r_fused.stats.build_rows_scanned),
                std::to_string(r_fused.stats.probe_rows_scanned),
                std::to_string(r_fused.stats.base_builds),
                std::to_string(r_fused.stats.fused_builds),
                std::to_string(r_fused.stats.morsels_dispatched)});
  table.Print(dataset.name + ", Linear-Linear, identical histograms, " +
              muve::common::FormatDouble(ratio, 1) + "x fewer rows scanned");

  json << "\n    {\"dataset\": \"" << dataset.name << "\""
       << ", \"scheme\": \"Linear-Linear\""
       << ", \"per_pair\": {\"rows_scanned\": " << per_pair_rows
       << ", \"build_rows_scanned\": " << per_pair.build_rows
       << ", \"probe_rows_scanned\": " << r_fused.stats.probe_rows_scanned
       << ", \"base_builds\": " << per_pair.builds
       << ", \"build_ms\": " << per_pair.build_ms << "}"
       << ",\n     \"fused\": {\"rows_scanned\": " << r_fused.stats.rows_scanned
       << ", \"build_rows_scanned\": " << r_fused.stats.build_rows_scanned
       << ", \"probe_rows_scanned\": " << r_fused.stats.probe_rows_scanned
       << ", \"base_builds\": " << r_fused.stats.base_builds
       << ", \"fused_builds\": " << r_fused.stats.fused_builds
       << ", \"morsels\": " << r_fused.stats.morsels_dispatched
       << ", \"cost_ms\": " << r_fused.cost_ms << "}"
       << ",\n     \"rows_scanned_ratio\": " << ratio
       << ", \"identical_histograms\": true";

  // Thread sweep: fused prewarm with a small morsel size so the bundled
  // row sets actually split, verifying thread-count invariance end to
  // end (latency speedup requires real cores).
  muve::bench::TablePrinter sweep({"threads", "elapsed(ms)", "speedup",
                                   "morsels", "matches 1-thread top-k"});
  json << ",\n     \"thread_sweep\": [";
  muve::core::Recommendation reference;
  double elapsed_1 = 0.0;
  for (size_t t = 0; t < thread_counts.size(); ++t) {
    const int threads = thread_counts[t];
    muve::core::SearchOptions options = fused;
    options.num_threads = threads;
    options.fused_morsel_size = 128;  // force multi-morsel fused passes
    MUVE_CHECK(recommender->Recommend(options).ok());  // warmup
    muve::common::Stopwatch timer;
    auto rec = recommender->Recommend(options);
    const double elapsed = timer.ElapsedMillis();
    MUVE_CHECK(rec.ok()) << rec.status().ToString();
    if (threads == thread_counts.front()) {
      elapsed_1 = elapsed;
      reference = *rec;
    }
    const bool identical = SameTopK(*rec, reference);
    MUVE_CHECK(identical)
        << dataset.name << ": top-k changed at " << threads << " threads";
    sweep.AddRow({std::to_string(threads), Ms(elapsed),
                  muve::common::FormatDouble(elapsed_1 / elapsed, 2) + "x",
                  std::to_string(rec->stats.morsels_dispatched),
                  identical ? "yes" : "NO"});
    json << (t == 0 ? "" : ", ") << "{\"threads\": " << threads
         << ", \"elapsed_ms\": " << elapsed
         << ", \"workers\": " << rec->stats.num_workers
         << ", \"morsels\": " << rec->stats.morsels_dispatched
         << ", \"matches_serial\": " << (identical ? "true" : "false") << "}";
  }
  json << "]}";
  sweep.Print(dataset.name +
              ", fused prewarm thread sweep (morsel_size=128)");
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = muve::bench::InitBench(&argc, argv).smoke;

  std::cout << "=== Extension: fused morsel-parallel scan engine ===\n";
  std::ostringstream json;
  json << "{\n  \"hardware_threads\": "
       << std::thread::hardware_concurrency()
       << ",\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"datasets\": [";

  if (smoke) {
    RunDataset(muve::data::MakeToyDataset(), smoke, {1, 2}, json);
  } else {
    const std::vector<int> threads = {1, 2, 4, 8};
    bool first = true;
    for (const auto& dataset :
         {muve::data::WithWorkloadSize(muve::data::MakeNbaDataset(), 3, 13, 3),
          muve::data::WithWorkloadSize(muve::data::MakeDiabDataset(), 3, 3,
                                       3)}) {
      if (!first) json << ",";
      first = false;
      RunDataset(dataset, smoke, threads, json);
    }
  }
  json << "\n  ]\n}";

  std::cout << "JSON:\n" << json.str() << "\n\n";
  std::cout << "(hardware threads available: "
            << std::thread::hardware_concurrency()
            << "; the thread-sweep speedup column needs real cores — on a "
               "single-core host it stays ~1x and the 'matches 1-thread "
               "top-k' column is the claim under test)\n";
  return 0;
}
