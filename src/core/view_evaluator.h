// The probe engine: executes the queries behind the deviation and
// accuracy objectives and charges their costs (Section III-C).
//
// Every search strategy funnels its objective evaluations through a
// ViewEvaluator so that
//   * costs are measured uniformly (C_t / C_c / C_d / C_a wall-clock into
//     ExecStats, observations into the CostModel driving MuVE's probe-
//     order priority rule), and
//   * objective values are deterministic — the same (view, bins) pair
//     always yields the same deviation/accuracy, which is what makes the
//     exact schemes (Linear, MuVE) provably return identical top-k sets.
//
// Caching policy (documented deviations from re-executing every query):
//   * The raw (non-binned) target series needed by the accuracy objective
//     is computed once per view and cached; its computation time is
//     charged to C_a on first use.
//   * Within one candidate (view, bins), the binned target result is
//     reused between the deviation and accuracy probes.  This is a
//     strict optimization that cannot change any objective value.
//   * Each view is resolved once (dimension, cache eligibility, base
//     histograms, raw series) into a per-evaluator slot, and every
//     binned result is kept in sparse form in grow-only scratch: a warm
//     histogram-served probe allocates nothing and costs time in the
//     non-empty bins, not in b (DESIGN.md §7).

#ifndef MUVE_CORE_VIEW_EVALUATOR_H_
#define MUVE_CORE_VIEW_EVALUATOR_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/simd/aligned.h"
#include "core/cost_model.h"
#include "core/distance.h"
#include "core/exec_stats.h"
#include "core/objectives.h"
#include "core/utility.h"
#include "core/view.h"
#include "data/dataset.h"
#include "storage/base_histogram_cache.h"
#include "storage/binned_group_by.h"
#include "storage/fused_scan.h"

namespace muve::common {
class ThreadPool;
}  // namespace muve::common

namespace muve::core {

struct ViewEvaluatorOptions {
  DistanceKind distance = DistanceKind::kEuclidean;

  // Sampling-based approximation (the third optimization family cited in
  // Section II-A alongside sharing and pruning): when < 1, every probe
  // runs over a deterministic uniform row sample of D_Q and D_B of this
  // fraction, trading recommendation fidelity for proportionally cheaper
  // scans.  Objective values become estimates; fidelity is measured by
  // bench/ablate_sampling.
  double sample_fraction = 1.0;
  uint64_t sample_seed = 0x5A3D1E;

  // Base-histogram prefix-sum cache (the sharing optimization of Section
  // II-A, realized in storage/base_histogram_cache): when on, every
  // numeric-dimension probe whose aggregate is servable from moments
  // (SUM/COUNT/AVG/STD/VAR over a non-string measure) builds ONE
  // finest-granularity histogram per (row set, A, M) side and derives
  // each b-bin view by prefix-sum coarsening — O(d) fine bins instead of a
  // full row scan.  COUNT/SUM over integer measures are bit-identical to
  // the direct scan; AVG/STD/VAR agree to FP tolerance (see
  // tests/core/rebin_differential_test.cc, which pins this contract).
  //
  // Off by default at the evaluator level: unit tests of the direct path
  // assert exact query/row counters.  SearchOptions turns it on for
  // recommendation runs (`base_histogram_cache`, default true).
  bool use_base_histogram_cache = false;
  // The shared store.  The Recommender creates one per Recommend() call
  // and hands it to every pool worker's evaluator — safe because all
  // those evaluators probe identical row sets (same dataset, same
  // sampling draw).  When null and use_base_histogram_cache is set, the
  // evaluator creates a private cache of default size.  Identical
  // concurrent fused passes on the store coalesce into one single-flight
  // scan (matters when `base_cache` is shared across requests); a parked
  // pass is charged as ExecStats::fused_coalesced instead of a build.
  std::shared_ptr<storage::BaseHistogramCache> base_cache;

  // Rows per morsel for fused builds through this evaluator; 0 = engine
  // default.  Miss-batch builds run inline (no pool — they fire inside
  // worker lanes); PrewarmBaseHistograms takes the pool explicitly.
  size_t fused_morsel_size = 0;

  // Execution control (deadline / cancellation / row budget), or nullptr
  // for an unbounded run.  The evaluator never aborts a probe mid-flight
  // — in-flight work completes so results stay well-formed — but it (a)
  // charges every row-set traversal into the context's row budget, (b)
  // skips prewarm sides once expired, and (c) lets an expired context
  // abort *fused* builds between morsels (the probe then falls back to a
  // direct single-pair build, so the answer is still produced).  The
  // strategies poll the same context at their own boundaries; see
  // common/exec_context.h.  Must outlive the evaluator.
  common::ExecContext* exec = nullptr;
};

class ViewEvaluator {
 public:
  using Options = ViewEvaluatorOptions;

  // `dataset` and `space` must outlive the evaluator.
  ViewEvaluator(const data::Dataset& dataset, const ViewSpace& space,
                Options options = {});
  // Not copyable: the slot index and the target-reuse key point into
  // this evaluator's own slots.
  ViewEvaluator(const ViewEvaluator&) = delete;
  ViewEvaluator& operator=(const ViewEvaluator&) = delete;

  // D(V_{i,b}) (Eq. 2): executes the binned target and comparison queries,
  // normalizes both into distributions, and computes the distance.
  // `view` must be an element of space().views() (ViewSpace::Find gives
  // the element equal to a copy).
  // Charges C_t + C_c + C_d.  For a categorical dimension `bins` is
  // ignored: the target and comparison group-bys are aligned on the
  // comparison view's group set (the SeeDB setting).
  double EvaluateDeviation(const View& view, int bins);

  // A(V_{i,b}) (Eq. 4): executes the binned target query (and, once per
  // view, the raw target query) and computes the relative-SSE accuracy.
  // Charges C_t + C_a.  Categorical views have no binning approximation
  // and always score 1.0 (charged as a zero-cost accuracy evaluation).
  // `view` must be an element of space().views().
  double EvaluateAccuracy(const View& view, int bins);

  // The candidate's usability objective: 1/bins for numeric dimensions
  // (Eq. 3), 1/(distinct groups) for categorical ones.
  double CandidateUsability(const View& view, int bins) const;

  // MuVE's probe-order priority rule (Section IV-A3): true when
  //   alpha_A / (C_t + C_a)  >  alpha_D / (C_t + C_c + C_d)
  // under the current cost estimates.  With no observations yet the rule
  // falls back to deviation-first.
  bool AccuracyFirst(const Weights& weights) const;

  const ViewSpace& space() const { return space_; }
  const data::Dataset& dataset() const { return dataset_; }
  // The run's execution-control context (nullptr = unbounded).  The
  // strategies reach it through their evaluator so no search-function
  // signature had to change.
  common::ExecContext* exec() const { return options_.exec; }
  ExecStats& stats() { return stats_; }
  const ExecStats& stats() const { return stats_; }
  const CostModel& cost_model() const { return cost_model_; }

  // Fused cache prewarm: ONE fused pass per side (target rows, then
  // comparison rows) builds the base histogram of every cache-eligible
  // (A, M) pair that is not cached yet — the whole candidate space costs
  // two row-set traversals instead of |A| x |M| per-pair build scans.
  // The pass splits into morsels on `pool` when provided (must not be
  // mid-ParallelFor; the Recommender calls this before any strategy
  // fan-out).  Wall-clock is charged to C_t / C_c respectively and rows
  // to build_rows_scanned, but no per-probe cost-model observation is
  // recorded (a fused pass is not a representative probe) and no query
  // counters move — probe accounting stays comparable cache on/off.
  // No-op when the cache is off.
  void PrewarmBaseHistograms(common::ThreadPool* pool = nullptr);

  // Clears stats and cost observations (caches are kept: they hold pure
  // data, not accounting state).  Used between benchmark repetitions.
  void ResetAccounting();

  // Drops all caches as well; used when a fresh cold-cache run is needed.
  void ResetAll();

  // Row sets all probes scan: the dataset's own when sample_fraction is
  // 1, deterministic samples otherwise.  Exposed (read-only) so tests can
  // assert the sampling invariant sample(D_Q) = D_Q ∩ sample(D_B).
  const storage::RowSet& target_rows() const { return target_rows_; }
  const storage::RowSet& all_rows() const { return all_rows_; }

 private:
  struct RawSeries {
    std::vector<double> keys;
    std::vector<double> aggregates;
  };

  // What every probe of one view needs, resolved on the view's first
  // probe and kept for the evaluator's lifetime (the row sets and the
  // view space are fixed), so a probe builds no strings, looks up no
  // column and takes no cache lock.
  struct ViewSlot {
    const View* view = nullptr;  // null until resolved
    const DimensionInfo* dim = nullptr;
    bool eligible = false;       // CacheEligible(*view)
    // The (A, M) base histograms over the target [0] and comparison [1]
    // row sets, fetched on first need.  Each was checked against its
    // row set's size when fetched, and the row sets never change, so a
    // held histogram stays current.
    std::shared_ptr<const storage::BaseHistogram> base[2];
    // The raw target series (accuracy input), computed once.
    std::optional<RawSeries> raw;
  };

  // The slot of `view`, an element of space_.views() (checked), found
  // by its address and resolved on first use.
  ViewSlot& SlotFor(const View& view);
  // Runs the binned target (`target_side`) or comparison query of
  // `slot` at `bins` into target_ / comparison_, charging C_t / C_c.
  // A target probe of the same (slot, bins) as the previous one is
  // served from target_.
  const storage::SparseBinnedResult& ExecuteBinned(ViewSlot& slot, int bins,
                                                   bool target_side);
  double EvaluateCategoricalDeviation(const View& view);
  const RawSeries& RawTargetSeries(ViewSlot& slot);
  // Normalizes both aggregate series into the reusable aligned
  // distribution buffers (dist_p_ / dist_q_) and returns their distance —
  // the dense tail of categorical deviation probes.
  double NormalizedSeriesDistance(const std::vector<double>& target_aggs,
                                  const std::vector<double>& comparison_aggs);

  // Whether (view, any b) probes can be served by prefix-sum coarsening:
  // cache on, numeric dimension, moment-servable function, numeric
  // measure.  Ineligible probes (MIN/MAX, categorical, string measures)
  // keep using the direct scans.
  bool CacheEligible(const View& view) const;
  // The base histogram of `slot`'s (A, M) pair over the target or
  // comparison row set.  A histogram already held by the slot counts one
  // base_cache_hits; otherwise FetchBase runs.
  const storage::BaseHistogram& BaseFor(ViewSlot& slot, bool target_side);
  // Gets the histogram through the shared cache; a miss builds every
  // still-missing pair of the view's dimension on that side in one fused
  // pass.  Charges the build's row scan into rows_scanned / base_builds
  // on a miss and base_cache_hits otherwise; wall-clock is charged by the
  // caller (the whole probe, build included, lands on the triggering
  // cost kind).
  std::shared_ptr<const storage::BaseHistogram> FetchBase(const View& view,
                                                          bool target_side);
  // The cache-eligible (A, M) pairs of one side that are NOT cached yet,
  // as fused build requests.  `dimension` restricts to one dimension
  // (miss batching); nullptr covers the whole view space (prewarm).
  std::vector<storage::BaseHistogramCache::FusedPairRequest> MissingPairs(
      const std::string* dimension, bool target_side) const;
  // Runs one fused build over `request` and charges its accounting
  // (base_builds / fused_builds / rows_scanned / build_rows_scanned /
  // morsels_dispatched).  Wall-clock is charged by the caller.  An
  // aborted build (expired context, injected fault) charges nothing and
  // caches nothing; the caller's GetOrBuild then builds the single pair
  // it needs directly.
  void RunFusedBuild(
      storage::BaseHistogramCache::FusedHistogramBuildRequest request);
  // Row-scan charging: stats counters plus the exec context's budget.
  void ChargeProbeRows(int64_t rows);
  void ChargeBuildRows(int64_t rows);

  const data::Dataset& dataset_;
  const ViewSpace& space_;
  Options options_;
  storage::RowSet target_rows_;
  storage::RowSet all_rows_;
  ExecStats stats_;
  CostModel cost_model_;

  // One slot per view of the space, by index; slots never move.
  std::vector<ViewSlot> slots_;
  // Base-histogram store (shared across workers when handed in via
  // Options::base_cache; private otherwise).  Null when the cache is off.
  std::shared_ptr<storage::BaseHistogramCache> base_cache_;
  // Reusable fused-scan arena (dictionaries, key arrays, morsel
  // partials): builds through this evaluator stop allocating per build.
  storage::FusedScanScratch fused_scratch_;
  // Probe scratch, grow-only: the binned target and comparison series
  // and the objectives' arrays.  target_ doubles as the one-entry
  // within-candidate cache, keyed by (slot, bins).
  storage::SparseBinnedResult target_;
  storage::SparseBinnedResult comparison_;
  const ViewSlot* target_slot_ = nullptr;
  int target_bins_ = -1;
  DeviationScratch deviation_scratch_;
  AccuracyScratch accuracy_scratch_;
  // Aligned distribution buffers for the dense (categorical) deviation
  // probes.
  common::simd::AlignedVector<double> dist_p_;
  common::simd::AlignedVector<double> dist_q_;
};

}  // namespace muve::core

#endif  // MUVE_CORE_VIEW_EVALUATOR_H_
