#include "core/exploration_session.h"

#include <algorithm>
#include <limits>

#include "core/partitioner.h"
#include "core/top_k_tracker.h"
#include "core/view_evaluator.h"

namespace muve::core {

common::Result<ExplorationSession> ExplorationSession::Create(
    data::Dataset dataset) {
  MUVE_ASSIGN_OR_RETURN(ViewSpace space, ViewSpace::Create(dataset));
  return ExplorationSession(std::move(dataset), std::move(space));
}

common::Status ExplorationSession::Materialize(DistanceKind distance) {
  if (scores_.contains(distance)) return common::Status::OK();

  ViewEvaluator::Options options;
  options.distance = distance;
  // Materialization probes every (view, b) pair — the base-histogram
  // cache's best case (one scan per (A, M) side, O(b) per candidate).
  options.use_base_histogram_cache = true;
  ViewEvaluator evaluator(dataset_, space_, options);
  std::vector<CandidateScores> all;

  // Group same-dimension views so the numeric ones ride shared scans.
  const std::vector<View>& views = space_.views();
  std::map<std::string, std::vector<size_t>> groups;
  for (size_t i = 0; i < views.size(); ++i) {
    groups[views[i].dimension].push_back(i);
  }

  for (const auto& [dim_name, group] : groups) {
    const DimensionInfo& dim = space_.dimension_info(dim_name);
    if (dim.categorical) {
      for (size_t idx : group) {
        CandidateScores cs;
        cs.view_index = idx;
        cs.bins = 1;
        cs.deviation = evaluator.EvaluateDeviation(views[idx], 1);
        cs.accuracy = evaluator.EvaluateAccuracy(views[idx], 1);
        cs.usability = evaluator.CandidateUsability(views[idx], 1);
        all.push_back(cs);
      }
      continue;
    }
    for (int bins = 1; bins <= dim.max_bins; ++bins) {
      const ViewEvaluator::BatchScores batch_scores =
          evaluator.EvaluateSharedBatch(group, bins);
      for (size_t g = 0; g < group.size(); ++g) {
        CandidateScores cs;
        cs.view_index = group[g];
        cs.bins = bins;
        cs.deviation = batch_scores.deviations[g];
        cs.accuracy = batch_scores.accuracies[g];
        cs.usability = Usability(bins);
        all.push_back(cs);
      }
    }
  }

  stats_.Merge(evaluator.stats());
  scores_.emplace(distance, std::move(all));
  return common::Status::OK();
}

common::Result<std::vector<ScoredView>> ExplorationSession::AllCandidates(
    DistanceKind distance) {
  MUVE_RETURN_IF_ERROR(Materialize(distance));
  const std::vector<CandidateScores>& table = scores_.at(distance);
  std::vector<ScoredView> out;
  out.reserve(table.size());
  for (const CandidateScores& cs : table) {
    ScoredView scored;
    scored.view = space_.views()[cs.view_index];
    scored.bins = cs.bins;
    scored.deviation = cs.deviation;
    scored.accuracy = cs.accuracy;
    scored.usability = cs.usability;
    out.push_back(std::move(scored));
  }
  return out;
}

common::Result<std::vector<ScoredView>> ExplorationSession::Recommend(
    const Weights& weights, int k, DistanceKind distance) {
  MUVE_RETURN_IF_ERROR(weights.Validate());
  if (k < 1) {
    return common::Status::InvalidArgument("k must be >= 1");
  }
  MUVE_RETURN_IF_ERROR(Materialize(distance));

  const std::vector<CandidateScores>& table = scores_.at(distance);
  TopKTracker tracker(k, space_.views().size());
  for (const CandidateScores& cs : table) {
    ScoredView scored;
    scored.view = space_.views()[cs.view_index];
    scored.bins = cs.bins;
    scored.deviation = cs.deviation;
    scored.accuracy = cs.accuracy;
    scored.usability = cs.usability;
    scored.utility =
        Utility(weights, cs.deviation, cs.accuracy, cs.usability);
    tracker.Update(cs.view_index, scored);
  }
  return tracker.TopK();
}

}  // namespace muve::core
