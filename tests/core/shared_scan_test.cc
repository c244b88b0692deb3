// Shared-scan execution (SeeDB's shared-computation optimization) must be
// a pure cost optimization: identical scores and recommendations, far
// fewer query executions.

#include <gtest/gtest.h>

#include "core/recommender.h"
#include "core/view_evaluator.h"
#include "test_util.h"

namespace muve::core {
namespace {

TEST(SharedBatchTest, ScoresMatchPerViewProbes) {
  const data::Dataset ds = testutil::MakeToyDataset();
  auto space = ViewSpace::Create(ds);
  ASSERT_TRUE(space.ok());

  // All four (M, F) views over dimension x.
  std::vector<size_t> batch;
  for (size_t i = 0; i < space->views().size(); ++i) {
    if (space->views()[i].dimension == "x") batch.push_back(i);
  }
  ASSERT_EQ(batch.size(), 4u);

  for (const int bins : {1, 2, 5, 13, 29}) {
    ViewEvaluator shared_eval(ds, *space);
    const auto scores = shared_eval.EvaluateSharedBatch(batch, bins);
    ViewEvaluator plain_eval(ds, *space);
    for (size_t i = 0; i < batch.size(); ++i) {
      const View& view = space->views()[batch[i]];
      EXPECT_DOUBLE_EQ(scores.deviations[i],
                       plain_eval.EvaluateDeviation(view, bins))
          << view.Label() << " bins=" << bins;
      EXPECT_DOUBLE_EQ(scores.accuracies[i],
                       plain_eval.EvaluateAccuracy(view, bins))
          << view.Label() << " bins=" << bins;
    }
    // One target + one comparison scan for the whole batch.
    EXPECT_EQ(shared_eval.stats().target_queries, 1);
    EXPECT_EQ(shared_eval.stats().comparison_queries, 1);
    EXPECT_EQ(shared_eval.stats().deviation_evals,
              static_cast<int64_t>(batch.size()));
  }
}

TEST(SharedBatchTest, RawSeriesSharedAcrossBatchesAndBins) {
  const data::Dataset ds = testutil::MakeToyDataset();
  auto space = ViewSpace::Create(ds);
  ASSERT_TRUE(space.ok());
  std::vector<size_t> batch;
  for (size_t i = 0; i < space->views().size(); ++i) {
    if (space->views()[i].dimension == "x") batch.push_back(i);
  }
  ViewEvaluator eval(ds, *space);
  eval.EvaluateSharedBatch(batch, 3);
  const int64_t rows_after_first = eval.stats().rows_scanned;
  eval.EvaluateSharedBatch(batch, 7);
  // Second batch: target + comparison scans only; raw series cached.
  EXPECT_EQ(eval.stats().rows_scanned - rows_after_first,
            static_cast<int64_t>(ds.target_rows.size() +
                                 ds.all_rows.size()));
}

TEST(SharedScanRecommenderTest, IdenticalToLinearLinear) {
  auto recommender = Recommender::Create(testutil::MakeToyDataset());
  ASSERT_TRUE(recommender.ok());
  SearchOptions linear;
  linear.horizontal = HorizontalStrategy::kLinear;
  linear.vertical = VerticalStrategy::kLinear;
  SearchOptions shared = linear;
  shared.shared_scans = true;

  auto r_linear = recommender->Recommend(linear);
  auto r_shared = recommender->Recommend(shared);
  ASSERT_TRUE(r_linear.ok());
  ASSERT_TRUE(r_shared.ok()) << r_shared.status().ToString();
  EXPECT_EQ(r_shared->scheme, "Linear-Linear(Sh)");
  ASSERT_EQ(r_linear->views.size(), r_shared->views.size());
  for (size_t i = 0; i < r_linear->views.size(); ++i) {
    EXPECT_NEAR(r_linear->views[i].utility, r_shared->views[i].utility,
                1e-12);
    EXPECT_EQ(r_linear->views[i].bins, r_shared->views[i].bins);
  }
  // Query sharing: |M| x |F| = 4 views per dimension collapse into one
  // query per (dimension, bins) pair.
  EXPECT_LT(r_shared->stats.target_queries,
            r_linear->stats.target_queries / 3);
  EXPECT_LT(r_shared->stats.comparison_queries,
            r_linear->stats.comparison_queries / 3);
}

TEST(SharedScanRecommenderTest, WorksWithPartitioning) {
  auto recommender = Recommender::Create(testutil::MakeToyDataset());
  ASSERT_TRUE(recommender.ok());
  SearchOptions shared;
  shared.horizontal = HorizontalStrategy::kLinear;
  shared.vertical = VerticalStrategy::kLinear;
  shared.shared_scans = true;
  shared.partition.kind = PartitionKind::kGeometric;
  SearchOptions plain = shared;
  plain.shared_scans = false;

  auto r_shared = recommender->Recommend(shared);
  auto r_plain = recommender->Recommend(plain);
  ASSERT_TRUE(r_shared.ok());
  ASSERT_TRUE(r_plain.ok());
  ASSERT_EQ(r_shared->views.size(), r_plain->views.size());
  for (size_t i = 0; i < r_plain->views.size(); ++i) {
    EXPECT_NEAR(r_plain->views[i].utility, r_shared->views[i].utility,
                1e-12);
  }
}

TEST(SharedScanRecommenderTest, RejectedForPruningSchemes) {
  auto recommender = Recommender::Create(testutil::MakeToyDataset());
  ASSERT_TRUE(recommender.ok());
  SearchOptions bad;
  bad.horizontal = HorizontalStrategy::kMuve;
  bad.vertical = VerticalStrategy::kMuve;
  bad.shared_scans = true;
  EXPECT_FALSE(recommender->Recommend(bad).ok());

  SearchOptions bad_approx;
  bad_approx.horizontal = HorizontalStrategy::kLinear;
  bad_approx.vertical = VerticalStrategy::kLinear;
  bad_approx.shared_scans = true;
  bad_approx.approximation = VerticalApproximation::kRefinement;
  EXPECT_FALSE(recommender->Recommend(bad_approx).ok());
}

}  // namespace
}  // namespace muve::core
