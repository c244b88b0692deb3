#include "core/exploration_session.h"

#include <gtest/gtest.h>

#include "core/recommender.h"
#include "test_util.h"

namespace muve::core {
namespace {

TEST(ExplorationSessionTest, MatchesLinearLinearForEveryWeightSetting) {
  auto session = ExplorationSession::Create(testutil::MakeToyDataset());
  ASSERT_TRUE(session.ok());
  auto recommender = Recommender::Create(testutil::MakeToyDataset());
  ASSERT_TRUE(recommender.ok());

  const Weights settings[] = {
      Weights::PaperDefault(), Weights{0.6, 0.2, 0.2},
      Weights{0.2, 0.6, 0.2},  Weights::Equal(),
      Weights::DeviationOnly(), Weights{0.05, 0.05, 0.9},
  };
  for (const Weights& weights : settings) {
    auto via_session = session->Recommend(weights, 4);
    ASSERT_TRUE(via_session.ok()) << weights.ToString();

    SearchOptions options;
    options.horizontal = HorizontalStrategy::kLinear;
    options.vertical = VerticalStrategy::kLinear;
    options.weights = weights;
    options.k = 4;
    auto via_recommender = recommender->Recommend(options);
    ASSERT_TRUE(via_recommender.ok());

    ASSERT_EQ(via_session->size(), via_recommender->views.size())
        << weights.ToString();
    // The session runs the very probes Linear-Linear runs, so the top-k
    // matches exactly: same views, same bins, same utility doubles.
    for (size_t i = 0; i < via_session->size(); ++i) {
      const ScoredView& got = (*via_session)[i];
      const ScoredView& want = via_recommender->views[i];
      EXPECT_EQ(got.view.Key(), want.view.Key())
          << weights.ToString() << " rank " << i;
      EXPECT_EQ(got.bins, want.bins) << weights.ToString() << " rank " << i;
      EXPECT_EQ(got.utility, want.utility)
          << weights.ToString() << " rank " << i;
    }
  }
}

TEST(ExplorationSessionTest, ReRankingIsFreeAfterMaterialization) {
  auto session = ExplorationSession::Create(testutil::MakeToyDataset());
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->Recommend(Weights::PaperDefault(), 3).ok());
  const int64_t queries_after_first = session->stats().target_queries +
                                      session->stats().comparison_queries;
  EXPECT_GT(queries_after_first, 0);
  // Ten more weight settings: zero additional queries.
  for (int i = 1; i <= 10; ++i) {
    const double d = 0.05 * i;
    ASSERT_TRUE(
        session->Recommend(Weights{d, 0.5 - d / 2, 0.5 - d / 2}, 3).ok());
  }
  EXPECT_EQ(session->stats().target_queries +
                session->stats().comparison_queries,
            queries_after_first);
  EXPECT_EQ(session->materialized_distances(), 1u);
}

TEST(ExplorationSessionTest, PerDistanceMaterialization) {
  auto session = ExplorationSession::Create(testutil::MakeToyDataset());
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session
                  ->Recommend(Weights::PaperDefault(), 2,
                              DistanceKind::kEuclidean)
                  .ok());
  EXPECT_EQ(session->materialized_distances(), 1u);
  ASSERT_TRUE(session
                  ->Recommend(Weights::PaperDefault(), 2,
                              DistanceKind::kEarthMovers)
                  .ok());
  EXPECT_EQ(session->materialized_distances(), 2u);
  // Re-using a distance does not re-materialize.
  ASSERT_TRUE(session
                  ->Recommend(Weights::Equal(), 2,
                              DistanceKind::kEarthMovers)
                  .ok());
  EXPECT_EQ(session->materialized_distances(), 2u);
}

TEST(ExplorationSessionTest, HandlesCategoricalDimensions) {
  data::Dataset ds = testutil::MakeToyDataset();
  ds.categorical_dimensions = {"grp"};
  auto session = ExplorationSession::Create(ds);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto rec = session->Recommend(Weights{0.8, 0.1, 0.1}, 10);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  bool saw_categorical = false;
  for (const ScoredView& v : *rec) {
    if (v.view.dimension == "grp") {
      saw_categorical = true;
      EXPECT_DOUBLE_EQ(v.accuracy, 1.0);
    }
  }
  EXPECT_TRUE(saw_categorical);
}

TEST(ExplorationSessionTest, InvalidInputsRejected) {
  auto session = ExplorationSession::Create(testutil::MakeToyDataset());
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(session->Recommend(Weights{0.9, 0.9, 0.9}, 3).ok());
  EXPECT_FALSE(session->Recommend(Weights::PaperDefault(), 0).ok());
}

}  // namespace
}  // namespace muve::core
