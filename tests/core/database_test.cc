// Tests for the GpssnDatabase facade: build pipeline, query plumbing, and
// determinism.

#include "core/database.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ssn/dataset.h"

namespace gpssn {
namespace {

SyntheticSsnOptions MediumData(uint64_t seed) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 800;
  data.num_pois = 400;
  data.num_users = 900;
  data.num_topics = 40;
  data.seed = seed;
  return data;
}

TEST(DatabaseTest, BuildsAllComponents) {
  GpssnBuildOptions build;
  build.num_road_pivots = 4;
  build.num_social_pivots = 3;
  const GpssnDatabase db(MakeSynthetic(MediumData(1)), build);
  EXPECT_EQ(db.road_pivots().num_pivots(), 4);
  EXPECT_EQ(db.social_pivots().num_pivots(), 3);
  EXPECT_GT(db.poi_index().tree().num_nodes(), 1);
  EXPECT_GT(db.social_index().num_nodes(), 1);
  EXPECT_EQ(db.social_index().node(db.social_index().root()).subtree_users,
            900);
}

TEST(DatabaseTest, QueriesRunWithDefaults) {
  GpssnDatabase db(MakeSynthetic(MediumData(2)));
  GpssnQuery q;
  q.issuer = 10;
  q.tau = 3;
  QueryStats stats;
  auto answer = db.Query(q, &stats);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_GT(stats.cpu_seconds, 0.0);
}

TEST(DatabaseTest, RandomPivotModeWorks) {
  GpssnBuildOptions build;
  build.optimize_pivots = false;
  GpssnDatabase db(MakeSynthetic(MediumData(3)), build);
  GpssnQuery q;
  q.issuer = 5;
  q.tau = 2;
  EXPECT_TRUE(db.Query(q).ok());
}

TEST(DatabaseTest, SameSeedSameAnswers) {
  GpssnBuildOptions build;
  build.seed = 44;
  GpssnDatabase a(MakeSynthetic(MediumData(4)), build);
  GpssnDatabase b(MakeSynthetic(MediumData(4)), build);
  for (UserId issuer : {1, 100, 500}) {
    GpssnQuery q;
    q.issuer = issuer;
    q.tau = 3;
    auto ra = a.Query(q);
    auto rb = b.Query(q);
    ASSERT_TRUE(ra.ok());
    ASSERT_TRUE(rb.ok());
    EXPECT_EQ(ra->found, rb->found);
    if (ra->found) {
      EXPECT_EQ(ra->users, rb->users);
      EXPECT_DOUBLE_EQ(ra->max_dist, rb->max_dist);
    }
  }
}

TEST(DatabaseTest, HandlesRealLikeDatasets) {
  GpssnDatabase db(MakeRealLike(BriCalOptions(/*scale=*/0.03, /*seed=*/5)));
  int found = 0;
  for (UserId issuer = 0; issuer < 10; ++issuer) {
    GpssnQuery q;
    q.issuer = issuer * 7;
    q.tau = 3;
    auto answer = db.Query(q);
    ASSERT_TRUE(answer.ok());
    if (answer->found) ++found;
  }
  EXPECT_GT(found, 0) << "real-like datasets should usually have answers";
}

// A batch executor built before AddPoi must answer like db.Query after it:
// its workers' processors notice the grown POI count and rebuild their
// built-in engines, so the new POI lands in R = B(center, r). Before that,
// the executor's answers came back one or two POIs short on every query.
TEST(DatabaseTest, ExecutorBuiltBeforeAddPoiSeesNewPois) {
  SyntheticSsnOptions data;
  data.num_users = 3000;
  data.num_road_vertices = 2000;
  data.num_pois = 1000;
  data.seed = 1;
  GpssnDatabase db(MakeSynthetic(data));
  BatchExecutorOptions options;
  options.num_workers = 2;
  GpssnBatchExecutor executor(&db.poi_index(), &db.social_index(), options);

  Rng rng(1);
  int checked = 0;
  for (int attempt = 0; attempt < 200 && checked < 10; ++attempt) {
    GpssnQuery q;
    q.issuer = static_cast<UserId>(rng.NextBounded(data.num_users));
    q.tau = 3;
    auto before = db.Query(q);
    ASSERT_TRUE(before.ok());
    if (!before->found) continue;
    // A new POI at the answer center's position, with its keywords.
    const Poi center = db.ssn().poi(before->center);
    auto added = db.AddPoi(center.position, center.keywords);
    ASSERT_TRUE(added.ok()) << added.status().ToString();

    auto want = db.Query(q);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(want->found);
    EXPECT_TRUE(std::binary_search(want->pois.begin(), want->pois.end(),
                                   *added));
    const GpssnQuery batch[] = {q};
    const std::vector<BatchQueryResult> got = executor.ExecuteAll(batch);
    ASSERT_EQ(got.size(), 1u);
    ASSERT_TRUE(got[0].status.ok()) << got[0].status.ToString();
    EXPECT_EQ(got[0].answer.found, want->found) << "query " << checked;
    EXPECT_EQ(got[0].answer.users, want->users) << "query " << checked;
    EXPECT_EQ(got[0].answer.center, want->center) << "query " << checked;
    EXPECT_EQ(got[0].answer.pois, want->pois) << "query " << checked;
    EXPECT_EQ(got[0].answer.max_dist, want->max_dist) << "query " << checked;
    ++checked;
  }
  EXPECT_EQ(checked, 10);
}

}  // namespace
}  // namespace gpssn
