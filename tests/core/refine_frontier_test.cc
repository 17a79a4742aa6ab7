// The best-first center frontier of the refinement phase: fed random lower
// bounds (with ties) that never exceed the exact keys, it must pop centers
// in exactly (exact key, id) order, stop at the first key at or above the
// limit in force, and never materialize a center whose bound is at or
// above that limit. End to end, lazy refinement must build fewer balls
// than there are candidate centers and still return the exhaustive
// search's objective.

#include "core/refine_frontier.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/baseline.h"
#include "core/database.h"
#include "ssn/dataset.h"

namespace gpssn {
namespace {

struct Fixture {
  std::vector<double> lower;  // Pushed bound per center id.
  std::vector<double> exact;  // kInfDistance = dropped on materialization.
};

Fixture RandomFixture(Rng* rng, int n) {
  Fixture f;
  for (int i = 0; i < n; ++i) {
    // Small integer keys make exact-key and bound ties common.
    const double key = static_cast<double>(rng->NextBounded(12));
    const bool dropped = rng->NextBounded(8) == 0;
    f.exact.push_back(dropped ? kInfDistance : key);
    f.lower.push_back(key - static_cast<double>(rng->NextBounded(4)));
  }
  return f;
}

class RefineFrontierTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RefineFrontierTest, PopsInExactOrderAndMaterializesBelowTheLimit) {
  Rng rng(GetParam() * 2654435761u + 1);
  const int n = 1 + static_cast<int>(rng.NextBounded(200));
  const Fixture f = RandomFixture(&rng, n);

  double limit = kInfDistance;
  std::vector<int> materialized(n, 0);
  RefineFrontier frontier;
  frontier.Reset([&](std::span<const PoiId> ids, std::span<double> keys) {
    for (size_t i = 0; i < ids.size(); ++i) {
      EXPECT_LT(f.lower[ids[i]], limit) << "materialized above the limit";
      ++materialized[ids[i]];
      keys[i] = f.exact[ids[i]];
    }
  });
  for (int i = 0; i < n; ++i) frontier.Push(f.lower[i], i);

  std::vector<std::pair<double, PoiId>> want;
  for (int i = 0; i < n; ++i) {
    if (f.exact[i] < kInfDistance) want.emplace_back(f.exact[i], i);
  }
  std::sort(want.begin(), want.end());

  // The limit falls as the loop runs, the way an incumbent does: after a
  // random number of pops it drops to a random visited key or below.
  size_t popped = 0;
  double key = 0.0;
  PoiId id = kInvalidPoi;
  while (frontier.Next(limit, &key, &id)) {
    ASSERT_LT(popped, want.size());
    EXPECT_EQ(key, want[popped].first);
    EXPECT_EQ(id, want[popped].second);
    EXPECT_LT(key, limit);
    ++popped;
    if (rng.NextBounded(4) == 0) {
      limit = std::min(limit, key + static_cast<double>(rng.NextBounded(3)));
    }
  }
  // It stopped exactly where a sorted loop would break.
  if (popped < want.size()) {
    EXPECT_GE(want[popped].first, limit);
  }
  for (int i = 0; i < n; ++i) EXPECT_LE(materialized[i], 1) << "center " << i;
}

TEST_P(RefineFrontierTest, MaterializeAllYieldsTheSortedExactOrder) {
  Rng rng(GetParam() * 40503u + 7);
  const int n = 1 + static_cast<int>(rng.NextBounded(200));
  const Fixture f = RandomFixture(&rng, n);
  RefineFrontier frontier;
  frontier.Reset([&](std::span<const PoiId> ids, std::span<double> keys) {
    for (size_t i = 0; i < ids.size(); ++i) keys[i] = f.exact[ids[i]];
  });
  for (int i = 0; i < n; ++i) frontier.Push(f.lower[i], i);
  // Some centers are already exact before the rest are forced.
  double key = 0.0;
  PoiId id = kInvalidPoi;
  std::vector<std::pair<double, PoiId>> want;
  for (int i = 0; i < n; ++i) {
    if (f.exact[i] < kInfDistance) want.emplace_back(f.exact[i], i);
  }
  std::sort(want.begin(), want.end());
  size_t skip = 0;
  if (!want.empty() && frontier.Next(kInfDistance, &key, &id)) {
    EXPECT_EQ(std::make_pair(key, id), want.front());
    skip = 1;
  }
  frontier.MaterializeAll();
  EXPECT_EQ(frontier.materialized(), static_cast<uint64_t>(n));
  const std::vector<std::pair<double, PoiId>> rest(
      want.begin() + static_cast<std::ptrdiff_t>(skip), want.end());
  EXPECT_EQ(frontier.Remaining(), rest);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefineFrontierTest,
                         ::testing::Range<uint64_t>(1, 41));

TEST(LazyRefinementTest, BuildsFewerBallsThanCandidatesAndStaysExact) {
  SyntheticSsnOptions data;
  data.num_road_vertices = 400;
  data.num_pois = 300;
  data.num_users = 300;
  data.num_topics = 12;
  data.space_size = 40.0;
  data.seed = 11;
  GpssnBuildOptions build;
  build.poi_index.r_min = 0.5;
  build.poi_index.r_max = 4.0;
  GpssnDatabase db(MakeSynthetic(data), build);

  Rng rng(5);
  uint64_t balls = 0;
  uint64_t candidates = 0;
  int found = 0;
  for (int i = 0; i < 12; ++i) {
    GpssnQuery q;
    q.issuer = static_cast<UserId>(rng.NextBounded(data.num_users));
    q.tau = 3;
    q.gamma = 0.1;
    q.theta = 0.1;
    q.radius = 1.5;
    QueryStats stats;
    auto answer = db.Query(q, &stats);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    const GpssnAnswer oracle = BruteForceGpssn(db.ssn(), q);
    ASSERT_EQ(answer->found, oracle.found) << "query " << i;
    if (oracle.found) {
      ++found;
      EXPECT_NEAR(answer->max_dist, oracle.max_dist, 1e-9) << "query " << i;
    }
    balls += stats.ball_queries;
    candidates += stats.pois_candidates;
  }
  EXPECT_GT(found, 0);
  EXPECT_GT(candidates, 0u);
  EXPECT_LT(balls, candidates);
}

}  // namespace
}  // namespace gpssn
