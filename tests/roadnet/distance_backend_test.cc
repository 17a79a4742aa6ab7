// Kernel-level equivalence tests for the pluggable distance backends: the
// CH bucket engine must agree with the reference bounded Dijkstra on
// one-to-many (SourceToTargets), point-to-point, and ball queries, on
// random road-like networks. Finite distances match to 1e-9 (CH shortcut
// weights sum in a different floating-point association order).

#include "roadnet/distance_backend.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "roadnet/road_generator.h"

namespace gpssn {
namespace {

std::vector<Poi> RandomPois(const RoadNetwork& g, int n, Rng* rng) {
  std::vector<Poi> pois(n);
  for (int i = 0; i < n; ++i) {
    pois[i].id = i;
    pois[i].position =
        EdgePosition{static_cast<EdgeId>(rng->NextBounded(g.num_edges())),
                     rng->UniformDouble()};
    pois[i].location = g.PositionPoint(pois[i].position);
  }
  return pois;
}

EdgePosition RandomPosition(const RoadNetwork& g, Rng* rng) {
  return EdgePosition{static_cast<EdgeId>(rng->NextBounded(g.num_edges())),
                      rng->UniformDouble()};
}

// `a` from the Dijkstra reference, `b` from CH, computed under `bound`.
// A distance within float noise of the bound may legitimately land on
// opposite sides of the cut in the two engines.
void ExpectEquivalent(double a, double b, double bound) {
  if (std::isfinite(a) != std::isfinite(b)) {
    const double finite = std::isfinite(a) ? a : b;
    ASSERT_NEAR(finite, bound, 1e-9);
    return;
  }
  if (std::isfinite(a)) {
    ASSERT_NEAR(a, b, 1e-9);
  }
}

class BackendEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BackendEquivalenceTest, SourceToTargetsMatchesDijkstra) {
  RoadGenOptions gen;
  gen.num_vertices = 500;
  gen.seed = GetParam();
  const RoadNetwork g = GenerateRoadNetwork(gen);
  Rng rng(GetParam() * 77 + 3);
  const std::vector<Poi> pois = RandomPois(g, 40, &rng);

  const auto dij_backend = MakeDijkstraBackend(&g, &pois);
  const auto ch_backend = MakeChBackend(&g, &pois);
  EXPECT_EQ(dij_backend->kind(), DistanceBackendKind::kDijkstra);
  EXPECT_EQ(ch_backend->kind(), DistanceBackendKind::kContractionHierarchy);
  const auto dij = dij_backend->CreateEngine();
  const auto ch = ch_backend->CreateEngine();

  std::vector<EdgePosition> targets;
  targets.reserve(pois.size());
  for (const Poi& p : pois) targets.push_back(p.position);
  // A duplicate target position must fill both slots independently.
  targets.push_back(targets.front());
  dij->SetTargets(targets);
  ch->SetTargets(targets);
  ASSERT_EQ(dij->num_targets(), targets.size());
  ASSERT_EQ(ch->num_targets(), targets.size());

  std::vector<double> a(targets.size()), b(targets.size());
  for (int trial = 0; trial < 30; ++trial) {
    const EdgePosition src = RandomPosition(g, &rng);
    const double bound =
        trial % 3 == 0 ? kInfDistance : rng.UniformDouble(0.5, 8.0);
    dij->SourceToTargets(src, bound, a.data());
    ch->SourceToTargets(src, bound, b.data());
    for (size_t i = 0; i < targets.size(); ++i) {
      ExpectEquivalent(a[i], b[i], bound);
    }
    // The duplicated slot mirrors the original.
    ASSERT_EQ(b.back(), b.front());
  }

  // Retargeting must fully replace the previous registration.
  const std::vector<EdgePosition> fewer(targets.begin(), targets.begin() + 5);
  dij->SetTargets(fewer);
  ch->SetTargets(fewer);
  ASSERT_EQ(ch->num_targets(), 5u);
  const EdgePosition src = RandomPosition(g, &rng);
  dij->SourceToTargets(src, kInfDistance, a.data());
  ch->SourceToTargets(src, kInfDistance, b.data());
  for (size_t i = 0; i < fewer.size(); ++i) {
    ExpectEquivalent(a[i], b[i], kInfDistance);
  }
}

// Rows extended as targets are appended (SetTargets with a longer list,
// then SourceToTargets from the first new slot) and the resumable search
// must reproduce a single search over the final list bit for bit, in each
// engine, even with other sources run in between.
TEST_P(BackendEquivalenceTest, AppendedTargetsExtendRowsExactly) {
  RoadGenOptions gen;
  gen.num_vertices = 400;
  gen.seed = GetParam() ^ 0x77;
  const RoadNetwork g = GenerateRoadNetwork(gen);
  Rng rng(GetParam() * 31 + 5);
  const std::vector<Poi> pois = RandomPois(g, 36, &rng);
  std::vector<EdgePosition> all;
  for (const Poi& p : pois) all.push_back(p.position);
  const size_t cuts[] = {5, 17, all.size()};

  const auto dij_backend = MakeDijkstraBackend(&g, &pois);
  const auto ch_backend = MakeChBackend(&g, &pois);
  for (const DistanceBackend* backend : {dij_backend.get(), ch_backend.get()}) {
    const auto fresh = backend->CreateEngine();
    const auto grown = backend->CreateEngine();
    fresh->SetTargets(all);
    for (int trial = 0; trial < 10; ++trial) {
      const EdgePosition src = RandomPosition(g, &rng);
      const EdgePosition other = RandomPosition(g, &rng);
      const double bound =
          trial % 2 == 0 ? kInfDistance : rng.UniformDouble(1.0, 8.0);
      std::vector<double> want(all.size()), row(all.size()),
          resumed(all.size()), scratch(all.size());
      fresh->SourceToTargets(src, bound, want.data());

      size_t first = 0;
      for (size_t cut : cuts) {
        grown->SetTargets(std::span<const EdgePosition>(all.data(), cut));
        ASSERT_EQ(grown->num_targets(), cut);
        grown->SourceToTargets(src, bound, row.data(), first);
        grown->ResumableSourceToTargets(src, bound, resumed.data(), first);
        grown->SourceToTargets(other, bound, scratch.data());
        first = cut;
      }
      for (size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(row[i], want[i]) << backend->name() << " slot " << i;
        EXPECT_EQ(resumed[i], want[i]) << backend->name() << " slot " << i;
      }
    }
  }
}

TEST_P(BackendEquivalenceTest, PositionToPositionMatchesDijkstra) {
  RoadGenOptions gen;
  gen.num_vertices = 300;
  gen.seed = GetParam() ^ 0x5a;
  const RoadNetwork g = GenerateRoadNetwork(gen);
  Rng rng(GetParam() + 11);
  const std::vector<Poi> pois = RandomPois(g, 10, &rng);
  // Engines must not outlive their backend (the CH backend owns the
  // hierarchy its engines search).
  const auto dij_backend = MakeDijkstraBackend(&g, &pois);
  const auto ch_backend = MakeChBackend(&g, &pois);
  const auto dij = dij_backend->CreateEngine();
  const auto ch = ch_backend->CreateEngine();
  for (int trial = 0; trial < 40; ++trial) {
    const EdgePosition a = RandomPosition(g, &rng);
    const EdgePosition b = RandomPosition(g, &rng);
    const double bound =
        trial % 4 == 0 ? kInfDistance : rng.UniformDouble(0.5, 10.0);
    ExpectEquivalent(dij->PositionToPosition(a, b, bound),
                     ch->PositionToPosition(a, b, bound), bound);
  }
}

TEST_P(BackendEquivalenceTest, BallsAreBitExactAcrossBackends) {
  // Both backends answer balls with the bounded Dijkstra, so the results
  // must be identical, not merely near.
  RoadGenOptions gen;
  gen.num_vertices = 400;
  gen.seed = GetParam() ^ 0xbeef;
  const RoadNetwork g = GenerateRoadNetwork(gen);
  Rng rng(GetParam() + 29);
  const std::vector<Poi> pois = RandomPois(g, 60, &rng);
  const auto dij_backend = MakeDijkstraBackend(&g, &pois);
  const auto ch_backend = MakeChBackend(&g, &pois);
  const auto dij = dij_backend->CreateEngine();
  const auto ch = ch_backend->CreateEngine();
  for (int trial = 0; trial < 15; ++trial) {
    const EdgePosition center = RandomPosition(g, &rng);
    const double radius = rng.UniformDouble(0.3, 5.0);
    const auto a = dij->BallWithDistances(center, radius);
    const auto b = ch->BallWithDistances(center, radius);
    ASSERT_EQ(a, b) << "trial " << trial << " radius " << radius;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendEquivalenceTest,
                         ::testing::Values(1, 7, 13, 21, 42));

}  // namespace
}  // namespace gpssn
