// Copyright 2026 The gpssn Authors.
//
// Shows that the benchmark's answer checker can fail. A five-vertex road
// path and a four-user social graph small enough to solve by hand:
//
//   road (unit edges):   v0 --e0-- v1 --e1-- v2 --e2-- v3 --e3-- v4
//   POIs:                p0 on e0 at t=0.5 {kw 0}; p1 on e1 at t=0.5 {kw 1};
//                        p2 on e3 at t=0.5 {kw 0}
//   users (home, w):     u0 v0 (0.6, 0.4); u1 v1 (0.5, 0.5);
//                        u2 v4 (0.5, 0.5); u3 v1 (0.5, 0.5)
//   friendships:         u0-u1, u0-u2, u2-u3
//
// Query: issuer u0, τ = 2, γ = 0.3, θ = 0.3, r = 1.2. Every pair scores
// 0.5 >= γ and every member matches any non-empty R with >= 0.4 >= θ, so
// the candidate groups are {u0,u1} and {u0,u2} ({u0,u3} is not
// connected). Balls: B(p0) = B(p1) = {p0, p1} (p0-p1 is 1.0), B(p2) = {p2}.
// {u0,u1} with {p0,p1} costs max(0.5, 1.5, 0.5, 0.5) = 1.5; every choice
// with u2 costs 3.5. The answer is S = {u0,u1}, R = {p0,p1}, max_dist 1.5.
//
// The checker must accept that answer, the library's and the exhaustive
// search's, and reject each of four corruptions: a POI dropped from R, a
// non-friend swapped into S, a perturbed max_dist, and "not found".

#include <cstdio>
#include <string>
#include <vector>

#include "checker.h"
#include "gpssn/gpssn.h"

namespace {

using namespace gpssn;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void ExpectRejected(const std::string& verdict, const std::string& what) {
  Expect(!verdict.empty(), what + " -> rejected: " + verdict);
}

void ExpectAccepted(const std::string& verdict, const std::string& what) {
  Expect(verdict.empty(), what + " -> accepted" +
                              (verdict.empty() ? "" : ": " + verdict));
}

SpatialSocialNetwork HandMadeNetwork() {
  RoadNetworkBuilder road;
  for (int i = 0; i < 5; ++i) road.AddVertex(Point{double(i), 0.0});
  for (int i = 0; i < 4; ++i) GPSSN_CHECK(road.AddEdge(i, i + 1, 1.0).ok());
  RoadNetwork graph = road.Build();

  SocialNetworkBuilder social(2);
  const std::vector<std::vector<double>> interests = {
      {0.6, 0.4}, {0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}};
  for (const auto& w : interests) GPSSN_CHECK(social.AddUser(w).ok());
  GPSSN_CHECK_OK(social.AddFriendship(0, 1));
  GPSSN_CHECK_OK(social.AddFriendship(0, 2));
  GPSSN_CHECK_OK(social.AddFriendship(2, 3));

  // Homes at vertices: v0 is t=0 of e0, v1 is t=0 of e1, v4 is t=1 of e3.
  std::vector<EdgePosition> homes = {{0, 0.0}, {1, 0.0}, {3, 1.0}, {1, 0.0}};
  std::vector<Poi> pois;
  const std::vector<std::pair<EdgePosition, KeywordId>> placed = {
      {{0, 0.5}, 0}, {{1, 0.5}, 1}, {{3, 0.5}, 0}};
  for (const auto& [position, keyword] : placed) {
    Poi poi;
    poi.id = static_cast<PoiId>(pois.size());
    poi.position = position;
    poi.location = graph.PositionPoint(position);
    poi.keywords = {keyword};
    pois.push_back(poi);
  }
  return SpatialSocialNetwork(std::move(graph), social.Build(),
                              std::move(homes), std::move(pois));
}

}  // namespace

int main() {
  GpssnBuildOptions build;
  build.num_road_pivots = 2;
  build.num_social_pivots = 2;
  build.optimize_pivots = false;
  GpssnDatabase db(HandMadeNetwork(), build);
  perfbench::AnswerChecker checker(&db.ssn());

  GpssnQuery query;
  query.issuer = 0;
  query.tau = 2;
  query.gamma = 0.3;
  query.theta = 0.3;
  query.radius = 1.2;

  GpssnAnswer hand;
  hand.found = true;
  hand.users = {0, 1};
  hand.center = 0;
  hand.pois = {0, 1};
  hand.max_dist = 1.5;

  ExpectAccepted(checker.Check(query, hand), "hand-worked answer");
  GpssnAnswer other_center = hand;
  other_center.center = 1;
  ExpectAccepted(checker.Check(query, other_center),
                 "hand-worked answer centred on p1 (same ball)");

  auto library = db.Query(query);
  Expect(library.ok(), "library query succeeds");
  if (library.ok()) {
    ExpectAccepted(checker.Check(query, *library), "library answer");
    ExpectAccepted(perfbench::AnswerChecker::SameObjective(*library, hand),
                   "library answer is optimal");
  }
  const GpssnAnswer brute = BruteForceGpssn(db.ssn(), query);
  ExpectAccepted(perfbench::AnswerChecker::SameObjective(brute, hand),
                 "exhaustive search agrees with the hand-worked optimum");

  GpssnAnswer dropped = hand;
  dropped.pois = {0};
  ExpectRejected(checker.Check(query, dropped), "POI p1 dropped from R");

  GpssnAnswer swapped = hand;
  swapped.users = {0, 3};
  ExpectRejected(checker.Check(query, swapped), "non-friend u3 swapped into S");

  GpssnAnswer perturbed_up = hand;
  perturbed_up.max_dist = 1.5 * (1.0 + 1e-6);
  ExpectRejected(checker.Check(query, perturbed_up), "max_dist perturbed up");
  GpssnAnswer perturbed_down = hand;
  perturbed_down.max_dist = 1.5 * (1.0 - 1e-6);
  ExpectRejected(checker.Check(query, perturbed_down),
                 "max_dist perturbed down");

  const GpssnAnswer not_found;
  ExpectRejected(perfbench::AnswerChecker::SameObjective(not_found, hand),
                 "not found claimed where an answer exists");
  ExpectRejected(perfbench::AnswerChecker::Identical(other_center, hand),
                 "byte comparison sees a different center");

  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
