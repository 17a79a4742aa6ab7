// Copyright 2026 The gpssn Authors.
//
// Answer checker for the benchmark, independent of the library's scoring
// and distance code: it has its own Dijkstra over the public RoadNetwork
// adjacency, its own BFS over SocialNetwork::Friends(), and its own Eq. 1
// (Interest_Score) and Eq. 2 (Match_Score). It reads the network as it is
// when Check() is called, so answers must be checked before the next
// write changes it.
//
// For a found answer (S, R) of query q it verifies:
//   * |S| = τ, S sorted and duplicate-free, u_q ∈ S;
//   * S is connected in the social graph and every pair in S has
//     Interest_Score >= γ;
//   * every member has Match_Score(u, R) >= θ;
//   * R is exactly the ball B(center, r) over the current POI set
//     (POIs within a relative 1e-9 of the radius may go either way);
//   * max_dist equals max_{u∈S, o∈R} dist_RN(u, o) to a relative 1e-9.
// Optimality is not checked here: SameObjective() compares an answer with
// a reference (the exhaustive search), Identical() compares two answers
// byte for byte.

#ifndef GPSSN_PERFBENCH_CHECKER_H_
#define GPSSN_PERFBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/query.h"
#include "ssn/spatial_social_network.h"

namespace perfbench {

class AnswerChecker {
 public:
  /// `ssn` must outlive the checker.
  explicit AnswerChecker(const gpssn::SpatialSocialNetwork* ssn);

  /// Returns "" when `answer` is a feasible answer of `query` with the
  /// stated R and max_dist, else the first violation found. A not-found
  /// answer passes (only an exhaustive search can refute it).
  std::string Check(const gpssn::GpssnQuery& query,
                    const gpssn::GpssnAnswer& answer);

  /// "" when `got` and `reference` agree on found and, when found, on the
  /// objective to a relative 1e-9.
  static std::string SameObjective(const gpssn::GpssnAnswer& got,
                                   const gpssn::GpssnAnswer& reference);

  /// "" when the two answers are identical field by field (max_dist
  /// compared bit for bit).
  static std::string Identical(const gpssn::GpssnAnswer& a,
                               const gpssn::GpssnAnswer& b);

 private:
  // Dijkstra from an edge position, settling vertices while their
  // distance is <= bound. Results stay readable until the next run.
  void Run(const gpssn::EdgePosition& source, double bound);
  // Goal-directed search from an edge position that stops once every
  // endpoint of every target's edge is settled, so DistanceTo() is exact
  // for each target. The heuristic is the Euclidean distance to the
  // nearest target scaled by the smallest weight/length ratio of any edge,
  // a lower bound on the road distance whatever the edge weights are.
  void RunToward(const gpssn::EdgePosition& source,
                 const std::vector<gpssn::EdgePosition>& targets);
  void Prepare(const gpssn::EdgePosition& source);
  // Exact distance from the last run's source to `target` (kInfDistance
  // when neither endpoint of its edge was settled).
  double DistanceTo(const gpssn::EdgePosition& target) const;

  const gpssn::SpatialSocialNetwork* ssn_;
  gpssn::EdgePosition source_;
  std::vector<double> dist_;
  std::vector<uint32_t> stamp_;
  uint32_t generation_ = 0;
  double heuristic_scale_ = 0.0;
};

}  // namespace perfbench

#endif  // GPSSN_PERFBENCH_CHECKER_H_
