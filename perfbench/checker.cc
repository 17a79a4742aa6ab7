#include "checker.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <queue>
#include <tuple>
#include <utility>

namespace perfbench {

using gpssn::EdgePosition;
using gpssn::GpssnAnswer;
using gpssn::GpssnQuery;
using gpssn::kInfDistance;
using gpssn::KeywordId;
using gpssn::PoiId;
using gpssn::UserId;
using gpssn::VertexId;

namespace {

constexpr double kRelTol = 1e-9;
// Scores are sums of products in [0, 1]; a violation smaller than this is
// summation-order noise, not a wrong answer.
constexpr double kScoreTol = 1e-12;

bool Close(double a, double b) {
  return std::abs(a - b) <= kRelTol * std::max(1.0, std::abs(b));
}

std::string Fmt(const char* what, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s (%.17g vs %.17g)", what, a, b);
  return buf;
}

// Eq. 1: Σ_f w_f(a) · w_f(b).
double OwnInterestScore(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (size_t f = 0; f < a.size(); ++f) s += a[f] * b[f];
  return s;
}

}  // namespace

AnswerChecker::AnswerChecker(const gpssn::SpatialSocialNetwork* ssn)
    : ssn_(ssn) {}

void AnswerChecker::Prepare(const EdgePosition& source) {
  const gpssn::RoadNetwork& road = ssn_->road();
  if (dist_.size() != static_cast<size_t>(road.num_vertices())) {
    dist_.assign(road.num_vertices(), kInfDistance);
    stamp_.assign(road.num_vertices(), 0);
    generation_ = 0;
    heuristic_scale_ = kInfDistance;
    for (gpssn::EdgeId e = 0; e < road.num_edges(); ++e) {
      const double length = gpssn::EuclideanDistance(road.vertex_point(road.edge_u(e)),
                                            road.vertex_point(road.edge_v(e)));
      if (length > 0.0) {
        heuristic_scale_ =
            std::min(heuristic_scale_, road.edge_weight(e) / length);
      }
    }
    // Slack against rounding; 0 (plain Dijkstra) for degenerate graphs.
    heuristic_scale_ = std::isfinite(heuristic_scale_)
                           ? std::max(0.0, heuristic_scale_ * (1.0 - 1e-9))
                           : 0.0;
  }
  ++generation_;  // Settled marks of the previous run expire.
  source_ = source;
}

void AnswerChecker::Run(const EdgePosition& source, double bound) {
  Prepare(source);
  const gpssn::RoadNetwork& road = ssn_->road();
  using Item = std::pair<double, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  const VertexId a = road.edge_u(source.edge);
  const VertexId b = road.edge_v(source.edge);
  const double w = road.edge_weight(source.edge);
  heap.emplace(source.t * w, a);
  heap.emplace((1.0 - source.t) * w, b);
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d > bound) break;
    if (stamp_[v] == generation_) continue;
    stamp_[v] = generation_;
    dist_[v] = d;
    for (const gpssn::RoadArc& arc : road.Neighbors(v)) {
      if (stamp_[arc.to] != generation_) heap.emplace(d + arc.weight, arc.to);
    }
  }
}

void AnswerChecker::RunToward(const EdgePosition& source,
                              const std::vector<EdgePosition>& targets) {
  Prepare(source);
  const gpssn::RoadNetwork& road = ssn_->road();
  std::vector<gpssn::Point> goals;
  std::vector<VertexId> pending;
  for (const EdgePosition& t : targets) {
    goals.push_back(road.PositionPoint(t));
    pending.push_back(road.edge_u(t.edge));
    pending.push_back(road.edge_v(t.edge));
  }
  std::sort(pending.begin(), pending.end());
  pending.erase(std::unique(pending.begin(), pending.end()), pending.end());
  auto h = [&](VertexId v) {
    double best = kInfDistance;
    for (const gpssn::Point& g : goals) {
      best = std::min(best, gpssn::EuclideanDistance(road.vertex_point(v), g));
    }
    return heuristic_scale_ * best;
  };
  // Heap items carry (g + h, g, vertex); with a consistent heuristic a
  // vertex's g is exact when it is popped.
  using Item = std::tuple<double, double, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  const VertexId a = road.edge_u(source.edge);
  const VertexId b = road.edge_v(source.edge);
  const double w = road.edge_weight(source.edge);
  heap.emplace(source.t * w + h(a), source.t * w, a);
  heap.emplace((1.0 - source.t) * w + h(b), (1.0 - source.t) * w, b);
  size_t remaining = pending.size();
  while (!heap.empty() && remaining > 0) {
    const auto [f, d, v] = heap.top();
    heap.pop();
    if (stamp_[v] == generation_) continue;
    stamp_[v] = generation_;
    dist_[v] = d;
    if (std::binary_search(pending.begin(), pending.end(), v)) --remaining;
    for (const gpssn::RoadArc& arc : road.Neighbors(v)) {
      if (stamp_[arc.to] != generation_) {
        heap.emplace(d + arc.weight + h(arc.to), d + arc.weight, arc.to);
      }
    }
  }
}

double AnswerChecker::DistanceTo(const EdgePosition& target) const {
  const gpssn::RoadNetwork& road = ssn_->road();
  const VertexId a = road.edge_u(target.edge);
  const VertexId b = road.edge_v(target.edge);
  const double w = road.edge_weight(target.edge);
  double d = kInfDistance;
  if (stamp_[a] == generation_) d = std::min(d, dist_[a] + target.t * w);
  if (stamp_[b] == generation_) d = std::min(d, dist_[b] + (1.0 - target.t) * w);
  if (target.edge == source_.edge) {
    d = std::min(d, std::abs(target.t - source_.t) * w);
  }
  return d;
}

std::string AnswerChecker::Check(const GpssnQuery& query,
                                 const GpssnAnswer& answer) {
  if (!answer.found) return "";
  if (query.metric != gpssn::InterestMetric::kDotProduct) {
    return "checker supports the dot-product interest metric only";
  }
  const gpssn::SocialNetwork& social = ssn_->social();
  const std::vector<UserId>& s = answer.users;

  // |S| = τ, sorted, unique, valid, issuer included.
  if (static_cast<int>(s.size()) != query.tau) return "|S| != tau";
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] < 0 || s[i] >= social.num_users()) return "user id out of range";
    if (i > 0 && s[i - 1] >= s[i]) return "S not sorted and unique";
  }
  if (!std::binary_search(s.begin(), s.end(), query.issuer)) {
    return "issuer not in S";
  }

  // Connectivity: BFS from the issuer inside S.
  std::vector<bool> reached(s.size(), false);
  std::vector<size_t> frontier = {static_cast<size_t>(
      std::lower_bound(s.begin(), s.end(), query.issuer) - s.begin())};
  reached[frontier[0]] = true;
  size_t num_reached = 1;
  while (!frontier.empty()) {
    const size_t i = frontier.back();
    frontier.pop_back();
    for (UserId f : social.Friends(s[i])) {
      const auto it = std::lower_bound(s.begin(), s.end(), f);
      if (it == s.end() || *it != f) continue;
      const size_t j = static_cast<size_t>(it - s.begin());
      if (!reached[j]) {
        reached[j] = true;
        ++num_reached;
        frontier.push_back(j);
      }
    }
  }
  if (num_reached != s.size()) return "S is not connected";

  // Pairwise Interest_Score >= γ.
  for (size_t i = 0; i < s.size(); ++i) {
    for (size_t j = i + 1; j < s.size(); ++j) {
      const double score =
          OwnInterestScore(social.Interests(s[i]), social.Interests(s[j]));
      if (score < query.gamma - kScoreTol) {
        return Fmt("pair interest score below gamma", score, query.gamma);
      }
    }
  }

  // R = B(center, r) over the current POI set.
  const std::vector<PoiId>& r = answer.pois;
  for (size_t i = 0; i < r.size(); ++i) {
    if (r[i] < 0 || r[i] >= ssn_->num_pois()) return "POI id out of range";
    if (i > 0 && r[i - 1] >= r[i]) return "R not sorted and unique";
  }
  if (answer.center < 0 || answer.center >= ssn_->num_pois()) {
    return "center out of range";
  }
  const double radius = query.radius;
  Run(ssn_->poi(answer.center).position, radius * (1.0 + kRelTol) + 1e-12);
  for (PoiId o = 0; o < ssn_->num_pois(); ++o) {
    const double d = DistanceTo(ssn_->poi(o).position);
    const bool in_r = std::binary_search(r.begin(), r.end(), o);
    if (in_r && d > radius * (1.0 + kRelTol)) {
      return Fmt("POI in R lies outside the ball", d, radius);
    }
    if (!in_r && d <= radius * (1.0 - kRelTol)) {
      return Fmt("ball POI missing from R", d, radius);
    }
  }

  // Match_Score(u, R) >= θ for every member (Eq. 2 over the keyword union).
  std::vector<KeywordId> keywords;
  for (PoiId o : r) {
    const auto& k = ssn_->poi(o).keywords;
    keywords.insert(keywords.end(), k.begin(), k.end());
  }
  std::sort(keywords.begin(), keywords.end());
  keywords.erase(std::unique(keywords.begin(), keywords.end()),
                 keywords.end());
  for (UserId u : s) {
    const auto w = social.Interests(u);
    double match = 0.0;
    for (KeywordId f : keywords) match += w[f];
    if (match < query.theta - kScoreTol) {
      return Fmt("member match score below theta", match, query.theta);
    }
  }

  // max_dist = max over S × R of dist_RN.
  if (!(answer.max_dist >= 0.0) || !std::isfinite(answer.max_dist)) {
    return "max_dist not a finite non-negative number";
  }
  std::vector<EdgePosition> targets;
  for (PoiId o : r) targets.push_back(ssn_->poi(o).position);
  double worst = 0.0;
  for (UserId u : s) {
    RunToward(ssn_->user_home(u), targets);
    for (PoiId o : r) {
      worst = std::max(worst, DistanceTo(ssn_->poi(o).position));
    }
  }
  if (!Close(answer.max_dist, worst)) {
    return Fmt("max_dist differs from the recomputed maximum",
               answer.max_dist, worst);
  }
  return "";
}

std::string AnswerChecker::SameObjective(const GpssnAnswer& got,
                                         const GpssnAnswer& reference) {
  if (got.found != reference.found) {
    return reference.found ? "answer not found but one exists"
                           : "answer found where none exists";
  }
  if (got.found && !Close(got.max_dist, reference.max_dist)) {
    return Fmt("objective differs from the exhaustive optimum", got.max_dist,
               reference.max_dist);
  }
  return "";
}

std::string AnswerChecker::Identical(const GpssnAnswer& a,
                                     const GpssnAnswer& b) {
  if (a.found != b.found) return "found differs";
  if (!a.found) return "";
  if (a.users != b.users) return "users differ";
  if (a.center != b.center) return "center differs";
  if (a.pois != b.pois) return "POI set differs";
  if (std::memcmp(&a.max_dist, &b.max_dist, sizeof(double)) != 0) {
    return Fmt("max_dist differs", a.max_dist, b.max_dist);
  }
  return "";
}

}  // namespace perfbench
