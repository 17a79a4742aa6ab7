#include "roadnet/distance_backend.h"

#include <algorithm>
#include <cstdint>

#include "common/macros.h"
#include "roadnet/ch_range.h"
#include "roadnet/index_io.h"

namespace gpssn {

namespace {

// ---------------------------------------------------------------- Dijkstra

/// Reference engine: bounded Dijkstra + PoiLocator. SourceToTargets is one
/// bounded run from the source that stops once every target's edge
/// endpoints are settled, followed by per-target label reads. Settled
/// labels are final, so the values equal those of the seed query path's
/// full bounded run bit for bit.
class DijkstraDistanceEngine final : public DistanceEngine {
 public:
  DijkstraDistanceEngine(const RoadNetwork* graph,
                         const std::vector<Poi>* pois)
      : graph_(graph), engine_(graph), locator_(graph, pois) {}

  DistanceBackendKind kind() const override {
    return DistanceBackendKind::kDijkstra;
  }
  const char* name() const override { return "dijkstra"; }

  double PositionToPosition(const EdgePosition& a, const EdgePosition& b,
                            double bound) override {
    return engine_.PositionToPosition(a, b, bound);
  }

  std::vector<std::pair<PoiId, double>> BallWithDistances(
      const EdgePosition& center, double radius) override {
    return locator_.BallWithDistances(center, radius, &engine_);
  }

  void SetTargets(std::span<const EdgePosition> targets) override {
    targets_.assign(targets.begin(), targets.end());
  }

  size_t num_targets() const override { return targets_.size(); }

  using DistanceEngine::SourceToTargets;
  void SourceToTargets(const EdgePosition& source, double bound, double* out,
                       size_t first) override {
    if (first >= targets_.size()) return;
    CollectEndpoints(first);
    engine_.RunWithTargets(Seeds(source), bound, endpoints_);
    ReadRow(engine_, source, bound, out, first);
  }

  void ResumableSourceToTargets(const EdgePosition& source, double bound,
                                double* out, size_t first) override {
    if (first >= targets_.size()) return;
    // A second arena, allocated on first use, keeps the pinned search
    // alive while other sources run on engine_.
    if (pinned_ == nullptr) pinned_ = std::make_unique<DijkstraEngine>(graph_);
    CollectEndpoints(first);
    const bool same = pinned_valid_ && pinned_source_.edge == source.edge &&
                      pinned_source_.t == source.t && pinned_bound_ == bound;
    if (same) {
      pinned_->ResumeWithTargets(bound, endpoints_);
    } else {
      pinned_->RunWithTargets(Seeds(source), bound, endpoints_);
      pinned_source_ = source;
      pinned_bound_ = bound;
      pinned_valid_ = true;
    }
    ReadRow(*pinned_, source, bound, out, first);
  }

 private:
  std::vector<std::pair<VertexId, double>> Seeds(
      const EdgePosition& source) const {
    const VertexId u = graph_->edge_u(source.edge);
    const VertexId v = graph_->edge_v(source.edge);
    return {{u, graph_->OffsetTo(source, u)}, {v, graph_->OffsetTo(source, v)}};
  }

  void CollectEndpoints(size_t first) {
    endpoints_.clear();
    for (size_t i = first; i < targets_.size(); ++i) {
      endpoints_.push_back(graph_->edge_u(targets_[i].edge));
      endpoints_.push_back(graph_->edge_v(targets_[i].edge));
    }
  }

  void ReadRow(const DijkstraEngine& run, const EdgePosition& source,
               double bound, double* out, size_t first) const {
    for (size_t i = first; i < targets_.size(); ++i) {
      double d = run.DistanceToPosition(targets_[i]);
      d = std::min(d, SameEdgeDistance(*graph_, source, targets_[i]));
      out[i] = d <= bound ? d : kInfDistance;
    }
  }

  const RoadNetwork* graph_;
  DijkstraEngine engine_;
  PoiLocator locator_;
  std::vector<EdgePosition> targets_;
  std::vector<VertexId> endpoints_;  // Edge endpoints of the targets read.
  std::unique_ptr<DijkstraEngine> pinned_;  // The resumable search.
  EdgePosition pinned_source_;
  double pinned_bound_ = 0.0;
  bool pinned_valid_ = false;
};

class DijkstraBackend final : public DistanceBackend {
 public:
  DijkstraBackend(const RoadNetwork* graph, const std::vector<Poi>* pois)
      : graph_(graph), pois_(pois) {
    GPSSN_CHECK(graph != nullptr && pois != nullptr);
  }

  DistanceBackendKind kind() const override {
    return DistanceBackendKind::kDijkstra;
  }
  const char* name() const override { return "dijkstra"; }

  std::unique_ptr<DistanceEngine> CreateEngine() const override {
    return std::make_unique<DijkstraDistanceEngine>(graph_, pois_);
  }

 private:
  const RoadNetwork* graph_;
  const std::vector<Poi>* pois_;
};

// -------------------------------------------------------------- CH buckets

/// CH bucket many-to-many engine. SetTargets runs one upward Dijkstra per
/// target (seeding both endpoints of its edge) and records (target, dist)
/// pairs in a bucket at every settled vertex. SourceToTargets then runs a
/// single upward search from the source and, at each settled vertex v,
/// combines its label with v's bucket entries: because the hierarchy
/// preserves shortest paths, min over meeting vertices of
/// d_up(source, v) + d_up(target, v) is the exact road distance (the same
/// invariant ChQuery relies on — one forward frontier now amortizes over
/// ALL targets instead of paying one bidirectional query each).
class ChDistanceEngine final : public DistanceEngine {
 public:
  ChDistanceEngine(const ContractionHierarchy* ch,
                   const std::vector<Poi>* pois,
                   const ChBallIndex* ball_index)
      : ch_(ch),
        pois_(pois),
        graph_(&ch->graph()),
        dijkstra_(graph_),
        locator_(graph_, pois),
        p2p_(ch) {
    const int n = graph_->num_vertices();
    dist_.resize(n, kInfDistance);
    stamp_.resize(n, 0);
    buckets_.resize(n);
    if (ball_index != nullptr) {
      range_ = std::make_unique<ChRangeEngine>(ball_index);
      range_max_radius_ = ball_index->max_radius();
    }
  }

  DistanceBackendKind kind() const override {
    return DistanceBackendKind::kContractionHierarchy;
  }
  const char* name() const override { return "ch-bucket"; }

  double PositionToPosition(const EdgePosition& a, const EdgePosition& b,
                            double bound) override {
    const double d = p2p_.PositionToPosition(a, b);
    return d <= bound ? d : kInfDistance;
  }

  std::vector<std::pair<PoiId, double>> BallWithDistances(
      const EdgePosition& center, double radius) override {
    if (BallUsesRangeEngine(radius)) {
      return range_->BallWithDistances(center, radius, locator_, *pois_);
    }
    // No index (or radius beyond its bound): the reference bounded search.
    return locator_.BallWithDistances(center, radius, &dijkstra_);
  }

  bool BallUsesRangeEngine(double radius) const override {
    return range_ != nullptr && radius <= range_max_radius_;
  }

  void SetTargets(std::span<const EdgePosition> targets) override {
    size_t keep = targets_.size();
    if (keep > targets.size()) keep = 0;
    for (size_t j = 0; j < keep; ++j) {
      if (targets_[j].edge != targets[j].edge ||
          targets_[j].t != targets[j].t) {
        keep = 0;
        break;
      }
    }
    if (keep == 0) {  // Not an append: clear the previous buckets.
      for (VertexId v : bucketed_) buckets_[v].clear();
      bucketed_.clear();
    }
    targets_.assign(targets.begin(), targets.end());
    for (size_t j = keep; j < targets_.size(); ++j) {
      const EdgePosition& t = targets_[j];
      const VertexId u = graph_->edge_u(t.edge);
      const VertexId v = graph_->edge_v(t.edge);
      UpwardSearch({{u, graph_->OffsetTo(t, u)}, {v, graph_->OffsetTo(t, v)}},
                   kInfDistance, [&](VertexId w, double d) {
                     if (buckets_[w].empty()) bucketed_.push_back(w);
                     buckets_[w].emplace_back(static_cast<int32_t>(j), d);
                   });
    }
  }

  size_t num_targets() const override { return targets_.size(); }

  using DistanceEngine::SourceToTargets;
  void SourceToTargets(const EdgePosition& source, double bound, double* out,
                       size_t first) override {
    if (first >= targets_.size()) return;
    // Same-edge shortcut: a path between positions on one edge need not
    // pass either endpoint.
    for (size_t j = first; j < targets_.size(); ++j) {
      out[j] = SameEdgeDistance(*graph_, source, targets_[j]);
    }
    const VertexId u = graph_->edge_u(source.edge);
    const VertexId v = graph_->edge_v(source.edge);
    const auto lo = static_cast<int32_t>(first);
    // Forward labels above `bound` cannot open a candidate <= bound
    // (bucket distances are nonnegative), so the search prunes at it.
    // Buckets hold entries in target order, so a row extension skips the
    // prefix of each bucket it already covered.
    UpwardSearch(
        {{u, graph_->OffsetTo(source, u)}, {v, graph_->OffsetTo(source, v)}},
        bound, [&](VertexId w, double d) {
          const auto& bucket = buckets_[w];
          auto it = bucket.begin();
          if (lo > 0) {
            it = std::lower_bound(
                bucket.begin(), bucket.end(), lo,
                [](const std::pair<int32_t, double>& e, int32_t j) {
                  return e.first < j;
                });
          }
          for (; it != bucket.end(); ++it) {
            const double cand = d + it->second;
            if (cand < out[it->first]) out[it->first] = cand;
          }
        });
    for (size_t j = first; j < targets_.size(); ++j) {
      if (out[j] > bound) out[j] = kInfDistance;
    }
  }

 private:
  /// Dijkstra over the upward graph from `seeds`, invoking `on_settled`
  /// with every vertex's final upward label. Labels above `bound` are
  /// neither settled nor relaxed.
  template <typename Fn>
  void UpwardSearch(std::initializer_list<std::pair<VertexId, double>> seeds,
                    double bound, Fn&& on_settled) {
    ++generation_;
    if (generation_ == 0) {  // Stamp wrap-around: hard reset.
      std::fill(stamp_.begin(), stamp_.end(), 0);
      generation_ = 1;
    }
    heap_.clear();
    auto greater = [](const std::pair<double, VertexId>& a,
                      const std::pair<double, VertexId>& b) {
      return a.first > b.first;
    };
    auto relax = [&](VertexId w, double d) {
      if (d > bound) return;
      if (stamp_[w] == generation_ && dist_[w] <= d) return;
      dist_[w] = d;
      stamp_[w] = generation_;
      heap_.emplace_back(d, w);
      std::push_heap(heap_.begin(), heap_.end(), greater);
    };
    for (const auto& [w, d] : seeds) relax(w, d);
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), greater);
      const auto [d, w] = heap_.back();
      heap_.pop_back();
      if (stamp_[w] != generation_ || d > dist_[w]) continue;  // Stale.
      on_settled(w, d);
      for (const auto& arc : ch_->up(w)) relax(arc.to, d + arc.weight);
    }
  }

  const ContractionHierarchy* ch_;
  const std::vector<Poi>* pois_;
  const RoadNetwork* graph_;
  DijkstraEngine dijkstra_;  // Fallback radius-bounded ball queries.
  PoiLocator locator_;
  ChQuery p2p_;
  std::unique_ptr<ChRangeEngine> range_;  // Ball queries via the CH index.
  double range_max_radius_ = 0.0;

  // Upward-search arena (shared by target and source searches).
  std::vector<double> dist_;
  std::vector<uint32_t> stamp_;
  uint32_t generation_ = 0;
  std::vector<std::pair<double, VertexId>> heap_;

  // Target buckets: per-vertex (target index, backward upward distance).
  std::vector<EdgePosition> targets_;
  std::vector<std::vector<std::pair<int32_t, double>>> buckets_;
  std::vector<VertexId> bucketed_;  // Vertices with non-empty buckets.
};

class ChBackend final : public DistanceBackend {
 public:
  ChBackend(const RoadNetwork* graph, const std::vector<Poi>* pois,
            const ChOptions& options, const std::string& index_path) {
    GPSSN_CHECK(graph != nullptr && pois != nullptr);
    pois_ = pois;
    // Load path: a saved index is only trusted when it checksums clean AND
    // was built from this exact graph.
    if (!index_path.empty()) {
      Result<RoadIndexBundle> loaded = LoadRoadIndex(index_path);
      if (loaded.ok() &&
          RoadNetworkFingerprint(*loaded.value().graph) ==
              RoadNetworkFingerprint(*graph)) {
        bundle_ = std::move(loaded.value());
        ch_ = bundle_.ch;
        loaded_from_disk_ = true;
      }
    }
    if (ch_ == nullptr) {
      auto built = std::make_shared<ContractionHierarchy>(options);
      built->Build(graph);
      if (!index_path.empty()) {
        // Best effort: a failed save just means the next start rebuilds.
        SaveRoadIndex(*graph, *built, index_path).ok();
      }
      ch_ = std::move(built);
    }
    if (options.build_ball_index) {
      ball_index_ = std::make_unique<ChBallIndex>(
          ch_.get(), pois, options.ball_index_max_radius, options.scheduler,
          options.build_max_lanes);
    }
  }

  DistanceBackendKind kind() const override {
    return DistanceBackendKind::kContractionHierarchy;
  }
  const char* name() const override { return "ch-bucket"; }

  std::unique_ptr<DistanceEngine> CreateEngine() const override {
    return std::make_unique<ChDistanceEngine>(ch_.get(), pois_,
                                              ball_index_.get());
  }

  void NotifyPoisMutated() override {
    if (ball_index_ != nullptr) ball_index_->AppendNewPois();
    DistanceBackend::NotifyPoisMutated();
  }

  bool loaded_from_disk() const override { return loaded_from_disk_; }

 private:
  const std::vector<Poi>* pois_ = nullptr;
  RoadIndexBundle bundle_;  // Keeps a loaded mapping (and graph) alive.
  std::shared_ptr<const ContractionHierarchy> ch_;
  std::unique_ptr<ChBallIndex> ball_index_;
  bool loaded_from_disk_ = false;
};

}  // namespace

std::unique_ptr<DistanceBackend> MakeDijkstraBackend(
    const RoadNetwork* graph, const std::vector<Poi>* pois) {
  return std::make_unique<DijkstraBackend>(graph, pois);
}

std::unique_ptr<DistanceBackend> MakeChBackend(const RoadNetwork* graph,
                                               const std::vector<Poi>* pois,
                                               const ChOptions& options,
                                               const std::string& index_path) {
  return std::make_unique<ChBackend>(graph, pois, options, index_path);
}

}  // namespace gpssn
