// Copyright 2026 The gpssn Authors.
//
// The GP-SSN query answering algorithm (Algorithm 2): a level-synchronized
// descent of the social index I_S interleaved with a best-first (min-heap)
// traversal of the POI index I_R, followed by refinement of the surviving
// candidate user/POI sets. Returns the pair (S, R) minimizing
// maxdist_RN(S, R) subject to every predicate of Definition 5.
//
// Exactness: every pruning rule except the δ-based road-distance cut is
// individually safe. The δ cut (line 14 of Algorithm 2) is safe whenever
// the δ-defining candidate admits a feasible group; the processor verifies
// this a posteriori (best found objective <= final δ) and transparently
// re-executes with the cut disabled in the rare case the check fails, so
// answers are always exact (unless a refinement cap was hit, which is
// reported via QueryStats::truncated).

#ifndef GPSSN_CORE_QUERY_H_
#define GPSSN_CORE_QUERY_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "core/audit.h"
#include "core/options.h"
#include "core/social_scratch.h"
#include "core/stats.h"
#include "index/poi_index.h"
#include "index/social_index.h"
#include "roadnet/distance_backend.h"
#include "roadnet/shortest_path.h"
#include "socialnet/bfs.h"

namespace gpssn {

// Per-lane persistent state of the intra-query parallel refinement
// (defined in query.cc): a private distance engine plus stamped row/memo
// caches, reused across queries so lane setup is O(changed state).
struct IntraLane;
// Flat stamped refinement scratch (core/refine_frontier.h), reused across
// queries.
struct RefineScratch;

/// A GP-SSN answer: the user group S, the ball center o_i, and the POI set
/// R = B(o_i, r).
struct GpssnAnswer {
  bool found = false;
  std::vector<UserId> users;  // S, sorted, contains the issuer.
  PoiId center = kInvalidPoi;
  std::vector<PoiId> pois;    // R, sorted.
  double max_dist = kInfDistance;  // maxdist_RN(S, R), the objective.
};

/// Which index subtrees a serving shard owns: the shard's candidate scope
/// is the union of users under `social_roots` (I_S partition-tree nodes)
/// and POIs under `road_roots` (I_R R*-tree nodes). An empty scope is a
/// valid (idle) shard. Subtree lists are in left-to-right tree order.
struct ShardScope {
  std::vector<SNodeId> social_roots;
  std::vector<RNodeId> road_roots;
};

/// Scatter-phase result of one shard: the candidate users/POIs surviving
/// the index prunes inside the shard's scope, plus a lower bound on any
/// objective achievable with a center in this shard (min over candidate
/// POIs of the issuer-side distance lower bound, Lemma 5 lifted to shard
/// granularity). kInfDistance when the shard holds no candidate center.
struct ShardCandidates {
  /// Users in I_S leaf-traversal (left-to-right) order — the same relative
  /// order Execute() discovers them in, so concatenating the shards'
  /// lists in partition order reproduces the single-node candidate order
  /// (which group enumeration, and therefore tie-breaking, depends on).
  std::vector<UserId> users;
  std::vector<PoiId> pois;  // Sorted ascending (order is refinement-free).
  double lower_bound = kInfDistance;
};

/// Refine-phase result of one shard: the best feasible answer over the
/// shard's candidate centers with objective <= the incumbent, plus its
/// DISCOVERY RANK — the position the single-node serial loop would have
/// found it at: centers are visited in ascending (exact issuer-side
/// objective contribution `center_worst`, center id) order, groups in
/// ascending index order within a center, and the first-encountered
/// minimum wins. Comparing shard answers by the lex key
/// (max_dist, center_worst, center id, group_index) therefore reproduces
/// the single-node winner exactly, shard count notwithstanding.
struct ShardRefineResult {
  GpssnAnswer answer;
  double center_worst = kInfDistance;  // max_{o∈ball} dist(u_q, o).
  int64_t group_index = -1;            // Into the coordinator's group list.
};

/// Query processor bound to one pair of indexes. Owns reusable Dijkstra /
/// BFS arenas; not thread-safe (one processor per thread).
class GpssnProcessor {
 public:
  /// Both indexes must be built over the same SpatialSocialNetwork and
  /// must outlive the processor. In GPSSN_AUDIT builds the constructor
  /// additionally runs the structural validators of core/audit.h over both
  /// indexes (aborting with a node-level diagnostic on corruption) and
  /// installs a default sampling PruningAuditor used whenever
  /// QueryOptions::auditor is null.
  GpssnProcessor(const PoiIndex* poi_index, const SocialIndex* social_index);
  ~GpssnProcessor();

  /// Answers one GP-SSN query. On success `stats` (optional) carries CPU
  /// time, page I/Os, and pruning counters. Returns InvalidArgument for
  /// malformed queries (bad issuer, τ < 1, radius outside the index's
  /// [r_min, r_max] envelope), DeadlineExceeded when
  /// `options.deadline` fires mid-query, and Cancelled when
  /// `options.cancel` is raised (both polled cooperatively at descent-loop
  /// and refinement boundaries).
  Result<GpssnAnswer> Execute(const GpssnQuery& query,
                              const QueryOptions& options,
                              QueryStats* stats = nullptr);

  /// Top-k extension: the k best (S, R) pairs ordered by ascending
  /// maxdist_RN (fewer when fewer feasible pairs exist). For k > 1 the
  /// δ-based road-distance cut is disabled internally (it is only safe for
  /// the single optimum), so top-k queries trade some pruning for
  /// completeness.
  Result<std::vector<GpssnAnswer>> ExecuteTopK(const GpssnQuery& query, int k,
                                               const QueryOptions& options,
                                               QueryStats* stats = nullptr);

  /// Serving scatter phase: descends only the index subtrees in `scope`
  /// and returns the surviving candidate users/POIs plus the shard's
  /// objective lower bound. Runs the same node- and object-level prunes as
  /// Execute() except the δ road-distance cut, which is never applied here
  /// (δ is a global property; a shard-local δ would be unsound), so no
  /// a-posteriori re-execution is ever needed on the sharded path.
  /// Deadline/cancel are polled as in Execute().
  Result<ShardCandidates> GatherCandidates(const GpssnQuery& query,
                                           const QueryOptions& options,
                                           const ShardScope& scope,
                                           QueryStats* stats = nullptr);

  /// Serving refine phase: exact evaluation of the coordinator-supplied
  /// candidate `groups` (user lists satisfying the pairwise interest
  /// predicate, in enumeration order) against candidate centers `centers`,
  /// returning the discovery-order-first feasible answer with objective
  /// <= `incumbent` (kInfDistance for an unbounded search) plus its
  /// discovery rank (see ShardRefineResult). Mirrors Execute()'s serial
  /// refinement exactly — same arithmetic, same non-strict rejection
  /// against the running best — so per-pair objectives are bit-identical
  /// to the single-node run (rows are bound-tagged; values are
  /// bound-independent where finite). answer.found=false when no
  /// candidate has objective <= incumbent.
  Result<ShardRefineResult> RefineCandidates(
      const GpssnQuery& query, const QueryOptions& options,
      const std::vector<PoiId>& centers,
      const std::vector<std::vector<UserId>>& groups, double incumbent,
      QueryStats* stats = nullptr);

 private:
  /// `interrupted` (required) is set when the deadline/cancel hook fired
  /// and the traversal was abandoned; the partial result must be discarded.
  std::vector<GpssnAnswer> ExecuteImpl(const GpssnQuery& query,
                                       const QueryOptions& options, int top_k,
                                       QueryStats* stats, double* final_delta,
                                       bool* interrupted);

  /// Engine for `options.distance_backend` (the built-in Dijkstra engine
  /// when null). Plugged-backend engines are cached so repeated queries
  /// against the same backend reuse one set of arenas.
  DistanceEngine* EngineFor(const QueryOptions& options);

  /// Rebuilds the built-in engine (and, in GPSSN_AUDIT builds, the default
  /// auditor) when POIs were appended since they were built, so a
  /// processor — or a batch executor's worker — created before
  /// GpssnDatabase::AddPoi answers over the grown POI set.
  void SyncPoiCount();

  const PoiIndex* poi_index_;
  const SocialIndex* social_index_;
  BfsEngine bfs_;
  // Built-in backend: bounded Dijkstra over the indexes' road network
  // (bit-exact with the seed query path).
  std::unique_ptr<DistanceBackend> default_backend_;
  std::unique_ptr<DistanceEngine> default_engine_;
  int known_pois_ = 0;  // POI count the built-in engine was built over.
  // Engine created from the last non-null options.distance_backend, plus
  // the backend POI generation it was created under — the engine is
  // recreated when the backend reports a POI mutation, so cached arenas
  // (e.g. the CH ball index's locator) never serve a stale POI set.
  const DistanceBackend* plugged_source_ = nullptr;
  uint64_t plugged_generation_ = 0;
  std::unique_ptr<DistanceEngine> plugged_engine_;
  std::unique_ptr<RefineScratch> scratch_;
  // Per-query SoA social scratch (candidate interest matrix, adjacency
  // bitsets, pairwise-score memo); rebuilt only when
  // QueryOptions::vectorized_social_kernels is on and the candidate set
  // fits social_scratch_max_candidates.
  SocialScratch social_scratch_;
  // Lanes of the intra-query parallel refinement, lane 0 = the caller.
  // Grown on demand, reused across queries.
  std::vector<std::unique_ptr<IntraLane>> intra_lanes_;
  // Non-null only in GPSSN_AUDIT builds: the default pruning-soundness
  // auditor (abort-on-violation) used when the caller supplies none.
  std::unique_ptr<PruningAuditor> default_auditor_;
};

}  // namespace gpssn

#endif  // GPSSN_CORE_QUERY_H_
