#include "core/query.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <queue>
#include <thread>
#include <tuple>

#include "common/macros.h"
#include "common/task_scheduler.h"
#include "common/timer.h"
#include "core/audit.h"
#include "core/pruning.h"
#include "core/refine_frontier.h"
#include "core/refinement.h"
#include "core/scores.h"
#include "roadnet/distance_cache.h"

namespace gpssn {

// One lane of the intra-query parallel refinement. Lane 0 is the calling
// thread (it reuses the processor's main distance engine); helper lanes own
// a private engine because engine arenas are not thread-safe. The row cache
// mirrors RefineScratch's stamped layout but is lane-private: during the
// parallel region the shared scratch is read-only (only rows computed
// BEFORE the fan-out — the issuer's — live there), so lanes never race on
// it. Every lane row spans the full target list, which is complete once
// the fan-out starts. Reused across queries; declared in query.h.
struct IntraLane {
  const DistanceBackend* source = nullptr;  // Backend `engine` came from.
  uint64_t source_generation = 0;  // Backend POI generation at creation.
  std::unique_ptr<DistanceEngine> engine;   // Null for lane 0.
  uint32_t generation = 0;
  std::vector<uint32_t> user_stamp;
  std::vector<int32_t> user_row;
  std::vector<double> rows;
  VisitMemo visit;  // Per claimed center: user pivot bounds and matches.
};

namespace {

// Min-heap entry of the I_R traversal: (key, node), key = lb of the
// maximum distance (Eq. 17).
using HeapEntry = std::pair<double, RNodeId>;
struct HeapGreater {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    return a.first > b.first;
  }
};
using RoadHeap =
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapGreater>;

}  // namespace

GpssnProcessor::GpssnProcessor(const PoiIndex* poi_index,
                               const SocialIndex* social_index)
    : poi_index_(poi_index),
      social_index_(social_index),
      bfs_(&poi_index->ssn().social()),
      default_backend_(MakeDijkstraBackend(&poi_index->ssn().road(),
                                           &poi_index->ssn().pois())),
      scratch_(std::make_unique<RefineScratch>()) {
  GPSSN_CHECK(poi_index != nullptr && social_index != nullptr);
  GPSSN_CHECK(&poi_index->ssn() == &social_index->ssn());
  known_pois_ = poi_index->ssn().num_pois();
  default_engine_ = default_backend_->CreateEngine();
#ifdef GPSSN_AUDIT
  // Audit builds: refuse to run queries over structurally corrupt indexes,
  // and default every query to the abort-on-violation soundness sampler.
  const AuditReport poi_report = AuditPoiIndex(*poi_index);
  if (!poi_report.ok()) {
    std::fprintf(stderr, "I_R audit failed:\n%s\n",
                 poi_report.ToString().c_str());
    std::abort();
  }
  const AuditReport social_report = AuditSocialIndex(*social_index);
  if (!social_report.ok()) {
    std::fprintf(stderr, "I_S audit failed:\n%s\n",
                 social_report.ToString().c_str());
    std::abort();
  }
  default_auditor_ =
      std::make_unique<PruningAuditor>(poi_index, social_index);
#endif
}

GpssnProcessor::~GpssnProcessor() = default;

void GpssnProcessor::SyncPoiCount() {
  const int num_pois = poi_index_->ssn().num_pois();
  if (num_pois == known_pois_) return;
  // POIs were appended (GpssnDatabase::AddPoi): the built-in engine's
  // locator, and the lane engines created from the built-in backend, were
  // built over the old set. Bumping the backend generation makes the
  // lanes recreate theirs.
  known_pois_ = num_pois;
  default_backend_->NotifyPoisMutated();
  default_engine_ = default_backend_->CreateEngine();
#ifdef GPSSN_AUDIT
  default_auditor_ =
      std::make_unique<PruningAuditor>(poi_index_, social_index_);
#endif
}

DistanceEngine* GpssnProcessor::EngineFor(const QueryOptions& options) {
  SyncPoiCount();
  if (options.distance_backend == nullptr) return default_engine_.get();
  const uint64_t generation = options.distance_backend->poi_generation();
  if (plugged_source_ != options.distance_backend ||
      plugged_generation_ != generation) {
    plugged_engine_ = options.distance_backend->CreateEngine();
    plugged_source_ = options.distance_backend;
    plugged_generation_ = generation;
  }
  return plugged_engine_.get();
}

Result<GpssnAnswer> GpssnProcessor::Execute(const GpssnQuery& query,
                                            const QueryOptions& options,
                                            QueryStats* stats) {
  const SpatialSocialNetwork& ssn = poi_index_->ssn();
  if (query.issuer < 0 || query.issuer >= ssn.num_users()) {
    return Status::InvalidArgument("query issuer out of range");
  }
  if (query.tau < 1 || query.tau > ssn.num_users()) {
    return Status::InvalidArgument("group size tau out of range");
  }
  if (query.gamma < 0.0 || query.theta < 0.0) {
    return Status::InvalidArgument("negative score threshold");
  }
  if (query.radius < poi_index_->options().r_min ||
      query.radius > poi_index_->options().r_max) {
    return Status::InvalidArgument(
        "radius outside the index's [r_min, r_max] envelope");
  }

  QueryStats local;
  QueryStats* out = stats != nullptr ? stats : &local;
  *out = QueryStats();
  WallTimer timer;

  // Distinguishes the two cooperative-interruption causes once ExecuteImpl
  // reports one (external cancel wins: it implies the caller no longer
  // wants the answer regardless of the deadline).
  auto interrupted_status = [&options]() {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {  // gpssn-lint: relaxed(cooperative cancel flag; latency not ordering)
      return Status::Cancelled("query cancelled");
    }
    return Status::DeadlineExceeded("query deadline exceeded");
  };

  double final_delta = kInfDistance;
  bool interrupted = false;
  std::vector<GpssnAnswer> top =
      ExecuteImpl(query, options, /*top_k=*/1, out, &final_delta, &interrupted);
  if (interrupted) {
    out->cpu_seconds = timer.ElapsedSeconds();
    return interrupted_status();
  }
  GpssnAnswer answer = top.empty() ? GpssnAnswer() : std::move(top.front());

  // δ-cut exactness check (see the header comment): if the best found
  // objective exceeds the final δ — or nothing was found although the cut
  // pruned candidates — re-run without the cut.
  const bool delta_was_used =
      options.pruning.road_distance &&
      (out->road_nodes_pruned_distance > 0 || out->pois_pruned_distance > 0);
  if (delta_was_used &&
      (!answer.found || answer.max_dist > final_delta + 1e-12)) {
    QueryOptions relaxed = options;
    relaxed.pruning.road_distance = false;
    QueryStats rerun_stats;
    double unused = kInfDistance;
    std::vector<GpssnAnswer> rerun = ExecuteImpl(
        query, relaxed, /*top_k=*/1, &rerun_stats, &unused, &interrupted);
    if (interrupted) {
      out->cpu_seconds = timer.ElapsedSeconds();
      return interrupted_status();
    }
    GpssnAnswer exact = rerun.empty() ? GpssnAnswer() : std::move(rerun.front());
    // Keep the first run's pruning counters (they describe the indexed
    // fast path) but charge the extra I/O and refinement work.
    out->io.logical_accesses += rerun_stats.io.logical_accesses;
    out->io.page_misses += rerun_stats.io.page_misses;
    out->pairs_examined += rerun_stats.pairs_examined;
    out->exact_distance_evals += rerun_stats.exact_distance_evals;
    out->truncated = out->truncated || rerun_stats.truncated;
    out->descent_seconds += rerun_stats.descent_seconds;
    out->ball_seconds += rerun_stats.ball_seconds;
    out->refine_seconds += rerun_stats.refine_seconds;
    out->exact_dist_seconds += rerun_stats.exact_dist_seconds;
    out->dist_cache_row_hits += rerun_stats.dist_cache_row_hits;
    out->dist_cache_row_misses += rerun_stats.dist_cache_row_misses;
    // Non-strict: on an exact objective tie the rerun's answer wins — it is
    // the discovery-order winner over the FULL (δ-free) candidate set, the
    // same set the sharded serving path evaluates, keeping the two paths'
    // answers identical in the (measure-zero) tie-at-fallback case.
    if (exact.found &&
        (!answer.found || exact.max_dist <= answer.max_dist)) {
      answer = std::move(exact);
    }
  }

  out->cpu_seconds = timer.ElapsedSeconds();
  return answer;
}

Result<std::vector<GpssnAnswer>> GpssnProcessor::ExecuteTopK(
    const GpssnQuery& query, int k, const QueryOptions& options,
    QueryStats* stats) {
  if (k < 1) return Status::InvalidArgument("top-k requires k >= 1");
  if (k == 1) {
    GPSSN_ASSIGN_OR_RETURN(GpssnAnswer answer,
                           Execute(query, options, stats));
    std::vector<GpssnAnswer> out;
    if (answer.found) out.push_back(std::move(answer));
    return out;
  }
  // Validate through the single-answer path's checks by reusing Execute's
  // precondition tests.
  const SpatialSocialNetwork& ssn = poi_index_->ssn();
  if (query.issuer < 0 || query.issuer >= ssn.num_users() || query.tau < 1 ||
      query.gamma < 0.0 || query.theta < 0.0 ||
      query.radius < poi_index_->options().r_min ||
      query.radius > poi_index_->options().r_max) {
    return Status::InvalidArgument("malformed GP-SSN query");
  }
  QueryStats local;
  QueryStats* out = stats != nullptr ? stats : &local;
  *out = QueryStats();
  WallTimer timer;
  // The δ cut is only safe for the single optimum; disable it for k > 1.
  QueryOptions relaxed = options;
  relaxed.pruning.road_distance = false;
  double unused = kInfDistance;
  bool interrupted = false;
  std::vector<GpssnAnswer> results =
      ExecuteImpl(query, relaxed, k, out, &unused, &interrupted);
  out->cpu_seconds = timer.ElapsedSeconds();
  if (interrupted) {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {  // gpssn-lint: relaxed(cooperative cancel flag; latency not ordering)
      return Status::Cancelled("query cancelled");
    }
    return Status::DeadlineExceeded("query deadline exceeded");
  }
  return results;
}

std::vector<GpssnAnswer> GpssnProcessor::ExecuteImpl(const GpssnQuery& query,
                                                     const QueryOptions& options,
                                                     int top_k,
                                                     QueryStats* stats,
                                                     double* final_delta,
                                                     bool* interrupted) {
  // Cooperative interruption (deadline / external cancel). Polled at every
  // loop boundary below; `aborted` lets the nested traversal lambdas
  // unwind without partial-answer leakage. The longest unpolled stretch is
  // one bounded search inside CenterRefiner::Row, which bounds the latency
  // overshoot past a deadline.
  *interrupted = false;
  bool aborted = false;
  if (QueryInterrupted(options)) {
    *interrupted = true;
    return {};
  }

  const SpatialSocialNetwork& ssn = poi_index_->ssn();
  const SocialNetwork& social = ssn.social();
  const PruningFlags& flags = options.pruning;
  BufferPool pool(options.buffer_pool_pages);
  QueryUserContext ctx(query, *social_index_);
  DistanceEngine& dist_engine = *EngineFor(options);
  WallTimer descent_timer;

  // Pruning-soundness auditor (core/audit.h): caller-supplied, or the
  // processor default in GPSSN_AUDIT builds, or null (one pointer test per
  // prune event — negligible).
  PruningAuditor* auditor =
      options.auditor != nullptr ? options.auditor : default_auditor_.get();

  // Exact hop labels around u_q (Lemma 4 with exact distances): any member
  // of a connected τ-group containing u_q is within τ−1 hops of u_q, so a
  // bounded BFS gives an exact object-level social-distance filter. It runs
  // against the in-memory friendship adjacency (social graphs fit in RAM;
  // the paper's disk-resident structures are the two indexes), so it does
  // not charge page I/O.
  if (flags.social_distance) {
    bfs_.Run(query.issuer, query.tau - 1);
  }

  // ---------------------------------------------------------------- Phase 1
  // Algorithm 2 lines 1-28: synchronized index traversal.
  std::vector<SNodeId> s_frontier = {social_index_->root()};
  std::vector<UserId> user_cands;
  std::vector<PoiId> r_cand;
  double delta = kInfDistance;

  // Upper bound of dist(candidate user, rp_k) over the current S-side
  // frontier (used by Eq. 16 / δ updates). Always covers u_q.
  const int h = poi_index_->pivots().num_pivots();
  std::vector<double> s_ub_rp = ctx.rp_dist;
  auto refresh_s_ub = [&]() {
    s_ub_rp = ctx.rp_dist;
    for (SNodeId id : s_frontier) {
      const SocialIndexNode& node = social_index_->node(id);
      for (int k = 0; k < h; ++k) {
        s_ub_rp[k] = std::max(s_ub_rp[k], node.ub_rp[k]);
      }
    }
  };
  refresh_s_ub();

  RoadHeap heap;
  heap.push({0.0, poi_index_->tree().root()});

  // One "round" of the I_R traversal: drains the heap into the next-level
  // heap (Algorithm 2 lines 11-26), pruning with the CURRENT S-side bounds.
  auto process_ir_round = [&]() {
    RoadHeap next;
    while (!heap.empty()) {
      if (QueryInterrupted(options)) {
        aborted = true;
        return;
      }
      const auto [key, node_id] = heap.top();
      heap.pop();
      if (flags.road_distance && key > delta) {
        // Line 14: every remaining entry has key >= this one.
        const PoiNodeAug& aug = poi_index_->node_aug(node_id);
        ++stats->road_nodes_pruned_distance;
        stats->pois_pruned_at_index_level += aug.subtree_pois;
        while (!heap.empty()) {
          ++stats->road_nodes_pruned_distance;
          stats->pois_pruned_at_index_level +=
              poi_index_->node_aug(heap.top().second).subtree_pois;
          heap.pop();
        }
        break;
      }
      const RTreeNode& node = poi_index_->tree().node(node_id);
      ++stats->road_nodes_visited;
      pool.Access(poi_index_->node_aug(node_id).page);
      if (node.is_leaf()) {
        for (const RTreeEntry& e : node.entries) {
          ++stats->pois_seen;
          pool.Access(poi_index_->poi_page(e.id));
          const PoiAug& aug = poi_index_->poi_aug(e.id);
          if (flags.match_score && PrunePoiMatch(ctx, aug)) {
            ++stats->pois_pruned_match;
            if (auditor != nullptr) auditor->OnPoiMatchPruned(ctx, e.id);
            continue;
          }
          const double lb = LbDistToPoi(ctx, aug);
          if (flags.road_distance && lb > delta) {
            ++stats->pois_pruned_distance;
            if (auditor != nullptr) auditor->OnPoiDistanceBound(ctx, e.id, lb);
            continue;
          }
          r_cand.push_back(e.id);
          // δ update (line 20), guarded by the Eq. 18-style lower-bound
          // feasibility check: u_q must already match the inner ball.
          if (MatchScore(ctx.w_q, aug.sub_keywords) >= query.theta) {
            delta = std::min(
                delta, UbMaxDistViaCenter(s_ub_rp, aug, query.radius));
          }
        }
      } else {
        for (const RTreeEntry& e : node.entries) {
          const PoiNodeAug& child = poi_index_->node_aug(e.id);
          if (flags.match_score && PruneRoadNodeMatch(ctx, child)) {
            ++stats->road_nodes_pruned_match;
            stats->pois_pruned_at_index_level += child.subtree_pois;
            if (auditor != nullptr) auditor->OnRoadNodeMatchPruned(ctx, e.id);
            continue;
          }
          const double lb =
              LbMaxDistToRoadNode(ctx, child.lb_pivot, child.ub_pivot);
          if (flags.road_distance && lb > delta) {
            ++stats->road_nodes_pruned_distance;
            stats->pois_pruned_at_index_level += child.subtree_pois;
            continue;
          }
          next.push({lb, e.id});
        }
      }
    }
    heap = std::move(next);
  };

  // Descend I_S level by level (lines 4-10), one I_R round per level.
  {
    // The root itself is visited unconditionally.
    ++stats->social_nodes_visited;
    pool.Access(social_index_->node(social_index_->root()).page);
  }
  for (int level = social_index_->height() - 1; level >= 1 && !aborted;
       --level) {
    if (QueryInterrupted(options)) {
      aborted = true;
      break;
    }
    std::vector<SNodeId> next_frontier;
    for (SNodeId id : s_frontier) {
      const SocialIndexNode& node = social_index_->node(id);
      for (SNodeId child_id : node.children) {
        const SocialIndexNode& child = social_index_->node(child_id);
        ++stats->social_nodes_visited;
        pool.Access(child.page);
        if (flags.interest_score && PruneSocialNodeInterest(ctx, child)) {
          ++stats->social_nodes_pruned_interest;
          stats->users_pruned_at_index_level += child.subtree_users;
          if (auditor != nullptr) {
            auditor->OnSocialNodePruned(ctx, child_id,
                                        PruneRule::kSocialNodeInterest);
          }
          continue;
        }
        if (flags.social_distance && PruneSocialNodeDistance(ctx, child)) {
          ++stats->social_nodes_pruned_distance;
          stats->users_pruned_at_index_level += child.subtree_users;
          if (auditor != nullptr) {
            auditor->OnSocialNodePruned(ctx, child_id,
                                        PruneRule::kSocialNodeDistance);
          }
          continue;
        }
        next_frontier.push_back(child_id);
      }
    }
    s_frontier = std::move(next_frontier);
    refresh_s_ub();
    process_ir_round();
  }

  // I_S leaf level: object-level user pruning (Section 3.2).
  uint32_t poll_stride = 0;
  for (SNodeId id : s_frontier) {
    if (aborted) break;
    const SocialIndexNode& leaf = social_index_->node(id);
    for (UserId u : leaf.users) {
      if ((++poll_stride & 255u) == 0 && QueryInterrupted(options)) {
        aborted = true;
        break;
      }
      ++stats->users_seen;
      pool.Access(social_index_->user_page(u));
      if (u == query.issuer) {
        user_cands.push_back(u);
        continue;
      }
      // The hop filter is cheaper (two array lookups) than the interest dot
      // product, so it runs first. Only the pivot lower bound (Lemma 4) is
      // audit-relevant; the BFS labels are exact by construction.
      if (flags.social_distance) {
        const bool pivot_pruned =
            PruneUserSocialDistance(ctx, social_index_->social_pivots(), u);
        if (pivot_pruned || bfs_.Hops(u) >= query.tau) {
          ++stats->users_pruned_distance;
          if (pivot_pruned && auditor != nullptr) {
            auditor->OnUserPruned(ctx, u, PruneRule::kUserSocialDistance);
          }
          continue;
        }
      }
      if (flags.interest_score &&
          PruneUserInterest(ctx, social.Interests(u))) {
        ++stats->users_pruned_interest;
        if (auditor != nullptr) {
          auditor->OnUserPruned(ctx, u, PruneRule::kUserInterest);
        }
        continue;
      }
      user_cands.push_back(u);
    }
  }
  // Ensure the issuer survives even if its leaf was (incorrectly
  // aggressively) pruned at node level — u_q is in S by definition.
  if (std::find(user_cands.begin(), user_cands.end(), query.issuer) ==
      user_cands.end()) {
    user_cands.push_back(query.issuer);
  }

  // Remaining I_R levels (lines 27-28).
  int guard = poi_index_->height() + 2;
  while (!heap.empty() && guard-- > 0 && !aborted) process_ir_round();
  if (aborted) {
    *interrupted = true;
    return {};
  }

  stats->users_candidates = user_cands.size();
  stats->pois_candidates = r_cand.size();
  stats->descent_seconds += descent_timer.ElapsedSeconds();

  // ---------------------------------------------------------------- Phase 2
  // Refinement (lines 29-31).
  const ScopedPhaseTimer refine_phase(&stats->refine_seconds);

  // δ-based user filter (Lemma 5 applied user-side): any member u of a
  // group achieving objective <= δ satisfies dist(u, center) <= δ for the
  // answer's center (the center lies in its own ball), so users whose
  // pivot lower bound exceeds δ against EVERY candidate center cannot
  // appear in a δ-beating answer. Safe under the same a-posteriori δ check
  // as the traversal cut (Execute re-runs without road-distance pruning
  // when the check fails).
  if (flags.road_distance && std::isfinite(delta) && !r_cand.empty()) {
    std::vector<UserId> kept;
    kept.reserve(user_cands.size());
    for (UserId u : user_cands) {
      if (u == query.issuer) {
        kept.push_back(u);
        continue;
      }
      const auto& rp = social_index_->user_road_pivot_dists(u);
      bool reachable = false;
      for (PoiId c : r_cand) {
        const double lb = LbUserPoiDist(rp, poi_index_->poi_aug(c));
        if (auditor != nullptr) auditor->OnPairDistanceBound(ctx, u, c, lb);
        if (lb <= delta) {
          reachable = true;
          break;
        }
      }
      if (reachable) {
        kept.push_back(u);
      } else {
        ++stats->users_pruned_distance;
      }
    }
    user_cands = std::move(kept);
  }

  // SoA social scratch: built once from the surviving candidates;
  // Corollary 2, the ESU enumerator, and the matching-score checks below
  // all share its aligned interest matrix, adjacency bitsets, and pairwise
  // memo. The memo is O(n²/2) bytes, so very large candidate sets fall
  // back to the scalar kernels.
  SocialScratch* social_scratch = nullptr;
  if (options.vectorized_social_kernels &&
      user_cands.size() <=
          static_cast<size_t>(options.social_scratch_max_candidates)) {
    social_scratch_.Build(social, query, user_cands);
    social_scratch = &social_scratch_;
  }

  if (flags.interest_score) {
    ApplyCorollary2(social, query, &user_cands, stats, social_scratch);
  }

  std::vector<std::vector<UserId>> groups;
  if (options.subset_sampling) {
    SampleGroups(social, query, user_cands, options.subset_samples,
                 options.seed, &groups);
  } else {
    if (!EnumerateGroups(social, query, user_cands, options.max_groups,
                         &groups, social_scratch)) {
      stats->truncated = true;
    }
  }
  stats->groups_enumerated = groups.size();
  if (social_scratch != nullptr) {
    stats->interest_pairs_scored += social_scratch->pairs_scored();
  }

  // Up to top_k answers, kept sorted by ascending objective.
  std::vector<GpssnAnswer> best;
  if (groups.empty() || r_cand.empty()) {
    stats->io.logical_accesses += pool.stats().logical_accesses;
    stats->io.page_misses += pool.stats().page_misses;
    *final_delta = delta;
    return best;
  }

  // Best-first lazy refinement (core/refine_frontier.h): candidate centers
  // enter the frontier under the issuer's pivot lower bound. A center's
  // ball, its new distance targets and its exact issuer-side key
  // max_{o∈ball} dist(u_q, o) (from one δ-bounded search from the issuer,
  // resumed as targets are appended) materialize only once the loop can
  // still visit it. The objective of any pair at center c is at least that
  // key, since u_q ∈ S; centers beyond δ are dropped outright (covered by
  // the δ a-posteriori check / fallback).
  CenterRefiner::Inputs refine_in;
  refine_in.query = &query;
  refine_in.ctx = &ctx;
  refine_in.poi_index = poi_index_;
  refine_in.social_index = social_index_;
  refine_in.options = &options;
  refine_in.engine = &dist_engine;
  refine_in.pool = &pool;
  refine_in.stats = stats;
  refine_in.social_scratch = social_scratch;
  refine_in.auditor = auditor;
  CenterRefiner refiner(scratch_.get(), refine_in, delta);
  refiner.AddCandidates(r_cand);
  const RefineScratch& scr = *scratch_;

  // Lane ceiling of the intra-query parallel refinement: the claiming
  // caller plus at most one stolen lane per scheduler worker (never more
  // lanes than centers). How many lanes actually run depends on how many
  // workers are idle when the morsel source is published — a saturated
  // scheduler leaves lane 0 alone, which IS the serial loop plus one
  // publish/retire registry operation. 1 lane = the seed-exact serial path.
  int max_lanes = 1;
  if (options.scheduler != nullptr) {
    max_lanes = options.scheduler->num_threads() + 1;
    if (options.intra_query_workers > 0) {
      max_lanes = std::min(max_lanes, options.intra_query_workers);
    } else if (std::thread::hardware_concurrency() <= 1) {
      // A single-core box cannot win from intra-query lanes — thieves only
      // duplicate row computations while timesharing the one core — so the
      // query degenerates to the seed-exact serial loop automatically (no
      // publish, no lane setup). An explicit intra_query_workers overrides
      // this (tests force the morsel path to keep its races covered).
      max_lanes = 1;
    }
    max_lanes = std::min(max_lanes, static_cast<int>(r_cand.size()));
  }
  // Lanes claim centers off one sorted vector, so they need every center
  // materialized up front.
  std::vector<std::pair<double, PoiId>> centers;
  if (max_lanes > 1) {
    refiner.frontier().MaterializeAll();
    if (refiner.interrupted()) {
      *interrupted = true;
      return {};
    }
    centers = refiner.frontier().Remaining();
    max_lanes = std::max(
        1, std::min(max_lanes, static_cast<int>(centers.size())));
  }

  if (max_lanes <= 1) {
    std::vector<CenterRefiner::Hit> hits;
    if (!refiner.RunSerial(groups, top_k, kInfDistance, &hits)) {
      *interrupted = true;
      return {};
    }
    for (CenterRefiner::Hit& hit : hits) best.push_back(std::move(hit.answer));
  } else {
    // ------------------------------------------------- Parallel refinement
    // Deterministic parallel-for over the sorted centers. Lanes claim
    // center indices off an atomic cursor and keep private top-k lists
    // keyed by (objective, center position, group index). The serial loop
    // reports exactly the key-minimal k feasible candidates (its
    // upper_bound insert keeps the first-encountered — i.e. key-minimal —
    // answer among equal objectives), so merging the lane lists by key and
    // truncating to k reproduces the serial answers byte for byte at any
    // lane count. Lane-side pruning uses STRICT comparisons against a
    // monotone-decreasing bound (a shared CAS-min incumbent for k = 1, the
    // lane-local k-th objective otherwise): a candidate equal to the bound
    // may still win the key tie-break, so only strictly-worse ones are
    // dropped — never more than the serial loop drops. See DESIGN.md §10.
    struct LaneBest {
      double obj;
      size_t center_pos;
      size_t group_idx;
      GpssnAnswer answer;
    };
    auto lane_key_less = [](const LaneBest& a, const LaneBest& b) {
      return std::tie(a.obj, a.center_pos, a.group_idx) <
             std::tie(b.obj, b.center_pos, b.group_idx);
    };
    struct LaneData {
      std::vector<LaneBest> best;
      QueryStats stats;
      uint64_t claimed = 0;  // Centers this lane actually processed.
    };

    while (intra_lanes_.size() < static_cast<size_t>(max_lanes)) {
      intra_lanes_.push_back(std::make_unique<IntraLane>());
    }
    const DistanceBackend* lane_backend = options.distance_backend != nullptr
                                              ? options.distance_backend
                                              : default_backend_.get();
    const size_t num_users = static_cast<size_t>(ssn.num_users());
    std::vector<DistanceEngine*> lane_engine(max_lanes);
    lane_engine[0] = &dist_engine;
    // Lane pools charge the same logical accesses the serial loop would;
    // lane 0 reuses the main pool (it is the only thread touching it).
    std::vector<std::unique_ptr<BufferPool>> lane_pools(max_lanes);
    std::vector<uint8_t> lane_targets_ready(max_lanes, 0);
    lane_targets_ready[0] = 1;  // Registered while materializing.
    for (int lane = 0; lane < max_lanes; ++lane) {
      IntraLane& ln = *intra_lanes_[lane];
      if (lane > 0) {
        const uint64_t backend_generation = lane_backend->poi_generation();
        if (ln.source != lane_backend || ln.engine == nullptr ||
            ln.source_generation != backend_generation) {
          ln.engine = lane_backend->CreateEngine();
          ln.source = lane_backend;
          ln.source_generation = backend_generation;
        }
        lane_engine[lane] = ln.engine.get();
        lane_pools[lane] =
            std::make_unique<BufferPool>(options.buffer_pool_pages);
      }
      if (ln.user_stamp.size() < num_users) {
        ln.user_stamp.resize(num_users, 0);
        ln.user_row.resize(num_users, 0);
      }
      ++ln.generation;
      if (ln.generation == 0) {  // Stamp wrap-around: hard reset.
        std::fill(ln.user_stamp.begin(), ln.user_stamp.end(), 0);
        ln.generation = 1;
      }
      ln.rows.clear();
    }

    std::vector<LaneData> lanes(max_lanes);
    std::atomic<size_t> cursor{0};
    std::atomic<bool> par_stop{false};
    std::atomic<bool> par_interrupted{false};
    std::atomic<int64_t> par_budget{options.max_refine_pairs};
    std::atomic<double> shared_bound{kInfDistance};
    // Hooks on the raw auditor are not thread-safe; every lane notifies
    // through this serializing adapter instead (core/audit.h).
    SerializedPruningAuditor shared_auditor(auditor);

    auto publish_bound = [&](double v) {
      double cur = shared_bound.load(std::memory_order_relaxed);  // gpssn-lint: relaxed(bound is a monotone pruning hint)
      while (v < cur && !shared_bound.compare_exchange_weak(
                            cur, v, std::memory_order_relaxed)) {  // gpssn-lint: relaxed(bound is a monotone pruning hint)
      }
    };

    // Lane-private row of exact distances over the full target list, with
    // CenterRefiner::Row's bound-tagging. The shared scratch is consulted
    // read-only (only pre-fan-out rows — the issuer's — are stamped
    // there); rows computed under an earlier, looser bound stay sound
    // because bounds only decrease (a kInfDistance entry proves
    // d > bound-at-compute >= any later bound).
    auto lane_user_dists = [&](int lane, LaneData& ld, UserId u,
                               double bnd) -> const double* {
      const size_t width = scr.needed.size();
      if (scr.user_stamp[u] == scr.generation) {
        return scr.rows.data() + scr.user_offset[u];
      }
      IntraLane& ln = *intra_lanes_[lane];
      if (ln.user_stamp[u] == ln.generation) {
        return ln.rows.data() + static_cast<size_t>(ln.user_row[u]) * width;
      }
      if (!lane_targets_ready[lane]) {
        lane_engine[lane]->SetTargets(scr.needed_positions);
        lane_targets_ready[lane] = 1;
      }
      const int32_t row_index =
          width == 0 ? 0 : static_cast<int32_t>(ln.rows.size() / width);
      ln.rows.resize(ln.rows.size() + width);
      double* row = ln.rows.data() + static_cast<size_t>(row_index) * width;
      bool have_row = false;
      if (options.distance_cache != nullptr && width > 0) {
        bool all_hit = true;
        for (size_t i = 0; i < width; ++i) {
          if (!options.distance_cache->Lookup(u, scr.needed[i], bnd,
                                              &row[i])) {
            all_hit = false;
            break;
          }
        }
        if (all_hit) {
          ++ld.stats.dist_cache_row_hits;
          have_row = true;
        } else {
          ++ld.stats.dist_cache_row_misses;
        }
      }
      if (!have_row) {
        const ScopedPhaseTimer exact_phase(&ld.stats.exact_dist_seconds);
        lane_engine[lane]->SourceToTargets(ssn.user_home(u), bnd, row);
        ++ld.stats.exact_distance_evals;
        if (options.distance_cache != nullptr) {
          for (size_t i = 0; i < width; ++i) {
            options.distance_cache->Insert(u, scr.needed[i], bnd, row[i]);
          }
        }
      }
      (lane == 0 ? pool : *lane_pools[lane])
          .Access(social_index_->user_page(u));
      ln.user_stamp[u] = ln.generation;
      ln.user_row[u] = row_index;
      return row;
    };

    auto run_lane = [&](int lane) {
      LaneData& ld = lanes[lane];
      IntraLane& ln = *intra_lanes_[lane];
      auto lane_bound = [&]() {
        if (top_k == 1) return shared_bound.load(std::memory_order_relaxed);  // gpssn-lint: relaxed(bound is a monotone pruning hint)
        return static_cast<int>(ld.best.size()) < top_k
                   ? kInfDistance
                   : ld.best.back().obj;
      };
      uint32_t stride = 0;
      for (;;) {
        if (par_stop.load(std::memory_order_relaxed)) break;  // gpssn-lint: relaxed(lane stop flag; Retire is the barrier)
        // Stolen lanes hand their worker back as soon as a query root task
        // is queued (admission beats help); lane 0 drains whatever remains.
        // Any lane may process any center, so answers are unaffected.
        if (lane != 0 && options.scheduler->HasQueuedTasks()) break;
        const size_t ci = cursor.fetch_add(1, std::memory_order_relaxed);  // gpssn-lint: relaxed(claim counter; each index taken once)
        if (ci >= centers.size()) break;
        if (QueryInterrupted(options)) {
          par_interrupted.store(true, std::memory_order_relaxed);  // gpssn-lint: relaxed(lane stop flag; Retire is the barrier)
          par_stop.store(true, std::memory_order_relaxed);  // gpssn-lint: relaxed(lane stop flag; Retire is the barrier)
          break;
        }
        const auto& [center_lb, c] = centers[ci];
        // Centers are sorted by lb and the bound only decreases, so every
        // unclaimed center is strictly worse too: stop claiming.
        if (center_lb > lane_bound()) break;
        ++ld.claimed;
        const CenterInfo& info = refiner.center(c);
        if (!info.issuer_matches) continue;
        const PoiAug& center_aug = poi_index_->poi_aug(c);
        VisitMemo& memo = ln.visit;
        memo.Begin(num_users);

        for (size_t gi = 0; gi < groups.size(); ++gi) {
          if ((++stride & 63u) == 0) {
            if (par_stop.load(std::memory_order_relaxed)) break;  // gpssn-lint: relaxed(lane stop flag; Retire is the barrier)
            if (QueryInterrupted(options)) {
              par_interrupted.store(true, std::memory_order_relaxed);  // gpssn-lint: relaxed(lane stop flag; Retire is the barrier)
              par_stop.store(true, std::memory_order_relaxed);  // gpssn-lint: relaxed(lane stop flag; Retire is the barrier)
              break;
            }
          }
          const auto& group = groups[gi];
          // Pivot bounds and matches come from the per-center memo: one
          // evaluation per user per claimed center.
          double pair_lb = center_lb;
          for (UserId u : group) {
            if (memo.lb_stamp[u] != memo.generation) {
              memo.lb_stamp[u] = memo.generation;
              memo.lb[u] = LbUserPoiDist(
                  social_index_->user_road_pivot_dists(u), center_aug);
              if (shared_auditor.enabled()) {
                shared_auditor.OnPairDistanceBound(ctx, u, c, memo.lb[u]);
              }
            }
            pair_lb = std::max(pair_lb, memo.lb[u]);
          }
          // A pivot bound may exceed the exact distance by rounding; when
          // another lane's bound ties this pair's exact objective, only the
          // slack keeps the pair (it may win the key tie-break).
          if (pair_lb - PivotSlack(pair_lb) > lane_bound()) continue;

          bool all_match = true;
          for (UserId u : group) {
            if (memo.match_stamp[u] != memo.generation) {
              memo.match_stamp[u] = memo.generation;
              memo.match[u] = refiner.Matches(u, info) ? 1 : 0;
            }
            if (memo.match[u] == 0) {
              all_match = false;
              break;
            }
          }
          if (!all_match) continue;

          if (par_budget.fetch_sub(1, std::memory_order_relaxed) <= 0) {  // gpssn-lint: relaxed(budget counter; exactness not required)
            ld.stats.truncated = true;
            par_stop.store(true, std::memory_order_relaxed);  // gpssn-lint: relaxed(lane stop flag; Retire is the barrier)
            break;
          }
          ++ld.stats.pairs_examined;
          double obj = 0.0;
          bool feasible = true;
          for (UserId u : group) {
            const double* dists = lane_user_dists(lane, ld, u, lane_bound());
            for (PoiId o : info.ball) {
              const double d = dists[scr.poi_slot[o]];
              if (d >= kInfDistance) {
                feasible = false;
                break;
              }
              obj = std::max(obj, d);
            }
            if (!feasible || obj > lane_bound()) {
              feasible = false;
              break;
            }
          }
          if (!feasible) continue;
          LaneBest entry;
          entry.obj = obj;
          entry.center_pos = ci;
          entry.group_idx = gi;
          entry.answer.found = true;
          entry.answer.users = group;
          entry.answer.center = c;
          entry.answer.pois = info.ball;
          entry.answer.max_dist = obj;
          auto pos = std::upper_bound(ld.best.begin(), ld.best.end(), entry,
                                      lane_key_less);
          ld.best.insert(pos, std::move(entry));
          if (static_cast<int>(ld.best.size()) > top_k) ld.best.pop_back();
          if (top_k == 1 && !ld.best.empty()) {
            publish_bound(ld.best.front().obj);
          }
        }
      }
    };

    // Fan out by PUBLISHING rather than pushing: the centers become a
    // morsel source on the unified scheduler, the caller runs lane 0
    // itself, and only scheduler workers with nothing better to do steal
    // extra lanes off it. A saturated scheduler therefore costs this query
    // exactly one Publish + Retire registry operation — no queued no-op
    // helper tasks (the PR 5 lend/close handshake, and its QPS
    // regression). Retire() blocks until every in-flight RunMorsels() has
    // returned, so everything the lanes reference — run_lane, the cursor,
    // the LaneData vector, all of it stack-held — is exclusively owned
    // again before this frame unwinds or reads lane results: the morsel
    // descriptor is fully owned, with no use-after-free window.
    struct RefineSource : TaskScheduler::MorselSource {
      std::function<void(int)>* run = nullptr;
      std::atomic<int> next_lane{1};  // Lane 0 is the calling thread.
      int lane_cap = 1;
      bool RunMorsels(int /*worker*/) override {
        const int lane = next_lane.fetch_add(1, std::memory_order_relaxed);  // gpssn-lint: relaxed(lane claim counter; each lane runs once)
        if (lane >= lane_cap) return false;
        (*run)(lane);
        return true;
      }
    };
    std::function<void(int)> run_fn = run_lane;
    RefineSource source;
    source.run = &run_fn;
    source.lane_cap = max_lanes;
    options.scheduler->Publish(&source);
    run_lane(0);
    options.scheduler->Retire(&source);

    if (par_interrupted.load(std::memory_order_relaxed)) {  // gpssn-lint: relaxed(read after the Retire barrier)
      *interrupted = true;
      return {};
    }

    // Merge: min-k of the keyed union == the serial loop's answer list.
    std::vector<LaneBest> merged;
    uint32_t lanes_used = 0;
    uint64_t morsels = 0;
    uint64_t morsels_stolen = 0;
    for (int lane = 0; lane < max_lanes; ++lane) {
      LaneData& ld = lanes[lane];
      if (ld.claimed > 0) ++lanes_used;
      morsels += ld.claimed;
      if (lane > 0) morsels_stolen += ld.claimed;
      for (LaneBest& e : ld.best) merged.push_back(std::move(e));
    }
    std::sort(merged.begin(), merged.end(), lane_key_less);
    if (static_cast<int>(merged.size()) > top_k) merged.resize(top_k);
    best.clear();
    for (LaneBest& e : merged) best.push_back(std::move(e.answer));
    stats->intra_lanes_used = std::max(stats->intra_lanes_used, lanes_used);
    stats->refine_morsels += morsels;
    stats->refine_morsels_stolen += morsels_stolen;
    for (int lane = 0; lane < max_lanes; ++lane) {
      LaneData& ld = lanes[lane];
      if (lane > 0) {
        ld.stats.io.logical_accesses +=
            lane_pools[lane]->stats().logical_accesses;
        ld.stats.io.page_misses += lane_pools[lane]->stats().page_misses;
      }
      stats->MergeFrom(ld.stats);
    }
  }

  stats->io.logical_accesses += pool.stats().logical_accesses;
  stats->io.page_misses += pool.stats().page_misses;
  *final_delta = delta;
  return best;
}

Result<ShardCandidates> GpssnProcessor::GatherCandidates(
    const GpssnQuery& query, const QueryOptions& options,
    const ShardScope& scope, QueryStats* stats) {
  const SpatialSocialNetwork& ssn = poi_index_->ssn();
  if (query.issuer < 0 || query.issuer >= ssn.num_users()) {
    return Status::InvalidArgument("query issuer out of range");
  }
  if (query.tau < 1 || query.tau > ssn.num_users()) {
    return Status::InvalidArgument("group size tau out of range");
  }
  if (query.gamma < 0.0 || query.theta < 0.0) {
    return Status::InvalidArgument("negative score threshold");
  }
  if (query.radius < poi_index_->options().r_min ||
      query.radius > poi_index_->options().r_max) {
    return Status::InvalidArgument(
        "radius outside the index's [r_min, r_max] envelope");
  }

  QueryStats local;
  QueryStats* out = stats != nullptr ? stats : &local;
  *out = QueryStats();
  WallTimer timer;

  auto interrupted_status = [&options]() {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {  // gpssn-lint: relaxed(cooperative cancel flag; latency not ordering)
      return Status::Cancelled("query cancelled");
    }
    return Status::DeadlineExceeded("query deadline exceeded");
  };
  if (QueryInterrupted(options)) return interrupted_status();

  const SocialNetwork& social = ssn.social();
  const PruningFlags& flags = options.pruning;
  BufferPool pool(options.buffer_pool_pages);
  QueryUserContext ctx(query, *social_index_);
  SyncPoiCount();
  PruningAuditor* auditor =
      options.auditor != nullptr ? options.auditor : default_auditor_.get();
  WallTimer descent_timer;

  if (flags.social_distance) {
    bfs_.Run(query.issuer, query.tau - 1);
  }

  ShardCandidates result;

  // --- Social side: descend only the scoped subtrees, level-synchronized
  // (BFS) exactly like ExecuteImpl so surviving leaves — and hence users —
  // come out in the same left-to-right order the single-node descent
  // produces. Without δ there is no coupling to the I_R traversal; the
  // node-level interest/social-distance prunes and the object-level leaf
  // filters are exactly ExecuteImpl's, so the concatenation of all
  // shards' survivors (in partition order) equals the single-node
  // candidate list (node prunes are subsumed by the object-level tests).
  uint32_t poll_stride = 0;
  std::vector<SNodeId> s_frontier;
  auto admit_social = [&](SNodeId id) {
    const SocialIndexNode& node = social_index_->node(id);
    ++out->social_nodes_visited;
    pool.Access(node.page);
    if (flags.interest_score && PruneSocialNodeInterest(ctx, node)) {
      ++out->social_nodes_pruned_interest;
      out->users_pruned_at_index_level += node.subtree_users;
      if (auditor != nullptr) {
        auditor->OnSocialNodePruned(ctx, id, PruneRule::kSocialNodeInterest);
      }
      return;
    }
    if (flags.social_distance && PruneSocialNodeDistance(ctx, node)) {
      ++out->social_nodes_pruned_distance;
      out->users_pruned_at_index_level += node.subtree_users;
      if (auditor != nullptr) {
        auditor->OnSocialNodePruned(ctx, id, PruneRule::kSocialNodeDistance);
      }
      return;
    }
    s_frontier.push_back(id);
  };
  for (SNodeId id : scope.social_roots) admit_social(id);
  bool aborted = false;
  for (;;) {
    bool any_internal = false;
    for (SNodeId id : s_frontier) {
      if (!social_index_->node(id).is_leaf()) {
        any_internal = true;
        break;
      }
    }
    if (!any_internal) break;
    if (QueryInterrupted(options)) {
      aborted = true;
      break;
    }
    std::vector<SNodeId> prev = std::move(s_frontier);
    s_frontier.clear();
    for (SNodeId id : prev) {
      const SocialIndexNode& node = social_index_->node(id);
      if (node.is_leaf()) {
        s_frontier.push_back(id);  // Already at object level; keep place.
        continue;
      }
      for (SNodeId child_id : node.children) admit_social(child_id);
    }
  }
  for (SNodeId id : s_frontier) {
    if (aborted) break;
    const SocialIndexNode& leaf = social_index_->node(id);
    for (UserId u : leaf.users) {
      if ((++poll_stride & 255u) == 0 && QueryInterrupted(options)) {
        aborted = true;
        break;
      }
      ++out->users_seen;
      pool.Access(social_index_->user_page(u));
      if (u == query.issuer) {
        result.users.push_back(u);
        continue;
      }
      if (flags.social_distance) {
        const bool pivot_pruned =
            PruneUserSocialDistance(ctx, social_index_->social_pivots(), u);
        if (pivot_pruned || bfs_.Hops(u) >= query.tau) {
          ++out->users_pruned_distance;
          if (pivot_pruned && auditor != nullptr) {
            auditor->OnUserPruned(ctx, u, PruneRule::kUserSocialDistance);
          }
          continue;
        }
      }
      if (flags.interest_score &&
          PruneUserInterest(ctx, social.Interests(u))) {
        ++out->users_pruned_interest;
        if (auditor != nullptr) {
          auditor->OnUserPruned(ctx, u, PruneRule::kUserInterest);
        }
        continue;
      }
      result.users.push_back(u);
    }
  }

  // --- POI side: match prunes only. The δ road-distance cut is a global
  // incumbent property and is NEVER applied on the sharded path (so the
  // a-posteriori δ fallback is structurally unnecessary here); the
  // cross-shard analogue is the coordinator's incumbent skip, applied at
  // whole-shard granularity from `lower_bound`.
  std::vector<RNodeId> r_stack;
  for (RNodeId id : scope.road_roots) {
    const PoiNodeAug& aug = poi_index_->node_aug(id);
    if (flags.match_score && PruneRoadNodeMatch(ctx, aug)) {
      ++out->road_nodes_pruned_match;
      out->pois_pruned_at_index_level += aug.subtree_pois;
      if (auditor != nullptr) auditor->OnRoadNodeMatchPruned(ctx, id);
      continue;
    }
    r_stack.push_back(id);
  }
  while (!r_stack.empty() && !aborted) {
    if (QueryInterrupted(options)) {
      aborted = true;
      break;
    }
    const RNodeId node_id = r_stack.back();
    r_stack.pop_back();
    const RTreeNode& node = poi_index_->tree().node(node_id);
    ++out->road_nodes_visited;
    pool.Access(poi_index_->node_aug(node_id).page);
    if (node.is_leaf()) {
      for (const RTreeEntry& e : node.entries) {
        ++out->pois_seen;
        pool.Access(poi_index_->poi_page(e.id));
        const PoiAug& aug = poi_index_->poi_aug(e.id);
        if (flags.match_score && PrunePoiMatch(ctx, aug)) {
          ++out->pois_pruned_match;
          if (auditor != nullptr) auditor->OnPoiMatchPruned(ctx, e.id);
          continue;
        }
        result.pois.push_back(e.id);
        result.lower_bound =
            std::min(result.lower_bound, LbDistToPoi(ctx, aug));
      }
    } else {
      for (const RTreeEntry& e : node.entries) {
        const PoiNodeAug& child = poi_index_->node_aug(e.id);
        if (flags.match_score && PruneRoadNodeMatch(ctx, child)) {
          ++out->road_nodes_pruned_match;
          out->pois_pruned_at_index_level += child.subtree_pois;
          if (auditor != nullptr) auditor->OnRoadNodeMatchPruned(ctx, e.id);
          continue;
        }
        r_stack.push_back(e.id);
      }
    }
  }
  if (aborted) {
    out->cpu_seconds = timer.ElapsedSeconds();
    return interrupted_status();
  }

  std::sort(result.pois.begin(), result.pois.end());
  out->users_candidates = result.users.size();
  out->pois_candidates = result.pois.size();
  out->descent_seconds += descent_timer.ElapsedSeconds();
  out->io.logical_accesses += pool.stats().logical_accesses;
  out->io.page_misses += pool.stats().page_misses;
  out->cpu_seconds = timer.ElapsedSeconds();
  return result;
}

Result<ShardRefineResult> GpssnProcessor::RefineCandidates(
    const GpssnQuery& query, const QueryOptions& options,
    const std::vector<PoiId>& centers,
    const std::vector<std::vector<UserId>>& groups, double incumbent,
    QueryStats* stats) {
  const SpatialSocialNetwork& ssn = poi_index_->ssn();
  if (query.issuer < 0 || query.issuer >= ssn.num_users()) {
    return Status::InvalidArgument("query issuer out of range");
  }

  QueryStats local;
  QueryStats* out = stats != nullptr ? stats : &local;
  *out = QueryStats();
  WallTimer timer;

  auto interrupted_status = [&options]() {
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {  // gpssn-lint: relaxed(cooperative cancel flag; latency not ordering)
      return Status::Cancelled("query cancelled");
    }
    return Status::DeadlineExceeded("query deadline exceeded");
  };
  if (QueryInterrupted(options)) return interrupted_status();

  const ScopedPhaseTimer refine_phase(&out->refine_seconds);
  ShardRefineResult result;
  if (groups.empty() || centers.empty()) {
    out->cpu_seconds = timer.ElapsedSeconds();
    return result;
  }
  BufferPool pool(options.buffer_pool_pages);
  QueryUserContext ctx(query, *social_index_);
  std::vector<CenterRefiner::Hit> hits;
  {
    // The refinement is Execute()'s serial loop exactly (same arithmetic,
    // same best-first center order, same first-encountered-minimum
    // acceptance) restricted to this shard's centers, with the issuer row
    // and the initial rejection threshold taken from `incumbent`. Per-pair
    // objectives depend only on (group, center) — rows are bound-tagged
    // and a kInfDistance entry proves the pair cannot beat the bound it was
    // computed under — so evaluating a subset of the single-node candidate
    // pairs yields bit-identical objective values.
    CenterRefiner::Inputs in;
    in.query = &query;
    in.ctx = &ctx;
    in.poi_index = poi_index_;
    in.social_index = social_index_;
    in.options = &options;
    in.engine = EngineFor(options);
    in.pool = &pool;
    in.stats = out;
    in.auditor =
        options.auditor != nullptr ? options.auditor : default_auditor_.get();
    CenterRefiner refiner(scratch_.get(), in, incumbent);
    refiner.AddCandidates(centers);
    if (!refiner.RunSerial(groups, /*top_k=*/1, incumbent, &hits)) {
      out->cpu_seconds = timer.ElapsedSeconds();
      return interrupted_status();
    }
  }
  if (!hits.empty()) {
    result.answer = std::move(hits.front().answer);
    result.center_worst = hits.front().center_key;
    result.group_index = hits.front().group_index;
  }

  // users/pois/groups counters stay 0 here: the coordinator owns the
  // candidate-level counters (the gather stats already carry them), so the
  // merged per-query stats count each candidate exactly once.
  out->io.logical_accesses += pool.stats().logical_accesses;
  out->io.page_misses += pool.stats().page_misses;
  out->cpu_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace gpssn
