// Copyright 2026 The gpssn Authors.
//
// Best-first lazy refinement (Algorithm 2, lines 29-31). Refinement visits
// candidate centers in ascending order of their exact issuer-side
// objective contribution max_{o∈B(c,r)} dist(u_q, o) and stops once the
// incumbent beats the next key. Building every candidate's ball up front
// wastes most of that work: the loop typically visits a small share of the
// candidates. The RefineFrontier orders centers by a cheap lower bound of
// that key (the issuer's pivot bound of dist(u_q, c), valid because
// c ∈ B(c, r)) and materializes a center — ball, keyword union, issuer
// key — only when it reaches the top of the heap below the bound in force.
// A popped exact entry is then the next center of the (exact key, id)
// order the up-front design sorted into, so visit order, bound breaks and
// tie-breaks are unchanged.
//
// CenterRefiner holds one query's lazily grown refinement inputs over the
// processor's reusable RefineScratch: per-center data, the append-only
// distance-target list, width-tracked per-user distance rows, and the
// per-visit user memo (pivot bound + matching predicate), plus the serial
// refine loop shared by GpssnProcessor::Execute and RefineCandidates.

#ifndef GPSSN_CORE_REFINE_FRONTIER_H_
#define GPSSN_CORE_REFINE_FRONTIER_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/bitvector.h"
#include "common/pagestore.h"
#include "core/options.h"
#include "core/pruning.h"
#include "core/query.h"
#include "core/social_scratch.h"
#include "core/stats.h"
#include "index/poi_index.h"
#include "index/social_index.h"
#include "roadnet/distance_backend.h"

namespace gpssn {

/// Materialized refinement data of one candidate center.
struct CenterInfo {
  std::vector<PoiId> ball;                // R = B(o_i, r), sorted.
  std::vector<KeywordId> union_keywords;  // ∪_{o∈R} o.K.
  bool issuer_matches = false;
  // Bitset form of union_keywords, built only when the SoA social scratch
  // is live; MaskedMatchScore over it is bit-identical to MatchScore.
  DynamicBitset keyword_mask;
  bool has_mask = false;
};

/// Min-heap of candidate centers keyed by (key, id). An entry starts with a
/// lower bound of its exact key and is materialized (exact key computed)
/// when it reaches the top; exact entries pop in (exact key, id) order.
/// Invariant: every pushed lower bound is <= the center's exact key, so an
/// exact top entry precedes every remaining center in exact order.
class RefineFrontier {
 public:
  /// Computes keys[i] = exact key of ids[i]; kInfDistance drops the center.
  using Materializer =
      std::function<void(std::span<const PoiId> ids, std::span<double> keys)>;

  /// Empties the heap (keeping capacity) and installs the materializer.
  void Reset(Materializer materialize);

  /// Adds a center under a lower bound of its exact key.
  void Push(double lower_bound, PoiId id);

  /// Pops the next center whose exact key is < `limit`, materializing
  /// lower-bound entries on the way; false when none is left. Entries whose
  /// key is >= `limit` are never materialized. While `limit` is infinite,
  /// materialization runs in batches of the cheapest lower-bound entries,
  /// each twice the size of the previous one; once it is finite, one batch
  /// takes every lower-bound entry below it. Either way a query appends
  /// distance targets a logarithmic number of times.
  bool Next(double limit, double* key, PoiId* id);

  /// Materializes every remaining lower-bound entry.
  void MaterializeAll();

  /// The remaining entries in (key, id) order; exact after MaterializeAll.
  std::vector<std::pair<double, PoiId>> Remaining() const;

  uint64_t materialized() const { return materialized_; }

 private:
  struct Entry {
    double key;
    PoiId id;
    bool exact;
  };
  struct Greater {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.key != b.key ? a.key > b.key : a.id > b.id;
    }
  };
  // Pops the top entry (heap must be non-empty).
  Entry Pop();
  void Materialize();  // Materializes batch_ids_ and pushes exact entries.

  Materializer materialize_;
  std::vector<Entry> heap_;
  std::vector<PoiId> batch_ids_;
  std::vector<Entry> parked_;  // Exact entries stepped over by a batch.
  std::vector<double> batch_keys_;
  size_t chunk_ = 1;
  uint64_t materialized_ = 0;
};

/// Per-user memo of one visited center, generation-stamped: the pivot
/// lower bound of dist(u, center) and the matching predicate. Begin()
/// invalidates it in O(1).
struct VisitMemo {
  uint32_t generation = 0;
  std::vector<uint32_t> lb_stamp;
  std::vector<double> lb;
  std::vector<uint32_t> match_stamp;
  std::vector<uint8_t> match;

  void Begin(size_t num_users);
};

/// Flat stamped scratch of the refinement phase, reused across queries.
/// BeginQuery bumps the generation, invalidating every slot in O(1).
struct RefineScratch {
  uint32_t generation = 0;
  // POI id -> slot in `needed` (valid when poi_stamp matches). `needed`
  // only grows during a query: it is the engine's target list.
  std::vector<uint32_t> poi_stamp;
  std::vector<int32_t> poi_slot;
  std::vector<PoiId> needed;                   // Slot -> POI id.
  std::vector<EdgePosition> needed_positions;  // Slot -> position.
  // User id -> row [offset, offset + width) of `rows` over slots
  // [0, width); kInfDistance = beyond the bound the cell was computed
  // under. Rows are extended as targets are appended.
  std::vector<uint32_t> user_stamp;
  std::vector<size_t> user_offset;
  std::vector<uint32_t> user_width;
  std::vector<double> rows;
  // POI id -> index into `centers` (valid when center_stamp matches).
  std::vector<uint32_t> center_stamp;
  std::vector<int32_t> center_slot;
  std::vector<CenterInfo> centers;  // Reused; first num_centers are live.
  size_t num_centers = 0;
  VisitMemo visit;
  RefineFrontier frontier;

  void BeginQuery(size_t num_users, size_t num_pois);
};

/// Rounding slack of a pivot lower bound: it is a difference of sums of
/// edge weights, so it may exceed the exact distance by accumulated
/// rounding, never by more than this.
inline double PivotSlack(double bound) {
  return 1e-9 * std::max(1.0, std::abs(bound));
}

/// True when the query's cancel flag is raised or its deadline expired.
bool QueryInterrupted(const QueryOptions& options);

/// One query's refinement over the best-first frontier.
class CenterRefiner {
 public:
  struct Inputs {
    const GpssnQuery* query = nullptr;
    const QueryUserContext* ctx = nullptr;
    const PoiIndex* poi_index = nullptr;
    const SocialIndex* social_index = nullptr;
    const QueryOptions* options = nullptr;
    DistanceEngine* engine = nullptr;
    BufferPool* pool = nullptr;
    QueryStats* stats = nullptr;
    const SocialScratch* social_scratch = nullptr;  // Optional.
    PruningAuditor* auditor = nullptr;              // Optional.
  };

  /// One accepted (group, center) pair and its discovery rank.
  struct Hit {
    GpssnAnswer answer;
    double center_key = kInfDistance;  // max_{o∈ball} dist(u_q, o).
    int64_t group_index = -1;
  };

  /// Starts a query on `scratch`. The issuer's row, and therefore every
  /// exact center key, is computed under `issuer_bound`; centers the
  /// issuer cannot reach within it are dropped.
  CenterRefiner(RefineScratch* scratch, const Inputs& in,
                double issuer_bound);

  /// Adds candidate centers under the issuer's pivot lower bound.
  void AddCandidates(std::span<const PoiId> centers);

  RefineFrontier& frontier() { return scratch_->frontier; }
  const CenterInfo& center(PoiId c) const {
    return scratch_->centers[scratch_->center_slot[c]];
  }
  bool interrupted() const { return interrupted_; }

  /// Distance row of `u` over every registered target, extended under
  /// `bound` when targets were appended since it was last computed (the
  /// issuer's row always uses the issuer bound). Valid until the next
  /// Row call.
  const double* Row(UserId u, double bound);

  /// Pivot lower bound of dist(u, c) (Lemma 5), reported to the auditor.
  double UserLb(UserId u, PoiId c) const;

  /// Matching-score predicate of `u` against a center's keyword union.
  /// The SoA masked row sum adds the same interest weights in the same
  /// (keyword-ascending) order as the scalar MatchScore, so the two paths
  /// are bit-identical.
  bool Matches(UserId u, const CenterInfo& info) const;

  /// The serial refine loop: visits centers best-first and evaluates every
  /// group at each, keeping the key-minimal `top_k` feasible pairs with
  /// objective <= `incumbent` (first-encountered wins ties). Answers
  /// strictly above the incumbent are rejected; once `top_k` are held, only
  /// strictly better ones. Returns false when interrupted.
  bool RunSerial(const std::vector<std::vector<UserId>>& groups, int top_k,
                 double incumbent, std::vector<Hit>* best);

 private:
  void Materialize(std::span<const PoiId> ids, std::span<double> keys);
  // Computes cells [first, width) of `row` for `u` under `bound`, from
  // the distance cache when every cell hits.
  void FillRow(UserId u, double bound, double* row, size_t first,
               size_t width);

  RefineScratch* scratch_;
  Inputs in_;
  double issuer_bound_;
  // Targets registered with the engine this query; SIZE_MAX forces the
  // first Row to register (the engine may hold another query's list).
  size_t registered_ = SIZE_MAX;
  bool interrupted_ = false;
};

}  // namespace gpssn

#endif  // GPSSN_CORE_REFINE_FRONTIER_H_
