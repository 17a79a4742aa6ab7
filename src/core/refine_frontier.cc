#include "core/refine_frontier.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/timer.h"
#include "core/audit.h"
#include "core/scores.h"
#include "roadnet/distance_cache.h"

namespace gpssn {

namespace {

// Generation bump with wrap-around hard reset of the given stamp arrays.
template <typename... Stamps>
void NextGeneration(uint32_t* generation, Stamps*... stamps) {
  ++*generation;
  if (*generation == 0) {
    (std::fill(stamps->begin(), stamps->end(), 0), ...);
    *generation = 1;
  }
}

}  // namespace

// ------------------------------------------------------------ RefineFrontier

void RefineFrontier::Reset(Materializer materialize) {
  materialize_ = std::move(materialize);
  heap_.clear();
  chunk_ = 1;
  materialized_ = 0;
}

void RefineFrontier::Push(double lower_bound, PoiId id) {
  heap_.push_back({lower_bound, id, false});
  std::push_heap(heap_.begin(), heap_.end(), Greater());
}

RefineFrontier::Entry RefineFrontier::Pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Greater());
  const Entry top = heap_.back();
  heap_.pop_back();
  return top;
}

void RefineFrontier::Materialize() {
  batch_keys_.assign(batch_ids_.size(), kInfDistance);
  materialize_(batch_ids_, batch_keys_);
  materialized_ += batch_ids_.size();
  for (size_t i = 0; i < batch_ids_.size(); ++i) {
    if (batch_keys_[i] >= kInfDistance) continue;  // Dropped.
    heap_.push_back({batch_keys_[i], batch_ids_[i], true});
    std::push_heap(heap_.begin(), heap_.end(), Greater());
  }
}

bool RefineFrontier::Next(double limit, double* key, PoiId* id) {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    // Every remaining key is >= top.key, and an exact key is >= its bound.
    if (!(top.key < limit)) return false;
    if (top.exact) {
      const Entry e = Pop();
      *key = e.key;
      *id = e.id;
      return true;
    }
    // Materialize the cheapest lower-bound entries below the limit,
    // stepping over exact ones. While the limit is infinite (no answer
    // yet), batches double in size, so targets are registered a
    // logarithmic number of times. Once it is finite, the batch is every
    // entry below it: the limit only falls, so the target list is then
    // final and each distance row is extended at most once more.
    const bool all_below_limit = limit < kInfDistance;
    batch_ids_.clear();
    parked_.clear();
    while (!heap_.empty() && heap_.front().key < limit &&
           (all_below_limit || batch_ids_.size() < chunk_)) {
      if (heap_.front().exact) {
        parked_.push_back(Pop());
      } else {
        batch_ids_.push_back(Pop().id);
      }
    }
    for (const Entry& e : parked_) {
      heap_.push_back(e);
      std::push_heap(heap_.begin(), heap_.end(), Greater());
    }
    if (chunk_ < heap_.size()) chunk_ *= 2;
    Materialize();
  }
  return false;
}

void RefineFrontier::MaterializeAll() {
  // Pop everything in (key, id) order, as Next would meet it.
  std::vector<Entry> exact;
  batch_ids_.clear();
  while (!heap_.empty()) {
    const Entry e = Pop();
    if (e.exact) {
      exact.push_back(e);
    } else {
      batch_ids_.push_back(e.id);
    }
  }
  heap_ = std::move(exact);
  std::make_heap(heap_.begin(), heap_.end(), Greater());
  if (!batch_ids_.empty()) Materialize();
}

std::vector<std::pair<double, PoiId>> RefineFrontier::Remaining() const {
  std::vector<std::pair<double, PoiId>> out;
  out.reserve(heap_.size());
  for (const Entry& e : heap_) out.emplace_back(e.key, e.id);
  std::sort(out.begin(), out.end());
  return out;
}

// ----------------------------------------------------------------- Scratch

void VisitMemo::Begin(size_t num_users) {
  if (lb_stamp.size() < num_users) {
    lb_stamp.resize(num_users, 0);
    lb.resize(num_users, 0.0);
    match_stamp.resize(num_users, 0);
    match.resize(num_users, 0);
  }
  NextGeneration(&generation, &lb_stamp, &match_stamp);
}

void RefineScratch::BeginQuery(size_t num_users, size_t num_pois) {
  if (poi_stamp.size() < num_pois) {
    poi_stamp.resize(num_pois, 0);
    poi_slot.resize(num_pois, 0);
    center_stamp.resize(num_pois, 0);
    center_slot.resize(num_pois, 0);
  }
  if (user_stamp.size() < num_users) {
    user_stamp.resize(num_users, 0);
    user_offset.resize(num_users, 0);
    user_width.resize(num_users, 0);
  }
  NextGeneration(&generation, &poi_stamp, &user_stamp, &center_stamp);
  needed.clear();
  needed_positions.clear();
  rows.clear();
  num_centers = 0;
}

bool QueryInterrupted(const QueryOptions& options) {
  return (options.cancel != nullptr &&
          options.cancel->load(std::memory_order_relaxed)) ||  // gpssn-lint: relaxed(cooperative cancel flag; latency not ordering)
         options.deadline.Expired();
}

// ----------------------------------------------------------- CenterRefiner

CenterRefiner::CenterRefiner(RefineScratch* scratch, const Inputs& in,
                             double issuer_bound)
    : scratch_(scratch), in_(in), issuer_bound_(issuer_bound) {
  const SpatialSocialNetwork& ssn = in_.poi_index->ssn();
  scratch_->BeginQuery(static_cast<size_t>(ssn.num_users()),
                       static_cast<size_t>(ssn.num_pois()));
  scratch_->frontier.Reset(
      [this](std::span<const PoiId> ids, std::span<double> keys) {
        Materialize(ids, keys);
      });
}

void CenterRefiner::AddCandidates(std::span<const PoiId> centers) {
  for (PoiId c : centers) {
    // The slack keeps the key a true lower bound of the exact key.
    const double lb = LbDistToPoi(*in_.ctx, in_.poi_index->poi_aug(c));
    scratch_->frontier.Push(lb - PivotSlack(lb), c);
  }
}

void CenterRefiner::Materialize(std::span<const PoiId> ids,
                                std::span<double> keys) {
  RefineScratch& scr = *scratch_;
  const SpatialSocialNetwork& ssn = in_.poi_index->ssn();
  QueryStats& stats = *in_.stats;
  {
    const ScopedPhaseTimer ball_phase(&stats.ball_seconds);
    for (PoiId c : ids) {
      if (interrupted_ || QueryInterrupted(*in_.options)) {
        interrupted_ = true;
        return;  // Keys stay kInfDistance: the query is being abandoned.
      }
      if (scr.centers.size() <= scr.num_centers) scr.centers.emplace_back();
      scr.center_stamp[c] = scr.generation;
      scr.center_slot[c] = static_cast<int32_t>(scr.num_centers);
      CenterInfo& info = scr.centers[scr.num_centers++];
      info.ball.clear();
      info.has_mask = false;
      ++stats.ball_queries;
      if (in_.engine->BallUsesRangeEngine(in_.query->radius)) {
        ++stats.ball_range_engine_queries;
      }
      for (const auto& [id, dist] : in_.engine->BallWithDistances(
               ssn.poi(c).position, in_.query->radius)) {
        info.ball.push_back(id);
        if (scr.poi_stamp[id] != scr.generation) {
          scr.poi_stamp[id] = scr.generation;
          scr.poi_slot[id] = static_cast<int32_t>(scr.needed.size());
          scr.needed.push_back(id);
          scr.needed_positions.push_back(ssn.poi(id).position);
        }
        in_.pool->Access(in_.poi_index->poi_page(id));
      }
      std::sort(info.ball.begin(), info.ball.end());
      info.union_keywords = UnionKeywords(ssn, info.ball);
      info.issuer_matches =
          MatchScore(in_.ctx->w_q, info.union_keywords) >= in_.query->theta;
      if (in_.social_scratch != nullptr) {
        in_.social_scratch->BuildKeywordMask(info.union_keywords,
                                             &info.keyword_mask);
        info.has_mask = true;
      }
    }
  }
  // Exact key: the issuer-side objective contribution max_{o∈ball}
  // dist(u_q, o). Centers with a member beyond the issuer bound (or
  // unreachable) cannot beat it and are dropped.
  const double* issuer = Row(in_.query->issuer, issuer_bound_);
  for (size_t i = 0; i < ids.size(); ++i) {
    const CenterInfo& info = center(ids[i]);
    double worst = info.ball.empty() ? kInfDistance : 0.0;
    for (PoiId o : info.ball) {
      worst = std::max(worst, issuer[scr.poi_slot[o]]);
      if (worst >= kInfDistance) break;
    }
    keys[i] = worst;
  }
}

const double* CenterRefiner::Row(UserId u, double bound) {
  RefineScratch& scr = *scratch_;
  const size_t width = scr.needed.size();
  if (registered_ != width) {
    // Append-only: the engine processes only the new targets.
    in_.engine->SetTargets(scr.needed_positions);
    registered_ = width;
  }
  size_t offset = scr.rows.size();
  size_t have = 0;
  if (scr.user_stamp[u] == scr.generation) {
    have = scr.user_width[u];
    if (have == width) return scr.rows.data() + scr.user_offset[u];
    if (scr.user_offset[u] + have == scr.rows.size()) {
      offset = scr.user_offset[u];  // Last row: extend in place.
      scr.rows.resize(offset + width);
    } else {
      scr.rows.resize(offset + width);
      std::copy_n(scr.rows.begin() + static_cast<std::ptrdiff_t>(
                                         scr.user_offset[u]),
                  have, scr.rows.begin() + static_cast<std::ptrdiff_t>(offset));
    }
  } else {
    scr.rows.resize(offset + width);
    // Charge the traversal of the user's neighbourhood (adjacency pages).
    in_.pool->Access(in_.social_index->user_page(u));
  }
  double* row = scr.rows.data() + offset;
  FillRow(u, u == in_.query->issuer ? issuer_bound_ : bound, row, have,
          width);
  scr.user_stamp[u] = scr.generation;
  scr.user_offset[u] = offset;
  scr.user_width[u] = static_cast<uint32_t>(width);
  return row;
}

void CenterRefiner::FillRow(UserId u, double bound, double* row, size_t first,
                            size_t width) {
  if (first >= width) return;
  RefineScratch& scr = *scratch_;
  QueryStats& stats = *in_.stats;
  DistanceCache* cache = in_.options->distance_cache;
  if (cache != nullptr) {
    bool all_hit = true;
    for (size_t i = first; i < width && all_hit; ++i) {
      all_hit = cache->Lookup(u, scr.needed[i], bound, &row[i]);
    }
    if (all_hit) {
      ++stats.dist_cache_row_hits;
      return;
    }
    ++stats.dist_cache_row_misses;
  }
  const ScopedPhaseTimer exact_phase(&stats.exact_dist_seconds);
  const EdgePosition& home = in_.poi_index->ssn().user_home(u);
  if (u == in_.query->issuer) {
    in_.engine->ResumableSourceToTargets(home, bound, row, first);
  } else {
    in_.engine->SourceToTargets(home, bound, row, first);
  }
  ++stats.exact_distance_evals;
  if (cache != nullptr) {
    for (size_t i = first; i < width; ++i) {
      cache->Insert(u, scr.needed[i], bound, row[i]);
    }
  }
}

double CenterRefiner::UserLb(UserId u, PoiId c) const {
  const double lb =
      LbUserPoiDist(in_.social_index->user_road_pivot_dists(u),
                    in_.poi_index->poi_aug(c));
  if (in_.auditor != nullptr) {
    in_.auditor->OnPairDistanceBound(*in_.ctx, u, c, lb);
  }
  return lb;
}

bool CenterRefiner::Matches(UserId u, const CenterInfo& info) const {
  if (info.has_mask) {
    const int idx = in_.social_scratch->IndexOf(u);
    if (idx >= 0) {
      return in_.social_scratch->MatchRow(idx, info.keyword_mask) >=
             in_.query->theta;
    }
  }
  return MatchScore(in_.poi_index->ssn().social().Interests(u),
                    info.union_keywords) >= in_.query->theta;
}

bool CenterRefiner::RunSerial(const std::vector<std::vector<UserId>>& groups,
                              int top_k, double incumbent,
                              std::vector<Hit>* best) {
  QueryStats& stats = *in_.stats;
  VisitMemo& memo = scratch_->visit;
  const size_t num_users =
      static_cast<size_t>(in_.poi_index->ssn().num_users());
  // Rejection threshold: strictly above the incumbent (an answer tying it
  // may still win a global discovery-rank comparison), then non-strictly
  // against the k-th best held (later discovery loses ties).
  const double above_incumbent = std::nextafter(incumbent, kInfDistance);
  auto full = [&]() { return static_cast<int>(best->size()) >= top_k; };
  auto limit = [&]() {
    return full() ? best->back().answer.max_dist : above_incumbent;
  };
  // Distance-row bound: d == bound stays finite (the engines keep
  // settled-at-bound vertices), so an objective tying it is representable.
  auto row_bound = [&]() {
    return full() ? best->back().answer.max_dist : incumbent;
  };

  int64_t pair_budget = in_.options->max_refine_pairs;
  uint32_t poll_stride = 0;
  double key = 0.0;
  PoiId c = kInvalidPoi;
  while (scratch_->frontier.Next(limit(), &key, &c)) {
    if (interrupted_ || QueryInterrupted(*in_.options)) {
      interrupted_ = true;
      return false;
    }
    const CenterInfo& info = center(c);
    if (!info.issuer_matches) continue;
    memo.Begin(num_users);

    for (size_t gi = 0; gi < groups.size(); ++gi) {
      if ((++poll_stride & 63u) == 0 && QueryInterrupted(*in_.options)) {
        interrupted_ = true;
        return false;
      }
      const std::vector<UserId>& group = groups[gi];
      // Pivot lower bound of the pair objective (Lemma 5), from the
      // per-visit memo: one bound per user per center.
      const double lim = limit();
      double pair_lb = key;
      for (UserId u : group) {
        if (memo.lb_stamp[u] != memo.generation) {
          memo.lb_stamp[u] = memo.generation;
          memo.lb[u] = UserLb(u, c);
        }
        pair_lb = std::max(pair_lb, memo.lb[u]);
        if (pair_lb >= lim) break;
      }
      if (pair_lb >= lim) continue;

      // Matching-score predicate for every member (memoized).
      bool all_match = true;
      for (UserId u : group) {
        if (memo.match_stamp[u] != memo.generation) {
          memo.match_stamp[u] = memo.generation;
          memo.match[u] = Matches(u, info) ? 1 : 0;
        }
        if (memo.match[u] == 0) {
          all_match = false;
          break;
        }
      }
      if (!all_match) continue;

      // Exact objective: maxdist_RN(S, B(c, r)). The budget caps only
      // these expensive evaluations; lower-bound skips above are O(h)
      // and free.
      if (--pair_budget < 0) {
        stats.truncated = true;
        break;
      }
      ++stats.pairs_examined;
      double obj = 0.0;
      bool feasible = true;
      for (UserId u : group) {
        const double* dists = Row(u, row_bound());
        for (PoiId o : info.ball) {
          const double d = dists[scratch_->poi_slot[o]];
          if (d >= kInfDistance) {
            feasible = false;  // Distance beyond the bound: cannot win.
            break;
          }
          obj = std::max(obj, d);
        }
        if (!feasible || obj >= limit()) {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;
      Hit hit;
      hit.answer.found = true;
      hit.answer.users = group;
      hit.answer.center = c;
      hit.answer.pois = info.ball;
      hit.answer.max_dist = obj;
      hit.center_key = key;
      hit.group_index = static_cast<int64_t>(gi);
      auto it = std::upper_bound(
          best->begin(), best->end(), obj,
          [](double v, const Hit& h) { return v < h.answer.max_dist; });
      best->insert(it, std::move(hit));
      if (static_cast<int>(best->size()) > top_k) best->pop_back();
    }
    if (pair_budget < 0) break;
  }
  return !interrupted_;
}

}  // namespace gpssn
