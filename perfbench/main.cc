// Copyright 2026 The gpssn Authors.
//
// gpssn_perfbench: the repository's benchmark (see README.md).
//
//   gpssn_perfbench --workload <city-open|refine-tau8|region-sharded>
//                   --seed N --seconds S --trace 0|1
//                   [--trace-out PATH] [--commit SHA]
//
// Generates the workload's inputs from the seed, runs it for about S
// seconds in whole rounds, checks every answer with the independent
// checker (checker.h), and prints one JSON object as the last line of
// standard output: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. The traced run also writes its spans as a
// Chrome/Perfetto trace. The benchmark calls gpssn only through its
// public headers.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "checker.h"
#include "common/rng.h"
#include "core/refinement.h"
#include "gpssn/gpssn.h"
#include "index/pivot_select.h"
#include "serving/coordinator.h"
#include "serving/partition.h"
#include "serving/wire.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace gpssn;

// Taken during static initialization, before main(): set-up time is
// measured from here, so it covers one cold set-up of the whole process.
const Clock::time_point kProcessStart = Clock::now();

// ----- Fixed workload constants (README.md explains each choice) -----

// UNI at 0.3x the paper's size; shared by city-open and refine-tau8. The
// city is fixed; the seed drives the traffic.
constexpr uint64_t kCityDatasetSeed = 3101;
// The region network of region-sharded (CH side of the backend choice).
constexpr uint64_t kRegionDatasetSeed = 3102;
// city-open: issuer popularity is Zipf over a fixed ranking of the city's
// users (the popular users are a property of the city). No measured issuer
// distribution is at hand, so the exponent is the generator's own ZIPF
// exponent (README.md).
const double kIssuerZipf = SyntheticSsnOptions{}.zipf_exponent;
// city-open: offered open-loop rate per executor worker, about 30% of the
// saturated per-worker rate on the reference machine (README.md).
constexpr double kOfferedQpsPerWorker = 35.0;
// city-open: write windows between a round's open-loop segment and the
// next round.
constexpr int kCityWritesPerRound = 4;
// One full parameter block (81 combinations) per phase of a round.
constexpr int kSaturationBatch = 81;
constexpr int kOpenSegmentArrivals = 81;
// refine-tau8: a fixed panel of issuers, so per-query counters repeat
// exactly from run to run; the seed only permutes the panel.
constexpr uint64_t kPanelSeed = 8008;
constexpr int kPanelSize = 48;
// region-sharded: one QueryBatch per round, all on one cluster.
constexpr int kClusterBatch = 160;
constexpr int kClusterWarmup = 48;
// Fixed-size check samples per run.
constexpr int kBruteForceSample = 2;
constexpr int kSingleNodeSample = 12;
constexpr int kReplaySample = 24;
// refine-tau8 and region-sharded: write windows after the measured
// queries. The first few pay for lazy growth (first-time allocations) and
// are not timed.
constexpr int kTrailingWriteWarmup = 8;
constexpr int kTrailingWrites = 800;

// ----- Small helpers -----

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMib() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
};

// Metrics in insertion order, printed as {"name": {"value", "unit"}}.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : items_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      char buf[256];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", items_[i].name.c_str(),
                    std::isfinite(items_[i].value) ? items_[i].value : 0.0,
                    items_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

// Operation accounting plus correctness verdicts.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  // Time spent checking (outside every measured phase), for the run log.
  double check_seconds = 0.0;

  void Error(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
    else if (errors.size() == 20) errors.push_back("... more errors");
  }
};

// Everything a workload hands to the metric writers.
struct RunData {
  // Per-query stats of the measured queries (refine-tau8: one pass over
  // the panel, so counters repeat exactly).
  std::vector<QueryStats> stats;
  // (latency, processor cpu) pairs of the measured queries, seconds.
  std::vector<std::pair<double, double>> latency_cpu;
  // Replay sample for the traced decomposition.
  std::vector<GpssnQuery> replay;
};

// Runs `check` in a forked child and adds the errors it reports to
// `outcome`. RUSAGE_SELF does not count a child, so the memory of the
// exhaustive search (every enumerated group) and of single-node reference
// queries stays out of peak_rss_mb. Call it once per run, after the last
// measured query phase and with no other thread of the process running:
// the parent's next writes to its pages after a fork take copy-on-write
// faults.
void InChild(const std::function<void(Outcome*)>& check, Outcome* outcome) {
  const Clock::time_point t0 = Clock::now();
  std::fflush(nullptr);
  int fds[2];
  if (pipe(fds) != 0) {
    outcome->Error("pipe() failed");
    return;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    outcome->Error("fork() failed");
    return;
  }
  if (pid == 0) {
    close(fds[0]);
    Outcome child;
    check(&child);
    std::string report;
    for (std::string e : child.errors) {
      std::replace(e.begin(), e.end(), '\n', ' ');
      report += e + '\n';
    }
    for (size_t off = 0; off < report.size();) {
      const ssize_t n = write(fds[1], report.data() + off, report.size() - off);
      if (n <= 0) _exit(3);
      off += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string report;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) != 0;) {
    if (n > 0) report.append(buf, static_cast<size_t>(n));
    else if (errno != EINTR) break;
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  for (size_t lo = 0, hi; (hi = report.find('\n', lo)) != std::string::npos;
       lo = hi + 1) {
    outcome->Error(report.substr(lo, hi - lo));
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    outcome->Error("checker process ended abnormally (status " +
                   std::to_string(status) + ")");
  }
  outcome->check_seconds += Seconds(t0, Clock::now());
}

// Collects found answers and checks them with the independent checker on
// one lane per core, after the measured phase they came from and before
// the next write changes the network. A lane holds a few arrays the size
// of the road network and lives only during Flush, when the executor or
// cluster is already gone.
class CheckPool {
 public:
  explicit CheckPool(const SpatialSocialNetwork* ssn) : ssn_(ssn) {}

  void Add(const GpssnQuery& query, const GpssnAnswer& answer) {
    if (answer.found) pending_.push_back({query, answer});
  }

  void Flush(Outcome* outcome) {
    const Clock::time_point t0 = Clock::now();
    const size_t lanes = std::max(1u, std::thread::hardware_concurrency());
    std::vector<std::string> verdicts(pending_.size());
    std::vector<std::thread> threads;
    for (size_t lane = 0; lane < lanes; ++lane) {
      threads.emplace_back([this, lane, lanes, &verdicts] {
        AnswerChecker checker(ssn_);
        for (size_t i = lane; i < pending_.size(); i += lanes) {
          verdicts[i] = checker.Check(pending_[i].first, pending_[i].second);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (size_t i = 0; i < verdicts.size(); ++i) {
      if (!verdicts[i].empty()) {
        outcome->Error("issuer " + std::to_string(pending_[i].first.issuer) +
                       ": " + verdicts[i]);
      }
    }
    pending_.clear();
    outcome->check_seconds += Seconds(t0, Clock::now());
  }

 private:
  const SpatialSocialNetwork* ssn_;
  std::vector<std::pair<GpssnQuery, GpssnAnswer>> pending_;
};

// Records one answered query: a non-OK status or a truncated answer
// (QueryStats::truncated) is a failed operation; every answer is checked.
void Account(CheckPool* checks, const GpssnQuery& query, const Status& status,
             const GpssnAnswer& answer, const QueryStats& stats,
             Outcome* outcome) {
  ++outcome->attempted;
  if (!status.ok()) {
    ++outcome->failed;
    outcome->Error("query failed: " + status.ToString());
    return;
  }
  if (stats.truncated) ++outcome->failed;
  checks->Add(query, answer);
}

void CheckOptimal(const SpatialSocialNetwork& ssn, const GpssnQuery& query,
                  const GpssnAnswer& answer, Outcome* outcome) {
  QueryStats stats;
  const GpssnAnswer reference = BruteForceGpssn(ssn, query, 5000000, &stats);
  if (stats.truncated) {
    outcome->Error("exhaustive search truncated for issuer " +
                   std::to_string(query.issuer));
    return;
  }
  const std::string verdict = AnswerChecker::SameObjective(answer, reference);
  if (!verdict.empty()) {
    outcome->Error("issuer " + std::to_string(query.issuer) +
                   " vs exhaustive search: " + verdict);
  }
}

// ----- Set-up -----

SyntheticSsnOptions CityOptions() {
  SyntheticSsnOptions o;
  o.num_users = 9000;
  o.num_road_vertices = 6000;
  o.num_pois = 3000;
  o.seed = kCityDatasetSeed;
  return o;
}

SyntheticSsnOptions RegionOptions() {
  SyntheticSsnOptions o;
  o.num_users = 9000;
  o.num_road_vertices = 100000;
  o.num_pois = 3000;
  o.seed = kRegionDatasetSeed;
  return o;
}

// Traced runs only: repeats the database constructor's build steps one
// public call at a time, so each layer's share of set-up gets a span. The
// objects are discarded; the database then builds its own.
void TraceBuildSteps(Tracer* tracer, const SpatialSocialNetwork& ssn,
                     const GpssnBuildOptions& build, Metrics* layer) {
  PivotSelectOptions select = build.pivot_select;
  select.seed = build.seed;
  uint64_t span = tracer->Begin("index.pivot_select");
  std::vector<VertexId> road_ids =
      SelectRoadPivots(ssn.road(), build.num_road_pivots, select);
  std::vector<UserId> social_ids =
      SelectSocialPivots(ssn.social(), build.num_social_pivots, select);
  layer->Set("index.pivot_select_s", tracer->End(span), "s");

  span = tracer->Begin("index.pivot_tables");
  RoadPivotTable road_pivots(ssn.road(), std::move(road_ids));
  SocialPivotTable social_pivots(ssn.social(), std::move(social_ids));
  layer->Set("index.pivot_tables_s", tracer->End(span), "s");

  PoiIndexOptions poi_options = build.poi_index;
  poi_options.seed = build.seed;
  span = tracer->Begin("index.poi_index_build");
  PoiIndex poi_index(&ssn, &road_pivots, poi_options);
  layer->Set("index.poi_index_build_s", tracer->End(span), "s");

  SocialIndexOptions social_options = build.social_index;
  social_options.seed = build.seed;
  span = tracer->Begin("index.social_index_build");
  SocialIndex social_index(&ssn, &social_pivots, &road_pivots, social_options);
  layer->Set("index.social_index_build_s", tracer->End(span), "s");

  double ch_seconds = 0.0;
  if (build.distance_backend == DistanceBackendKind::kContractionHierarchy) {
    span = tracer->Begin("roadnet.ch_build");
    auto backend = MakeChBackend(&ssn.road(), &ssn.pois(), build.ch);
    ch_seconds = tracer->End(span);
  }
  layer->Set("roadnet.ch_build_s", ch_seconds, "s");
}

std::unique_ptr<GpssnDatabase> BuildDatabase(const SyntheticSsnOptions& data,
                                             const GpssnBuildOptions& build,
                                             Tracer* tracer, Metrics* layer) {
  uint64_t span = tracer ? tracer->Begin("ssn.generate") : 0;
  SpatialSocialNetwork ssn = MakeSynthetic(data);
  if (tracer) {
    layer->Set("ssn.generate_s", tracer->End(span), "s");
    TraceBuildSteps(tracer, ssn, build, layer);
  }
  ScopedSpan db_span(tracer, "core.database_build");
  return std::make_unique<GpssnDatabase>(std::move(ssn), build);
}

// ----- Traced replay: GatherCandidates -> plan -> RefineCandidates, plus
// Execute on the same query, as the one-shard coordinator decomposes it.

struct ReplayTimes {
  std::vector<double> gather, plan, refine, execute, execute_untraced;
  std::vector<double> encode, decode, ball, one_to_many;
  std::vector<std::pair<GpssnQuery, GpssnAnswer>> answers;
};

void Replay(GpssnDatabase* db, const QueryOptions& options,
            const std::vector<GpssnQuery>& queries, Tracer* tracer,
            Outcome* outcome, ReplayTimes* times) {
  GpssnProcessor processor(&db->poi_index(), &db->social_index());
  ShardScope whole;
  whole.social_roots = {db->social_index().root()};
  whole.road_roots = {db->poi_index().tree().root()};
  const SocialNetwork& social = db->ssn().social();

  for (size_t i = 0; i < queries.size(); ++i) {
    const GpssnQuery& query = queries[i];
    const int64_t qid = static_cast<int64_t>(i);
    ScopedSpan root(tracer, "core.replay", qid);

    uint64_t span = tracer->Begin("core.gather", qid);
    QueryStats gather_stats;
    auto candidates =
        processor.GatherCandidates(query, options, whole, &gather_stats);
    times->gather.push_back(tracer->End(span));
    if (!candidates.ok()) {
      outcome->Error("replay gather failed: " + candidates.status().ToString());
      continue;
    }

    span = tracer->Begin("core.plan", qid);
    std::vector<UserId> users = candidates->users;
    if (std::find(users.begin(), users.end(), query.issuer) == users.end()) {
      users.push_back(query.issuer);
    }
    QueryStats plan_stats;
    if (options.pruning.interest_score) {
      ApplyCorollary2(social, query, &users, &plan_stats);
    }
    std::vector<std::vector<UserId>> groups;
    const bool complete =
        EnumerateGroups(social, query, users, options.max_groups, &groups);
    times->plan.push_back(tracer->End(span));

    span = tracer->Begin("core.refine", qid);
    ShardRefineResult refined;
    if (!groups.empty()) {
      QueryStats refine_stats;
      auto result = processor.RefineCandidates(
          query, options, candidates->pois, groups, kInfDistance,
          &refine_stats);
      if (!result.ok()) {
        tracer->End(span);
        outcome->Error("replay refine failed: " + result.status().ToString());
        continue;
      }
      refined = std::move(*result);
    }
    times->refine.push_back(tracer->End(span));

    // Execute once untimed by the tracer and once inside a span, after one
    // untimed warm-up Execute, in alternating order so neither call always
    // runs on the warmer caches; the median of the per-query differences is
    // the tracing overhead.
    (void)processor.Execute(query, options);
    Result<GpssnAnswer> plain = Status::Internal("not run");
    Result<GpssnAnswer> executed = Status::Internal("not run");
    QueryStats execute_stats;
    for (int pass = 0; pass < 2; ++pass) {
      if ((pass == 0) == (i % 2 == 0)) {
        const Clock::time_point t0 = Clock::now();
        plain = processor.Execute(query, options);
        times->execute_untraced.push_back(Seconds(t0, Clock::now()));
      } else {
        span = tracer->Begin("core.execute", qid);
        executed = processor.Execute(query, options, &execute_stats);
        times->execute.push_back(tracer->End(span));
      }
    }
    if (!executed.ok() || !plain.ok()) {
      outcome->Error("replay execute failed");
      continue;
    }
    // The δ road-distance cut is sound iff the cut-free decomposition
    // finds the same answer.
    if (complete && !execute_stats.truncated) {
      const std::string verdict =
          AnswerChecker::Identical(refined.answer, *executed);
      if (!verdict.empty()) {
        outcome->Error("issuer " + std::to_string(query.issuer) +
                       ": replay differs from Execute: " + verdict);
      }
    }

    // Wire layer: the four messages the coordinator would exchange.
    serving::GatherRequest gather_request{query, -1.0};
    serving::CandidatesReply candidates_reply{*candidates, gather_stats};
    serving::RefineRequest refine_request{query, -1.0, kInfDistance,
                                          candidates->pois, groups};
    serving::AnswerReply answer_reply{refined, execute_stats};
    span = tracer->Begin("serving.wire_encode", qid);
    auto b1 = serving::EncodeGatherRequest(gather_request);
    auto b2 = serving::EncodeCandidatesReply(candidates_reply);
    auto b3 = serving::EncodeRefineRequest(refine_request);
    auto b4 = serving::EncodeAnswerReply(answer_reply);
    times->encode.push_back(tracer->End(span));
    span = tracer->Begin("serving.wire_decode", qid);
    const bool decoded = serving::DecodeGatherRequest(b1).ok() &&
                         serving::DecodeCandidatesReply(b2).ok() &&
                         serving::DecodeRefineRequest(b3).ok() &&
                         serving::DecodeAnswerReply(b4).ok();
    times->decode.push_back(tracer->End(span));
    if (!decoded) outcome->Error("wire round trip failed");

    times->answers.emplace_back(query, *executed);
  }
}

// Distance-engine calls on the replay's answers: one ball per answer
// center, one one-to-many evaluation per member against the answer's R.
void TimeEngine(const GpssnDatabase& db, Tracer* tracer, ReplayTimes* times) {
  std::unique_ptr<DistanceBackend> dijkstra;
  const DistanceBackend* backend = db.distance_backend();
  if (backend == nullptr) {
    dijkstra = MakeDijkstraBackend(&db.ssn().road(), &db.ssn().pois());
    backend = dijkstra.get();
  }
  std::unique_ptr<DistanceEngine> engine = backend->CreateEngine();
  int64_t qid = 0;
  for (const auto& [query, answer] : times->answers) {
    ++qid;
    if (!answer.found) continue;
    uint64_t span = tracer->Begin("roadnet.ball", qid);
    auto ball = engine->BallWithDistances(
        db.ssn().poi(answer.center).position, query.radius);
    times->ball.push_back(tracer->End(span));
    std::vector<EdgePosition> targets;
    for (PoiId o : answer.pois) targets.push_back(db.ssn().poi(o).position);
    engine->SetTargets(targets);
    std::vector<double> out(targets.size());
    for (UserId u : answer.users) {
      span = tracer->Begin("roadnet.one_to_many", qid);
      engine->SourceToTargets(db.ssn().user_home(u),
                              answer.max_dist * (1.0 + 1e-6), out.data());
      times->one_to_many.push_back(tracer->End(span));
    }
  }
}

// ----- Per-layer metrics shared by every workload -----

void SetQueryLayerMetrics(const RunData& run, Metrics* layer) {
  std::vector<double> descent, ball, refine, exact, unattributed, gather,
      plan, serve_refine;
  double users = 0, pois = 0, groups = 0, pairs = 0, pages = 0, evals = 0,
         base = 0, ball_q = 0, range_q = 0, hits = 0, misses = 0, msgs = 0,
         skipped = 0, refined = 0;
  for (const QueryStats& s : run.stats) {
    descent.push_back(s.descent_seconds * 1e3);
    ball.push_back(s.ball_seconds * 1e3);
    refine.push_back(s.refine_seconds * 1e3);
    exact.push_back(s.exact_dist_seconds * 1e3);
    unattributed.push_back(
        (s.refine_seconds - s.ball_seconds - s.exact_dist_seconds) * 1e3);
    gather.push_back(s.serve_gather_seconds * 1e3);
    plan.push_back(s.serve_plan_seconds * 1e3);
    serve_refine.push_back(s.serve_refine_seconds * 1e3);
    users += s.users_candidates;
    pois += s.pois_candidates;
    groups += s.groups_enumerated;
    pairs += s.pairs_examined;
    pages += s.PageAccesses();
    evals += s.exact_distance_evals;
    base += static_cast<double>(s.groups_enumerated) * s.pois_candidates;
    ball_q += s.ball_queries;
    range_q += s.ball_range_engine_queries;
    hits += s.dist_cache_row_hits;
    misses += s.dist_cache_row_misses;
    msgs += s.shard_msgs;
    skipped += s.skipped_shards;
    refined += s.refined_shards;
  }
  const double n = static_cast<double>(std::max<size_t>(1, run.stats.size()));
  layer->Set("core.descent_ms", Quantile(descent, 0.5), "ms");
  layer->Set("core.ball_ms", Quantile(ball, 0.5), "ms");
  layer->Set("core.refine_phase_ms", Quantile(refine, 0.5), "ms");
  layer->Set("core.refine_unattributed_ms", Quantile(unattributed, 0.5), "ms");
  layer->Set("core.users_candidates", users / n, "count");
  layer->Set("core.pois_candidates", pois / n, "count");
  layer->Set("core.groups_enumerated", groups / n, "count");
  layer->Set("core.pairs_examined", pairs / n, "count");
  layer->Set("core.page_accesses", pages / n, "count");
  layer->Set("core.pair_survival_ratio", Ratio(pairs, base), "ratio");
  layer->Set("core.pair_survival_base", base / n, "count");
  layer->Set("roadnet.exact_dist_ms", Quantile(exact, 0.5), "ms");
  layer->Set("roadnet.exact_distance_evals", evals / n, "count");
  layer->Set("roadnet.ball_ms", Quantile(ball, 0.5), "ms");
  layer->Set("roadnet.range_engine_share", Ratio(range_q, ball_q), "ratio");
  layer->Set("roadnet.cache_row_hit_ratio", Ratio(hits, hits + misses),
             "ratio");
  layer->Set("roadnet.cache_rows_looked_up", (hits + misses) / n, "count");
  layer->Set("serving.gather_ms", Quantile(gather, 0.5), "ms");
  layer->Set("serving.plan_ms", Quantile(plan, 0.5), "ms");
  layer->Set("serving.refine_ms", Quantile(serve_refine, 0.5), "ms");
  layer->Set("serving.msgs_per_query", msgs / n, "count");
  layer->Set("serving.refine_skip_ratio", Ratio(skipped, skipped + refined),
             "ratio");
  layer->Set("serving.shards_planned", (skipped + refined) / n, "count");

  std::vector<double> service, wait;
  for (const auto& [latency, cpu] : run.latency_cpu) {
    service.push_back(cpu * 1e3);
    wait.push_back(std::max(0.0, latency - cpu) * 1e3);
  }
  layer->Set("executor.service_p50_ms", Quantile(service, 0.5), "ms");
  layer->Set("executor.service_p99_ms", Quantile(service, 0.99), "ms");
  layer->Set("executor.queue_wait_p50_ms", Quantile(wait, 0.5), "ms");
  layer->Set("executor.queue_wait_p99_ms", Quantile(wait, 0.99), "ms");
}

void SetReplayMetrics(const ReplayTimes& t, Metrics* layer) {
  auto ms = [](const std::vector<double>& v) { return Quantile(v, 0.5) * 1e3; };
  auto us = [](const std::vector<double>& v) { return Quantile(v, 0.5) * 1e6; };
  layer->Set("core.gather_ms", ms(t.gather), "ms");
  layer->Set("core.plan_ms", ms(t.plan), "ms");
  layer->Set("core.refine_ms", ms(t.refine), "ms");
  layer->Set("core.execute_ms", ms(t.execute), "ms");
  std::vector<double> overhead;
  for (size_t i = 0; i < t.execute.size(); ++i) {
    overhead.push_back(t.execute[i] - t.execute_untraced[i]);
  }
  layer->Set("trace.overhead_p50_ms", ms(overhead), "ms");
  layer->Set("serving.wire_encode_us", us(t.encode), "us");
  layer->Set("serving.wire_decode_us", us(t.decode), "us");
  layer->Set("roadnet.ball_us", us(t.ball), "us");
  layer->Set("roadnet.one_to_many_us", us(t.one_to_many), "us");
}

// ----- Writes -----

struct WriteTimes {
  std::vector<double> total, add, update, recreate;  // ms.
};

// One write window (queries must be quiesced): a new POI on a random edge
// and one user's interests replaced by another user's (interest drift).
void WriteWindow(GpssnDatabase* db, Rng* rng, Tracer* tracer,
                 WriteTimes* times, Outcome* outcome) {
  ScopedSpan window(tracer, "index.write_window");
  const SpatialSocialNetwork& ssn = db->ssn();
  EdgePosition position;
  position.edge = static_cast<EdgeId>(rng->NextBounded(ssn.road().num_edges()));
  position.t = rng->UniformDouble();
  std::vector<KeywordId> keywords = {
      static_cast<KeywordId>(rng->NextBounded(ssn.num_topics()))};
  const KeywordId second =
      static_cast<KeywordId>(rng->NextBounded(ssn.num_topics()));
  if (rng->Bernoulli(0.5) && second != keywords[0]) {
    keywords.push_back(second);
    std::sort(keywords.begin(), keywords.end());
  }
  const UserId user = static_cast<UserId>(rng->NextBounded(ssn.num_users()));
  const UserId donor = static_cast<UserId>(rng->NextBounded(ssn.num_users()));
  const auto donor_interests = ssn.social().Interests(donor);
  const std::vector<double> interests(donor_interests.begin(),
                                      donor_interests.end());

  const Clock::time_point t0 = Clock::now();
  Result<PoiId> added = [&] {
    ScopedSpan span(tracer, "index.add_poi");
    return db->AddPoi(position, std::move(keywords));
  }();
  const Clock::time_point t1 = Clock::now();
  const Status updated = [&] {
    ScopedSpan span(tracer, "index.update_interests");
    return db->UpdateUserInterests(user, interests);
  }();
  const Clock::time_point t2 = Clock::now();
  outcome->attempted += 2;
  if (!added.ok()) {
    ++outcome->failed;
    outcome->Error("AddPoi failed: " + added.status().ToString());
  }
  if (!updated.ok()) {
    ++outcome->failed;
    outcome->Error("UpdateUserInterests failed: " + updated.ToString());
  }
  times->total.push_back(Seconds(t0, t2) * 1e3);
  times->add.push_back(Seconds(t0, t1) * 1e3);
  times->update.push_back(Seconds(t1, t2) * 1e3);
}

void SetWriteMetrics(const WriteTimes& w, Metrics* e2e, Metrics* layer) {
  e2e->Set("write_p50_ms", Quantile(w.total, 0.5), "ms");
  layer->Set("index.add_poi_ms", Quantile(w.add, 0.5), "ms");
  layer->Set("index.update_interests_ms", Quantile(w.update, 0.5), "ms");
  layer->Set("executor.recreate_ms", Quantile(w.recreate, 0.5), "ms");
}

// Latency quantile robust to a burst of interference from other
// processes: the samples, in the order the queries were issued, are cut
// into consecutive blocks of at least kLatencyBlock, and the median of the
// blocks' quantiles is reported. With fewer than two blocks of samples it
// is the plain quantile.
constexpr size_t kLatencyBlock = 500;

double BlockQuantile(const std::vector<double>& samples, double q) {
  const size_t blocks = std::max<size_t>(1, samples.size() / kLatencyBlock);
  std::vector<double> per_block;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t lo = samples.size() * b / blocks;
    const size_t hi = samples.size() * (b + 1) / blocks;
    per_block.push_back(Quantile(
        std::vector<double>(samples.begin() + lo, samples.begin() + hi), q));
  }
  return Quantile(per_block, 0.5);
}

// Write windows after a workload's measured queries (warm-up first).
void TrailingWrites(GpssnDatabase* db, uint64_t seed, Tracer* tracer,
                    Metrics* e2e, Metrics* layer, Outcome* outcome) {
  Rng writes(seed * 0x9e3779b97f4a7c15ULL + 1);
  WriteTimes warmup, timed;
  for (int i = 0; i < kTrailingWriteWarmup + kTrailingWrites; ++i) {
    WriteWindow(db, &writes, tracer,
                i < kTrailingWriteWarmup ? &warmup : &timed, outcome);
  }
  SetWriteMetrics(timed, e2e, layer);
}

// End-to-end latency metrics; the traced run repeats p50 per layer so the
// traced-minus-untraced difference can be read across runs.
void SetLatencyMetrics(const std::vector<double>& latency_ms, Metrics* e2e,
                       Metrics* layer) {
  e2e->Set("latency_p50_ms", BlockQuantile(latency_ms, 0.5), "ms");
  e2e->Set("latency_p90_ms", BlockQuantile(latency_ms, 0.9), "ms");
  e2e->Set("latency_p99_ms", BlockQuantile(latency_ms, 0.99), "ms");
  layer->Set("trace.latency_p50_ms", BlockQuantile(latency_ms, 0.5), "ms");
  std::printf("# latency samples=%zu\n", latency_ms.size());
}

// ----- Workload: city-open -----

// city-open's query stream. Parameters come from Table 3 values in
// shuffled blocks of all 81 (τ, γ, θ, r) combinations, so every run sees
// the same mix and only the order and the issuers vary with the seed.
class CityTraffic {
 public:
  CityTraffic(uint64_t seed, int num_users)
      : rng_(seed), zipf_(num_users, kIssuerZipf), ranking_(num_users) {
    std::iota(ranking_.begin(), ranking_.end(), 0);
    Rng fixed(kCityDatasetSeed * 31 + 7);
    fixed.Shuffle(&ranking_);
  }

  GpssnQuery Next() {
    static constexpr int kTaus[] = {2, 3, 5};
    static constexpr double kGammas[] = {0.2, 0.3, 0.5};
    static constexpr double kThetas[] = {0.2, 0.3, 0.4};
    static constexpr double kRadii[] = {1.0, 2.0, 3.0};
    if (deck_.empty()) {
      for (int c = 0; c < 81; ++c) deck_.push_back(c);
      rng_.Shuffle(&deck_);
    }
    const int c = deck_.back();
    deck_.pop_back();
    GpssnQuery q;
    q.issuer = ranking_[zipf_.Sample(&rng_)];
    q.tau = kTaus[c % 3];
    q.gamma = kGammas[c / 3 % 3];
    q.theta = kThetas[c / 9 % 3];
    q.radius = kRadii[c / 27];
    return q;
  }

 private:
  Rng rng_;
  ZipfSampler zipf_;
  std::vector<UserId> ranking_;  // Popularity rank -> user.
  std::vector<int> deck_;
};

void RunCityOpen(const Args& args, Tracer* tracer, Metrics* e2e,
                 Metrics* layer, Outcome* outcome, RunData* run) {
  // One core stays with the load generator, which must submit on time.
  const int workers = std::max(
      1, static_cast<int>(std::thread::hardware_concurrency()) - 1);
  auto db = BuildDatabase(CityOptions(), GpssnBuildOptions{}, tracer, layer);
  BatchExecutorOptions exec_options;
  exec_options.num_workers = workers;
  auto executor = std::make_unique<GpssnBatchExecutor>(
      &db->poi_index(), &db->social_index(), exec_options);
  e2e->Set("setup_s", Seconds(kProcessStart, Clock::now()), "s");

  CheckPool checks(&db->ssn());
  CityTraffic traffic(args.seed, db->ssn().num_users());
  Rng writes(args.seed * 0x9e3779b97f4a7c15ULL + 1);
  Rng arrivals(args.seed * 0xbf58476d1ce4e5b9ULL + 2);
  const double rate = kOfferedQpsPerWorker * workers;

  // Warm-up: one untimed batch so arenas and page caches settle.
  {
    std::vector<GpssnQuery> warm;
    for (int i = 0; i < kSaturationBatch; ++i) warm.push_back(traffic.Next());
    executor->ExecuteAll(warm);
  }

  std::vector<double> round_qps, latency, lag;
  std::vector<GpssnQuery> optimal_sample;  // Round 0's first queries.
  WriteTimes write_times;
  double stolen = 0, published = 0, batch_queries = 0;
  // Rounds run until the measured phases (not the checks between them)
  // have taken --seconds; every round is whole.
  double measured = 0.0;
  for (int round = 0; measured < args.seconds; ++round) {
    ScopedSpan round_span(tracer, "city.round");
    // 1. Saturation: submit the whole batch, wait for all.
    std::vector<GpssnQuery> batch;
    for (int i = 0; i < kSaturationBatch; ++i) batch.push_back(traffic.Next());
    if (round == 0) {
      run->replay.assign(batch.begin(), batch.begin() + kReplaySample);
    }
    BatchStats sat_stats;
    std::vector<BatchQueryResult> results;
    {
      ScopedSpan span(tracer, "executor.saturation_batch");
      const Clock::time_point t0 = Clock::now();
      results = executor->ExecuteAll(batch, &sat_stats);
      const double seconds = Seconds(t0, Clock::now());
      round_qps.push_back(static_cast<double>(results.size()) / seconds);
      measured += seconds;
    }
    stolen += static_cast<double>(sat_stats.scheduler_tasks_stolen);
    published += static_cast<double>(sat_stats.scheduler_sources_published);
    batch_queries += static_cast<double>(results.size());
    for (const BatchQueryResult& r : results) {
      Account(&checks, r.query, r.status, r.answer, r.stats, outcome);
      run->stats.push_back(r.stats);
    }
    if (round == 0) {
      for (int i = 0; i < kBruteForceSample; ++i) {
        optimal_sample.push_back(results[i].query);
      }
    }

    // 2. Open loop: Poisson arrivals at the fixed offered rate; latency
    // runs from each query's due time to its completion.
    std::vector<double> due(kOpenSegmentArrivals);
    double offset = 0.0;
    for (double& d : due) {
      offset += -std::log(1.0 - arrivals.UniformDouble()) / rate;
      d = offset;
    }
    std::vector<GpssnQuery> open;
    for (int i = 0; i < kOpenSegmentArrivals; ++i) open.push_back(traffic.Next());
    std::vector<Clock::time_point> done(open.size());
    std::vector<Clock::time_point> submitted(open.size());
    BatchStats open_stats;
    const Clock::time_point seg_start = Clock::now();
    {
      ScopedSpan span(tracer, "load.open_segment");
      for (size_t i = 0; i < open.size(); ++i) {
        const Clock::time_point when =
            seg_start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(due[i]));
        std::this_thread::sleep_until(when);
        submitted[i] = Clock::now();
        Clock::time_point* slot = &done[i];
        executor->Submit(open[i], 0.0, [slot](const BatchQueryResult&) {
          *slot = Clock::now();
        });
      }
      results = executor->Wait(&open_stats);
    }
    measured += Seconds(seg_start, Clock::now());
    stolen += static_cast<double>(open_stats.scheduler_tasks_stolen);
    published += static_cast<double>(open_stats.scheduler_sources_published);
    batch_queries += static_cast<double>(results.size());
    for (size_t i = 0; i < results.size(); ++i) {
      const BatchQueryResult& r = results[i];
      const Clock::time_point due_at =
          seg_start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(due[i]));
      latency.push_back(Seconds(due_at, done[i]) * 1e3);
      lag.push_back(Seconds(due_at, submitted[i]) * 1e3);
      run->latency_cpu.emplace_back(r.latency_seconds, r.stats.cpu_seconds);
      if (tracer != nullptr) {
        const int64_t qid = static_cast<int64_t>(round) * 100000 + i;
        const Clock::time_point start_service =
            done[i] - std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(r.stats.cpu_seconds));
        const uint64_t q = tracer->Add("load.query", qid, round_span.id(),
                                       due_at, done[i]);
        tracer->Add("executor.queue_wait", qid, q, submitted[i],
                    std::max(submitted[i], start_service));
        tracer->Add("executor.service", qid, q,
                    std::max(submitted[i], start_service), done[i]);
      }
      Account(&checks, r.query, r.status, r.answer, r.stats, outcome);
      run->stats.push_back(r.stats);
    }

    // 3. The executor is torn down, the answers are checked on the state
    // they came from, the write windows run (queries quiesced), and a fresh
    // executor is built over the patched indexes: an executor built before
    // AddPoi keeps stale POI locators (CHANGES.md). With the workers gone
    // the writes neither race them nor contend with them for the cores.
    Clock::time_point t0 = Clock::now();
    double recreate = 0.0;
    {
      ScopedSpan span(tracer, "executor.destroy");
      executor.reset();
      recreate += Seconds(t0, Clock::now());
    }
    checks.Flush(outcome);
    for (int w = 0; w < kCityWritesPerRound; ++w) {
      WriteWindow(db.get(), &writes, tracer, &write_times, outcome);
    }
    {
      ScopedSpan span(tracer, "executor.create");
      t0 = Clock::now();
      executor = std::make_unique<GpssnBatchExecutor>(
          &db->poi_index(), &db->social_index(), exec_options);
      recreate += Seconds(t0, Clock::now());
    }
    write_times.recreate.push_back(recreate * 1e3);
  }
  // The optimality sample, after the last measured phase: round 0's first
  // queries again, on the final executor and network.
  const std::vector<BatchQueryResult> optimal =
      executor->ExecuteAll(optimal_sample);
  executor.reset();
  InChild(
      [&](Outcome* out) {
        for (const BatchQueryResult& r : optimal) {
          if (!r.status.ok()) out->Error("query failed: " + r.status.ToString());
          else CheckOptimal(db->ssn(), r.query, r.answer, out);
        }
      },
      outcome);

  // Median over rounds: robust to a round that other processes slowed.
  e2e->Set("qps", Quantile(round_qps, 0.5), "queries/s");
  SetLatencyMetrics(latency, e2e, layer);
  SetWriteMetrics(write_times, e2e, layer);
  layer->Set("load.lag_p99_ms", Quantile(lag, 0.99), "ms");
  layer->Set("load.offered_qps", rate, "queries/s");
  layer->Set("scheduler.tasks_stolen", Ratio(stolen, batch_queries),
             "1/query");
  layer->Set("scheduler.sources_published", Ratio(published, batch_queries),
             "1/query");

  if (tracer != nullptr) {
    ReplayTimes times;
    Replay(db.get(), QueryOptions{}, run->replay, tracer, outcome, &times);
    TimeEngine(*db, tracer, &times);
    SetReplayMetrics(times, layer);
  }
  e2e->Set("peak_rss_mb", PeakRssMib(), "MiB");
}

// ----- Workload: refine-tau8 -----

void RunRefineTau8(const Args& args, Tracer* tracer, Metrics* e2e,
                   Metrics* layer, Outcome* outcome, RunData* run) {
  auto db = BuildDatabase(CityOptions(), GpssnBuildOptions{}, tracer, layer);
  e2e->Set("setup_s", Seconds(kProcessStart, Clock::now()), "s");

  std::vector<GpssnQuery> panel;
  {
    Rng fixed(kPanelSeed);
    for (size_t u : fixed.SampleWithoutReplacement(db->ssn().num_users(),
                                                   kPanelSize)) {
      GpssnQuery q;
      q.issuer = static_cast<UserId>(u);
      q.tau = 8;
      panel.push_back(q);
    }
  }
  const std::vector<GpssnQuery> fixed_order = panel;
  Rng order(args.seed);
  order.Shuffle(&panel);
  CheckPool checks(&db->ssn());
  std::map<UserId, GpssnAnswer> first_answer;

  // Warm-up: arenas sized by one untimed query.
  (void)db->Query(panel[0]);

  // Each round runs the whole panel; a query's latency is its median over
  // the rounds, which filters out interference from other processes.
  std::vector<std::vector<double>> per_query(panel.size());
  double busy = 0.0;
  for (int round = 0; busy < args.seconds; ++round) {
    ScopedSpan round_span(tracer, "refine.round");
    for (size_t i = 0; i < panel.size(); ++i) {
      const GpssnQuery& q = panel[i];
      QueryStats stats;
      const int64_t qid = static_cast<int64_t>(round) * 1000 + i;
      const Clock::time_point t0 = Clock::now();
      Result<GpssnAnswer> answer = [&] {
        ScopedSpan span(tracer, "core.database_query", qid);
        return db->Query(q, &stats);
      }();
      const double seconds = Seconds(t0, Clock::now());
      busy += seconds;
      per_query[i].push_back(seconds * 1e3);
      if (round == 0) {
        Account(&checks, q, answer.status(), answer.ok() ? *answer : GpssnAnswer{},
                stats, outcome);
        run->stats.push_back(stats);
        run->latency_cpu.emplace_back(seconds, stats.cpu_seconds);
        if (answer.ok()) first_answer[q.issuer] = *answer;
      } else {
        ++outcome->attempted;
        if (!answer.ok() || stats.truncated) ++outcome->failed;
        if (answer.ok()) {
          const std::string verdict =
              AnswerChecker::Identical(*answer, first_answer[q.issuer]);
          if (!verdict.empty()) outcome->Error("repeat differs: " + verdict);
        }
      }
    }
  }
  checks.Flush(outcome);
  InChild(
      [&](Outcome* out) {
        for (int i = 0; i < kBruteForceSample; ++i) {
          CheckOptimal(db->ssn(), fixed_order[i],
                       first_answer[fixed_order[i].issuer], out);
        }
      },
      outcome);

  std::vector<double> latency;
  for (const std::vector<double>& times : per_query) {
    latency.push_back(Quantile(times, 0.5));
  }
  const double panel_ms = std::accumulate(latency.begin(), latency.end(), 0.0);
  e2e->Set("qps", static_cast<double>(latency.size()) / (panel_ms / 1e3),
           "queries/s");
  std::printf("# rounds=%zu\n", per_query[0].size());
  SetLatencyMetrics(latency, e2e, layer);

  if (tracer != nullptr) {
    ReplayTimes times;
    Replay(db.get(), QueryOptions{}, fixed_order, tracer, outcome, &times);
    TimeEngine(*db, tracer, &times);
    SetReplayMetrics(times, layer);
  }
  // Writes run last, so the panel's answers stay put across rounds and
  // the replay.
  TrailingWrites(db.get(), args.seed, tracer, e2e, layer, outcome);
  e2e->Set("peak_rss_mb", PeakRssMib(), "MiB");
}

// ----- Workload: region-sharded -----

void RunRegionSharded(const Args& args, Tracer* tracer, Metrics* e2e,
                      Metrics* layer, Outcome* outcome, RunData* run) {
  GpssnBuildOptions build;
  build.distance_backend = DistanceBackendKind::kContractionHierarchy;
  auto db = BuildDatabase(RegionOptions(), build, tracer, layer);

  serving::ServingOptions serving_options;
  serving_options.num_shards = std::min(
      serving_options.num_shards,
      std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
  if (tracer != nullptr) {
    const uint64_t span = tracer->Begin("serving.partition");
    auto partition = serving::MakeServingPartition(
        db->social_index(), db->poi_index(), serving_options.num_shards);
    layer->Set("serving.partition_s", tracer->End(span), "s");
  }
  uint64_t span = tracer ? tracer->Begin("serving.cluster_create") : 0;
  const Clock::time_point t0 = Clock::now();
  auto created = serving::ServingCluster::Create(*db, serving_options);
  const double create_seconds = Seconds(t0, Clock::now());
  if (tracer) tracer->End(span);
  layer->Set("serving.cluster_create_s", create_seconds, "s");
  if (!created.ok()) {
    outcome->Error("ServingCluster::Create failed: " +
                   created.status().ToString());
    return;
  }
  std::unique_ptr<serving::ServingCluster> cluster = std::move(*created);
  e2e->Set("setup_s", Seconds(kProcessStart, Clock::now()), "s");

  CheckPool checks(&db->ssn());
  Rng rng(args.seed);
  auto next = [&] {
    GpssnQuery q;
    q.issuer = static_cast<UserId>(rng.NextBounded(db->ssn().num_users()));
    return q;
  };
  {
    std::vector<GpssnQuery> warm;
    for (int i = 0; i < kClusterWarmup; ++i) warm.push_back(next());
    cluster->QueryBatch(warm);
  }

  // One cluster serves every round, so the shard caches keep their
  // traffic for the whole run. Maintenance must not overlap a cluster (its
  // shards keep their own processors), so the writes come after it.
  std::vector<double> latency, round_qps;
  std::vector<BatchQueryResult> sample;  // Round 0's first answers.
  double busy = 0;
  for (int round = 0; busy < args.seconds; ++round) {
    std::vector<GpssnQuery> batch;
    for (int i = 0; i < kClusterBatch; ++i) batch.push_back(next());
    if (round == 0) {
      run->replay.assign(batch.begin(), batch.begin() + kReplaySample);
    }
    std::vector<BatchQueryResult> results;
    {
      ScopedSpan span_batch(tracer, "serving.query_batch");
      const Clock::time_point b0 = Clock::now();
      results = cluster->QueryBatch(batch);
      const double seconds = Seconds(b0, Clock::now());
      round_qps.push_back(static_cast<double>(results.size()) / seconds);
      busy += seconds;
    }
    for (const BatchQueryResult& r : results) {
      latency.push_back(r.latency_seconds * 1e3);
      run->latency_cpu.emplace_back(r.latency_seconds, r.stats.cpu_seconds);
      run->stats.push_back(r.stats);
      Account(&checks, r.query, r.status, r.answer, r.stats, outcome);
    }
    if (round == 0) {
      sample.assign(results.begin(), results.begin() + kSingleNodeSample);
    }
  }
  cluster.reset();
  e2e->Set("qps", Quantile(round_qps, 0.5), "queries/s");
  SetLatencyMetrics(latency, e2e, layer);

  checks.Flush(outcome);
  InChild(
      [&](Outcome* out) {
        for (const BatchQueryResult& r : sample) {
          auto single = db->Query(r.query);
          const std::string verdict =
              single.ok() ? AnswerChecker::Identical(r.answer, *single)
                          : "single-node query failed";
          if (!verdict.empty()) {
            out->Error("sharded vs single-node, issuer " +
                       std::to_string(r.query.issuer) + ": " + verdict);
          }
        }
        for (int i = 0; i < kBruteForceSample; ++i) {
          CheckOptimal(db->ssn(), sample[i].query, sample[i].answer, out);
        }
      },
      outcome);

  if (tracer != nullptr) {
    QueryOptions options;
    options.distance_backend = db->distance_backend();
    ReplayTimes times;
    Replay(db.get(), options, run->replay, tracer, outcome, &times);
    TimeEngine(*db, tracer, &times);
    SetReplayMetrics(times, layer);
  }
  // Each AddPoi also folds the new POI into the CH ball index.
  TrailingWrites(db.get(), args.seed, tracer, e2e, layer, outcome);
  e2e->Set("peak_rss_mb", PeakRssMib(), "MiB");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     args->seconds > 0 && args->seconds <= 120;
    } else if (key == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else if (key == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) && have_workload && have_seed && have_seconds &&
         have_trace;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: gpssn_perfbench --workload "
                 "<city-open|refine-tau8|region-sharded> --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH] [--commit SHA]\n");
    return 2;
  }
  std::printf("# fingerprint nproc=%u compiler=\"%s %s\" build=%s commit=%s\n",
              std::thread::hardware_concurrency(),
#if defined(__clang__)
              "clang",
#else
              "gcc",
#endif
              __VERSION__, PERFBENCH_BUILD_TYPE, args.commit.c_str());
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);

  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>(kProcessStart);
  Metrics e2e, layer;
  // Per-layer metrics of layers a workload does not use read 0.
  layer.Set("serving.partition_s", 0.0, "s");
  layer.Set("serving.cluster_create_s", 0.0, "s");
  layer.Set("executor.recreate_ms", 0.0, "ms");
  layer.Set("scheduler.tasks_stolen", 0.0, "1/query");
  layer.Set("scheduler.sources_published", 0.0, "1/query");
  layer.Set("load.lag_p99_ms", 0.0, "ms");
  layer.Set("load.offered_qps", 0.0, "queries/s");
  Outcome outcome;
  RunData run;
  if (args.workload == "city-open") {
    RunCityOpen(args, tracer.get(), &e2e, &layer, &outcome, &run);
  } else if (args.workload == "refine-tau8") {
    RunRefineTau8(args, tracer.get(), &e2e, &layer, &outcome, &run);
  } else if (args.workload == "region-sharded") {
    RunRegionSharded(args, tracer.get(), &e2e, &layer, &outcome, &run);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::printf("# checks: %.2f s\n", outcome.check_seconds);
  for (const std::string& e : outcome.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  if (outcome.attempted == 0) {
    std::fprintf(stderr, "no operation attempted\n");
    return 1;
  }

  if (tracer != nullptr) {
    SetQueryLayerMetrics(run, &layer);
    std::string path = args.trace_out;
    if (path.empty()) {
      std::filesystem::create_directories(".bench_out");
      path = ".bench_out/trace-" + args.workload + "-seed" +
             std::to_string(args.seed) + ".json";
    }
    if (!tracer->WriteChromeTrace(path)) {
      std::fprintf(stderr, "cannot write trace file %s\n", path.c_str());
      return 1;
    }
    std::printf("# trace: %zu spans -> %s\n", tracer->spans().size(),
                path.c_str());
  }
  const Metrics& out = args.trace ? layer : e2e;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              outcome.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              out.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
