// vbrbench: the repository benchmark for the vbr planner behind its front
// doors (in-process ViewPlanner, PlanningService, PlanServer binary wire).
//
//   vbrbench --workload NAME --seed N --seconds S --trace 0|1
//            [--tiny] [--spans FILE]
//
// Workloads (see vbrbench/README.md for why each exists):
//   warm_m2_wire     open loop over the binary protocol into a PlanServer;
//                    ~10^3 views, every request a renamed/reordered variant of
//                    a warmed pool query, M2.
//   cold_m1_catalog  4 closed-loop in-process callers; ~10^4 views; every
//                    query distinct, M1.
//   delta_m2_mixed   one closed-loop in-process caller; ~10^3 views; Zipf
//                    draws from a query pool under M2, with AddViews /
//                    RemoveViews batches every few plans.
//
// Every input is generated from --seed. The library is used with its default
// options (planner, service and server), so the numbers describe what a user
// of the library gets. The benchmark measures layers only from outside: it
// times calls into public functions and reads MetricsRegistry counter deltas.
//
// Output: one human-readable row per metric, a plan digest line, and as the
// LAST line one JSON object {"correct","attempted","failed","metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 the per-layer
// set. A correctness-gate mismatch prints correct=false and exits 1.

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "cost/cost_model.h"
#include "cost/filter_advisor.h"
#include "cost/m2_optimizer.h"
#include "cost/physical_plan.h"
#include "cq/containment.h"
#include "cq/fingerprint.h"
#include "cq/parser.h"
#include "cq/rename.h"
#include "engine/evaluator.h"
#include "engine/materialize.h"
#include "net/frame.h"
#include "net/socket.h"
#include "planner/planner.h"
#include "planner/service.h"
#include "rewrite/certificate.h"
#include "rewrite/core_cover.h"
#include "rewrite/view_index.h"
#include "server/plan_server.h"
#include "workload/data_gen.h"
#include "workload/generator.h"

namespace vbr::bench {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Fixed workload parameters. Changing any of these changes the benchmark.

// All catalogs: GenerateMassiveCatalog defaults (256 binary predicates, Zipf
// s = 1.0, 6-subgoal star queries, 1-3 subgoal views, one coverage view per
// predicate) over 20 rows per base relation drawn from a domain of 12.
constexpr size_t kRowsPerRelation = 20;
constexpr int64_t kDomainSize = 12;
// Each workload plans over one fixed catalog, generated from these seeds
// (warm_m2_wire and delta_m2_mixed also over a fixed query pool and delta
// batches): at 10^3 views the catalog itself moves warm M2 cost by a factor
// of two from one generation to the next, and at 10^4 views it moves the
// cold p99 by a quarter, either of which would swamp a change under test.
// --seed draws the rest: cold_m1_catalog's queries, variant renamings and
// shuffles, arrival order, Zipf draws, and the checked and traced samples.
//
// 2002 is the first seed from 2001 up whose warm pool holds queries the
// planner answers kNoRewriting under M2 (CoreCoverStar stops at the
// rewriting cap with none), so ok_share shows that failure on the warm
// path. delta_m2_mixed keeps 2001, whose Zipf head has none: under 2002 one
// hot failing query would make a fifth of its reads cached negative answers.
constexpr uint64_t kFixedCatalogSeed = 2002;
constexpr uint64_t kDeltaCatalogSeed = 2001;
constexpr uint64_t kColdCatalogSeed = 2001;
// Setup is repeated this many times per run; setup_s is the median.
constexpr int kSetupRuns = 5;
// Plans whose keys form the digest (and, on delta_m2_mixed, the prefix over
// which the exact counter deltas are taken).
constexpr size_t kDigestPlans = 200;
// Share of requests whose answer is executed and compared to EvaluateQuery
// on the base data.
constexpr uint64_t kExecuteSampleOneIn = 16;
// Requests replayed layer by layer in a traced run.
constexpr size_t kTraceSample = 40;
// plan_p99_ms is the median over windows of this many consecutive requests
// of each window's p99 (5 samples beyond it; a run has at least 3 windows).
// A burst of host CPU steal inflates the tail of the window it falls in,
// not the median over windows.
constexpr size_t kP99Window = 500;

// warm_m2_wire.
constexpr size_t kWarmViews = 1000;
// Each pool query is sent ~20 times per run, so the tail of the latency
// distribution is the same few heavy queries from run to run.
constexpr size_t kWarmPool = 64;
constexpr size_t kWarmVariants = 4;
constexpr size_t kWarmConnections = 2;
// Offered rate of the latency phase, which lasts --seconds; plan_p50/p99
// are read here. About 40% of today's capacity_qps.
constexpr double kWarmRateQps = 100;
// capacity_qps: highest rate on the ladder kWarmRateQps * 1.08^k whose
// kRungSeconds tries (best of three) had every request served and p99 <=
// kCapacityP99LimitMs.
// Near the knee the p99 of a short run swings with bursts of 20 ms plans, so
// the limit sits where the latency curve is steep.
constexpr double kLadderStep = 1.08;
constexpr int kLadderMaxRung = 64;
constexpr double kRungSeconds = 2;
constexpr double kCapacityP99LimitMs = 100;

// cold_m1_catalog.
constexpr size_t kColdViews = 10000;
constexpr size_t kColdCallers = 4;
// Distinct queries generated at setup (a fixed number, so setup_s does not
// depend on --seconds); a run that exhausts them ends early and says so.
constexpr size_t kColdPool = 24000;

// delta_m2_mixed.
constexpr size_t kDeltaViews = 1000;
constexpr size_t kDeltaPool = 128;
constexpr double kDeltaZipfS = 1.0;
constexpr size_t kPlansPerMutation = 25;
constexpr size_t kDeltaBatches = 8;
constexpr size_t kDeltaBatchViews = 16;

// Mutation probe run after the measured phase of warm_m2_wire and
// cold_m1_catalog: add then remove one batch, this many times (a 10^4-view
// AddViews copies its snapshot in ~50 ms, a 10^3-view one in ~5 ms).
constexpr size_t kWarmProbeMutations = 40;
constexpr size_t kColdProbeMutations = 24;

// Fixed offered rate of the service/wire probe in traced in-process runs.
constexpr double kProbeRateQps = 100;

// ---------------------------------------------------------------------------
// Small helpers.

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// The q-quantile of each run of `window` consecutive samples (the last
// window takes the remainder), and the median of those. With fewer than
// 2 * window samples this is the plain quantile.
double WindowedQuantile(const std::vector<double>& v, double q, size_t window) {
  const size_t windows = std::max<size_t>(1, v.size() / window);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = v.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto end = w + 1 == windows ? v.end() : begin + window;
    per_window.push_back(Quantile(std::vector<double>(begin, end), q));
  }
  return Median(std::move(per_window));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::map<std::string, uint64_t> ReadCounters() {
  std::map<std::string, uint64_t> out;
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  for (const CounterSnapshot& c : snapshot.counters) out[c.name] = c.value;
  return out;
}

uint64_t CounterDelta(const std::map<std::string, uint64_t>& before,
                      const std::map<std::string, uint64_t>& after,
                      const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0;
  const auto b = before.find(name);
  return a->second - (b == before.end() ? 0 : b->second);
}

uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h ^ 0xff;  // separator between keys
}

// The comparable answer of one plan request: planner status, cost and the
// chosen rewriting, exactly as the wire protocol carries them.
std::string PlanKey(int plan_status, uint64_t cost,
                    const std::string& rewriting) {
  return std::to_string(plan_status) + "|" + std::to_string(cost) + "|" +
         rewriting;
}

std::string PlanKey(const ViewPlanner::PlanResult& r) {
  if (!r.ok()) return PlanKey(static_cast<int>(r.status), 0, "");
  return PlanKey(static_cast<int>(r.status), r.choice->cost,
                 r.choice->logical.ToString());
}

// An answer from the planner, as opposed to a request the system failed:
// kNoRewriting answers count against ok_share (every generated query has a
// rewriting) but not in the JSON line's "failed", which counts requests
// that were rejected, shed, lost or ran out of budget.
bool Answered(int plan_status) {
  return plan_status == static_cast<int>(PlanStatus::kOk) ||
         plan_status == static_cast<int>(PlanStatus::kNoRewriting);
}

bool Sampled(uint64_t seed, uint64_t index, uint64_t one_in) {
  return Mix(seed, index * 2 + 1) % one_in == 0;
}

// Up to `n` of `count` positions, evenly spaced over the whole range, so a
// traced sample is not just the start of the run.
std::vector<size_t> Spread(size_t count, size_t n) {
  std::vector<size_t> out;
  for (size_t i = 0; i < std::min(count, n); ++i) {
    out.push_back(i * count / std::min(count, n));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Report: metrics, counts and the correctness gate.

class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  // A row for humans only (not in the JSON object).
  void Note(const std::string& text) { notes_.push_back(text); }
  void Mismatch(const std::string& what) {
    if (mismatches_.size() < 10) mismatches_.push_back(what);
    ++mismatch_count_;
  }
  void SetCounts(uint64_t attempted, uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }
  void SetDigest(uint64_t digest, size_t plans) {
    digest_ = digest;
    digest_plans_ = plans;
  }

  // Prints every row, then the JSON line; returns the exit code.
  int Print() const {
    for (const std::string& n : notes_) {
      std::printf("%s %s\n", workload_.c_str(), n.c_str());
    }
    for (const auto& m : metrics_) {
      std::printf("%s %-36s %16.6f %s\n", workload_.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str());
    }
    std::printf("%s digest %016llx over %zu plans\n", workload_.c_str(),
                static_cast<unsigned long long>(digest_), digest_plans_);
    for (const std::string& m : mismatches_) {
      std::fprintf(stderr, "vbrbench: MISMATCH %s\n", m.c_str());
    }
    const bool correct = mismatch_count_ == 0 && attempted_ > 0;
    if (mismatch_count_ > 0) {
      std::fprintf(stderr, "vbrbench: %llu correctness mismatches\n",
                   static_cast<unsigned long long>(mismatch_count_));
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.10g",
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0);
      if (i > 0) json += ", ";
      json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::string workload_;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> mismatches_;
  uint64_t mismatch_count_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t digest_ = 0xcbf29ce484222325ULL;
  size_t digest_plans_ = 0;
};

// ---------------------------------------------------------------------------
// Spans of the traced run: kept in memory, written out at the end, reduced
// to per-layer self times. A span is on the plan's path when the planner
// itself does that work for this request (a cache hit skips CoreCover; the
// standalone Minimize / SelectCandidates calls repeat work CoreCover does
// inside, so they are recorded but never on the path).

struct Span {
  uint64_t request = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  // 0 = root
  std::string name;
  std::string layer;
  double start_us = 0;
  double end_us = 0;
  bool on_path = false;
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  double Now() const { return UsBetween(origin_, Clock::now()); }

  uint32_t Add(uint64_t request, uint32_t parent, std::string name,
               std::string layer, double start_us, double end_us,
               bool on_path) {
    Span s;
    s.request = request;
    s.id = static_cast<uint32_t>(spans_.size() + 1);
    s.parent = parent;
    s.name = std::move(name);
    s.layer = std::move(layer);
    s.start_us = start_us;
    s.end_us = end_us;
    s.on_path = on_path;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  uint32_t Begin(uint64_t request, uint32_t parent, const char* name,
                 const char* layer, bool on_path) {
    const double now = Now();
    return Add(request, parent, name, layer, now, now, on_path);
  }

  // Closes span `id` now; returns its duration in microseconds.
  double End(uint32_t id) {
    Span& s = spans_[id - 1];
    s.end_us = Now();
    return s.end_us - s.start_us;
  }

  double Start(uint32_t id) const { return spans_[id - 1].start_us; }

  // Times fn() as a span; returns its duration in microseconds.
  template <typename F>
  double Time(uint64_t request, uint32_t parent, const char* name,
              const char* layer, bool on_path, F&& fn) {
    const uint32_t id = Begin(request, parent, name, layer, on_path);
    fn();
    return End(id);
  }

  // Self time (duration minus the children's durations) summed per layer,
  // over spans on the plan path.
  std::map<std::string, double> SelfTimeByLayer() const {
    std::vector<double> child_time(spans_.size() + 1, 0);
    for (const Span& s : spans_) {
      if (s.parent != 0) child_time[s.parent] += s.end_us - s.start_us;
    }
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      if (!s.on_path || s.layer == "request") continue;
      out[s.layer] += (s.end_us - s.start_us) - child_time[s.id];
    }
    return out;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"request\":%llu,\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                   "\"layer\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                   "\"on_path\":%s}\n",
                   static_cast<unsigned long long>(s.request), s.id, s.parent,
                   s.name.c_str(), s.layer.c_str(), s.start_us, s.end_us,
                   s.on_path ? "true" : "false");
    }
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Inputs.

struct Catalog {
  MassiveCatalogConfig config;
  ViewSet views;
  Database base;
  Database instances;
};

Catalog MakeCatalog(size_t random_views, uint64_t seed) {
  Catalog c;
  c.config.num_views = random_views;
  c.config.seed = Mix(seed, 1);
  Workload w = GenerateMassiveCatalog(c.config);
  c.views = std::move(w.views);
  DataConfig dc;
  dc.rows_per_relation = kRowsPerRelation;
  dc.domain_size = kDomainSize;
  dc.seed = Mix(seed, 2);
  c.base = GenerateBaseData(w.query, c.views, dc);
  c.instances = MaterializeViews(c.views, c.base);
  return c;
}

// `count` queries of the catalog scenario, pairwise non-isomorphic.
std::vector<ConjunctiveQuery> DistinctQueries(
    const MassiveCatalogConfig& config, size_t count, uint64_t seed) {
  std::vector<ConjunctiveQuery> out;
  std::unordered_set<std::string> seen;
  for (uint64_t round = 0; out.size() < count; ++round) {
    const size_t want = count - out.size() + count / 16 + 4;
    for (ConjunctiveQuery& q :
         GenerateCatalogQueries(config, want, Mix(seed, 100 + round))) {
      if (out.size() == count) break;
      if (seen.insert(CanonicalFingerprint(q).canonical).second) {
        out.push_back(std::move(q));
      }
    }
  }
  return out;
}

// A renamed, subgoal-shuffled copy: isomorphic, so it hits the plan cache.
ConjunctiveQuery Variant(const ConjunctiveQuery& q, std::mt19937_64& rng,
                         const std::string& prefix) {
  ConjunctiveQuery fresh = RenameVariablesApart(q, prefix);
  std::vector<Atom> body = fresh.body();
  std::shuffle(body.begin(), body.end(), rng);
  return ConjunctiveQuery(fresh.head(), std::move(body));
}

// One batch of fresh views (head predicates d<tag>_<i>, never in the base
// catalog) with their instances over the catalog's base data.
struct DeltaBatch {
  ViewSet views;
  Database instances;
  std::vector<std::string> names;
};

std::vector<DeltaBatch> MakeBatches(const Catalog& catalog, size_t count,
                                    size_t size, uint64_t seed) {
  std::vector<DeltaBatch> out;
  for (size_t b = 0; b < count; ++b) {
    MassiveCatalogConfig config = catalog.config;
    config.num_views = size;
    config.cover_all_predicates = false;
    config.seed = Mix(seed, 500 + b);
    DeltaBatch batch;
    const Workload w = GenerateMassiveCatalog(config);
    for (size_t i = 0; i < w.views.size(); ++i) {
      const std::string name =
          "d" + std::to_string(b) + "_" + std::to_string(i);
      batch.views.emplace_back(Atom(name, w.views[i].head().args()),
                               w.views[i].body());
      batch.names.push_back(name);
    }
    batch.instances = MaterializeViews(batch.views, catalog.base);
    out.push_back(std::move(batch));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Correctness checks shared by the workloads.

// The plan's certificate must verify against the views it was planned on.
void CheckCertificate(const ViewPlanner::PlanResult& r, const ViewSet& views,
                      const std::string& what, Report* report) {
  if (!r.ok()) return;
  std::string error;
  if (!VerifyCertificate(r.choice->certificate, views, &error)) {
    report->Mismatch(what + ": certificate does not verify: " + error);
  }
}

// The executed plan must answer the query exactly as the base data does.
void CheckAnswer(const Relation& answer, const ConjunctiveQuery& query,
                 const Database& base, const std::string& what,
                 Report* report) {
  if (!answer.EqualsAsSet(EvaluateQuery(query, base))) {
    report->Mismatch(what + ": executed plan differs from EvaluateQuery");
  }
}

// ---------------------------------------------------------------------------
// Layer-by-layer replay of one request (traced runs only).

struct LayerSamples {
  std::vector<double> plan_us, canonicalize_us, minimize_us, candidates_us,
      considered_ratio, corecover_us, view_tuples_us, tuple_cores_us,
      set_cover_us, rewritings, cap_hit, certify_us, verify_us,
      join_rows, execute_us, evaluate_us, filter_candidates, costing_us;
  double plan_total_us = 0;
  double on_path_total_us = 0;
};

// Rows JoinSize enumerates inside one OptimizeOrderM2 call: the DP measures
// the join of every non-empty subset of the rewriting's subgoals once.
uint64_t M2JoinRows(const ConjunctiveQuery& rewriting, const Database& db) {
  const size_t n = rewriting.num_subgoals();
  uint64_t rows = 0;
  for (uint32_t mask = 1; mask < (uint32_t{1} << n); ++mask) {
    std::vector<Atom> atoms;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (uint32_t{1} << i)) atoms.push_back(rewriting.subgoal(i));
    }
    rows += JoinSize(atoms, db);
  }
  return rows;
}

// Rows enumerated by AdviseFilters (cost/filter_advisor.cc): one M2 DP for
// the base rewriting, then one per unused candidate per greedy round.
// *improved receives the advised rewriting.
uint64_t AdviseFiltersJoinRows(const ConjunctiveQuery& rewriting,
                               const std::vector<Atom>& candidates,
                               const Database& db, ConjunctiveQuery* improved) {
  uint64_t rows = M2JoinRows(rewriting, db);
  *improved = rewriting;
  size_t improved_cost = OptimizeOrderM2(rewriting, db).cost;
  std::vector<bool> used(candidates.size(), false);
  for (bool progress = true; progress;) {
    progress = false;
    size_t best = candidates.size();
    size_t best_cost = improved_cost;
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      std::vector<Atom> body = improved->body();
      body.push_back(candidates[i]);
      const ConjunctiveQuery trial = improved->WithBody(std::move(body));
      rows += M2JoinRows(trial, db);
      const size_t cost = OptimizeOrderM2(trial, db).cost;
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    if (best < candidates.size()) {
      std::vector<Atom> body = improved->body();
      body.push_back(candidates[best]);
      *improved = improved->WithBody(std::move(body));
      improved_cost = best_cost;
      used[best] = true;
      progress = true;
    }
  }
  return rows;
}

// One sampled request: what the workload planned and how long Plan took.
struct SampledPlan {
  ConjunctiveQuery query;
  // The query whose CoreCover output the planner costs: `query` itself, or
  // on a cache hit the query that filled the entry.
  ConjunctiveQuery cover_query;
  ViewPlanner::PlanResult result;
  CostModel model = CostModel::kM2;
  double plan_us = 0;
  std::shared_ptr<const ViewPlanner::ViewSnapshot> snapshot;
};

// Replays `s` from outside, layer by layer, against the snapshot it was
// planned on, in the order ViewPlanner::Plan runs the layers.
void Replay(const SampledPlan& s, uint64_t request, const Database& base,
            SpanLog* log, LayerSamples* out) {
  const ViewPlanner::ViewSnapshot& vs = *s.snapshot;
  const bool miss = !s.result.cache_hit;
  const double root_start = log->Now();
  const uint32_t root = log->Add(request, 0, "plan", "request", root_start,
                                 root_start + s.plan_us, true);
  out->plan_us.push_back(s.plan_us);
  out->plan_total_us += s.plan_us;

  out->canonicalize_us.push_back(log->Time(
      request, root, "canonicalize", "cq", true,
      [&] { (void)CanonicalizeQuery(s.query); }));
  ConjunctiveQuery minimized;
  out->minimize_us.push_back(log->Time(request, root, "minimize", "cq", false,
                                       [&] { minimized = Minimize(s.query); }));
  CandidateFilterOptions filter;
  filter.index = vs.index.get();
  std::vector<size_t> candidates;
  out->candidates_us.push_back(log->Time(
      request, root, "candidates", "rewrite", false, [&] {
        candidates = SelectCandidates(vs.views, minimized,
                                      CandidateMode::kCoverAll, filter);
      }));

  CoreCoverOptions cc = ViewPlanner::Options().core_cover;
  cc.view_index = vs.index.get();
  CoreCoverResult cover;
  const uint32_t cover_id =
      log->Begin(request, root, "corecover", "rewrite", miss);
  cover = s.model == CostModel::kM1
              ? CoreCover(s.cover_query, vs.views, cc)
              : CoreCoverStar(s.cover_query, vs.views, cc);
  const double cover_us = log->End(cover_id);
  out->corecover_us.push_back(cover_us);
  {
    // CoreCover's own stage timings (CoreCoverStats), laid out as child
    // spans inside its span.
    const CoreCoverStats& st = cover.stats;
    double at = log->Start(cover_id);
    auto stage = [&](const char* name, const char* layer, double ms) {
      log->Add(request, cover_id, name, layer, at, at + ms * 1000.0, miss);
      at += ms * 1000.0;
    };
    stage("cc_minimize", "cq", st.minimize_ms);
    stage("view_tuples", "rewrite", st.view_tuple_ms);
    stage("tuple_cores", "rewrite", st.tuple_core_ms);
    stage("set_cover", "rewrite", st.cover_ms);
    out->view_tuples_us.push_back(st.view_tuple_ms * 1000.0);
    out->tuple_cores_us.push_back(st.tuple_core_ms * 1000.0);
    out->set_cover_us.push_back(st.cover_ms * 1000.0);
    out->considered_ratio.push_back(
        Ratio(static_cast<double>(st.num_candidate_views),
              static_cast<double>(st.num_views)));
    out->cap_hit.push_back(st.hit_rewriting_cap ? 1.0 : 0.0);
    out->rewritings.push_back(static_cast<double>(cover.rewritings.size()));
  }

  // Costing: the planner's CostAndPick loop, one call per candidate.
  std::vector<Atom> filter_atoms;
  for (size_t i : cover.filter_candidates) {
    filter_atoms.push_back(cover.view_tuples[i].tuple.atom);
  }
  const bool use_filters = s.model != CostModel::kM1 && !filter_atoms.empty();
  uint64_t join_rows = 0;
  size_t best_cost = 0;
  ConjunctiveQuery best;
  bool found = false, best_filtered = false;
  const uint32_t cost_id = log->Begin(request, root, "cost", "cost", true);
  for (const ConjunctiveQuery& rewriting : cover.rewritings) {
    ConjunctiveQuery logical = rewriting;
    size_t cost = 0;
    bool filtered = false;
    if (s.model == CostModel::kM1) {
      cost = CostM1(logical);
    } else {
      if (use_filters) {
        FilterAdvice advice;
        log->Time(request, cost_id, "filters", "cost", true, [&] {
          advice = AdviseFilters(logical, filter_atoms, vs.instances);
        });
        filtered = !advice.filters_added.empty();
        logical = std::move(advice.improved);
      }
      log->Time(request, cost_id, "optimize_m2", "cost", true, [&] {
        cost = OptimizeOrderM2(logical, vs.instances).cost;
      });
    }
    if (!found || cost < best_cost) {
      found = true;
      best_cost = cost;
      best = logical;
      best_filtered = filtered;
    }
  }
  const double cost_us = log->End(cost_id);
  out->costing_us.push_back(cost_us);
  out->filter_candidates.push_back(static_cast<double>(filter_atoms.size()));
  double on_path =
      out->canonicalize_us.back() + (miss ? cover_us : 0.0) + cost_us;

  // Certification: a miss certifies the winner; a hit re-verifies the cached
  // certificate unless the winner carries advisor filters.
  const bool certify_on_path = miss || best_filtered;
  const double certify_us = log->Time(
      request, root, "certify", "rewrite", found && certify_on_path, [&] {
        if (found) {
          (void)CertifyEquivalentRewriting(best, cover.minimized_query,
                                           vs.views);
        }
      });
  out->certify_us.push_back(certify_us);
  double verify_us = 0;
  if (s.result.ok()) {
    verify_us = log->Time(
        request, root, "verify", "rewrite", !certify_on_path, [&] {
          (void)VerifyCertificate(s.result.choice->certificate, vs.views);
        });
    out->verify_us.push_back(verify_us);
  }
  on_path += found && certify_on_path ? certify_us : 0.0;
  on_path += s.result.ok() && !certify_on_path ? verify_us : 0.0;
  out->on_path_total_us += on_path;

  // Engine: the plan's execution and the reference evaluation (correctness
  // sample work, not on the plan path), and the rows the M2 DPs enumerated.
  if (s.result.ok()) {
    out->execute_us.push_back(log->Time(request, root, "execute", "engine",
                                        false, [&] {
      (void)ExecutePlan(s.result.choice->physical, vs.instances);
    }));
    out->evaluate_us.push_back(log->Time(request, root, "evaluate", "engine",
                                         false, [&] {
      (void)EvaluateQuery(s.query, base);
    }));
  }
  if (s.model != CostModel::kM1) {
    for (const ConjunctiveQuery& rewriting : cover.rewritings) {
      ConjunctiveQuery logical = rewriting;
      if (use_filters) {
        join_rows += AdviseFiltersJoinRows(rewriting, filter_atoms,
                                           vs.instances, &logical);
      }
      join_rows += M2JoinRows(logical, vs.instances);
    }
  }
  out->join_rows.push_back(static_cast<double>(join_rows));
}

// Per-layer metrics from the replayed sample.
void AddLayerMetrics(const LayerSamples& l, const SpanLog& log,
                     Report* report) {
  report->Add("planner.plan_p50_us", Median(l.plan_us), "us");
  report->Add("planner.canonicalize_us", Median(l.canonicalize_us), "us");
  report->Add("planner.unaccounted_share",
              Ratio(l.plan_total_us - l.on_path_total_us, l.plan_total_us),
              "ratio");
  report->Add("cq.minimize_us", Median(l.minimize_us), "us");
  report->Add("rewrite.candidates_us", Median(l.candidates_us), "us");
  report->Add("rewrite.considered_ratio", Mean(l.considered_ratio), "ratio");
  report->Add("rewrite.corecover_us", Median(l.corecover_us), "us");
  report->Add("rewrite.view_tuples_us", Median(l.view_tuples_us), "us");
  report->Add("rewrite.tuple_cores_us", Median(l.tuple_cores_us), "us");
  report->Add("rewrite.set_cover_us", Median(l.set_cover_us), "us");
  report->Add("rewrite.rewritings_per_plan", Mean(l.rewritings), "count");
  report->Add("rewrite.cap_hit_share", Mean(l.cap_hit), "ratio");
  report->Add("rewrite.certify_us", Median(l.certify_us), "us");
  report->Add("rewrite.verify_us", Median(l.verify_us), "us");
  // The cost layer per plan, summed over candidates: OptimizeOrderM2 (and
  // AdviseFilters) under M2, the subgoal count under M1.
  report->Add("cost.costing_us", Median(l.costing_us), "us");
  report->Add("cost.candidates_per_plan", Mean(l.rewritings), "count");
  // AdviseFilters runs only when CoreCover offers empty-core filter
  // candidates; its time is in the "filters" spans.
  report->Add("cost.filter_candidates_per_plan", Mean(l.filter_candidates),
              "count");
  report->Add("engine.join_rows_per_plan", Mean(l.join_rows), "count");
  report->Add("engine.execute_us", Median(l.execute_us), "us");
  report->Add("engine.evaluate_us", Median(l.evaluate_us), "us");
  // Self time on the plan path, as a share of the timed Plan calls. "cost"
  // includes the engine joins the M2 DP runs (engine.join_rows_per_plan);
  // planner.unaccounted_share is the part no replayed layer accounts for.
  const std::map<std::string, double> self = log.SelfTimeByLayer();
  auto share = [&](const char* layer) {
    const auto it = self.find(layer);
    return Ratio(it == self.end() ? 0 : it->second, l.plan_total_us);
  };
  report->Add("self.cq_share", share("cq"), "ratio");
  report->Add("self.rewrite_share", share("rewrite"), "ratio");
  report->Add("self.cost_share", share("cost"), "ratio");
  report->Note("trace: " + std::to_string(l.plan_us.size()) +
               " requests replayed layer by layer");
}

// Counter deltas over the measured plans, per plan.
void AddCounterMetrics(const std::map<std::string, uint64_t>& before,
                       const std::map<std::string, uint64_t>& after,
                       double plans, Report* report) {
  auto d = [&](const char* name) {
    return static_cast<double>(CounterDelta(before, after, name));
  };
  const double hits = d("planner.cache.hits");
  const double misses = d("planner.cache.misses");
  report->Add("planner.cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  report->Add("planner.cache_lookups", hits + misses, "count");
  report->Add("cq.containment_checks_per_plan",
              Ratio(d("cq.containment_checks"), plans), "count");
  const double memo_hits = d("cq.containment_memo_hits");
  report->Add("cq.containment_memo_hit_ratio",
              Ratio(memo_hits, memo_hits + d("cq.containment_memo_misses")),
              "ratio");
  report->Add("counts.view_tuples_per_plan",
              Ratio(d("corecover.view_tuples"), plans), "count");
  report->Add("counts.cache_hits_per_plan", Ratio(hits, plans), "count");
  report->Add("counts.cache_misses_per_plan", Ratio(misses, plans), "count");
  report->Add("counts.cache_evictions_per_plan",
              Ratio(d("planner.cache.evictions"), plans), "count");
}

// ---------------------------------------------------------------------------
// Open-loop load over the binary protocol, timed from each request's due
// time (so a stalled sender shows as latency, not as a missing request).

struct Outcome {
  bool answered = false;
  double latency_ms = 0;    // due time -> decoded response
  double lag_ms = 0;        // due time -> write (generator lateness)
  double queue_wait_ms = 0;
  bool service_ok = false;  // WireStatus::kOk / ServiceStatus::kOk
  bool plan_ok = false;     // ... and PlanStatus::kOk
  bool answered_plan = false;  // ... and kOk or kNoRewriting
  std::string key;          // PlanKey of the answer (service_ok only)
};

struct Phase {
  std::vector<Outcome> outcomes;
  double wall_s = 0;  // first due time -> last answer

  size_t Count(bool Outcome::*field) const {
    size_t n = 0;
    for (const Outcome& o : outcomes) n += o.*field ? 1 : 0;
    return n;
  }
  // All requests answered, and answered by the service (no reject or shed).
  bool AllServed() const {
    return Count(&Outcome::service_ok) == outcomes.size();
  }
  // `field` of every answered request.
  std::vector<double> Field(double Outcome::*field) const {
    std::vector<double> v;
    for (const Outcome& o : outcomes) {
      if (o.answered) v.push_back(o.*field);
    }
    return v;
  }
};

Clock::time_point Due(Clock::time_point start, double rate, size_t k) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(static_cast<double>(k) /
                                                   rate));
}

// One blocking client connection.
class WireConnection {
 public:
  bool Open(uint16_t port, std::string* error) {
    fd_ = net::ConnectTcp("127.0.0.1", port, error);
    if (!fd_.valid()) return false;
    const int flags = ::fcntl(fd_.get(), F_GETFL);
    ::fcntl(fd_.get(), F_SETFL, flags & ~O_NONBLOCK);
    // A response that never comes ends the phase as "lost", not as a hang.
    timeval tv{10, 0};
    ::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_.get(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    return true;
  }

  bool Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_.get(), bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads one frame's payload.
  bool Receive(std::string* payload) {
    unsigned char len[4];
    if (!ReadExact(len, 4)) return false;
    const uint32_t n = static_cast<uint32_t>(len[0]) |
                       static_cast<uint32_t>(len[1]) << 8 |
                       static_cast<uint32_t>(len[2]) << 16 |
                       static_cast<uint32_t>(len[3]) << 24;
    if (n > net::kDefaultMaxPayload) return false;
    payload->resize(n);
    return ReadExact(payload->data(), n);
  }

 private:
  bool ReadExact(void* buf, size_t len) {
    char* p = static_cast<char*>(buf);
    while (len > 0) {
      const ssize_t n = ::recv(fd_.get(), p, len, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      p += n;
      len -= static_cast<size_t>(n);
    }
    return true;
  }

  net::OwnedFd fd_;
};

// Sends texts[stream[k]] at start + k/rate, k < count, spread round-robin
// over the connections. Raw response payloads are appended to *payloads
// when non-null.
Phase RunWire(std::vector<WireConnection>& conns,
              const std::vector<std::string>& texts,
              const std::vector<size_t>& stream, size_t count, double rate,
              CostModel model, uint64_t* next_id, Report* report,
              std::vector<std::string>* payloads = nullptr) {
  Phase phase;
  phase.outcomes.resize(count);
  std::vector<Clock::time_point> due(count);
  const uint64_t base_id = *next_id;
  *next_id += count;
  const size_t c_count = conns.size();
  std::mutex mu;  // guards mismatch reports and payloads
  std::atomic<int64_t> last_answer_ns{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (size_t k = 0; k < count; ++k) due[k] = Due(start, rate, k);

  std::vector<std::thread> threads;
  for (size_t c = 0; c < c_count; ++c) {
    threads.emplace_back([&, c] {
      net::PlanRequestFrame frame;
      frame.options.model = model;
      std::string bytes;
      for (size_t k = c; k < count; k += c_count) {
        std::this_thread::sleep_until(due[k]);
        frame.request_id = base_id + k;
        frame.query_text = texts[stream[k]];
        bytes.clear();
        net::EncodePlanRequest(frame, &bytes);
        phase.outcomes[k].lag_ms = MsBetween(due[k], Clock::now());
        if (!conns[c].Send(bytes)) return;
      }
    });
    threads.emplace_back([&, c] {
      std::string payload;
      for (size_t k = c; k < count; k += c_count) {
        if (!conns[c].Receive(&payload)) return;
        const Clock::time_point now = Clock::now();
        net::PlanResponseFrame r;
        if (net::DecodePlanResponse(payload, &r) != net::DecodeStatus::kOk ||
            r.request_id < base_id || r.request_id >= base_id + count) {
          std::lock_guard<std::mutex> lock(mu);
          report->Mismatch("undecodable or unknown wire response");
          continue;
        }
        const size_t idx = r.request_id - base_id;
        Outcome& o = phase.outcomes[idx];
        o.answered = true;
        o.latency_ms = MsBetween(due[idx], now);
        o.queue_wait_ms = r.queue_wait_ms;
        o.service_ok = r.status == net::WireStatus::kOk;
        o.answered_plan = o.service_ok && Answered(r.plan_status);
        o.plan_ok = o.service_ok &&
                    r.plan_status == static_cast<uint8_t>(PlanStatus::kOk);
        if (o.service_ok) o.key = PlanKey(r.plan_status, r.cost, r.rewriting);
        if (payloads != nullptr) {
          std::lock_guard<std::mutex> lock(mu);
          payloads->push_back(payload);
        }
        last_answer_ns.store(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - start)
                .count());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  phase.wall_s = static_cast<double>(last_answer_ns.load()) / 1e9;
  return phase;
}

// Every answered wire request must carry exactly the in-process reference
// answer for its query text.
void CheckWireAnswers(const Phase& phase, const std::vector<size_t>& stream,
                      const std::vector<std::string>& texts,
                      const std::vector<std::string>& reference,
                      Report* report) {
  for (size_t k = 0; k < phase.outcomes.size(); ++k) {
    const Outcome& o = phase.outcomes[k];
    if (o.service_ok && o.key != reference[stream[k]]) {
      report->Mismatch("wire answer for " + texts[stream[k]] + " is " + o.key +
                       ", in process " + reference[stream[k]]);
    }
  }
}

// The same schedule through PlanningService::SubmitWithCallback, in
// process: the baseline the wire latency is compared with.
Phase RunSubmit(PlanningService& service,
                const std::vector<ConjunctiveQuery>& queries,
                const std::vector<size_t>& stream, size_t count, double rate,
                CostModel model) {
  Phase phase;
  phase.outcomes.resize(count);
  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (size_t k = 0; k < count; ++k) {
    const Clock::time_point due = Due(start, rate, k);
    std::this_thread::sleep_until(due);
    phase.outcomes[k].lag_ms = MsBetween(due, Clock::now());
    PlanningService::PlanRequest request;
    request.query = queries[stream[k]];
    request.options.model = model;
    service.SubmitWithCallback(
        std::move(request), [&, k, due](PlanningService::PlanResponse r) {
          const Clock::time_point now = Clock::now();
          std::lock_guard<std::mutex> lock(mu);
          Outcome& o = phase.outcomes[k];
          o.answered = true;
          o.latency_ms = MsBetween(due, now);
          o.queue_wait_ms = r.queue_wait_ms;
          o.service_ok = r.ok();
          o.plan_ok = r.ok() && r.result.ok();
          o.answered_plan =
              r.ok() && Answered(static_cast<int>(r.result.status));
          phase.wall_s = std::max(phase.wall_s, MsBetween(start, now) / 1e3);
          ++done;
          cv.notify_all();
        });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done == count; });
  return phase;
}

// Client-side codec cost per frame: every request frame of `texts` encoded
// and every captured response payload decoded, in a timed batch.
void AddCodecMetrics(const std::vector<std::string>& texts,
                     const std::vector<std::string>& payloads,
                     Report* report) {
  constexpr int kRounds = 20;
  net::PlanRequestFrame frame;
  std::string bytes;
  size_t frames = 0;
  const Clock::time_point t0 = Clock::now();
  for (int round = 0; round < kRounds; ++round) {
    for (const std::string& text : texts) {
      frame.query_text = text;
      bytes.clear();
      net::EncodePlanRequest(frame, &bytes);
      ++frames;
    }
  }
  const Clock::time_point t1 = Clock::now();
  net::PlanResponseFrame response;
  size_t decoded = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (const std::string& p : payloads) {
      (void)net::DecodePlanResponse(p, &response);
      ++decoded;
    }
  }
  const Clock::time_point t2 = Clock::now();
  report->Add("net.encode_us",
              Ratio(UsBetween(t0, t1), static_cast<double>(frames)), "us");
  report->Add("net.decode_us",
              Ratio(UsBetween(t1, t2), static_cast<double>(decoded)), "us");
}

// Wire-side per-layer metrics of a traced run: the wire phase against the
// in-process Submit phase at the same rate.
void AddWireLayerMetrics(const Phase& wire, const Phase& submit,
                         Report* report) {
  const double wire_p50 = Median(wire.Field(&Outcome::latency_ms));
  report->Add("server.overhead_p50_ms",
              wire_p50 - Median(submit.Field(&Outcome::latency_ms)), "ms");
  report->Add("loadgen.lag_p99_ms",
              Quantile(wire.Field(&Outcome::lag_ms), 0.99), "ms");
  report->Add("service.queue_wait_p50_ms",
              Median(wire.Field(&Outcome::queue_wait_ms)), "ms");
  report->Add("service.queue_wait_p99_ms",
              Quantile(wire.Field(&Outcome::queue_wait_ms), 0.99), "ms");
  size_t rejected = 0;
  for (const Outcome& o : wire.outcomes) {
    rejected += o.answered && !o.service_ok;
  }
  report->Add("service.rejected_share",
              Ratio(static_cast<double>(rejected),
                    static_cast<double>(wire.outcomes.size())),
              "ratio");
  report->Add("wire.plan_p50_ms", wire_p50, "ms");
}

// Traced in-process runs: requests of the workload sent over the wire, then
// others through PlanningService, both at kProbeRateQps on a fresh service
// and server over `planner`, for the net / server / service metrics. Wire
// answers are compared with in-process plans of the same texts afterwards.
void WireProbe(ViewPlanner& planner,
               const std::vector<ConjunctiveQuery>& wire_queries,
               const std::vector<ConjunctiveQuery>& submit_queries,
               CostModel model, Report* report) {
  PlanningService service(&planner, PlanningService::Options{});
  server::PlanServer server(&service, server::PlanServerOptions{});
  std::string error;
  std::vector<WireConnection> conns(kWarmConnections);
  bool started = server.Start(&error);
  for (WireConnection& c : conns) {
    started = started && c.Open(server.binary_port(), &error);
  }
  if (!started) {
    report->Mismatch("wire probe: " + error);
    return;
  }
  std::vector<std::string> texts;
  std::vector<size_t> stream;
  for (const ConjunctiveQuery& q : wire_queries) {
    stream.push_back(texts.size());
    texts.push_back(q.ToString());
  }
  uint64_t next_id = 1;
  std::vector<std::string> payloads;
  const Phase wire = RunWire(conns, texts, stream, stream.size(),
                             kProbeRateQps, model, &next_id, report, &payloads);
  std::vector<size_t> submit_stream(submit_queries.size());
  for (size_t i = 0; i < submit_stream.size(); ++i) submit_stream[i] = i;
  const Phase submit = RunSubmit(service, submit_queries, submit_stream,
                                 submit_stream.size(), kProbeRateQps, model);
  server.Stop();
  service.Shutdown();
  std::vector<std::string> reference;
  for (const std::string& text : texts) {
    reference.push_back(PlanKey(planner.Plan(MustParseQuery(text), model)));
  }
  CheckWireAnswers(wire, stream, texts, reference, report);
  AddWireLayerMetrics(wire, submit, report);
  AddCodecMetrics(texts, payloads, report);
}

// The mutation probe of warm_m2_wire and cold_m1_catalog, whose traffic
// has no deltas: on a fresh planner over the catalog (so the heap and cache
// state are the same in every run), times AddViews then RemoveViews of
// `count` fresh batches, `gap` apart. A snapshot copy is memory-bound, and
// its speed on a shared host drifts over seconds; spreading the samples
// over time keeps the median steady.
std::vector<double> MutationProbe(const Catalog& catalog, size_t count,
                                  std::chrono::milliseconds gap, uint64_t seed,
                                  Report* report) {
  ViewPlanner planner(catalog.views, catalog.instances);
  std::vector<double> ms;
  for (const DeltaBatch& b :
       MakeBatches(catalog, count, kDeltaBatchViews, Mix(seed, 6))) {
    std::this_thread::sleep_for(gap);
    Clock::time_point t0 = Clock::now();
    planner.AddViews(b.views, b.instances);
    ms.push_back(MsBetween(t0, Clock::now()));
    t0 = Clock::now();
    const size_t removed = planner.RemoveViews(b.names);
    ms.push_back(MsBetween(t0, Clock::now()));
    if (removed != b.names.size()) report->Mismatch("RemoveViews count");
  }
  return ms;
}

void AddMutationLayerMetrics(const std::vector<double>& mutation_ms,
                             double invalidated_per_mutation, Report* report) {
  report->Add("planner.mutation_us", Median(mutation_ms) * 1000.0, "us");
  report->Add("planner.invalidated_per_mutation", invalidated_per_mutation,
              "count");
}

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string spans_path;
};

// Runs `build` kSetupRuns times (each time replacing *stack), returns the
// median wall time in seconds.
template <typename Stack, typename Build>
double TimedSetup(std::unique_ptr<Stack>* stack, Build build) {
  std::vector<double> s;
  for (int i = 0; i < kSetupRuns; ++i) {
    stack->reset();
    const Clock::time_point t0 = Clock::now();
    *stack = build();
    s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  return Median(s);
}

void AddEndToEnd(Report* report, double setup_s, const std::vector<double>& lat,
                 double plans_per_s, double capacity_qps, size_t attempted,
                 size_t ok, const std::vector<double>& mutation_ms) {
  report->Add("setup_s", setup_s, "s");
  report->Add("plan_p50_ms", Median(lat), "ms");
  report->Add("plan_p99_ms", WindowedQuantile(lat, 0.99, kP99Window), "ms");
  report->Add("plans_per_s", plans_per_s, "1/s");
  report->Add("capacity_qps", capacity_qps, "1/s");
  report->Add("ok_share",
              Ratio(static_cast<double>(ok), static_cast<double>(attempted)),
              "ratio");
  report->Add("mutation_p50_ms", Median(mutation_ms), "ms");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
  report->Note("plan latency samples " + std::to_string(lat.size()) +
               ", failed_share " +
               std::to_string(Ratio(static_cast<double>(attempted - ok),
                                    static_cast<double>(attempted))));
}

void WriteSpans(const SpanLog& log, const RunConfig& cfg, Report* report) {
  if (cfg.spans_path.empty()) return;
  if (!log.Write(cfg.spans_path)) {
    report->Note("could not write spans to " + cfg.spans_path);
  }
}

// ---------------------------------------------------------------------------
// warm_m2_wire

struct WarmStack {
  Catalog catalog;
  std::vector<ConjunctiveQuery> pool;
  std::unique_ptr<ViewPlanner> planner;
  std::unique_ptr<PlanningService> service;
  std::unique_ptr<server::PlanServer> server;

  WarmStack() = default;
  WarmStack(const WarmStack&) = delete;
  WarmStack& operator=(const WarmStack&) = delete;
  ~WarmStack() {
    if (server != nullptr) server->Stop();
    if (service != nullptr) service->Shutdown();
  }
};

int RunWarmM2Wire(const RunConfig& cfg) {
  Report report("warm_m2_wire");
  const size_t views = cfg.tiny ? 100 : kWarmViews;
  const size_t pool_size = cfg.tiny ? 8 : kWarmPool;
  std::string error;
  std::unique_ptr<WarmStack> stack;
  const double setup_s = TimedSetup(&stack, [&] {
    auto s = std::make_unique<WarmStack>();
    s->catalog = MakeCatalog(views, kFixedCatalogSeed);
    s->pool = DistinctQueries(s->catalog.config, pool_size,
                              Mix(kFixedCatalogSeed, 3));
    s->planner = std::make_unique<ViewPlanner>(s->catalog.views,
                                               s->catalog.instances);
    s->service = std::make_unique<PlanningService>(s->planner.get(),
                                                   PlanningService::Options{});
    s->server = std::make_unique<server::PlanServer>(
        s->service.get(), server::PlanServerOptions{});
    if (!s->server->Start(&error)) return s;
    for (const ConjunctiveQuery& q : s->pool) {
      (void)s->planner->Plan(q, CostModel::kM2);
    }
    return s;
  });
  if (!error.empty()) {
    std::fprintf(stderr, "vbrbench: server start: %s\n", error.c_str());
    return 2;
  }
  ViewPlanner& planner = *stack->planner;
  const std::vector<double> mutation_ms =
      MutationProbe(stack->catalog, cfg.tiny ? 4 : kWarmProbeMutations,
                    std::chrono::milliseconds(100), kFixedCatalogSeed, &report);

  // Variants and their in-process reference answers (cache hits by now).
  std::mt19937_64 rng(Mix(cfg.seed, 4));
  std::vector<std::string> texts;
  std::vector<ConjunctiveQuery> parsed;
  std::vector<std::string> reference;
  std::vector<ViewPlanner::PlanResult> reference_results;
  std::vector<double> in_process_ms;
  for (size_t i = 0; i < stack->pool.size(); ++i) {
    for (size_t v = 0; v < kWarmVariants; ++v) {
      texts.push_back(
          Variant(stack->pool[i], rng, "N" + std::to_string(v)).ToString());
      parsed.push_back(MustParseQuery(texts.back()));
      const Clock::time_point t0 = Clock::now();
      reference_results.push_back(planner.Plan(parsed.back(), CostModel::kM2));
      in_process_ms.push_back(MsBetween(t0, Clock::now()));
      reference.push_back(PlanKey(reference_results.back()));
      CheckCertificate(reference_results.back(), planner.views(), texts.back(),
                       &report);
      if (reference_results.back().ok() &&
          Sampled(cfg.seed, texts.size(), kExecuteSampleOneIn)) {
        CheckAnswer(planner.Execute(*reference_results.back().choice),
                    parsed.back(), stack->catalog.base, texts.back(), &report);
      }
    }
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "in-process warm plans: p50 %.3f ms, p99 %.3f ms, max %.3f ms "
                "over %zu variants",
                Median(in_process_ms), Quantile(in_process_ms, 0.99),
                Quantile(in_process_ms, 1.0), in_process_ms.size());
  report.Note(line);
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (const std::string& key : reference) digest = Fnv1a(digest, key);
  report.SetDigest(digest, reference.size());

  // Request stream: every variant once per cycle, shuffled per cycle.
  auto make_stream = [&](size_t count, uint64_t salt) {
    std::vector<size_t> stream;
    std::vector<size_t> perm(texts.size());
    std::mt19937_64 srng(Mix(cfg.seed, salt));
    while (stream.size() < count) {
      for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
      std::shuffle(perm.begin(), perm.end(), srng);
      for (size_t i : perm) {
        if (stream.size() < count) stream.push_back(i);
      }
    }
    return stream;
  };

  std::vector<WireConnection> conns(kWarmConnections);
  for (WireConnection& c : conns) {
    if (!c.Open(stack->server->binary_port(), &error)) {
      std::fprintf(stderr, "vbrbench: connect: %s\n", error.c_str());
      return 2;
    }
  }
  uint64_t next_id = 1;
  const double rate = cfg.tiny ? 50 : kWarmRateQps;
  const double latency_seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const size_t count = std::max<size_t>(
      50, static_cast<size_t>(rate * latency_seconds));

  // Wire warm-up, not measured: the first seconds of traffic through a
  // fresh server run several times slower than steady state.
  {
    const size_t n = static_cast<size_t>(rate * (cfg.tiny ? 0.5 : 2.0));
    const std::vector<size_t> warm_stream = make_stream(n, 4);
    const Phase warm = RunWire(conns, texts, warm_stream, n, rate,
                               CostModel::kM2, &next_id, &report);
    CheckWireAnswers(warm, warm_stream, texts, reference, &report);
  }

  std::vector<std::string> payloads;
  const auto before = ReadCounters();
  const std::vector<size_t> stream = make_stream(count, 5);
  const Phase latency =
      RunWire(conns, texts, stream, count, rate, CostModel::kM2, &next_id,
              &report, cfg.trace ? &payloads : nullptr);
  CheckWireAnswers(latency, stream, texts, reference, &report);
  const auto after = ReadCounters();
  const size_t attempted = latency.outcomes.size();
  const size_t ok = latency.Count(&Outcome::plan_ok);
  report.SetCounts(attempted,
                   attempted - latency.Count(&Outcome::answered_plan));

  if (!cfg.trace) {
    // Capacity: walk the ladder from an estimate of the service rate (the
    // service workers over the mean in-service time seen above).
    std::vector<double> service_ms;
    for (const Outcome& o : latency.outcomes) {
      if (o.answered) service_ms.push_back(o.latency_ms - o.queue_wait_ms);
    }
    const double workers =
        static_cast<double>(PlanningService::Options{}.num_workers);
    const double estimate = workers * 1000.0 / std::max(0.01, Mean(service_ms));
    auto rung_rate = [&](int k) { return rate * std::pow(kLadderStep, k); };
    const double rung_seconds = cfg.tiny ? 0.5 : kRungSeconds;
    std::map<int, bool> tried;
    auto passes = [&](int k) {
      if (k <= 0) {
        return latency.AllServed() &&
               Quantile(latency.Field(&Outcome::latency_ms), 0.99) <=
                   kCapacityP99LimitMs;
      }
      auto it = tried.find(k);
      if (it != tried.end()) return it->second;
      const double r = rung_rate(k);
      const size_t n =
          std::max<size_t>(20, static_cast<size_t>(r * rung_seconds));
      // Best of three tries: near the knee one try's p99 swings with how
      // the heavy plans happen to bunch up.
      int passed = 0, failed = 0;
      for (int attempt = 0; passed < 2 && failed < 2; ++attempt) {
        const std::vector<size_t> rung_stream =
            make_stream(n, 100 + 2 * k + attempt);
        const Phase p = RunWire(conns, texts, rung_stream, n, r,
                                CostModel::kM2, &next_id, &report);
        CheckWireAnswers(p, rung_stream, texts, reference, &report);
        const double p99 = Quantile(p.Field(&Outcome::latency_ms), 0.99);
        const bool pass = p.AllServed() && p99 <= kCapacityP99LimitMs;
        (pass ? passed : failed) += 1;
        char line[160];
        std::snprintf(line, sizeof(line),
                      "capacity rung %d: %.1f qps, p99 %.2f ms, "
                      "served %zu/%zu -> %s",
                      k, r, p99, p.Count(&Outcome::service_ok), n,
                      pass ? "pass" : "fail");
        report.Note(line);
      }
      tried[k] = passed == 2;
      return passed == 2;
    };
    int k = std::clamp(static_cast<int>(std::floor(std::log(estimate / rate) /
                                                   std::log(kLadderStep))),
                       0, kLadderMaxRung);
    // Step down to a passing rung, then up to the first failing one.
    while (k > 0 && !passes(k)) --k;
    while (k < kLadderMaxRung && passes(k + 1)) ++k;
    const double capacity = passes(k) ? rung_rate(k) : 0.0;

    AddEndToEnd(&report, setup_s, latency.Field(&Outcome::latency_ms),
                Ratio(static_cast<double>(ok), latency.wall_s), capacity,
                attempted, ok, mutation_ms);
    return report.Print();
  }

  // Traced run: the same rate through PlanningService in process, then a
  // seeded sample replayed layer by layer.
  const Phase submit = RunSubmit(*stack->service, parsed, make_stream(count, 7),
                                 count, rate, CostModel::kM2);
  report.Add("traced.plan_p50_ms",
             Median(latency.Field(&Outcome::latency_ms)), "ms");
  AddWireLayerMetrics(latency, submit, &report);
  AddCodecMetrics(texts, payloads, &report);
  AddCounterMetrics(before, after, static_cast<double>(attempted), &report);
  SpanLog log;
  LayerSamples layers;
  for (size_t i = 0; i < std::min(kTraceSample, texts.size()); ++i) {
    const size_t v = Mix(cfg.seed, 9000 + i) % texts.size();
    SampledPlan s;
    s.query = parsed[v];
    s.cover_query = stack->pool[v / kWarmVariants];
    s.snapshot = planner.snapshot();
    const Clock::time_point t0 = Clock::now();
    s.result = planner.Plan(s.query, CostModel::kM2);
    s.plan_us = UsBetween(t0, Clock::now());
    Replay(s, i, stack->catalog.base, &log, &layers);
  }
  AddLayerMetrics(layers, log, &report);
  AddMutationLayerMetrics(mutation_ms, 0, &report);
  WriteSpans(log, cfg, &report);
  return report.Print();
}

// ---------------------------------------------------------------------------
// cold_m1_catalog

struct ColdStack {
  Catalog catalog;
  std::vector<ConjunctiveQuery> queries;
  std::unique_ptr<ViewPlanner> planner;
};

int RunColdM1Catalog(const RunConfig& cfg) {
  Report report("cold_m1_catalog");
  const size_t views = cfg.tiny ? 300 : kColdViews;
  const double run_seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  const size_t pool_size = cfg.tiny ? 800 : kColdPool;
  std::unique_ptr<ColdStack> stack;
  const double setup_s = TimedSetup(&stack, [&] {
    auto s = std::make_unique<ColdStack>();
    s->catalog = MakeCatalog(views, kColdCatalogSeed);
    s->queries = DistinctQueries(s->catalog.config, pool_size + 16,
                                 Mix(cfg.seed, 3));
    s->planner = std::make_unique<ViewPlanner>(s->catalog.views,
                                               s->catalog.instances);
    // Lazy initialisation out of the way (the last 16 queries are not
    // part of the measured stream).
    for (size_t i = pool_size; i < s->queries.size(); ++i) {
      (void)s->planner->Plan(s->queries[i], CostModel::kM1);
    }
    return s;
  });
  ViewPlanner& planner = *stack->planner;
  const std::vector<ConjunctiveQuery>& queries = stack->queries;
  const std::vector<double> mutation_ms =
      MutationProbe(stack->catalog, cfg.tiny ? 4 : kColdProbeMutations,
                    std::chrono::milliseconds(100), kColdCatalogSeed, &report);

  struct Slot {
    double latency_ms = -1;
    std::string key;
    bool ok = false;
    bool answered = false;
    std::string certificate_error;
    std::optional<ViewPlanner::PlanChoice> choice;  // sampled only
    std::optional<SampledPlan> trace;
  };
  std::vector<Slot> slots(pool_size);
  std::atomic<size_t> next{0};
  const auto before = ReadCounters();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(run_seconds));
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kColdCallers; ++t) {
    callers.emplace_back([&] {
      while (Clock::now() < end) {
        const size_t i = next.fetch_add(1);
        if (i >= pool_size) return;
        const Clock::time_point t0 = Clock::now();
        ViewPlanner::PlanResult r = planner.Plan(queries[i], CostModel::kM1);
        const Clock::time_point t1 = Clock::now();
        Slot& slot = slots[i];
        slot.latency_ms = MsBetween(t0, t1);
        slot.key = PlanKey(r);
        slot.ok = r.ok();
        slot.answered = Answered(static_cast<int>(r.status));
        if (cfg.trace && Sampled(cfg.seed, i, 8)) {
          slot.trace.emplace();
          slot.trace->query = queries[i];
          slot.trace->cover_query = queries[i];
          slot.trace->model = CostModel::kM1;
          slot.trace->plan_us = UsBetween(t0, t1);
          slot.trace->result = r;
        }
        // Certificate checks are search-free (microseconds against
        // milliseconds of planning), so they run here, off the latency clock.
        if (r.ok() &&
            !VerifyCertificate(r.choice->certificate, planner.views(),
                               &slot.certificate_error)) {
          slot.certificate_error += " ";
        }
        if (r.ok() && Sampled(cfg.seed, i, kExecuteSampleOneIn)) {
          slot.choice = std::move(r.choice);
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  const double wall_s = MsBetween(start, Clock::now()) / 1e3;
  const auto after = ReadCounters();

  // Correctness gate, after the clock stopped.
  const size_t attempted = std::min(next.load(), pool_size);
  if (attempted == pool_size) {
    report.Note("query pool exhausted before the end");
  }
  std::vector<double> lat;
  size_t ok = 0, answered = 0;
  uint64_t digest = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < attempted; ++i) {
    Slot& slot = slots[i];
    lat.push_back(slot.latency_ms);
    ok += slot.ok;
    answered += slot.answered;
    if (i < kDigestPlans) digest = Fnv1a(digest, slot.key);
    if (!slot.certificate_error.empty()) {
      report.Mismatch(queries[i].ToString() + ": certificate: " +
                      slot.certificate_error);
    }
    if (slot.choice.has_value()) {
      CheckAnswer(planner.Execute(*slot.choice), queries[i],
                  stack->catalog.base, queries[i].ToString(), &report);
    }
  }
  report.SetDigest(digest, std::min(attempted, kDigestPlans));
  report.SetCounts(attempted, attempted - answered);
  const double plans_per_s = Ratio(static_cast<double>(ok), wall_s);

  if (!cfg.trace) {
    // Closed loop at full concurrency: capacity is the throughput.
    AddEndToEnd(&report, setup_s, lat, plans_per_s, plans_per_s, attempted, ok,
                mutation_ms);
    return report.Print();
  }

  report.Add("traced.plan_p50_ms", Median(lat), "ms");
  AddCounterMetrics(before, after, static_cast<double>(attempted), &report);
  SpanLog log;
  LayerSamples layers;
  const auto snapshot = planner.snapshot();
  std::vector<size_t> traced;
  for (size_t i = 0; i < attempted; ++i) {
    if (slots[i].trace.has_value()) traced.push_back(i);
  }
  for (size_t k : Spread(traced.size(), kTraceSample)) {
    SampledPlan& sample = *slots[traced[k]].trace;
    sample.snapshot = snapshot;
    Replay(sample, k, stack->catalog.base, &log, &layers);
  }
  AddLayerMetrics(layers, log, &report);
  const size_t probe = static_cast<size_t>(kProbeRateQps * cfg.seconds / 3);
  std::vector<ConjunctiveQuery> fresh = DistinctQueries(
      stack->catalog.config, 2 * probe, Mix(cfg.seed, 11));
  WireProbe(planner, {fresh.begin(), fresh.begin() + probe},
            {fresh.begin() + probe, fresh.end()}, CostModel::kM1, &report);
  AddMutationLayerMetrics(mutation_ms, 0, &report);
  WriteSpans(log, cfg, &report);
  return report.Print();
}


// ---------------------------------------------------------------------------
// delta_m2_mixed

struct DeltaStack {
  Catalog catalog;
  std::vector<ConjunctiveQuery> pool;
  std::vector<DeltaBatch> batches;
  std::unique_ptr<ViewPlanner> planner;
};

int RunDeltaM2Mixed(const RunConfig& cfg) {
  Report report("delta_m2_mixed");
  const size_t views = cfg.tiny ? 100 : kDeltaViews;
  const size_t pool_size = cfg.tiny ? 16 : kDeltaPool;
  const size_t batch_views = cfg.tiny ? 4 : kDeltaBatchViews;
  const double run_seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  std::unique_ptr<DeltaStack> stack;
  const double setup_s = TimedSetup(&stack, [&] {
    auto s = std::make_unique<DeltaStack>();
    s->catalog = MakeCatalog(views, kDeltaCatalogSeed);
    s->pool = DistinctQueries(s->catalog.config, pool_size,
                              Mix(kDeltaCatalogSeed, 3));
    s->batches = MakeBatches(s->catalog, kDeltaBatches, batch_views,
                             Mix(kDeltaCatalogSeed, 12));
    s->planner = std::make_unique<ViewPlanner>(s->catalog.views,
                                               s->catalog.instances);
    for (const ConjunctiveQuery& q : s->pool) {
      (void)s->planner->Plan(q, CostModel::kM2);
    }
    return s;
  });
  ViewPlanner& planner = *stack->planner;

  // Zipf(s) over the pool: hot queries hit, tail queries come back after
  // deltas have invalidated them.
  std::vector<double> cdf;
  double total = 0;
  for (size_t i = 0; i < pool_size; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kDeltaZipfS);
    cdf.push_back(total);
  }
  std::mt19937_64 rng(Mix(cfg.seed, 8));
  auto draw = [&] {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53 * total;
    return std::min<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        pool_size - 1);
  };

  // Deterministic mutation schedule: every kPlansPerMutation plans, two
  // adds then two removes (oldest first), cycling through the batches, so
  // the catalog oscillates between its base size and two batches more.
  std::deque<const DeltaBatch*> added;
  size_t mutations = 0, adds = 0;
  std::vector<double> mutation_ms;
  auto mutate = [&] {
    const Clock::time_point t0 = Clock::now();
    if (mutations % 4 < 2) {
      const DeltaBatch& b = stack->batches[adds++ % stack->batches.size()];
      planner.AddViews(b.views, b.instances);
      added.push_back(&b);
    } else {
      const size_t removed = planner.RemoveViews(added.front()->names);
      if (removed != added.front()->names.size()) {
        report.Mismatch("RemoveViews dropped " + std::to_string(removed) +
                        " views of a batch of " +
                        std::to_string(added.front()->names.size()));
      }
      added.pop_front();
    }
    mutation_ms.push_back(MsBetween(t0, Clock::now()));
    ++mutations;
  };

  std::vector<double> lat;
  std::vector<SampledPlan> samples;
  size_t ok = 0, answered = 0;
  double check_ms = 0;
  uint64_t digest = 0xcbf29ce484222325ULL;
  const auto before = ReadCounters();
  std::map<std::string, uint64_t> at_prefix;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(run_seconds));
  size_t p = 0;
  for (; Clock::now() < end || p < kDigestPlans; ++p) {
    if (p > 0 && p % kPlansPerMutation == 0) mutate();
    const ConjunctiveQuery& q = stack->pool[draw()];
    std::shared_ptr<const ViewPlanner::ViewSnapshot> snapshot =
        planner.snapshot();
    const Clock::time_point t0 = Clock::now();
    ViewPlanner::PlanResult r = planner.Plan(q, CostModel::kM2);
    const Clock::time_point t1 = Clock::now();
    lat.push_back(MsBetween(t0, t1));
    ok += r.ok();
    answered += Answered(static_cast<int>(r.status));
    if (p < kDigestPlans) digest = Fnv1a(digest, PlanKey(r));
    if (p + 1 == kDigestPlans) at_prefix = ReadCounters();
    // The correctness gate runs between requests; its time is not part of
    // the workload's wall clock.
    CheckCertificate(r, snapshot->views, q.ToString(), &report);
    if (r.ok() && Sampled(cfg.seed, p, kExecuteSampleOneIn)) {
      CheckAnswer(planner.Execute(*r.choice), q, stack->catalog.base,
                  q.ToString(), &report);
    }
    if (cfg.trace && Sampled(cfg.seed, p, 8)) {
      SampledPlan s;
      s.query = q;
      s.cover_query = q;
      s.result = std::move(r);
      s.plan_us = UsBetween(t0, t1);
      s.snapshot = std::move(snapshot);
      samples.push_back(std::move(s));
    }
    check_ms += MsBetween(t1, Clock::now());
  }
  const double wall_s = (MsBetween(start, Clock::now()) - check_ms) / 1e3;
  const auto after = ReadCounters();
  report.SetDigest(digest, kDigestPlans);
  report.SetCounts(lat.size(), lat.size() - answered);
  {
    // Counter deltas over the first kDigestPlans plans: one caller and a
    // deterministic schedule, so these repeat exactly for a seed.
    std::string line = "exact-counts over " + std::to_string(kDigestPlans) +
                       " plans:";
    for (const char* name :
         {"cq.containment_checks", "corecover.view_tuples",
          "planner.cache.hits", "planner.cache.misses",
          "planner.cache.evictions"}) {
      line += std::string(" ") + name + "=" +
              std::to_string(CounterDelta(before, at_prefix, name));
    }
    report.Note(line);
  }
  const double plans_per_s = Ratio(static_cast<double>(ok), wall_s);

  if (!cfg.trace) {
    // Closed loop with one caller: capacity is the throughput.
    AddEndToEnd(&report, setup_s, lat, plans_per_s, plans_per_s, lat.size(),
                ok, mutation_ms);
    return report.Print();
  }

  report.Add("traced.plan_p50_ms", Median(lat), "ms");
  AddCounterMetrics(before, at_prefix, static_cast<double>(kDigestPlans),
                    &report);
  SpanLog log;
  LayerSamples layers;
  for (size_t k : Spread(samples.size(), kTraceSample)) {
    Replay(samples[k], k, stack->catalog.base, &log, &layers);
  }
  AddLayerMetrics(layers, log, &report);
  AddMutationLayerMetrics(
      mutation_ms,
      Ratio(static_cast<double>(
                CounterDelta(before, after, "planner.cache.evictions")),
            static_cast<double>(mutations)),
      &report);
  const size_t probe = static_cast<size_t>(kProbeRateQps * cfg.seconds / 3);
  std::vector<ConjunctiveQuery> wire_queries, submit_queries;
  for (size_t i = 0; i < probe; ++i) {
    wire_queries.push_back(stack->pool[draw()]);
  }
  for (size_t i = 0; i < probe; ++i) {
    submit_queries.push_back(stack->pool[draw()]);
  }
  WireProbe(planner, wire_queries, submit_queries, CostModel::kM2, &report);
  WriteSpans(log, cfg, &report);
  return report.Print();
}

}  // namespace
}  // namespace vbr::bench

int main(int argc, char** argv) {
  vbr::bench::RunConfig cfg;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "vbrbench: %s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      workload = value();
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.trace = value() != "0";
    } else if (flag == "--tiny") {
      cfg.tiny = true;
    } else if (flag == "--spans") {
      cfg.spans_path = value();
    } else {
      std::fprintf(stderr, "vbrbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!(cfg.seconds > 0)) {
    std::fprintf(stderr, "vbrbench: --seconds must be positive\n");
    return 2;
  }
  if (workload == "warm_m2_wire") return vbr::bench::RunWarmM2Wire(cfg);
  if (workload == "cold_m1_catalog") return vbr::bench::RunColdM1Catalog(cfg);
  if (workload == "delta_m2_mixed") return vbr::bench::RunDeltaM2Mixed(cfg);
  std::fprintf(stderr, "vbrbench: unknown workload '%s'\n", workload.c_str());
  return 2;
}
