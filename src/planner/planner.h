#ifndef VBR_PLANNER_PLANNER_H_
#define VBR_PLANNER_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/trace.h"
#include "common/vbin.h"
#include "cost/cost_model.h"
#include "cost/physical_plan.h"
#include "cq/fingerprint.h"
#include "cq/query.h"
#include "engine/database.h"
#include "planner/request_options.h"
#include "rewrite/certificate.h"
#include "rewrite/core_cover.h"

namespace vbr {

struct CachedPlan;
class PlanCache;
struct PlanCacheCounters;
struct SnapshotLoadResult;  // planner/snapshot.h

// Outcome classification of a planning request. Distinguishes "there
// provably is no equivalent rewriting over these views" from "the query is
// outside the supported fragment", which the old optional<PlanChoice>
// return collapsed into one nullopt.
enum class PlanStatus {
  // A plan was chosen; PlanResult::choice is populated.
  kOk = 0,
  // The query is answerable in principle but admits no equivalent
  // rewriting over the current view set.
  kNoRewriting,
  // The (minimized) query exceeds the supported fragment (e.g. more than
  // 64 subgoals); PlanResult::error carries the detail.
  kUnsupportedQueryTooLarge,
  // The request's resource budget (PlanRequestOptions) ran out before any
  // certified plan could be produced — including the degradation ladder
  // (grace certification of a best-so-far rewriting, then the budgeted
  // MiniCon fallback). PlanResult::exhaustion says which budget died and at
  // which check site; `error` carries a human-readable account. Note that a
  // budget can also run out and still yield a plan: the result is then kOk
  // with `degraded` set.
  kBudgetExhausted,
};

const char* PlanStatusName(PlanStatus status);

// One-call facade over the whole pipeline: given the view definitions and
// their materialized instances, Plan() runs CoreCover / CoreCover*, lets
// the filter advisor add selective empty-core tuples (M2/M3), optimizes the
// join order (and, under M3, the attribute drops) against the instances,
// and returns the chosen physical plan together with a checkable
// equivalence certificate. Execute() runs it.
//
//   ViewPlanner planner(views, MaterializeViews(views, base));
//   auto result = planner.Plan(query, {.model = CostModel::kM2,
//                                      .deadline_ms = 50});
//   if (result.ok()) Relation answer = planner.Execute(*result.choice);
//
// Caching: CoreCover's logical output depends only on the query and the
// view definitions, so the planner keeps a fingerprint-keyed plan cache
// (see planner/plan_cache.h). Queries identical up to variable renaming and
// subgoal reordering share one entry; on a hit the cached rewritings are
// re-costed against the CURRENT view instances, so M2/M3 plans keep
// tracking instance sizes. ReplaceViews() swaps the view set and
// invalidates the cache by bumping its epoch.
//
// Thread safety: every member function may be called concurrently with
// every other, INCLUDING ReplaceViews. The view definitions, their
// instances, and the cache epoch they pair with live in one immutable
// reference-counted ViewSnapshot; each request pins the snapshot current at
// its entry and uses it throughout, RCU-style, so a concurrent swap can
// never show a request a torn (new views, old instances) state or let it
// poison the cache across an epoch. The only exception is the pair of
// borrowing accessors views() / view_instances(): the references they
// return are stable only until the next ReplaceViews — callers that race a
// swap should hold a snapshot() instead.
class ViewPlanner {
 public:
  // One immutable (views, instances, cache epoch) generation. Requests pin
  // a snapshot for their whole lifetime; ReplaceViews publishes a new one,
  // AddViews/RemoveViews publish a patched one (same epoch, next delta
  // epoch).
  struct ViewSnapshot {
    ViewSet views;
    Database instances;
    uint64_t epoch = 0;
    // Plan-cache delta epoch this catalog generation pairs with (see
    // plan_cache.h): cache traffic for requests pinned here is reconciled
    // per-query against catalogs one or more AddViews/RemoveViews away.
    uint64_t delta_epoch = 0;
    // Candidate index over `views` (null when use_view_index is off);
    // shared by every request pinned to this snapshot.
    std::shared_ptr<const ViewIndex> index;
  };

  struct PlanChoice {
    // The logical plan (rewriting over view predicates, filters included).
    ConjunctiveQuery logical;
    // The physical plan executed against the view instances.
    PhysicalPlan physical;
    // Cost of `physical` under the requested model (M1: subgoal count).
    size_t cost = 0;
    CostModel model = CostModel::kM1;
    // Witness that `logical` (hence `physical`) answers the query exactly.
    // Stated over the MINIMIZED core of the query (which minimization
    // guarantees equivalent to the query itself), so cached rewritings
    // certify identically for every renamed variant of a query.
    EquivalenceCertificate certificate;

    std::string ToString() const;
  };

  // Status-bearing planning result. `choice` is populated exactly when
  // status == PlanStatus::kOk.
  struct PlanResult {
    PlanStatus status = PlanStatus::kNoRewriting;
    std::optional<PlanChoice> choice;
    // Stats of the CoreCover run that produced the rewritings. On a cache
    // hit these are the ORIGINAL run's stats (its timings describe the
    // planning work this request skipped).
    CoreCoverStats stats;
    // True if the logical plans came from the plan cache instead of a fresh
    // CoreCover run.
    bool cache_hit = false;
    // Human-readable detail when status == kUnsupportedQueryTooLarge or
    // kBudgetExhausted.
    std::string error;
    // Which budget died and where (BudgetKind::kNone when none did).
    // Populated both for kBudgetExhausted and for degraded kOk results.
    BudgetExhaustion exhaustion;
    // True when the budget ran out but the degradation ladder still produced
    // a certified plan (best-so-far grace certification or the MiniCon
    // fallback) — or when costing was starved, or the winner was too wide
    // for the exact M2 join-order search and got a greedy order, so
    // `choice` is certified-correct but may not be the cheapest plan.
    bool degraded = false;

    bool ok() const { return status == PlanStatus::kOk; }

    // One JSON object in the same dialect as PlanExplanation::ToJson —
    // identical keys for status / error / budget / plan / stats — so the
    // CLI, the HTTP endpoint, and tests all read one schema:
    //   {"status":"ok","error":"","cache_hit":true,
    //    "budget":{"exhausted":false,"kind":"none","site":"","degraded":false},
    //    "plan":{"logical":...,"physical":...,"cost":7,"model":"M2"},
    //    "stats":{...}}
    std::string ToJson() const;
  };

  struct Options {
    Options() { core_cover.max_rewritings = 64; }

    // Knobs forwarded to CoreCover / CoreCoverStar: worker threads,
    // view/tuple grouping, verification, and the rewriting cap
    // (max_rewritings defaults to 64 here — the facade bounds the costing
    // loop tighter than the raw pipeline's 1024).
    CoreCoverOptions core_cover;
    // Let the advisor append selective filtering subgoals (M2/M3 only).
    bool use_filters = true;
    // M3 plans wider than this fall back to M2 ordering with SR drops
    // (the cost-based M3 search is exponential).
    size_t max_m3_subgoals = 6;
    // Serve repeated (isomorphic) queries from the plan cache.
    bool enable_cache = true;
    // Total plan-cache entries across all shards.
    size_t cache_capacity = 1024;
    // Work-unit budget for the degradation ladder: grace certification of a
    // best-so-far rewriting and the MiniCon fallback each run under a fresh
    // governor with this work limit, shielded from the exhausted request
    // governor (otherwise a dead budget would starve its own recovery).
    // When the request has a deadline, the grace governor also gets a
    // quarter of it (at least 5 ms), so the ladder cannot turn a tight
    // deadline into a long fallback search. 0 = unlimited grace work.
    uint64_t fallback_work_budget = 250'000;
    // When CoreCover's budget dies before any rewriting is found, retry with
    // a work-budgeted MiniCon run (baseline/minicon.h) before giving up.
    bool enable_minicon_fallback = true;
  };

  // `view_instances` must hold one relation per view head predicate (as
  // produced by MaterializeViews); missing relations are treated as empty.
  ViewPlanner(ViewSet views, Database view_instances);
  ViewPlanner(ViewSet views, Database view_instances, Options options);
  ~ViewPlanner();

  ViewPlanner(const ViewPlanner&) = delete;
  ViewPlanner& operator=(const ViewPlanner&) = delete;

  // A self-describing account of one planning decision, for humans (ToText)
  // and tools (ToJson): the chosen rewriting, every candidate considered
  // with its cost and why it lost, a per-cost-model breakdown of the winner
  // with the measured intermediate-result sizes, and the cache disposition.
  // Available for failed plans too (status / error are always reported).
  struct PlanExplanation {
    // One costed candidate rewriting (after any advisor filters).
    struct Candidate {
      ConjunctiveQuery logical;
      size_t cost = 0;
      // The filter advisor appended selective subgoals to this candidate.
      bool filtered = false;
      bool chosen = false;
      // "chosen", or why it lost ("cost 18 > winner 7").
      std::string reason;
    };
    // The chosen logical plan measured under one cost model: its join
    // order, per-step view-relation sizes, and per-step intermediate sizes
    // (IR_i under M2, GSR_i under M3; empty for M1, which counts subgoals).
    struct ModelBreakdown {
      CostModel model = CostModel::kM1;
      size_t cost = 0;
      std::vector<size_t> order;
      std::vector<size_t> relation_sizes;
      std::vector<size_t> state_sizes;
    };

    PlanStatus status = PlanStatus::kNoRewriting;
    std::string error;
    CostModel model = CostModel::kM1;
    // "hit", "miss", "bypass" (builtins skip the cache), or "disabled".
    std::string cache_disposition;
    ConjunctiveQuery query;
    // The minimized core the rewriting search ran on.
    ConjunctiveQuery minimized;
    std::optional<PlanChoice> choice;
    std::vector<Candidate> candidates;
    // Breakdown under M1, M2, and M3 (in that order) when a plan exists.
    std::vector<ModelBreakdown> breakdown;
    CoreCoverStats stats;
    bool cache_hit = false;
    // Budget outcome, mirrored from PlanResult: which budget died and where
    // (kNone when none did), and whether the plan came from the degradation
    // ladder. ToText/ToJson surface these alongside the rewriting-cap flag
    // (stats.hit_rewriting_cap) so silent truncation is visible.
    BudgetExhaustion exhaustion;
    bool degraded = false;

    bool ok() const { return status == PlanStatus::kOk; }
    std::string ToText() const;
    std::string ToJson() const;
  };

  // The one governed entry point: plans `query` under `request.model`. When
  // the request sets any limit, a fresh ResourceGovernor built from those
  // limits (deadline measured from this call) governs the whole call, and
  // each rung of the degradation ladder runs under the grace limits derived
  // from them (Options::fallback_work_budget). An unlimited request runs
  // under whatever governor the caller installed, if any. Exhaustion
  // degrades the result (kBudgetExhausted, or kOk with `degraded` set) and
  // NEVER aborts the process; budget-exhausted logical outcomes are never
  // cached. The PlanningService plans every attempt through here, so an
  // in-process call and a wire request with equal options plan identically.
  //
  // With an active `trace`, the call emits a "plan" span under it
  // (attributes: model, cache disposition, status) with children for
  // canonicalization, the cache lookup, every CoreCover stage, the cost
  // optimizers, and certification. An inert context costs one branch per
  // span site.
  PlanResult Plan(const ConjunctiveQuery& query,
                  const PlanRequestOptions& request,
                  const TraceContext& trace = {}) const;
  // Ungoverned shorthand for Plan(query, {.model = model}).
  PlanResult Plan(const ConjunctiveQuery& query, CostModel model) const;

  // Cache-only planning: Plan() that serves `query` only from the plan cache
  // (re-costed and re-certified against current instances, under the
  // request's budget) and returns nullopt on a miss WITHOUT running the
  // rewriting search. The PlanningService's brown-out ladder uses this to
  // keep serving warm traffic when the breaker has shed fresh planning work.
  // Queries the cache cannot hold (builtins, cache disabled) always miss.
  std::optional<PlanResult> TryPlanFromCache(
      const ConjunctiveQuery& query, const PlanRequestOptions& request,
      const TraceContext& trace = {}) const;

  // Plans `query` like Plan() and explains the outcome. On top of planning,
  // every candidate is recorded while costing, and the winner is re-measured
  // under all three cost models (ungoverned, after the request's governor is
  // gone), so Explain is strictly more expensive than Plan — use it for
  // debugging and inspection, not on the hot path.
  PlanExplanation Explain(const ConjunctiveQuery& query,
                          const PlanRequestOptions& request,
                          const TraceContext& trace = {}) const;

  // Plans a batch: results[i] corresponds to queries[i], each member planned
  // like Plan(queries[i], request) under its own governor. The batch fans
  // out on a thread pool with one thread per hardware thread; each member
  // plans on one thread. Queries with identical fingerprints plan in order
  // on one worker, so only the first runs CoreCover and the rest are served
  // its cache entry (reported as cache hits). Results are identical to
  // calling Plan() serially on each query in order.
  std::vector<PlanResult> PlanMany(const std::vector<ConjunctiveQuery>& queries,
                                   const PlanRequestOptions& request) const;

  // Replaces the view definitions and instances and invalidates the plan
  // cache (epoch bump), preserving cache counters and options. Prefer this
  // over constructing a new planner when the view set evolves. Safe to call
  // while Plan/Execute/Answer calls are in flight: in-flight requests
  // finish against the snapshot they pinned at entry, and their cache
  // traffic stays keyed to that snapshot's epoch.
  void ReplaceViews(ViewSet views, Database view_instances);

  // Delta mutations: publish a patched snapshot (and candidate index)
  // WITHOUT bumping the cache epoch. Instead, the plan cache records a
  // fence carrying the changed views' summaries, and only cached plans
  // whose candidate sets could include a changed view are invalidated —
  // every other entry keeps serving hits across the delta (plan_cache.h
  // "Delta epoch"). Same concurrency contract as ReplaceViews.
  //
  // AddViews appends `added` to the catalog (their ids continue the
  // current numbering); `added_instances` holds their materialized
  // relations, merged into the snapshot's instance copy. A view's head
  // predicate names its relation, so it must be new: AddViews aborts on a
  // head predicate already in the catalog or repeated within `added`.
  void AddViews(ViewSet added, Database added_instances);
  // RemoveViews drops every view whose HEAD PREDICATE name is listed
  // (with its instance relation) and returns how many views were dropped;
  // unknown names are ignored.
  size_t RemoveViews(const std::vector<std::string>& names);

  // Executes a chosen plan against the view instances.
  Relation Execute(const PlanChoice& choice) const;

  // Convenience: Plan under M2 and Execute, or nullopt if no plan exists.
  // Plans and executes against ONE snapshot, so the answer is consistent
  // even when ReplaceViews lands between the two steps.
  std::optional<Relation> Answer(const ConjunctiveQuery& query) const;

  // The current (views, instances, epoch) generation. The returned snapshot
  // is immutable and stays valid for as long as the caller holds it, even
  // across ReplaceViews.
  std::shared_ptr<const ViewSnapshot> snapshot() const;

  // Borrowing accessors into the CURRENT snapshot. The references are
  // stable only until the next ReplaceViews; callers that may race a swap
  // should pin snapshot() instead.
  const ViewSet& views() const { return CurrentSnapshot()->views; }
  const Database& view_instances() const {
    return CurrentSnapshot()->instances;
  }

  // Persistence (planner/snapshot.h). SaveSnapshot writes every live
  // plan-cache entry — fingerprints, rewritings, certificates — plus a
  // fingerprint of the current view definitions as one VBIN file
  // (atomically: temp file + rename). LoadSnapshot warms the cache from
  // such a file: if the stored view fingerprint matches the current views,
  // the entries are inserted under the current epoch and the very next
  // Plan() of a snapshotted query is a cache hit with a byte-identical
  // plan; if it does not match, the planner stays cold (compatible ==
  // false, NOT an error). Corrupt/truncated/newer-versioned files are
  // rejected with a clean status and leave the cache untouched. Both are
  // safe to call while planning traffic is in flight.
  vbin::Status SaveSnapshot(const std::string& path) const;
  SnapshotLoadResult LoadSnapshot(const std::string& path);

  // Plan-cache observability (all zero when the cache is disabled).
  PlanCacheCounters cache_counters() const;
  size_t cache_size() const;
  uint64_t cache_epoch() const;
  // Current delta epoch (0 until the first AddViews/RemoveViews).
  uint64_t delta_epoch() const;

 private:
  // The current snapshot (a pointer copy under snapshot_mu_).
  std::shared_ptr<const ViewSnapshot> CurrentSnapshot() const;

  // One planning call as the steps below see it; the public methods differ
  // only in how they fill it in. `vs` is pinned once at the public entry,
  // so a call never mixes view-set generations.
  struct Call {
    const ViewSnapshot& vs;
    const ConjunctiveQuery& query;
    const PlanRequestOptions& request;
    TraceContext trace = {};  // the "plan" span once Run has opened it
    PlanExplanation* explain = nullptr;         // Explain
    const CanonicalQuery* canonical = nullptr;  // PlanMany: computed up front
    bool cache_only = false;  // TryPlanFromCache: a miss plans nothing
  };
  // CostAndPick's winner: its index among the rewritings, whether the
  // advisor appended filters to it, and whether its order is greedy.
  struct Pick {
    PlanChoice choice;
    size_t index = 0;
    bool filtered = false;
    bool greedy = false;
  };

  // The shared entry behind every public planning method: installs the
  // request's governor, canonicalizes and looks the query up, serves a hit
  // or plans a miss, stamps the budget outcome, and records metrics, spans
  // and the explanation. Returns nullopt only for a cache-only miss.
  std::optional<PlanResult> Run(Call call) const;
  // Runs CoreCover + costing; with a `canonical` form, the logical outcome
  // is also inserted into the cache.
  PlanResult PlanViaCoreCover(const Call& call,
                              const CanonicalQuery* canonical) const;
  // Re-costs a cached entry; `transport` renames its canonical variables
  // into the query's.
  PlanResult PlanFromEntry(const Call& call, const CachedPlan& entry,
                           const Substitution& transport) const;
  // The step both paths share: costs the (non-empty) `rewritings`,
  // certifies the winner against `minimized` — reusing `entry`'s stored
  // certificate (along `transport`) when it re-verifies, else storing a
  // fresh one — and grace-certifies when the request budget died first.
  PlanResult CostCertify(const Call& call,
                         const std::vector<ConjunctiveQuery>& rewritings,
                         const std::vector<Atom>& filter_atoms,
                         const ConjunctiveQuery& minimized,
                         const CachedPlan* entry,
                         const Substitution& transport) const;
  // Picks the cheapest rewriting under the request's model against the
  // snapshot's instances ("cost_and_pick" span; Candidates when explaining).
  Pick CostAndPick(const Call& call,
                   const std::vector<ConjunctiveQuery>& rewritings,
                   const std::vector<Atom>& filter_atoms) const;
  // Last rung of the degradation ladder: the request budget died before
  // CoreCover found any rewriting. Retries with a grace-governed MiniCon run
  // (when enable_minicon_fallback) and certifies its winner; otherwise (or
  // when MiniCon's grace budget dies too) returns kBudgetExhausted.
  PlanResult MiniConFallback(const Call& call,
                             const CoreCoverResult& cc_result) const;

  Options options_;
  std::unique_ptr<PlanCache> cache_;
  // Current snapshot, swapped wholesale by ReplaceViews. Guarded by
  // snapshot_mu_ (a pointer copy, not a data copy — reads are O(1)).
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const ViewSnapshot> snapshot_;
  // Serializes ReplaceViews calls so (epoch bump, snapshot publish) pairs
  // cannot interleave.
  std::mutex replace_mu_;
};

}  // namespace vbr

#endif  // VBR_PLANNER_PLANNER_H_
