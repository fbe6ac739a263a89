#include "planner/planner.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "baseline/minicon.h"
#include "common/budget.h"
#include "common/check.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "cost/filter_advisor.h"
#include "cq/containment.h"
#include "cost/m2_optimizer.h"
#include "cost/m3_optimizer.h"
#include "cost/supplementary.h"
#include "planner/plan_cache.h"
#include "rewrite/core_cover.h"

namespace vbr {

namespace {

// Canonical model names now live in cost/cost_model.h; this alias keeps the
// call sites below unchanged.
constexpr auto ModelName = CostModelName;

// Inverse of a variable-to-variable renaming.
Substitution InvertRenaming(const Substitution& renaming) {
  Substitution inverse;
  for (const auto& [sym, target] : renaming.bindings()) {
    VBR_CHECK_MSG(target.is_variable(), "renaming maps a variable to a constant");
    const bool fresh = inverse.Bind(target, Term::Variable(sym));
    VBR_CHECK_MSG(fresh, "renaming is not injective");
  }
  return inverse;
}

// Renames a containment mapping: both its domain variables and its targets
// are pushed through `renaming` (variables the renaming does not cover —
// the expansion's fresh existentials — pass through unchanged).
Substitution RenameMapping(const Substitution& mapping,
                           const Substitution& renaming) {
  Substitution out;
  for (const auto& [sym, target] : mapping.bindings()) {
    const Term domain = renaming.Apply(Term::Variable(sym));
    VBR_CHECK_MSG(domain.is_variable(), "mapping domain renamed to a constant");
    out.Bind(domain, renaming.Apply(target));
  }
  return out;
}

// Transports a certificate along a variable renaming (canonical space <->
// a concrete query's variable space). The expansion's fresh existential
// variables are outside the renaming and keep their names; the caller
// re-verifies the transported certificate before trusting it.
EquivalenceCertificate TransportCertificate(const EquivalenceCertificate& cert,
                                            const Substitution& renaming) {
  EquivalenceCertificate out;
  out.query = renaming.Apply(cert.query);
  out.rewriting = renaming.Apply(cert.rewriting);
  out.expansion.query = renaming.Apply(cert.expansion.query);
  out.expansion.origin = cert.expansion.origin;
  out.query_to_expansion = RenameMapping(cert.query_to_expansion, renaming);
  out.expansion_to_query = RenameMapping(cert.expansion_to_query, renaming);
  return out;
}

// Records the budget outcome of one planning request into the global
// metrics registry (no-op when no budget died).
void RecordBudgetMetrics(const BudgetExhaustion& exhaustion) {
  if (exhaustion.kind == BudgetKind::kNone) return;
  static Counter* const exhausted =
      MetricsRegistry::Global().GetCounter("planner.budget_exhausted");
  exhausted->Increment();
  if (exhaustion.kind == BudgetKind::kDeadline) {
    static Counter* const deadline =
        MetricsRegistry::Global().GetCounter("planner.deadline_exceeded");
    deadline->Increment();
  }
}

// The limits of each degradation-ladder rung: the grace work budget, plus
// max(5 ms, deadline / 4) when the request has a deadline, so recovery
// cannot turn a tight deadline into a long search.
ResourceLimits GraceLimits(uint64_t work_budget,
                           const PlanRequestOptions& request) {
  ResourceLimits grace;
  grace.work_limit = work_budget;
  if (request.deadline_ms > 0) {
    grace.deadline_ms = std::max(5.0, request.deadline_ms / 4);
  }
  return grace;
}

std::string ExhaustionMessage(const BudgetExhaustion& exhaustion,
                              std::string_view while_doing) {
  std::string s = BudgetKindName(exhaustion.kind);
  s += " budget exhausted";
  if (!exhaustion.site.empty()) s += " at " + exhaustion.site;
  s += " ";
  s += while_doing;
  return s;
}

}  // namespace

const char* PlanStatusName(PlanStatus status) {
  switch (status) {
    case PlanStatus::kOk:
      return "ok";
    case PlanStatus::kNoRewriting:
      return "no equivalent rewriting";
    case PlanStatus::kUnsupportedQueryTooLarge:
      return "unsupported query (too large)";
    case PlanStatus::kBudgetExhausted:
      return "budget exhausted";
  }
  return "?";
}

std::string ViewPlanner::PlanChoice::ToString() const {
  std::string s = "logical : " + logical.ToString() + "\n";
  s += "physical: " + physical.ToString() + "\n";
  s += "cost    : " + std::to_string(cost) + " (" + ModelName(model) + ")";
  return s;
}

namespace {

std::string SizesToString(const std::vector<size_t>& sizes) {
  std::string s = "[";
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (i > 0) s += " ";
    s += std::to_string(sizes[i]);
  }
  s += "]";
  return s;
}

std::string SizesToJson(const std::vector<size_t>& sizes) {
  std::string s = "[";
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(sizes[i]);
  }
  s += "]";
  return s;
}

std::string Quoted(std::string_view s) {
  return "\"" + JsonEscape(s) + "\"";
}

std::string StatsToJson(const CoreCoverStats& stats) {
  std::string s = "{";
  s += "\"num_views\":" + std::to_string(stats.num_views);
  s += ",\"num_candidate_views\":" + std::to_string(stats.num_candidate_views);
  s += ",\"num_view_classes\":" + std::to_string(stats.num_view_classes);
  s += ",\"num_view_tuples\":" + std::to_string(stats.num_view_tuples);
  s += ",\"num_tuple_classes\":" + std::to_string(stats.num_tuple_classes);
  s += ",\"num_nonempty_cores\":" + std::to_string(stats.num_nonempty_cores);
  s += ",\"minimum_cover_size\":" + std::to_string(stats.minimum_cover_size);
  s += ",\"minimize_ms\":" + std::to_string(stats.minimize_ms);
  s += ",\"view_tuple_ms\":" + std::to_string(stats.view_tuple_ms);
  s += ",\"tuple_core_ms\":" + std::to_string(stats.tuple_core_ms);
  s += ",\"cover_ms\":" + std::to_string(stats.cover_ms);
  s += ",\"total_ms\":" + std::to_string(stats.total_ms);
  s += ",\"work_used\":" + std::to_string(stats.work_used);
  s += ",\"hit_rewriting_cap\":" +
       std::string(stats.hit_rewriting_cap ? "true" : "false");
  s += "}";
  return s;
}

}  // namespace

std::string ViewPlanner::PlanExplanation::ToText() const {
  std::string s;
  s += "query    : " + query.ToString() + "\n";
  s += "status   : " + std::string(PlanStatusName(status)) + "\n";
  if (!error.empty()) s += "error    : " + error + "\n";
  s += "model    : " + std::string(ModelName(model)) + "\n";
  s += "cache    : " + cache_disposition +
       (cache_hit ? " (served from cache)" : "") + "\n";
  if (exhaustion.kind != BudgetKind::kNone) {
    s += "budget   : " + std::string(BudgetKindName(exhaustion.kind)) +
         " budget exhausted at " + exhaustion.site +
         (degraded ? " (degraded plan)" : "") + "\n";
  }
  if (stats.hit_rewriting_cap) {
    s += "truncated: candidate enumeration hit max_rewritings; the plan was "
         "chosen from an incomplete set\n";
  }
  if (!ok()) return s;
  s += "minimized: " + minimized.ToString() + "\n";
  s += "candidates (" + std::to_string(candidates.size()) + "):\n";
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& c = candidates[i];
    s += "  [" + std::to_string(i) + "]" + (c.chosen ? " *" : "  ");
    s += " cost " + std::to_string(c.cost);
    if (c.filtered) s += " (filtered)";
    s += " : " + c.logical.ToString() + "  -- " + c.reason + "\n";
  }
  if (choice.has_value()) {
    s += "plan:\n";
    s += "  logical : " + choice->logical.ToString() + "\n";
    s += "  physical: " + choice->physical.ToString() + "\n";
    s += "  cost    : " + std::to_string(choice->cost) + " (" +
         ModelName(choice->model) + ")\n";
  }
  if (!breakdown.empty()) {
    s += "breakdown:\n";
    for (const ModelBreakdown& b : breakdown) {
      s += "  " + std::string(ModelName(b.model)) + ": cost " +
           std::to_string(b.cost) + ", order " + SizesToString(b.order);
      if (!b.relation_sizes.empty()) {
        s += ", relation sizes " + SizesToString(b.relation_sizes);
      }
      if (!b.state_sizes.empty()) {
        s += ", intermediate sizes " + SizesToString(b.state_sizes);
      }
      s += "\n";
    }
  }
  return s;
}

std::string ViewPlanner::PlanExplanation::ToJson() const {
  std::string s = "{";
  s += "\"status\":" + Quoted(PlanStatusName(status));
  s += ",\"error\":" + Quoted(error);
  s += ",\"model\":" + Quoted(ModelName(model));
  s += ",\"cache\":" + Quoted(cache_disposition);
  s += ",\"cache_hit\":" + std::string(cache_hit ? "true" : "false");
  s += ",\"budget\":{\"exhausted\":" +
       std::string(exhaustion.kind != BudgetKind::kNone ? "true" : "false");
  s += ",\"kind\":" + Quoted(BudgetKindName(exhaustion.kind));
  s += ",\"site\":" + Quoted(exhaustion.site);
  s += ",\"degraded\":" + std::string(degraded ? "true" : "false") + "}";
  s += ",\"query\":" + Quoted(query.ToString());
  s += ",\"minimized\":" + Quoted(minimized.ToString());
  s += ",\"candidates\":[";
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& c = candidates[i];
    if (i > 0) s += ",";
    s += "{\"logical\":" + Quoted(c.logical.ToString());
    s += ",\"cost\":" + std::to_string(c.cost);
    s += ",\"filtered\":" + std::string(c.filtered ? "true" : "false");
    s += ",\"chosen\":" + std::string(c.chosen ? "true" : "false");
    s += ",\"reason\":" + Quoted(c.reason) + "}";
  }
  s += "]";
  if (choice.has_value()) {
    s += ",\"plan\":{";
    s += "\"logical\":" + Quoted(choice->logical.ToString());
    s += ",\"physical\":" + Quoted(choice->physical.ToString());
    s += ",\"cost\":" + std::to_string(choice->cost);
    s += ",\"model\":" + Quoted(ModelName(choice->model));
    s += "}";
  } else {
    s += ",\"plan\":null";
  }
  s += ",\"breakdown\":[";
  for (size_t i = 0; i < breakdown.size(); ++i) {
    const ModelBreakdown& b = breakdown[i];
    if (i > 0) s += ",";
    s += "{\"model\":" + Quoted(ModelName(b.model));
    s += ",\"cost\":" + std::to_string(b.cost);
    s += ",\"order\":" + SizesToJson(b.order);
    s += ",\"relation_sizes\":" + SizesToJson(b.relation_sizes);
    s += ",\"state_sizes\":" + SizesToJson(b.state_sizes) + "}";
  }
  s += "]";
  s += ",\"stats\":" + StatsToJson(stats);
  s += "}";
  return s;
}

std::string ViewPlanner::PlanResult::ToJson() const {
  // Same dialect as PlanExplanation::ToJson: identical keys and value
  // shapes for the members both carry, so one reader handles both.
  std::string s = "{";
  s += "\"status\":" + Quoted(PlanStatusName(status));
  s += ",\"error\":" + Quoted(error);
  s += ",\"cache_hit\":" + std::string(cache_hit ? "true" : "false");
  s += ",\"budget\":{\"exhausted\":" +
       std::string(exhaustion.kind != BudgetKind::kNone ? "true" : "false");
  s += ",\"kind\":" + Quoted(BudgetKindName(exhaustion.kind));
  s += ",\"site\":" + Quoted(exhaustion.site);
  s += ",\"degraded\":" + std::string(degraded ? "true" : "false") + "}";
  if (choice.has_value()) {
    s += ",\"plan\":{";
    s += "\"logical\":" + Quoted(choice->logical.ToString());
    s += ",\"physical\":" + Quoted(choice->physical.ToString());
    s += ",\"cost\":" + std::to_string(choice->cost);
    s += ",\"model\":" + Quoted(ModelName(choice->model));
    s += "}";
  } else {
    s += ",\"plan\":null";
  }
  s += ",\"stats\":" + StatsToJson(stats);
  s += "}";
  return s;
}

ViewPlanner::ViewPlanner(ViewSet views, Database view_instances)
    : ViewPlanner(std::move(views), std::move(view_instances), Options()) {}

ViewPlanner::ViewPlanner(ViewSet views, Database view_instances,
                         Options options)
    : options_(options),
      cache_(std::make_unique<PlanCache>(options.cache_capacity)) {
  for (const View& v : views) {
    VBR_CHECK_MSG(v.IsSafe(), "unsafe view definition");
  }
  auto snapshot = std::make_shared<ViewSnapshot>();
  snapshot->views = std::move(views);
  snapshot->instances = std::move(view_instances);
  snapshot->epoch = cache_->epoch();
  snapshot->delta_epoch = cache_->delta_epoch();
  if (options_.core_cover.use_view_index) {
    snapshot->index = std::make_shared<ViewIndex>(snapshot->views);
  }
  snapshot_ = std::move(snapshot);
}

ViewPlanner::~ViewPlanner() = default;

std::shared_ptr<const ViewPlanner::ViewSnapshot> ViewPlanner::CurrentSnapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

std::shared_ptr<const ViewPlanner::ViewSnapshot> ViewPlanner::snapshot()
    const {
  return CurrentSnapshot();
}

ViewPlanner::Pick ViewPlanner::CostAndPick(
    const Call& call, const std::vector<ConjunctiveQuery>& rewritings,
    const std::vector<Atom>& filter_atoms) const {
  const ViewSnapshot& vs = call.vs;
  const CostModel model = call.request.model;
  std::vector<PlanExplanation::Candidate>* const capture =
      call.explain != nullptr ? &call.explain->candidates : nullptr;
  VBR_CHECK_MSG(!rewritings.empty(), "nothing to cost");
  TraceSpan span(call.trace, "cost_and_pick");
  span.AddAttribute("candidates", static_cast<uint64_t>(rewritings.size()));
  const bool use_filters =
      options_.use_filters && model != CostModel::kM1 && !filter_atoms.empty();
  Pick best;
  best.choice.model = model;
  for (size_t r = 0; r < rewritings.size(); ++r) {
    ConjunctiveQuery logical = rewritings[r];
    PhysicalPlan physical;
    size_t cost = 0;
    bool filtered = false;
    bool greedy = false;
    if (use_filters) {
      auto advice = AdviseFilters(logical, filter_atoms, vs.instances);
      filtered = !advice.filters_added.empty();
      logical = std::move(advice.improved);
    }
    if (model == CostModel::kM1) {
      cost = CostM1(logical);
      physical.rewriting = logical;
      for (size_t i = 0; i < logical.num_subgoals(); ++i) {
        physical.order.push_back(i);
      }
    } else if (model == CostModel::kM3 &&
               logical.num_subgoals() <= options_.max_m3_subgoals) {
      const auto m3 = OptimizeM3(logical, call.query, vs.views, vs.instances,
                                 span.context());
      physical = m3.plan;
      cost = m3.cost;
    } else {
      const auto m2 = OptimizeOrderM2(logical, vs.instances, span.context());
      physical = m2.plan;
      cost = m2.cost;
      greedy = m2.greedy;
      if (model == CostModel::kM3) {
        // Too wide for the exhaustive M3 search: M2 order + SR drops.
        physical.drop_after = SupplementaryDrops(logical, physical.order);
        cost = ExecutePlan(physical, vs.instances).TotalCost();
      }
    }
    if (capture != nullptr) {
      PlanExplanation::Candidate candidate;
      candidate.logical = logical;
      candidate.cost = cost;
      candidate.filtered = filtered;
      capture->push_back(std::move(candidate));
    }
    if (r == 0 || cost < best.choice.cost) {
      best.choice.cost = cost;
      best.choice.logical = std::move(logical);
      best.choice.physical = std::move(physical);
      best.index = r;
      best.filtered = filtered;
      best.greedy = greedy;
    }
  }
  if (capture != nullptr) {
    for (size_t r = 0; r < capture->size(); ++r) {
      PlanExplanation::Candidate& candidate = (*capture)[r];
      if (r == best.index) {
        candidate.chosen = true;
        candidate.reason = "chosen";
      } else {
        candidate.reason = "cost " + std::to_string(candidate.cost) +
                           " >= winner " + std::to_string(best.choice.cost);
      }
    }
  }
  span.AddAttribute("winner", static_cast<uint64_t>(best.index));
  span.AddAttribute("winner_cost", static_cast<uint64_t>(best.choice.cost));
  return best;
}

ViewPlanner::PlanResult ViewPlanner::MiniConFallback(
    const Call& call, const CoreCoverResult& cc_result) const {
  PlanResult out;
  out.status = PlanStatus::kBudgetExhausted;
  out.exhaustion = cc_result.exhaustion;
  out.error = ExhaustionMessage(cc_result.exhaustion,
                                "before any rewriting was found");
  if (!options_.enable_minicon_fallback) return out;

  TraceSpan span(call.trace, "minicon_fallback");
  ResourceGovernor governor(
      GraceLimits(options_.fallback_work_budget, call.request));
  GovernorScope scope(&governor);
  // Same candidate discipline as the main pipeline, in MiniCon's
  // kAnyOverlap mode (snapshot index when available).
  CandidateFilterOptions filter;
  filter.enabled = options_.core_cover.use_view_index;
  filter.index = call.vs.index.get();
  const MiniConResult mc = MiniCon(call.query, call.vs.views,
                                   options_.core_cover.max_rewritings, filter);
  span.AddAttribute("equivalent_rewritings",
                    static_cast<uint64_t>(mc.equivalent_rewritings.size()));
  span.AddAttribute("aborted", mc.aborted);
  if (mc.equivalent_rewritings.empty()) return out;

  Call fallback = call;
  fallback.trace = span.context();
  Pick best = CostAndPick(fallback, mc.equivalent_rewritings, {});
  // MiniCon's equivalence filter already verified the winner, but PlanChoice
  // promises a transportable certificate; build one under the same grace
  // budget (if even that dies, report exhaustion rather than an
  // uncertified plan).
  auto certificate = CertifyEquivalentRewriting(
      best.choice.logical, mc.minimized_query, call.vs.views);
  if (!certificate.has_value()) return out;
  best.choice.certificate = std::move(*certificate);
  out.choice = std::move(best.choice);
  out.status = PlanStatus::kOk;
  out.degraded = true;
  out.error.clear();
  return out;
}

ViewPlanner::PlanResult ViewPlanner::CostCertify(
    const Call& call, const std::vector<ConjunctiveQuery>& rewritings,
    const std::vector<Atom>& filter_atoms, const ConjunctiveQuery& minimized,
    const CachedPlan* entry, const Substitution& transport) const {
  ResourceGovernor* const governor = ResourceGovernor::Current();
  // Under an exhausted budget the optimizers abort and report SIZE_MAX
  // costs, so the pick degrades toward emission order but stays total.
  Pick best = CostAndPick(call, rewritings, filter_atoms);

  // Certify the winner against the minimized core (the certificate covers
  // the logical plan; the M3 physical plan may execute a renamed variant,
  // proven answer-equal by the optimizer's renaming-safety test). A bare
  // cached rewriting reuses its stored certificate once transported and
  // re-verified (transport is a pure renaming, but the verifier is cheap
  // and search-free, so trust nothing); a filtered winner differs from
  // every cached rewriting and is certified afresh.
  TraceSpan span(call.trace, "certify");
  const bool cacheable = entry != nullptr && !best.filtered;
  std::optional<EquivalenceCertificate> certificate;
  if (cacheable) {
    if (auto cached = entry->certificate(best.index)) {
      EquivalenceCertificate cert = TransportCertificate(*cached, transport);
      if (VerifyCertificate(cert, call.vs.views)) certificate = std::move(cert);
    }
  }
  const bool reused = certificate.has_value();
  const auto exhausted = [governor] {
    return governor != nullptr && governor->exhausted();
  };
  if (!reused && !exhausted()) {
    certificate =
        CertifyEquivalentRewriting(best.choice.logical, minimized,
                                   call.vs.views);
  }
  if (!certificate.has_value() && exhausted()) {
    // Best-so-far grace certification: the rewriting is genuine (every
    // emitted cover is), only the certification search was starved. A
    // fresh governor shields it from the dead request budget, which would
    // otherwise starve its own recovery.
    ResourceGovernor grace(
        GraceLimits(options_.fallback_work_budget, call.request));
    GovernorScope grace_scope(&grace);
    certificate = CertifyEquivalentRewriting(best.choice.logical, minimized,
                                             call.vs.views);
    span.AddAttribute("grace", true);
  }
  span.AddAttribute("reused_cached", reused);
  PlanResult out;
  if (!certificate.has_value()) {
    // Only a starved certification search may fail here.
    VBR_CHECK_MSG(exhausted(), "planner produced an uncertifiable rewriting");
    out.status = PlanStatus::kBudgetExhausted;
    out.error = ExhaustionMessage(governor->exhaustion(),
                                  "before the chosen rewriting could be "
                                  "certified");
    return out;
  }
  if (cacheable && !reused) {
    entry->StoreCertificate(
        best.index,
        TransportCertificate(*certificate, InvertRenaming(transport)));
  }
  best.choice.certificate = std::move(*certificate);
  out.choice = std::move(best.choice);
  out.status = PlanStatus::kOk;
  out.degraded = best.greedy;
  return out;
}

ViewPlanner::PlanResult ViewPlanner::PlanViaCoreCover(
    const Call& call, const CanonicalQuery* canonical) const {
  // M1 needs only the GMRs; M2/M3 search all minimal rewritings. The
  // snapshot's candidate index rides along (same catalog by construction).
  CoreCoverOptions cc = options_.core_cover;
  cc.trace = call.trace;
  if (cc.use_view_index && call.vs.index != nullptr) {
    cc.view_index = call.vs.index.get();
  }
  const CoreCoverResult result =
      call.request.model == CostModel::kM1
          ? CoreCover(call.query, call.vs.views, cc)
          : CoreCoverStar(call.query, call.vs.views, cc);
  const bool exhausted_run =
      result.status == CoreCoverStatus::kBudgetExhausted;

  std::vector<Atom> filter_atoms;
  filter_atoms.reserve(result.filter_candidates.size());
  for (size_t i : result.filter_candidates) {
    filter_atoms.push_back(result.view_tuples[i].tuple.atom);
  }

  // Build the cache entry (canonical variable space) before costing;
  // negative outcomes are cached too — but NEVER a budget-exhausted run:
  // its rewriting list is incomplete, and serving it to later (possibly
  // generously budgeted) requests would poison them. Likewise a
  // canonicalization whose minimization was cut short: its "canonical" form
  // may not be the core's, so the entry would be filed under a label other
  // queries of the same equivalence class never produce — and its contents
  // were computed from a non-minimal body.
  std::shared_ptr<CachedPlan> entry;
  if (canonical != nullptr && canonical->minimize_complete && !exhausted_run) {
    entry = std::make_shared<CachedPlan>();
    entry->fingerprint = canonical->fingerprint;
    entry->status = result.status;
    entry->error = result.error;
    entry->has_rewriting = result.has_rewriting;
    entry->minimized = canonical->to_canonical.Apply(result.minimized_query);
    entry->rewritings.reserve(result.rewritings.size());
    for (const ConjunctiveQuery& r : result.rewritings) {
      entry->rewritings.push_back(canonical->to_canonical.Apply(r));
    }
    entry->filter_atoms.reserve(filter_atoms.size());
    for (const Atom& a : filter_atoms) {
      entry->filter_atoms.push_back(canonical->to_canonical.Apply(a));
    }
    entry->stats = result.stats;
  }

  if (call.explain != nullptr) call.explain->minimized = result.minimized_query;
  PlanResult out;
  if (result.status == CoreCoverStatus::kUnsupportedQueryTooLarge) {
    out.status = PlanStatus::kUnsupportedQueryTooLarge;
    out.error = result.error;
  } else if (!result.has_rewriting && exhausted_run) {
    // Nothing survived before the budget died; last rung of the ladder.
    out = MiniConFallback(call, result);
  } else if (!result.has_rewriting) {
    out.status = PlanStatus::kNoRewriting;
  } else {
    out = CostCertify(call, result.rewritings, filter_atoms,
                      result.minimized_query, entry.get(),
                      canonical != nullptr ? canonical->from_canonical
                                           : Substitution());
  }
  out.stats = result.stats;

  if (entry != nullptr) {
    // Keyed to the snapshot's epoch: if a ReplaceViews landed while this
    // request planned, the insert is a silent no-op (the outcome describes
    // the retired view set). The snapshot's delta epoch rides along so an
    // AddViews/RemoveViews that landed mid-plan is reconciled per-query at
    // lookup time instead of silently serving a pre-delta plan.
    cache_->Insert(call.request.model, entry, call.vs.epoch,
                   call.vs.delta_epoch);
  }
  return out;
}

ViewPlanner::PlanResult ViewPlanner::PlanFromEntry(
    const Call& call, const CachedPlan& entry,
    const Substitution& transport) const {
  const ConjunctiveQuery minimized = transport.Apply(entry.minimized);
  if (call.explain != nullptr) call.explain->minimized = minimized;
  PlanResult out;
  if (entry.status != CoreCoverStatus::kOk) {
    out.status = PlanStatus::kUnsupportedQueryTooLarge;
    out.error = entry.error;
  } else if (!entry.has_rewriting) {
    out.status = PlanStatus::kNoRewriting;
  } else {
    // Transport the cached logical rewritings into this query's variables
    // and re-cost them against the CURRENT view instances.
    std::vector<ConjunctiveQuery> rewritings;
    rewritings.reserve(entry.rewritings.size());
    for (const ConjunctiveQuery& r : entry.rewritings) {
      rewritings.push_back(transport.Apply(r));
    }
    std::vector<Atom> filter_atoms;
    filter_atoms.reserve(entry.filter_atoms.size());
    for (const Atom& a : entry.filter_atoms) {
      filter_atoms.push_back(transport.Apply(a));
    }
    out = CostCertify(call, rewritings, filter_atoms, minimized, &entry,
                      transport);
  }
  out.cache_hit = true;
  out.stats = entry.stats;
  return out;
}

std::optional<ViewPlanner::PlanResult> ViewPlanner::Run(Call call) const {
  static Counter* const plan_calls =
      MetricsRegistry::Global().GetCounter("planner.plans");
  static Histogram* const plan_us =
      MetricsRegistry::Global().GetHistogram("planner.plan_us");
  // The request's governor (deadline measured from here) covers the whole
  // call; without limits, whatever governor the caller installed applies.
  const ResourceLimits limits = call.request.limits();
  std::optional<ResourceGovernor> request_governor;
  if (!limits.unlimited()) request_governor.emplace(limits);
  GovernorScope scope(request_governor ? &*request_governor
                                       : ResourceGovernor::Current());
  ResourceGovernor* const governor = ResourceGovernor::Current();

  const Timer timer;
  const CostModel model = call.request.model;
  TraceSpan span(call.trace, "plan");
  span.AddAttribute("model", ModelName(model));
  call.trace = span.context();

  std::optional<PlanResult> result;
  std::string_view disposition;
  // Builtin comparison subgoals are outside the fingerprint/minimization
  // machinery; such queries bypass the cache (and fail later checks exactly
  // as they always did).
  if (!options_.enable_cache || call.query.HasBuiltins()) {
    disposition = options_.enable_cache ? "bypass" : "disabled";
    if (!call.cache_only) result = PlanViaCoreCover(call, nullptr);
  } else {
    std::optional<CanonicalQuery> canonicalized;
    const CanonicalQuery* canonical = call.canonical;
    if (canonical == nullptr) {
      TraceSpan canon_span(call.trace, "canonicalize");
      canonicalized = CanonicalizeQuery(call.query);
      canon_span.AddAttribute("exact", canonicalized->fingerprint.exact);
      canonical = &*canonicalized;
    }
    std::optional<Substitution> fallback;
    PlanCache::EntryPtr entry;
    {
      TraceSpan lookup_span(call.trace, "cache_lookup");
      entry = cache_->Lookup(canonical->fingerprint, model,
                             canonical->minimized, &fallback, call.vs.epoch,
                             call.vs.delta_epoch);
      disposition = entry != nullptr ? "hit" : "miss";
      lookup_span.AddAttribute("outcome", disposition);
    }
    if (entry != nullptr) {
      result = PlanFromEntry(call, *entry,
                             fallback ? *fallback : canonical->from_canonical);
    } else if (!call.cache_only) {
      result = PlanViaCoreCover(call, canonical);
    }
  }
  span.AddAttribute("cache", disposition);
  if (!result.has_value()) return std::nullopt;  // a cache-only miss

  if (governor != nullptr && governor->exhausted()) {
    // Whatever the path, a plan from a starved call is certified-correct
    // but may not be the cheapest.
    result->exhaustion = governor->exhaustion();
    result->degraded = result->ok();
  }
  RecordBudgetMetrics(result->exhaustion);
  span.AddAttribute("status", PlanStatusName(result->status));
  if (result->exhaustion.kind != BudgetKind::kNone) {
    span.AddAttribute("budget_kind", BudgetKindName(result->exhaustion.kind));
    span.AddAttribute("budget_site", result->exhaustion.site);
    span.AddAttribute("degraded", result->degraded);
  }
  plan_calls->Increment();
  plan_us->Record(static_cast<uint64_t>(timer.ElapsedMillis() * 1000.0));
  if (call.explain != nullptr) {
    PlanExplanation& explain = *call.explain;
    explain.status = result->status;
    explain.error = result->error;
    explain.model = model;
    explain.cache_disposition = std::string(disposition);
    explain.query = call.query;
    explain.choice = result->choice;
    explain.stats = result->stats;
    explain.cache_hit = result->cache_hit;
    explain.exhaustion = result->exhaustion;
    explain.degraded = result->degraded;
  }
  return result;
}

ViewPlanner::PlanResult ViewPlanner::Plan(const ConjunctiveQuery& query,
                                          const PlanRequestOptions& request,
                                          const TraceContext& trace) const {
  const std::shared_ptr<const ViewSnapshot> snapshot = CurrentSnapshot();
  return *Run({.vs = *snapshot, .query = query, .request = request,
               .trace = trace});
}

ViewPlanner::PlanResult ViewPlanner::Plan(const ConjunctiveQuery& query,
                                          CostModel model) const {
  return Plan(query, PlanRequestOptions{.model = model});
}

std::optional<ViewPlanner::PlanResult> ViewPlanner::TryPlanFromCache(
    const ConjunctiveQuery& query, const PlanRequestOptions& request,
    const TraceContext& trace) const {
  const std::shared_ptr<const ViewSnapshot> snapshot = CurrentSnapshot();
  return Run({.vs = *snapshot, .query = query, .request = request,
              .trace = trace, .cache_only = true});
}

ViewPlanner::PlanExplanation ViewPlanner::Explain(
    const ConjunctiveQuery& query, const PlanRequestOptions& request,
    const TraceContext& trace) const {
  PlanExplanation explain;
  // One snapshot for the planning run AND the re-measurement below, so the
  // breakdown describes the same view generation the plan was chosen on.
  const std::shared_ptr<const ViewSnapshot> snapshot = CurrentSnapshot();
  const ViewSnapshot& vs = *snapshot;
  const PlanResult result = *Run({.vs = vs, .query = query, .request = request,
                                  .trace = trace, .explain = &explain});
  if (!result.ok()) return explain;

  // Re-measure the chosen logical plan under all three cost models so the
  // explanation can contrast them (the planning decision above used only
  // the requested model).
  const ConjunctiveQuery& logical = result.choice->logical;
  {
    PlanExplanation::ModelBreakdown b;
    b.model = CostModel::kM1;
    b.cost = CostM1(logical);
    PhysicalPlan plan;
    plan.rewriting = logical;
    for (size_t i = 0; i < logical.num_subgoals(); ++i) {
      plan.order.push_back(i);
    }
    b.order = plan.order;
    const PlanExecution exec = ExecutePlan(plan, vs.instances);
    b.relation_sizes = exec.relation_sizes;
    explain.breakdown.push_back(std::move(b));
  }
  {
    const auto m2 = OptimizeOrderM2(logical, vs.instances);
    PlanExplanation::ModelBreakdown b;
    b.model = CostModel::kM2;
    b.cost = m2.cost;
    b.order = m2.plan.order;
    const PlanExecution exec = ExecutePlan(m2.plan, vs.instances);
    b.relation_sizes = exec.relation_sizes;
    b.state_sizes = exec.state_sizes;
    explain.breakdown.push_back(std::move(b));
  }
  {
    PlanExplanation::ModelBreakdown b;
    b.model = CostModel::kM3;
    PhysicalPlan plan;
    if (logical.num_subgoals() <= options_.max_m3_subgoals) {
      const auto m3 =
          OptimizeM3(logical, explain.minimized, vs.views, vs.instances);
      b.cost = m3.cost;
      plan = m3.plan;
    } else {
      const auto m2 = OptimizeOrderM2(logical, vs.instances);
      plan = m2.plan;
      plan.drop_after = SupplementaryDrops(logical, plan.order);
      b.cost = ExecutePlan(plan, vs.instances).TotalCost();
    }
    b.order = plan.order;
    const PlanExecution exec = ExecutePlan(plan, vs.instances);
    b.relation_sizes = exec.relation_sizes;
    b.state_sizes = exec.state_sizes;
    explain.breakdown.push_back(std::move(b));
  }
  return explain;
}

std::vector<ViewPlanner::PlanResult> ViewPlanner::PlanMany(
    const std::vector<ConjunctiveQuery>& queries,
    const PlanRequestOptions& request) const {
  std::vector<PlanResult> results(queries.size());
  if (queries.empty()) return results;

  // One snapshot for the whole batch: every member plans against the same
  // view generation even when ReplaceViews lands mid-batch.
  const std::shared_ptr<const ViewSnapshot> snapshot = CurrentSnapshot();
  const ViewSnapshot& vs = *snapshot;

  // The batch is the unit of parallelism: the pool fans out across
  // fingerprint groups, and each member plans on one thread.
  ThreadPool pool(ThreadPool::DefaultThreadCount());

  std::vector<std::unique_ptr<CanonicalQuery>> canon(queries.size());
  if (options_.enable_cache) {
    pool.ParallelFor(queries.size(), [&](size_t i) {
      if (!queries[i].HasBuiltins()) {
        canon[i] = std::make_unique<CanonicalQuery>(
            CanonicalizeQuery(queries[i]));
      }
    });
  }

  // Group queries by canonical form (the cache key), first occurrence
  // leading. Uncacheable queries form singleton groups.
  std::vector<std::vector<size_t>> groups;
  std::unordered_map<std::string_view, size_t> by_canonical;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (canon[i] == nullptr) {
      groups.push_back({i});
      continue;
    }
    const auto [it, fresh] =
        by_canonical.emplace(canon[i]->fingerprint.canonical, groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(i);
  }

  // Each group plans in order on one worker: the leader's CoreCover run
  // fills the cache and its duplicates are served that entry as hits —
  // unless the leader's budget died, in which case nothing was cached (a
  // partial enumeration must not poison its duplicates) and each duplicate
  // plans on its own budget.
  pool.ParallelFor(groups.size(), [&](size_t g) {
    for (size_t i : groups[g]) {
      results[i] = *Run({.vs = vs, .query = queries[i], .request = request,
                         .canonical = canon[i].get()});
    }
  });
  return results;
}

void ViewPlanner::ReplaceViews(ViewSet views, Database view_instances) {
  for (const View& v : views) {
    VBR_CHECK_MSG(v.IsSafe(), "unsafe view definition");
  }
  // Serialize swaps so the (epoch bump, snapshot publish) pairs of two
  // concurrent calls cannot interleave: the published snapshot always
  // carries the cache's current epoch.
  std::lock_guard<std::mutex> replace_lock(replace_mu_);
  // Bump FIRST: from this instant, in-flight requests pinned to the old
  // snapshot can no longer insert (their epoch is stale), and any entry
  // they race in around the bump is dropped by Lookup.
  const uint64_t epoch = cache_->BumpEpoch();
  // Containment verdicts never go stale (they depend only on the two
  // queries), but the old view bodies stop recurring once the set is
  // swapped, so drop the memo rather than letting dead pairs occupy it.
  ContainmentMemo::Global().Clear();
  auto snapshot = std::make_shared<ViewSnapshot>();
  snapshot->views = std::move(views);
  snapshot->instances = std::move(view_instances);
  snapshot->epoch = epoch;
  snapshot->delta_epoch = cache_->delta_epoch();
  if (options_.core_cover.use_view_index) {
    snapshot->index = std::make_shared<ViewIndex>(snapshot->views);
  }
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snapshot);
}

void ViewPlanner::AddViews(ViewSet added, Database added_instances) {
  std::unordered_set<Symbol> added_heads;
  for (const View& v : added) {
    VBR_CHECK_MSG(v.IsSafe(), "unsafe view definition");
    VBR_CHECK_MSG(added_heads.insert(v.head().predicate()).second,
                  "AddViews: head predicate repeated within the added views");
  }
  if (added.empty()) return;
  // Serialized with ReplaceViews and other deltas: (fence, publish) pairs
  // must not interleave.
  std::lock_guard<std::mutex> replace_lock(replace_mu_);
  const std::shared_ptr<const ViewSnapshot> cur = CurrentSnapshot();
  // Expansion resolves a head name to its first definition while
  // Database::MergeFrom would replace the instance, so a reused name would
  // serve plans over the wrong relation.
  for (const View& v : cur->views) {
    VBR_CHECK_MSG(added_heads.count(v.head().predicate()) == 0,
                  "AddViews: head predicate already in the catalog");
  }
  std::vector<ViewSummary> changed;
  changed.reserve(added.size());
  for (const View& v : added) changed.push_back(SummarizeView(v));
  // Fence BEFORE publish: once a request can pin the new catalog, any
  // lookup it issues already sees the fence, so a pre-delta entry for a
  // query the added views could serve is never returned to it.
  const uint64_t delta_epoch = cache_->RecordDelta(std::move(changed));
  auto snapshot = std::make_shared<ViewSnapshot>();
  snapshot->views = cur->views;
  snapshot->views.insert(snapshot->views.end(), added.begin(), added.end());
  snapshot->instances = cur->instances;
  snapshot->instances.MergeFrom(added_instances);
  snapshot->epoch = cur->epoch;
  snapshot->delta_epoch = delta_epoch;
  if (options_.core_cover.use_view_index) {
    // Incremental: existing views keep their summaries and postings; the
    // added views append (their ids continue the catalog numbering).
    snapshot->index = cur->index != nullptr
                          ? cur->index->WithAdded(added)
                          : std::make_shared<ViewIndex>(snapshot->views);
  }
  // The ContainmentMemo stays: its verdicts depend only on the two queries
  // compared, and the surviving views keep recurring.
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snapshot);
}

size_t ViewPlanner::RemoveViews(const std::vector<std::string>& names) {
  if (names.empty()) return 0;
  std::unordered_set<Symbol> doomed;
  for (const std::string& name : names) {
    doomed.insert(SymbolTable::Global().Intern(name));
  }
  std::lock_guard<std::mutex> replace_lock(replace_mu_);
  const std::shared_ptr<const ViewSnapshot> cur = CurrentSnapshot();
  std::vector<size_t> keep;
  std::vector<ViewSummary> changed;
  std::vector<Symbol> removed_predicates;
  keep.reserve(cur->views.size());
  for (size_t i = 0; i < cur->views.size(); ++i) {
    const Symbol head = cur->views[i].head().predicate();
    if (doomed.count(head) > 0) {
      changed.push_back(SummarizeView(cur->views[i]));
      removed_predicates.push_back(head);
    } else {
      keep.push_back(i);
    }
  }
  const size_t removed = cur->views.size() - keep.size();
  if (removed == 0) return 0;  // nothing matched: no fence, no new snapshot
  const uint64_t delta_epoch = cache_->RecordDelta(std::move(changed));
  auto snapshot = std::make_shared<ViewSnapshot>();
  snapshot->views.reserve(keep.size());
  for (size_t i : keep) snapshot->views.push_back(cur->views[i]);
  snapshot->instances = cur->instances;
  for (Symbol predicate : removed_predicates) {
    snapshot->instances.Remove(predicate);
  }
  snapshot->epoch = cur->epoch;
  snapshot->delta_epoch = delta_epoch;
  if (options_.core_cover.use_view_index) {
    snapshot->index = cur->index != nullptr
                          ? cur->index->WithRemoved(keep)
                          : std::make_shared<ViewIndex>(snapshot->views);
  }
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snapshot);
  return removed;
}

Relation ViewPlanner::Execute(const PlanChoice& choice) const {
  return ExecutePlan(choice.physical, CurrentSnapshot()->instances).answer;
}

std::optional<Relation> ViewPlanner::Answer(
    const ConjunctiveQuery& query) const {
  // Plan and execute against ONE pinned snapshot so the answer is computed
  // over the same instances the plan was costed on.
  const std::shared_ptr<const ViewSnapshot> snapshot = CurrentSnapshot();
  const PlanRequestOptions request{.model = CostModel::kM2};
  const PlanResult result =
      *Run({.vs = *snapshot, .query = query, .request = request});
  if (!result.ok()) return std::nullopt;
  return ExecutePlan(result.choice->physical, snapshot->instances).answer;
}

PlanCacheCounters ViewPlanner::cache_counters() const {
  return cache_->counters();
}

size_t ViewPlanner::cache_size() const { return cache_->size(); }

uint64_t ViewPlanner::cache_epoch() const { return cache_->epoch(); }

uint64_t ViewPlanner::delta_epoch() const { return cache_->delta_epoch(); }

}  // namespace vbr
