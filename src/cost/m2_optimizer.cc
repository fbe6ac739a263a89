#include "cost/m2_optimizer.h"

#include <limits>
#include <numeric>
#include <unordered_map>

#include "common/budget.h"
#include "common/check.h"
#include "engine/evaluator.h"

namespace vbr {

namespace {

// Measures |IR(S)| for a subset mask of subgoals, caching results.
class IrSizeCache {
 public:
  IrSizeCache(const ConjunctiveQuery& rewriting, const Database& view_db)
      : rewriting_(rewriting), view_db_(view_db) {}

  size_t Get(uint64_t mask) {
    auto it = cache_.find(mask);
    if (it != cache_.end()) return it->second;
    std::vector<Atom> atoms;
    for (size_t i = 0; i < rewriting_.num_subgoals(); ++i) {
      if (mask & (uint64_t{1} << i)) atoms.push_back(rewriting_.subgoal(i));
    }
    const size_t size = JoinSize(atoms, view_db_);
    cache_.emplace(mask, size);
    return size;
  }

  size_t entries() const { return cache_.size(); }

 private:
  const ConjunctiveQuery& rewriting_;
  const Database& view_db_;
  std::unordered_map<uint64_t, size_t> cache_;
};

size_t RelationSize(const ConjunctiveQuery& rewriting, size_t subgoal,
                    const Database& view_db) {
  const Relation* rel =
      view_db.Find(rewriting.subgoal(subgoal).predicate());
  return rel == nullptr ? 0 : rel->size();
}

constexpr size_t kInf = std::numeric_limits<size_t>::max();

// One work unit per subset costed; the search runs serially on the caller
// thread, so the checkpoint latches a work budget deterministically.
bool Charge(ResourceGovernor* governor) {
  if (governor == nullptr) return true;
  governor->ChargeWork(1);
  return governor->CheckPoint("cost.m2");
}

// The exact order by dynamic programming over subsets: because IR_i keeps
// every attribute, its size depends only on the SET of the first i
// subgoals. Returns false when the governor stopped it.
bool ExactOrder(const ConjunctiveQuery& rewriting, const Database& view_db,
                M2OptimizationResult* result) {
  ResourceGovernor* const governor = ResourceGovernor::Current();
  const size_t n = rewriting.num_subgoals();
  IrSizeCache ir(rewriting, view_db);
  const uint32_t full = (uint32_t{1} << n) - 1;
  std::vector<size_t> best(full + 1, kInf);
  std::vector<int> last(full + 1, -1);
  best[0] = 0;
  bool finished = true;
  for (uint32_t mask = 1; mask <= full && finished; ++mask) {
    finished = Charge(governor);
    for (size_t g = 0; g < n && finished; ++g) {
      const uint32_t bit = uint32_t{1} << g;
      if (!(mask & bit)) continue;
      const size_t prev = best[mask ^ bit];
      if (prev == kInf) continue;
      const size_t step_cost =
          RelationSize(rewriting, g, view_db) + ir.Get(mask);
      const size_t total = prev + step_cost;
      if (total < best[mask]) {
        best[mask] = total;
        last[mask] = static_cast<int>(g);
      }
    }
  }
  result->subsets_costed = ir.entries();
  if (!finished) return false;
  result->cost = best[full];
  std::vector<size_t> reversed;
  for (uint32_t mask = full; mask != 0;) {
    const int g = last[mask];
    VBR_CHECK(g >= 0);
    reversed.push_back(static_cast<size_t>(g));
    mask ^= uint32_t{1} << g;
  }
  result->plan.order.assign(reversed.rbegin(), reversed.rend());
  return true;
}

// Greedy left-deep order for rewritings too wide for the subset DP. Every
// prefix it measures is new, so it needs no IR cache (nor subset masks).
// Returns false when the governor stopped it.
bool GreedyOrder(const ConjunctiveQuery& rewriting, const Database& view_db,
                 M2OptimizationResult* result) {
  ResourceGovernor* const governor = ResourceGovernor::Current();
  const size_t n = rewriting.num_subgoals();
  std::vector<bool> placed(n, false);
  std::vector<Atom> prefix;
  for (size_t step = 0; step < n; ++step) {
    size_t best_g = n;
    size_t best_cost = kInf;
    for (size_t g = 0; g < n; ++g) {
      if (placed[g]) continue;
      if (!Charge(governor)) return false;
      prefix.push_back(rewriting.subgoal(g));
      const size_t cost =
          RelationSize(rewriting, g, view_db) + JoinSize(prefix, view_db);
      prefix.pop_back();
      ++result->subsets_costed;
      if (best_g == n || cost < best_cost) {
        best_g = g;
        best_cost = cost;
      }
    }
    placed[best_g] = true;
    prefix.push_back(rewriting.subgoal(best_g));
    result->plan.order.push_back(best_g);
    result->cost += best_cost;
  }
  return true;
}

}  // namespace

M2OptimizationResult OptimizeOrderM2(const ConjunctiveQuery& rewriting,
                                     const Database& view_db,
                                     const TraceContext& trace) {
  TraceSpan span(trace, "optimize_m2");
  const size_t n = rewriting.num_subgoals();
  VBR_CHECK_MSG(n >= 1, "cannot optimize an empty rewriting");
  M2OptimizationResult result;
  result.plan.rewriting = rewriting;
  result.greedy = n > kMaxM2DpSubgoals;
  if (!(result.greedy ? GreedyOrder(rewriting, view_db, &result)
                      : ExactOrder(rewriting, view_db, &result))) {
    result.aborted = true;
    result.cost = kInf;
    result.plan.order.resize(n);
    std::iota(result.plan.order.begin(), result.plan.order.end(), 0);
    span.AddAttribute("aborted", true);
  }
  span.AddAttribute("subgoals", static_cast<uint64_t>(n));
  span.AddAttribute("cost", static_cast<uint64_t>(result.cost));
  span.AddAttribute("subsets_costed",
                    static_cast<uint64_t>(result.subsets_costed));
  return result;
}

size_t CostOfOrderM2(const ConjunctiveQuery& rewriting,
                     const std::vector<size_t>& order,
                     const Database& view_db) {
  VBR_CHECK(order.size() == rewriting.num_subgoals());
  VBR_CHECK_MSG(order.size() <= 64, "subset masks are limited to 64 subgoals");
  IrSizeCache ir(rewriting, view_db);
  size_t total = 0;
  uint64_t mask = 0;
  for (size_t g : order) {
    mask |= uint64_t{1} << g;
    total += RelationSize(rewriting, g, view_db) + ir.Get(mask);
  }
  return total;
}

}  // namespace vbr
