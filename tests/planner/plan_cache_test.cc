#include "planner/plan_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/trace.h"
#include "cq/parser.h"
#include "cq/rename.h"
#include "engine/evaluator.h"
#include "engine/materialize.h"
#include "planner/planner.h"
#include "tests/rewrite/fixtures.h"

namespace vbr {
namespace {

using testing_fixtures::CarLocPartQuery;
using testing_fixtures::CarLocPartViews;

PlanCache::EntryPtr MakeEntry(const std::string& text) {
  auto entry = std::make_shared<CachedPlan>();
  const CanonicalQuery cq = CanonicalizeQuery(MustParseQuery(text));
  entry->fingerprint = cq.fingerprint;
  entry->minimized = cq.to_canonical.Apply(cq.minimized);
  entry->has_rewriting = false;
  return entry;
}

PlanCache::EntryPtr LookupByText(PlanCache& cache, const std::string& text,
                                 CostModel model = CostModel::kM2) {
  const CanonicalQuery cq = CanonicalizeQuery(MustParseQuery(text));
  std::optional<Substitution> fallback;
  return cache.Lookup(cq.fingerprint, model, cq.minimized, &fallback);
}

TEST(PlanCacheTest, InsertLookupRoundTrip) {
  PlanCache cache(/*capacity=*/8, /*num_shards=*/2);
  cache.Insert(CostModel::kM2, MakeEntry("q(X) :- r(X,Y)"));
  EXPECT_EQ(cache.size(), 1u);
  // Same query modulo renaming/reordering hits; a different query misses.
  EXPECT_NE(LookupByText(cache, "q(A) :- r(A,B)"), nullptr);
  EXPECT_EQ(LookupByText(cache, "q(A) :- s(A,B)"), nullptr);
  // Same fingerprint under a different cost model misses.
  EXPECT_EQ(LookupByText(cache, "q(A) :- r(A,B)", CostModel::kM3), nullptr);
  const PlanCacheCounters c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.insertions, 1u);
}

TEST(PlanCacheTest, LruEvictsTheColdestEntry) {
  PlanCache cache(/*capacity=*/2, /*num_shards=*/1);
  cache.Insert(CostModel::kM2, MakeEntry("q(X) :- p1(X)"));
  cache.Insert(CostModel::kM2, MakeEntry("q(X) :- p2(X)"));
  // Touch p1 so p2 becomes the LRU victim.
  EXPECT_NE(LookupByText(cache, "q(X) :- p1(X)"), nullptr);
  cache.Insert(CostModel::kM2, MakeEntry("q(X) :- p3(X)"));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.counters().evictions, 1u);
  EXPECT_EQ(LookupByText(cache, "q(X) :- p2(X)"), nullptr);
  EXPECT_NE(LookupByText(cache, "q(X) :- p1(X)"), nullptr);
  EXPECT_NE(LookupByText(cache, "q(X) :- p3(X)"), nullptr);
}

TEST(PlanCacheTest, ReinsertRefreshesInsteadOfDuplicating) {
  PlanCache cache(/*capacity=*/4, /*num_shards=*/1);
  cache.Insert(CostModel::kM2, MakeEntry("q(X) :- r(X)"));
  cache.Insert(CostModel::kM2, MakeEntry("q(Y) :- r(Y)"));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, EpochBumpInvalidatesEverything) {
  PlanCache cache(/*capacity=*/8, /*num_shards=*/2);
  cache.Insert(CostModel::kM2, MakeEntry("q(X) :- p1(X)"));
  cache.Insert(CostModel::kM2, MakeEntry("q(X) :- p2(X)"));
  EXPECT_EQ(cache.epoch(), 0u);
  cache.BumpEpoch();
  EXPECT_EQ(cache.epoch(), 1u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.counters().evictions, 2u);
  EXPECT_EQ(LookupByText(cache, "q(X) :- p1(X)"), nullptr);
  // Inserts under the new epoch are served again.
  cache.Insert(CostModel::kM2, MakeEntry("q(X) :- p1(X)"));
  EXPECT_NE(LookupByText(cache, "q(X) :- p1(X)"), nullptr);
}

TEST(PlanCacheTest, PlannerServesRenamedRepeatsFromCache) {
  const ViewSet views = CarLocPartViews();
  ViewPlanner planner(views, MaterializeViews(views, Database{}));
  const auto first = planner.Plan(CarLocPartQuery(), CostModel::kM1);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.cache_hit);
  // A renamed, reordered copy of the same query.
  const auto renamed =
      MustParseQuery("q1(T,D) :- part(T,N,D), loc(a,D), car(N,a)");
  const auto second = planner.Plan(renamed, CostModel::kM1);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cache_hit);
  // The cached rewriting is transported into the NEW query's variables.
  EXPECT_EQ(second.choice->logical.ToString(), "q1(T,D) :- v4(N,a,D,T)");
  EXPECT_EQ(first.choice->cost, second.choice->cost);
  EXPECT_EQ(planner.cache_counters().hits, 1u);
  EXPECT_EQ(planner.cache_counters().misses, 1u);
  EXPECT_EQ(planner.cache_size(), 1u);
}

TEST(PlanCacheTest, NegativeOutcomesAreCachedToo) {
  const ViewSet views = MustParseProgram("v(M,D) :- car(M,D)");
  ViewPlanner planner(views, Database{});
  EXPECT_EQ(planner.Plan(CarLocPartQuery(), CostModel::kM2).status,
            PlanStatus::kNoRewriting);
  const auto again = planner.Plan(CarLocPartQuery(), CostModel::kM2);
  EXPECT_EQ(again.status, PlanStatus::kNoRewriting);
  EXPECT_TRUE(again.cache_hit);
}

TEST(PlanCacheTest, DisabledCacheNeverHits) {
  const ViewSet views = CarLocPartViews();
  ViewPlanner::Options options;
  options.enable_cache = false;
  ViewPlanner planner(views, MaterializeViews(views, Database{}), options);
  EXPECT_TRUE(planner.Plan(CarLocPartQuery(), CostModel::kM1).ok());
  const auto second = planner.Plan(CarLocPartQuery(), CostModel::kM1);
  EXPECT_TRUE(second.ok());
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(planner.cache_counters().hits, 0u);
  EXPECT_EQ(planner.cache_size(), 0u);
}

// Base data for the car/loc/part views: v3 (the paper's selective filter)
// stays small while v1 and v2 do not.
Database CarLocPartBase() {
  Database db;
  const Value a = EncodeConstant(Const("a"));
  for (Value m = 0; m < 10; ++m) db.AddRow("car", {m, a});
  for (Value c = 0; c < 5; ++c) db.AddRow("loc", {a, 100 + c});
  for (Value i = 0; i < 60; ++i) {
    db.AddRow("part", {1000 + i, i % 25, 100 + (i % 10)});
  }
  return db;
}

ViewSet CarLocPartViewsNamed(const std::set<std::string>& names) {
  ViewSet out;
  for (const View& v : CarLocPartViews()) {
    if (names.count(SymbolTable::Global().NameOf(v.head().predicate())) > 0) {
      out.push_back(v);
    }
  }
  return out;
}

std::multiset<std::string> SpanNames(const MemoryTraceSink& sink) {
  std::multiset<std::string> names;
  for (const TraceEvent& e : sink.spans()) names.insert(e.name);
  return names;
}

// The plan a cache-disabled planner over the same catalog computes.
ViewPlanner::PlanResult FreshPlan(const ViewSet& views,
                                  const Database& instances,
                                  const ConjunctiveQuery& query,
                                  CostModel model) {
  ViewPlanner::Options options;
  options.enable_cache = false;
  const ViewPlanner fresh(views, instances, options);
  return fresh.Plan(query, model);
}

void ExpectSamePlan(const ViewPlanner::PlanResult& a,
                    const ViewPlanner::PlanResult& b) {
  ASSERT_EQ(a.status, b.status);
  EXPECT_EQ(a.degraded, b.degraded);
  if (!a.ok()) return;
  EXPECT_EQ(a.choice->cost, b.choice->cost);
  EXPECT_EQ(a.choice->logical.ToString(), b.choice->logical.ToString());
  EXPECT_EQ(a.choice->physical.ToString(), b.choice->physical.ToString());
}

class StoredChoiceTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

// A hit on an entry with a stored choice costs nothing; Explain still costs
// every candidate, and its winner is the stored one.
TEST_F(StoredChoiceTest, HitServesTheStoredChoiceAndExplainAgrees) {
  const ViewSet views = CarLocPartViews();
  const Database instances = MaterializeViews(views, CarLocPartBase());
  ViewPlanner planner(views, instances);
  const auto miss = planner.Plan(CarLocPartQuery(), CostModel::kM2);
  ASSERT_TRUE(miss.ok());

  MemoryTraceSink sink;
  const auto hit =
      planner.Plan(CarLocPartQuery(), {.model = CostModel::kM2}, {&sink});
  ASSERT_TRUE(hit.cache_hit);
  const auto names = SpanNames(sink);
  EXPECT_EQ(names.count("cost_and_pick"), 0u);
  EXPECT_EQ(names.count("optimize_m2"), 0u);
  ExpectSamePlan(hit, miss);

  const auto explanation =
      planner.Explain(CarLocPartQuery(), {.model = CostModel::kM2});
  ASSERT_TRUE(explanation.ok());
  EXPECT_TRUE(explanation.cache_hit);
  ASSERT_GT(explanation.candidates.size(), 1u);
  size_t chosen = 0;
  for (const auto& candidate : explanation.candidates) {
    if (!candidate.chosen) continue;
    ++chosen;
    EXPECT_EQ(candidate.logical.ToString(), hit.choice->logical.ToString());
    EXPECT_EQ(candidate.cost, hit.choice->cost);
  }
  EXPECT_EQ(chosen, 1u);
  EXPECT_EQ(explanation.choice->physical.ToString(),
            hit.choice->physical.ToString());
}

// A costing starved by its budget picks toward emission order; it must not
// be stored, or every later hit would serve that degraded pick.
TEST_F(StoredChoiceTest, StarvedCostingIsNeverStored) {
  const ViewSet views = CarLocPartViews();
  const Database instances = MaterializeViews(views, CarLocPartBase());
  ViewPlanner planner(views, instances);
  FaultRegistry::Global().Arm("cost.m2", FaultKind::kBudgetExhausted, 1);
  const auto starved = planner.Plan(
      CarLocPartQuery(),
      {.model = CostModel::kM2, .work_limit = uint64_t{1} << 40});
  FaultRegistry::Global().Reset();
  ASSERT_TRUE(starved.ok()) << starved.error;
  EXPECT_TRUE(starved.degraded);
  EXPECT_FALSE(starved.cache_hit);

  const ConjunctiveQuery variant = RenameVariablesApart(CarLocPartQuery(), "s");
  const auto hit = planner.Plan(variant, CostModel::kM2);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_FALSE(hit.degraded);
  ExpectSamePlan(hit, FreshPlan(views, instances, variant, CostModel::kM2));

  // That complete costing stored its pick: the next hit costs nothing.
  MemoryTraceSink sink;
  const auto again =
      planner.Plan(CarLocPartQuery(), {.model = CostModel::kM2}, {&sink});
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(SpanNames(sink).count("cost_and_pick"), 0u);
}

// A per-search node cap cuts the M3 renaming-safety test short without
// exhausting the governor, so every optional drop is turned down and the
// pick costs more. Such a costing must not be stored either, or every later
// (uncapped) hit would serve that costlier plan. Example 6.1's setup, whose
// cheapest M3 plan drops B early.
TEST_F(StoredChoiceTest, NodeCappedCostingIsNeverStored) {
  const ConjunctiveQuery query =
      MustParseQuery("q(A) :- r(A,A), t(A,B), s(B,B)");
  const ViewSet views = MustParseProgram(R"(
    v1(A,B) :- r(A,A), s(B,B)
    v2(A,B) :- t(A,B), s(B,B)
  )");
  Database base;
  base.AddRow("r", {1, 1});
  for (Value v : {2, 4, 6, 8}) base.AddRow("s", {v, v});
  for (Value v : {1, 3, 5, 7}) base.AddRow("t", {v, v + 1});
  const Database instances = MaterializeViews(views, base);
  ViewPlanner planner(views, instances);

  // A starved miss caches the rewritings but stores no costed choice.
  FaultRegistry::Global().Arm("cost.m3", FaultKind::kBudgetExhausted, 1);
  ASSERT_TRUE(planner
                  .Plan(query, {.model = CostModel::kM3,
                                .work_limit = uint64_t{1} << 40})
                  .degraded);
  FaultRegistry::Global().Reset();

  const auto capped =
      planner.Plan(query, {.model = CostModel::kM3, .search_node_cap = 1});
  ASSERT_TRUE(capped.ok()) << capped.error;
  EXPECT_TRUE(capped.cache_hit);
  const ConjunctiveQuery variant = RenameVariablesApart(query, "s");
  const auto fresh = FreshPlan(views, instances, variant, CostModel::kM3);
  ASSERT_TRUE(fresh.ok());
  ASSERT_GT(capped.choice->cost, fresh.choice->cost);

  const auto hit = planner.Plan(variant, CostModel::kM3);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_FALSE(hit.degraded);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit.choice->cost, fresh.choice->cost);
  EXPECT_EQ(hit.choice->logical.ToString(), fresh.choice->logical.ToString());
  EXPECT_EQ(hit.choice->physical.order, fresh.choice->physical.order);
  EXPECT_TRUE(planner.Execute(*hit.choice).EqualsAsSet(
      EvaluateQuery(variant, base)));
}

// v3(S) contributes only an empty-core view tuple to the car/loc/part
// query: a filter candidate, never a rewriting subgoal on its own. Adding
// it must still fence the cached M2 entry, whose stored choice was costed
// without that filter.
TEST_F(StoredChoiceTest, FencesCoverFilterCandidates) {
  const Database base = CarLocPartBase();
  const ViewSet before_views = CarLocPartViewsNamed({"v1", "v2"});
  ViewPlanner planner(before_views, MaterializeViews(before_views, base));
  ASSERT_TRUE(planner.Plan(CarLocPartQuery(), CostModel::kM2).ok());
  ASSERT_TRUE(planner.Plan(CarLocPartQuery(), CostModel::kM2).cache_hit);

  const ViewSet added = CarLocPartViewsNamed({"v3"});
  planner.AddViews(added, MaterializeViews(added, base));
  const auto after = planner.Plan(CarLocPartQuery(), CostModel::kM2);
  EXPECT_FALSE(after.cache_hit);

  ViewSet after_views = before_views;
  after_views.push_back(added[0]);
  ExpectSamePlan(after, FreshPlan(after_views,
                                  MaterializeViews(after_views, base),
                                  CarLocPartQuery(), CostModel::kM2));
}

// The slot is write-once: of N concurrent writers exactly one pick lands,
// and every reader sees that one.
TEST(PlanCacheTest, StoredChoiceIsWriteOnceUnderConcurrentWriters) {
  auto entry = std::make_shared<CachedPlan>();
  constexpr size_t kThreads = 8;
  std::atomic<bool> go{false};
  std::vector<size_t> seen(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      CostedChoice choice;
      choice.cost = t;
      entry->StoreCostedChoice(std::move(choice));
      seen[t] = entry->costed_choice()->cost;
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();
  const size_t winner = entry->costed_choice()->cost;
  for (size_t t = 0; t < kThreads; ++t) EXPECT_EQ(seen[t], winner);
}

// N threads hit one entry that holds no choice yet (its miss was starved),
// so they all cost it at once: every one gets the same plan, and afterwards
// a hit is served the stored choice without costing.
TEST(PlanCacheTest, ConcurrentFirstHitsAgreeAndStoreOneChoice) {
  const ViewSet views = CarLocPartViews();
  const Database instances = MaterializeViews(views, CarLocPartBase());
  ViewPlanner planner(views, instances);
  FaultRegistry::Global().Arm("cost.m2", FaultKind::kBudgetExhausted, 1);
  ASSERT_TRUE(planner
                  .Plan(CarLocPartQuery(), {.model = CostModel::kM2,
                                            .work_limit = uint64_t{1} << 40})
                  .degraded);
  FaultRegistry::Global().Reset();

  constexpr size_t kThreads = 8;
  std::atomic<bool> go{false};
  std::vector<ViewPlanner::PlanResult> results(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      results[t] = planner.Plan(CarLocPartQuery(), CostModel::kM2);
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();
  for (const auto& result : results) {
    EXPECT_TRUE(result.cache_hit);
    EXPECT_FALSE(result.degraded);
    ExpectSamePlan(result, results[0]);
  }
  ExpectSamePlan(results[0], FreshPlan(views, instances, CarLocPartQuery(),
                                       CostModel::kM2));
  MemoryTraceSink sink;
  const auto hit =
      planner.Plan(CarLocPartQuery(), {.model = CostModel::kM2}, {&sink});
  EXPECT_EQ(SpanNames(sink).count("cost_and_pick"), 0u);
  ExpectSamePlan(hit, results[0]);
}

}  // namespace
}  // namespace vbr
