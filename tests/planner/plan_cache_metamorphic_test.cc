// Metamorphic plan-cache tests: a query and any variable-renamed,
// subgoal-reordered variant of it are the SAME query, so
//   1. the variants must hit the fingerprint cache,
//   2. a hit-path plan must compute exactly the answer the cold path
//      computes, evaluated over the query's canonical database (whose
//      frozen body makes the query's own answer non-empty, so the
//      comparison is never vacuous), and
//   3. a hit served from the entry's stored costed choice must be the plan
//      a cache-disabled planner computes for the variant.

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cq/rename.h"
#include "engine/materialize.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
#include "rewrite/canonical_db.h"
#include "workload/generator.h"

namespace vbr {
namespace {

constexpr int kVariantRounds = 4;

// Renamed + subgoal-shuffled copy of `q` — semantically the same query.
ConjunctiveQuery Variant(const ConjunctiveQuery& q, std::mt19937& rng,
                         int round) {
  ConjunctiveQuery fresh =
      RenameVariablesApart(q, "mv" + std::to_string(round));
  std::vector<Atom> body = fresh.body();
  std::shuffle(body.begin(), body.end(), rng);
  return ConjunctiveQuery(fresh.head(), std::move(body));
}

WorkloadConfig ConfigForSeed(uint64_t seed) {
  WorkloadConfig config;
  config.shape = (seed % 2 == 0) ? QueryShape::kStar : QueryShape::kChain;
  config.num_query_subgoals = 4;
  config.num_predicates = 4;
  config.num_views = 8;
  // Every fourth seed has no safety-net views, so negative outcomes
  // (kNoRewriting) go through the metamorphic hit checks too.
  config.ensure_rewriting_exists = (seed % 4 != 0);
  config.seed = seed;
  return config;
}

// The query's canonical database, materialized through the views.
Database ViewInstancesOverCanonicalDb(const Workload& w) {
  const CanonicalDatabase canonical(w.query);
  Database base;
  for (const Atom& fact : canonical.facts()) {
    base.AddFact(fact);
  }
  return MaterializeViews(w.views, base);
}

class PlanCacheMetamorphicTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanCacheMetamorphicTest, RenamedReorderedVariantsHitTheCache) {
  const Workload w = GenerateWorkload(ConfigForSeed(GetParam()));
  ViewPlanner planner(w.views, ViewInstancesOverCanonicalDb(w));
  const auto first = planner.Plan(w.query, CostModel::kM2);
  EXPECT_FALSE(first.cache_hit);

  std::mt19937 rng(GetParam());
  for (int round = 0; round < kVariantRounds; ++round) {
    const ConjunctiveQuery variant = Variant(w.query, rng, round);
    const auto result = planner.Plan(variant, CostModel::kM2);
    EXPECT_TRUE(result.cache_hit)
        << "variant missed the cache: " << variant.ToString();
    EXPECT_EQ(result.status, first.status);
  }
  const PlanCacheCounters counters = planner.cache_counters();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.hits, static_cast<uint64_t>(kVariantRounds));
}

TEST_P(PlanCacheMetamorphicTest, HitPathPlansEvaluateLikeColdPathPlans) {
  const Workload w = GenerateWorkload(ConfigForSeed(GetParam()));
  const Database instances = ViewInstancesOverCanonicalDb(w);

  ViewPlanner::Options cold_options;
  cold_options.enable_cache = false;
  const ViewPlanner cold(w.views, instances, cold_options);
  const ViewPlanner warm(w.views, instances);
  // Warm the cache with the base query; variants then take the hit path.
  const auto warmup = warm.Plan(w.query, CostModel::kM2);

  std::mt19937 rng(GetParam() + 1000);
  for (int round = 0; round < kVariantRounds; ++round) {
    const ConjunctiveQuery variant = Variant(w.query, rng, round);
    const auto hit = warm.Plan(variant, CostModel::kM2);
    const auto fresh = cold.Plan(variant, CostModel::kM2);
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_FALSE(fresh.cache_hit);
    ASSERT_EQ(hit.status, fresh.status) << variant.ToString();
    if (!hit.ok()) continue;
    // Same candidate set costed against the same instances: the minimum
    // cost agrees even if tie-breaking picks a different winner.
    EXPECT_EQ(hit.choice->cost, fresh.choice->cost);
    const Relation hit_answer = warm.Execute(*hit.choice);
    const Relation fresh_answer = cold.Execute(*fresh.choice);
    EXPECT_EQ(hit_answer.SortedRows(), fresh_answer.SortedRows())
        << "hit-path and cold-path answers diverge for "
        << variant.ToString();
    // Over the canonical database the query answer contains the frozen
    // head, so the equality above is never a trivial empty == empty.
    EXPECT_FALSE(hit_answer.SortedRows().empty());
  }
  EXPECT_EQ(warmup.status, warm.Plan(w.query, CostModel::kM2).status);
}

// The first Plan stores its costed choice; every variant after it is served
// that choice, and must get the plan a cache-disabled planner computes for
// the variant. For a renamed variant that is the same status, cost and
// logical text, and under M1/M2 the same physical plan byte for byte (M3
// plans mint fresh variables on every costing, so there the join order and
// the executed answer must agree). A renamed, reordered variant gets the
// same status, cost and answer: CoreCover lists a rewriting's subgoals in
// the query's subgoal order, and the canonical labeling may transport a
// rewriting along an automorphism of the query, so its text may differ
// (on every hit, stored choice or not).
TEST_P(PlanCacheMetamorphicTest, StoredChoiceMatchesAFreshPlannerPerModel) {
  const Workload w = GenerateWorkload(ConfigForSeed(GetParam()));
  const Database instances = ViewInstancesOverCanonicalDb(w);
  ViewPlanner::Options cold_options;
  cold_options.enable_cache = false;
  const ViewPlanner cold(w.views, instances, cold_options);
  const ViewPlanner warm(w.views, instances);

  std::mt19937 rng(GetParam() + 2000);
  for (CostModel model : {CostModel::kM1, CostModel::kM2, CostModel::kM3}) {
    EXPECT_FALSE(warm.Plan(w.query, model).cache_hit);
    for (int round = 0; round < kVariantRounds; ++round) {
      const bool reordered = round % 2 == 1;
      const ConjunctiveQuery variant =
          reordered ? Variant(w.query, rng, round)
                    : RenameVariablesApart(
                          w.query, "rv" + std::to_string(round));
      const auto hit = warm.Plan(variant, model);
      const auto fresh = cold.Plan(variant, model);
      EXPECT_TRUE(hit.cache_hit);
      ASSERT_EQ(hit.status, fresh.status) << variant.ToString();
      EXPECT_EQ(hit.degraded, fresh.degraded);
      if (!hit.ok()) continue;
      EXPECT_EQ(hit.choice->cost, fresh.choice->cost) << variant.ToString();
      EXPECT_EQ(warm.Execute(*hit.choice).SortedRows(),
                cold.Execute(*fresh.choice).SortedRows());
      if (reordered) continue;
      EXPECT_EQ(hit.choice->logical.ToString(),
                fresh.choice->logical.ToString());
      if (model != CostModel::kM3) {
        EXPECT_EQ(hit.choice->physical.ToString(),
                  fresh.choice->physical.ToString());
      } else {
        EXPECT_EQ(hit.choice->physical.order, fresh.choice->physical.order);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanCacheMetamorphicTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace vbr
