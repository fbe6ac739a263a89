// Regression tests for the planner's failure paths: queries beyond the
// 64-subgoal fragment must flow through PlanResult / PlanMany as
// kUnsupportedQueryTooLarge without corrupting the cache, and Explain must
// report failed plans instead of crashing.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "cq/parser.h"
#include "engine/materialize.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
#include "rewrite/certificate.h"

namespace vbr {
namespace {

// A chain of `n` DISTINCT binary predicates: its core is itself, so the
// minimized query keeps all n subgoals and n > 64 trips the fragment check.
ConjunctiveQuery WideQuery(size_t n) {
  std::string text = "q(X0,X" + std::to_string(n) + ") :- ";
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) text += ", ";
    text += "p" + std::to_string(i) + "(X" + std::to_string(i) + ",X" +
            std::to_string(i + 1) + ")";
  }
  text += ".";
  return MustParseQuery(text);
}

ViewSet SmallViews() {
  const auto program = MustParseProgram(
      "q(X,Y) :- p0(X,Y). "
      "v0(X,Y) :- p0(X,Y). "
      "v1(X,Y) :- p1(X,Y).");
  return ViewSet(program.begin() + 1, program.end());
}

TEST(PlannerErrorPathsTest, TooLargeQueryReportsUnsupportedStatus) {
  const ViewPlanner planner(SmallViews(), Database());
  const auto result = planner.Plan(WideQuery(65), CostModel::kM1);
  EXPECT_EQ(result.status, PlanStatus::kUnsupportedQueryTooLarge);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.choice.has_value());
  EXPECT_FALSE(result.error.empty());
}

TEST(PlannerErrorPathsTest, TooLargeQueryDoesNotPoisonTheCache) {
  const ViewPlanner planner(SmallViews(), Database());
  const ConjunctiveQuery wide = WideQuery(65);

  // The negative outcome is itself cacheable: the second identical request
  // must be a hit with the SAME status, not a corrupted entry.
  const auto first = planner.Plan(wide, CostModel::kM1);
  const auto second = planner.Plan(wide, CostModel::kM1);
  EXPECT_EQ(first.status, PlanStatus::kUnsupportedQueryTooLarge);
  EXPECT_EQ(second.status, PlanStatus::kUnsupportedQueryTooLarge);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_FALSE(second.choice.has_value());

  // A well-formed query planned afterwards is unaffected.
  const auto ok = planner.Plan(MustParseQuery("q(X,Y) :- p0(X,Y)."),
                               CostModel::kM1);
  EXPECT_EQ(ok.status, PlanStatus::kOk);
  ASSERT_TRUE(ok.choice.has_value());
  EXPECT_EQ(planner.cache_counters().hits, 1u);
  EXPECT_EQ(planner.cache_counters().misses, 2u);
}

TEST(PlannerErrorPathsTest, PlanManyCarriesPerQueryStatuses) {
  const ViewPlanner planner(SmallViews(), Database());
  const std::vector<ConjunctiveQuery> batch = {
      MustParseQuery("q(X,Y) :- p0(X,Y)."),
      WideQuery(65),
      MustParseQuery("q(X,Y) :- p2(X,Y)."),  // No view covers p2.
      WideQuery(65),                          // Dedups with the earlier one.
  };
  const auto results = planner.PlanMany(batch, {.model = CostModel::kM1});
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].status, PlanStatus::kOk);
  EXPECT_EQ(results[1].status, PlanStatus::kUnsupportedQueryTooLarge);
  EXPECT_FALSE(results[1].error.empty());
  EXPECT_EQ(results[2].status, PlanStatus::kNoRewriting);
  EXPECT_EQ(results[3].status, PlanStatus::kUnsupportedQueryTooLarge);
}

TEST(PlannerErrorPathsTest, ExplainReportsTooLargeWithoutCrashing) {
  const ViewPlanner planner(SmallViews(), Database());
  const auto explanation =
      planner.Explain(WideQuery(65), {.model = CostModel::kM2});
  EXPECT_EQ(explanation.status, PlanStatus::kUnsupportedQueryTooLarge);
  EXPECT_FALSE(explanation.ok());
  EXPECT_FALSE(explanation.error.empty());
  EXPECT_TRUE(explanation.breakdown.empty());

  const std::string text = explanation.ToText();
  EXPECT_NE(text.find("unsupported"), std::string::npos) << text;
  std::string error;
  const auto parsed = ParseJson(explanation.ToJson(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Get("status")->string_value(),
            "unsupported query (too large)");
  EXPECT_TRUE(parsed->Get("plan")->is_null());
}

TEST(PlannerErrorPathsTest, ExplainReportsNoRewriting) {
  const ViewPlanner planner(SmallViews(), Database());
  const auto explanation =
      planner.Explain(MustParseQuery("q(X,Y) :- p2(X,Y)."),
                      {.model = CostModel::kM2});
  EXPECT_EQ(explanation.status, PlanStatus::kNoRewriting);
  EXPECT_TRUE(explanation.candidates.empty());
  std::string error;
  const auto parsed = ParseJson(explanation.ToJson(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Get("status")->string_value(), "no equivalent rewriting");
}

// A rewriting wider than the M2 subset DP (22 subgoals) plans and explains
// under every model instead of aborting the process: M2 and M3 order it
// greedily and mark the result degraded, and Explain re-measures the
// winner under M2 and M3 whatever model was requested.
TEST(PlannerErrorPathsTest, WideRewritingPlansAndExplainsUnderEveryModel) {
  const ConjunctiveQuery query = WideQuery(22);
  std::string views_text;
  Database base;
  for (Value i = 0; i < 22; ++i) {
    const std::string n = std::to_string(i);
    views_text += "v" + n + "(A,B) :- p" + n + "(A,B). ";
    base.AddRow("p" + n, {i, i + 1});
  }
  const ViewSet views = MustParseProgram(views_text);
  const ViewPlanner planner(views, MaterializeViews(views, base));
  for (CostModel model :
       {CostModel::kM1, CostModel::kM2, CostModel::kM3}) {
    SCOPED_TRACE(CostModelName(model));
    const auto result = planner.Plan(query, model);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.choice->logical.num_subgoals(), 22u);
    EXPECT_EQ(result.degraded, model != CostModel::kM1);
    EXPECT_TRUE(VerifyCertificate(result.choice->certificate, views));
    EXPECT_EQ(planner.Execute(*result.choice).size(), 1u);

    const auto explanation = planner.Explain(query, {.model = model});
    ASSERT_TRUE(explanation.ok()) << explanation.error;
    EXPECT_EQ(explanation.breakdown.size(), 3u);
  }
}

// Both parse, but CoreCover can plan neither: an unsafe query (Y2 occurs in
// no body subgoal; minimizing it aborted) and a comparison (CoreCover
// aborted on it). Every entry point answers kInvalidQuery and caches nothing.
TEST(PlannerErrorPathsTest, InvalidQueriesGetAStatusFromEveryEntry) {
  const std::vector<ConjunctiveQuery> invalid = {
      MustParseQuery("q(X,Y2) :- p0(X,Y)."),
      MustParseQuery("q(X,Y) :- p0(X,Y), X != Y.")};
  ViewPlanner::Options uncached;
  uncached.enable_cache = false;
  const ViewPlanner cached_planner(SmallViews(), Database{});
  const ViewPlanner uncached_planner(SmallViews(), Database{}, uncached);
  for (const ViewPlanner* planner : {&cached_planner, &uncached_planner}) {
    for (const ConjunctiveQuery& query : invalid) {
      for (CostModel model :
           {CostModel::kM1, CostModel::kM2, CostModel::kM3}) {
        const auto result = planner->Plan(query, model);
        EXPECT_EQ(result.status, PlanStatus::kInvalidQuery)
            << query.ToString();
        EXPECT_FALSE(result.error.empty());
        EXPECT_FALSE(result.choice.has_value());
      }
      EXPECT_FALSE(
          planner->TryPlanFromCache(query, {.model = CostModel::kM2})
              .has_value());
      const auto explanation = planner->Explain(query, {});
      EXPECT_EQ(explanation.status, PlanStatus::kInvalidQuery);
      EXPECT_EQ(explanation.cache_disposition, "bypass");
      EXPECT_NE(explanation.ToJson().find("invalid query"),
                std::string::npos);
    }
    const auto batch = planner->PlanMany(
        {invalid[0], MustParseQuery("q(X,Y) :- p0(X,Y)."), invalid[1]},
        {.model = CostModel::kM2});
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].status, PlanStatus::kInvalidQuery);
    EXPECT_EQ(batch[1].status, PlanStatus::kOk);
    EXPECT_EQ(batch[2].status, PlanStatus::kInvalidQuery);
  }
  EXPECT_EQ(cached_planner.cache_size(), 1u);  // the one valid query
  EXPECT_EQ(cached_planner.cache_counters().misses, 1u);
}

}  // namespace
}  // namespace vbr
