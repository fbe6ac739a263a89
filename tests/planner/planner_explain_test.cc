// Tests for the planner's observability surfaces: the span tree one traced
// Plan call emits (acceptance: it covers every CoreCover stage and the
// cache disposition) and the EXPLAIN output (acceptance: the JSON form
// round-trips through a JSON parser and agrees with the PlanResult).

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/trace.h"
#include "cq/parser.h"
#include "engine/io.h"
#include "engine/materialize.h"
#include "planner/planner.h"

namespace vbr {
namespace {

// The running example from the paper: q over car/loc/part with a covering
// view v4 and a two-view alternative v1+v2.
struct Fixture {
  ConjunctiveQuery query;
  ViewSet views;
  Database instances;

  Fixture() {
    const auto program = MustParseProgram(
        "q1(S,C) :- car(M,a), loc(a,C), part(S,M,C). "
        "v1(M,D,C) :- car(M,D), loc(D,C). "
        "v2(S,M,C) :- part(S,M,C). "
        "v4(M,D,C,S) :- car(M,D), loc(D,C), part(S,M,C).");
    query = program[0];
    views = ViewSet(program.begin() + 1, program.end());
    const auto base = ParseDatabase(
        "car(toyota, a). car(honda, b). loc(a, sf). loc(b, la). "
        "part(store1, toyota, sf). part(store2, honda, la).");
    instances = MaterializeViews(views, *base);
  }
};

std::multiset<std::string> SpanNames(const MemoryTraceSink& sink) {
  std::multiset<std::string> names;
  for (const TraceEvent& e : sink.spans()) names.insert(e.name);
  return names;
}

const TraceEvent* FindSpan(const std::vector<TraceEvent>& spans,
                           std::string_view name) {
  for (const TraceEvent& e : spans) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::string Attribute(const TraceEvent& e, std::string_view key) {
  for (const auto& [k, v] : e.attributes) {
    if (k == key) return v;
  }
  return "";
}

TEST(PlannerTraceTest, ColdPlanEmitsSpansForEveryStage) {
  const Fixture f;
  const ViewPlanner planner(f.views, f.instances);
  MemoryTraceSink sink;
  const auto result =
      planner.Plan(f.query, {.model = CostModel::kM2}, {&sink});
  ASSERT_TRUE(result.ok());

  const auto names = SpanNames(sink);
  // Planner stages + cache disposition.
  for (const char* expected :
       {"plan", "canonicalize", "cache_lookup", "cost_and_pick",
        "certify", "optimize_m2"}) {
    EXPECT_GE(names.count(expected), 1u) << "missing span " << expected;
  }
  // Every CoreCover stage.
  for (const char* expected : {"core_cover", "minimize", "group_views",
                               "view_tuples", "tuple_cores", "set_cover"}) {
    EXPECT_EQ(names.count(expected), 1u) << "missing span " << expected;
  }

  const auto spans = sink.spans();
  const TraceEvent* plan = FindSpan(spans, "plan");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->parent_id, 0u);
  EXPECT_EQ(Attribute(*plan, "model"), "M2");
  EXPECT_EQ(Attribute(*plan, "cache"), "miss");
  EXPECT_EQ(Attribute(*plan, "status"), "ok");
  // The tree hangs together: core_cover under plan, stages under it.
  const TraceEvent* core = FindSpan(spans, "core_cover");
  ASSERT_NE(core, nullptr);
  EXPECT_EQ(core->parent_id, plan->id);
  const TraceEvent* minimize = FindSpan(spans, "minimize");
  ASSERT_NE(minimize, nullptr);
  EXPECT_EQ(minimize->parent_id, core->id);
  const TraceEvent* lookup = FindSpan(spans, "cache_lookup");
  ASSERT_NE(lookup, nullptr);
  EXPECT_EQ(Attribute(*lookup, "outcome"), "miss");
}

TEST(PlannerTraceTest, WarmPlanTracesTheHitPathWithoutCoreCover) {
  const Fixture f;
  const ViewPlanner planner(f.views, f.instances);
  ASSERT_TRUE(planner.Plan(f.query, CostModel::kM2).ok());

  MemoryTraceSink sink;
  const auto result =
      planner.Plan(f.query, {.model = CostModel::kM2}, {&sink});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.cache_hit);
  const auto names = SpanNames(sink);
  EXPECT_EQ(names.count("core_cover"), 0u);
  // The miss stored its costed choice, so the hit costs nothing.
  EXPECT_EQ(names.count("cost_and_pick"), 0u);
  EXPECT_EQ(names.count("optimize_m2"), 0u);
  EXPECT_EQ(names.count("certify"), 1u);
  const auto spans = sink.spans();
  const TraceEvent* plan = FindSpan(spans, "plan");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(Attribute(*plan, "cache"), "hit");
  const TraceEvent* lookup = FindSpan(spans, "cache_lookup");
  ASSERT_NE(lookup, nullptr);
  EXPECT_EQ(Attribute(*lookup, "outcome"), "hit");
}

TEST(PlannerTraceTest, UntracedPlanEmitsNothingAndAgrees) {
  const Fixture f;
  const ViewPlanner planner(f.views, f.instances);
  const auto traced_planner_result =
      planner.Plan(f.query, {.model = CostModel::kM2}, {nullptr});
  ASSERT_TRUE(traced_planner_result.ok());
}

TEST(PlannerExplainTest, ExplainAgreesWithPlan) {
  const Fixture f;
  const ViewPlanner planner(f.views, f.instances);
  const auto explanation =
      planner.Explain(f.query, {.model = CostModel::kM2});
  ASSERT_TRUE(explanation.ok());
  ASSERT_TRUE(explanation.choice.has_value());
  EXPECT_EQ(explanation.cache_disposition, "miss");
  EXPECT_EQ(explanation.model, CostModel::kM2);

  // Candidates: v4 alone (1 subgoal) beats v1+v2; exactly one chosen.
  ASSERT_EQ(explanation.candidates.size(), 2u);
  size_t chosen = 0;
  for (const auto& c : explanation.candidates) {
    if (c.chosen) {
      ++chosen;
      EXPECT_EQ(c.reason, "chosen");
      EXPECT_EQ(c.cost, explanation.choice->cost);
    } else {
      EXPECT_NE(c.reason.find("winner"), std::string::npos);
      EXPECT_GE(c.cost, explanation.choice->cost);
    }
  }
  EXPECT_EQ(chosen, 1u);

  // Breakdown covers M1, M2, M3 with per-step sizes for the executed models.
  ASSERT_EQ(explanation.breakdown.size(), 3u);
  EXPECT_EQ(explanation.breakdown[0].model, CostModel::kM1);
  EXPECT_EQ(explanation.breakdown[1].model, CostModel::kM2);
  EXPECT_EQ(explanation.breakdown[2].model, CostModel::kM3);
  const auto& m2 = explanation.breakdown[1];
  EXPECT_EQ(m2.order.size(), explanation.choice->logical.num_subgoals());
  EXPECT_EQ(m2.relation_sizes.size(), m2.order.size());
  EXPECT_EQ(m2.state_sizes.size(), m2.order.size());
  EXPECT_EQ(m2.cost, explanation.choice->cost);

  // The text form mentions the pieces a human needs.
  const std::string text = explanation.ToText();
  for (const char* needle :
       {"status   : ok", "cache    : miss", "candidates (2):", "breakdown:",
        "chosen"}) {
    EXPECT_NE(text.find(needle), std::string::npos)
        << "missing \"" << needle << "\" in:\n" << text;
  }
}

TEST(PlannerExplainTest, JsonRoundTripsThroughParser) {
  const Fixture f;
  const ViewPlanner planner(f.views, f.instances);
  const auto explanation =
      planner.Explain(f.query, {.model = CostModel::kM2});
  ASSERT_TRUE(explanation.ok());

  std::string error;
  const auto parsed = ParseJson(explanation.ToJson(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_TRUE(parsed->is_object());

  ASSERT_NE(parsed->Get("status"), nullptr);
  EXPECT_EQ(parsed->Get("status")->string_value(), "ok");
  ASSERT_NE(parsed->Get("model"), nullptr);
  EXPECT_EQ(parsed->Get("model")->string_value(), "M2");
  ASSERT_NE(parsed->Get("cache"), nullptr);
  EXPECT_EQ(parsed->Get("cache")->string_value(), "miss");

  const JsonValue* candidates = parsed->Get("candidates");
  ASSERT_NE(candidates, nullptr);
  ASSERT_TRUE(candidates->is_array());
  EXPECT_EQ(candidates->array_items().size(),
            explanation.candidates.size());
  for (const JsonValue& c : candidates->array_items()) {
    ASSERT_NE(c.Get("logical"), nullptr);
    ASSERT_NE(c.Get("cost"), nullptr);
    ASSERT_NE(c.Get("chosen"), nullptr);
  }

  const JsonValue* plan = parsed->Get("plan");
  ASSERT_NE(plan, nullptr);
  ASSERT_TRUE(plan->is_object());
  EXPECT_DOUBLE_EQ(plan->Get("cost")->number_value(),
                   static_cast<double>(explanation.choice->cost));
  EXPECT_EQ(plan->Get("logical")->string_value(),
            explanation.choice->logical.ToString());

  const JsonValue* breakdown = parsed->Get("breakdown");
  ASSERT_NE(breakdown, nullptr);
  ASSERT_EQ(breakdown->array_items().size(), 3u);
  const JsonValue& m2 = breakdown->array_items()[1];
  EXPECT_EQ(m2.Get("model")->string_value(), "M2");
  EXPECT_TRUE(m2.Get("order")->is_array());
  EXPECT_TRUE(m2.Get("relation_sizes")->is_array());

  ASSERT_NE(parsed->Get("stats"), nullptr);
  EXPECT_NE(parsed->Get("stats")->Get("num_view_tuples"), nullptr);
}

TEST(PlannerExplainTest, ExplainOnTheHitPathReportsHit) {
  const Fixture f;
  const ViewPlanner planner(f.views, f.instances);
  ASSERT_TRUE(planner.Plan(f.query, CostModel::kM2).ok());
  const auto explanation =
      planner.Explain(f.query, {.model = CostModel::kM2});
  ASSERT_TRUE(explanation.ok());
  EXPECT_TRUE(explanation.cache_hit);
  EXPECT_EQ(explanation.cache_disposition, "hit");
}

TEST(PlannerExplainTest, ExplainWithDisabledCacheReportsDisabled) {
  const Fixture f;
  ViewPlanner::Options options;
  options.enable_cache = false;
  const ViewPlanner planner(f.views, f.instances, options);
  const auto explanation =
      planner.Explain(f.query, {.model = CostModel::kM1});
  ASSERT_TRUE(explanation.ok());
  EXPECT_EQ(explanation.cache_disposition, "disabled");
}

}  // namespace
}  // namespace vbr
