#include "planner/planner.h"

#include <gtest/gtest.h>

#include "cost/m2_optimizer.h"
#include "cq/parser.h"
#include "engine/evaluator.h"
#include "engine/io.h"
#include "engine/materialize.h"
#include "tests/rewrite/fixtures.h"
#include "workload/data_gen.h"
#include "workload/generator.h"

namespace vbr {
namespace {

using testing_fixtures::CarLocPartQuery;
using testing_fixtures::CarLocPartViews;

Database CarLocPartBase() {
  Database db;
  const Value a = EncodeConstant(Const("a"));
  for (Value m = 0; m < 10; ++m) db.AddRow("car", {m, a});
  for (Value c = 0; c < 5; ++c) db.AddRow("loc", {a, 100 + c});
  for (Value i = 0; i < 200; ++i) {
    db.AddRow("part", {1000 + i, i % 25, 100 + (i % 10)});
  }
  return db;
}

TEST(PlannerTest, M1PicksTheFewestSubgoals) {
  const ViewSet views = CarLocPartViews();
  const Database base = CarLocPartBase();
  ViewPlanner planner(views, MaterializeViews(views, base));
  auto result = planner.Plan(CarLocPartQuery(), CostModel::kM1);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.choice->cost, 1u);
  EXPECT_EQ(result.choice->logical.ToString(), "q1(S,C) :- v4(M,a,C,S)");
}

TEST(PlannerTest, AllModelsComputeTheExactAnswer) {
  const ViewSet views = CarLocPartViews();
  const Database base = CarLocPartBase();
  ViewPlanner planner(views, MaterializeViews(views, base));
  const Relation expected = EvaluateQuery(CarLocPartQuery(), base);
  for (CostModel model :
       {CostModel::kM1, CostModel::kM2, CostModel::kM3}) {
    auto result = planner.Plan(CarLocPartQuery(), model);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(planner.Execute(*result.choice).EqualsAsSet(expected));
  }
}

// A self-join query whose view tuples invite a tuple-core to equate query
// variables: every model must plan it and compute the exact answer.
TEST(PlannerTest, SelfJoinQueryPlansTheExactAnswer) {
  const auto program = MustParseProgram(
      "q(X0,X1) :- e(X3,X3), e(X1,X4), e(X4,X2), e(X0,X0). "
      "v0(A2) :- e(A2,A3). v1(A2) :- e(A2,A1). v2(A2,A3) :- e(A3,A2).");
  const ConjunctiveQuery query = program[0];
  const ViewSet views(program.begin() + 1, program.end());
  const auto base = ParseDatabase("e(a,a). e(b,c). e(c,d).");
  ASSERT_TRUE(base.has_value());
  const Relation expected = EvaluateQuery(query, *base);
  const Value a = EncodeConstant(Const("a"));
  const Value b = EncodeConstant(Const("b"));
  ASSERT_EQ(expected.size(), 2u);
  EXPECT_TRUE(expected.Contains({a, a}));
  EXPECT_TRUE(expected.Contains({a, b}));
  ViewPlanner planner(views, MaterializeViews(views, *base));
  for (CostModel model :
       {CostModel::kM1, CostModel::kM2, CostModel::kM3}) {
    const auto result = planner.Plan(query, model);
    ASSERT_TRUE(result.ok()) << PlanStatusName(result.status);
    EXPECT_TRUE(VerifyCertificate(result.choice->certificate, views));
    EXPECT_TRUE(planner.Execute(*result.choice).EqualsAsSet(expected))
        << CostModelName(model) << ": " << result.choice->ToString();
  }
}

TEST(PlannerTest, CertificateVerifies) {
  const ViewSet views = CarLocPartViews();
  ViewPlanner planner(views, MaterializeViews(views, CarLocPartBase()));
  auto result = planner.Plan(CarLocPartQuery(), CostModel::kM2);
  ASSERT_TRUE(result.ok());
  std::string error;
  EXPECT_TRUE(VerifyCertificate(result.choice->certificate, views, &error))
      << error;
}

TEST(PlannerTest, NoRewritingReportsStatus) {
  const ViewSet views = MustParseProgram("v(M,D) :- car(M,D)");
  ViewPlanner planner(views, Database{});
  const auto result = planner.Plan(CarLocPartQuery(), CostModel::kM2);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status, PlanStatus::kNoRewriting);
  EXPECT_FALSE(result.choice.has_value());
  EXPECT_FALSE(planner.Answer(CarLocPartQuery()).has_value());
}

TEST(PlannerTest, AnswerConvenience) {
  const ViewSet views = CarLocPartViews();
  const Database base = CarLocPartBase();
  ViewPlanner planner(views, MaterializeViews(views, base));
  auto answer = planner.Answer(CarLocPartQuery());
  ASSERT_TRUE(answer.has_value());
  EXPECT_TRUE(answer->EqualsAsSet(EvaluateQuery(CarLocPartQuery(), base)));
}

TEST(PlannerTest, M2NeverCostsMoreThanM1Plan) {
  // The M2 search space includes the GMRs, so its chosen plan's M2 cost is
  // at most the best GMR's M2 cost.
  const ViewSet views = CarLocPartViews();
  const Database base = CarLocPartBase();
  const Database view_db = MaterializeViews(views, base);
  ViewPlanner planner(views, view_db);
  auto m1 = planner.Plan(CarLocPartQuery(), CostModel::kM1);
  auto m2 = planner.Plan(CarLocPartQuery(), CostModel::kM2);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  const auto m1_under_m2 = OptimizeOrderM2(m1.choice->logical, view_db);
  EXPECT_LE(m2.choice->cost, m1_under_m2.cost);
}

TEST(PlannerTest, RandomWorkloadsEndToEnd) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    WorkloadConfig wc;
    wc.shape = (seed % 2 == 0) ? QueryShape::kStar : QueryShape::kChain;
    wc.num_query_subgoals = 5;
    wc.num_views = 12;
    wc.seed = seed;
    const Workload w = GenerateWorkload(wc);
    DataConfig dc;
    dc.rows_per_relation = 50;
    dc.domain_size = 10;
    dc.seed = seed * 101;
    const Database base = GenerateBaseData(w.query, w.views, dc);
    ViewPlanner planner(w.views, MaterializeViews(w.views, base));
    const Relation expected = EvaluateQuery(w.query, base);
    for (CostModel model :
         {CostModel::kM1, CostModel::kM2, CostModel::kM3}) {
      auto result = planner.Plan(w.query, model);
      ASSERT_TRUE(result.ok()) << "seed " << seed;
      EXPECT_TRUE(planner.Execute(*result.choice).EqualsAsSet(expected))
          << "seed " << seed << " model " << static_cast<int>(model) << "\n"
          << result.choice->ToString();
    }
  }
}

TEST(PlannerTest, PlanChoiceToStringIsInformative) {
  const ViewSet views = CarLocPartViews();
  ViewPlanner planner(views, MaterializeViews(views, CarLocPartBase()));
  auto result = planner.Plan(CarLocPartQuery(), CostModel::kM2);
  ASSERT_TRUE(result.ok());
  const std::string text = result.choice->ToString();
  EXPECT_NE(text.find("logical"), std::string::npos);
  EXPECT_NE(text.find("M2"), std::string::npos);
}

}  // namespace
}  // namespace vbr
