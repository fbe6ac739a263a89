#include "cost/m2_optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "cq/parser.h"
#include "engine/materialize.h"

namespace vbr {
namespace {

// A skewed instance: va tiny, vb large, vc medium.
Database SkewedViews() {
  Database db;
  db.AddRow("va", {1});
  for (Value i = 0; i < 100; ++i) db.AddRow("vb", {i % 10, i});
  for (Value i = 0; i < 10; ++i) db.AddRow("vc", {i});
  return db;
}

TEST(M2OptimizerTest, CostOfOrderMatchesHandComputation) {
  Database db;
  db.AddRow("v1", {1, 10});
  db.AddRow("v1", {2, 20});
  db.AddRow("v2", {10});
  const auto p = MustParseQuery("q(A) :- v1(A,B), v2(B)");
  // Order [v1, v2]: size(v1)=2 + IR1=2, size(v2)=1 + IR2=1 -> 6.
  EXPECT_EQ(CostOfOrderM2(p, {0, 1}, db), 6u);
  // Order [v2, v1]: size(v2)=1 + IR1=1, size(v1)=2 + IR2=1 -> 5.
  EXPECT_EQ(CostOfOrderM2(p, {1, 0}, db), 5u);
}

TEST(M2OptimizerTest, OptimizerPicksCheapestOrder) {
  Database db;
  db.AddRow("v1", {1, 10});
  db.AddRow("v1", {2, 20});
  db.AddRow("v2", {10});
  const auto p = MustParseQuery("q(A) :- v1(A,B), v2(B)");
  const auto result = OptimizeOrderM2(p, db);
  EXPECT_EQ(result.cost, 5u);
  EXPECT_EQ(result.plan.order, (std::vector<size_t>{1, 0}));
}

TEST(M2OptimizerTest, OptimalMatchesExhaustiveEnumeration) {
  const Database db = SkewedViews();
  const auto p = MustParseQuery("q(X,Y) :- va(X), vb(X,Y), vc(X)");
  const auto result = OptimizeOrderM2(p, db);
  std::vector<size_t> order(p.num_subgoals());
  std::iota(order.begin(), order.end(), 0);
  size_t best = SIZE_MAX;
  do {
    best = std::min(best, CostOfOrderM2(p, order, db));
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(result.cost, best);
}

TEST(M2OptimizerTest, SelectiveRelationGoesFirst) {
  const Database db = SkewedViews();
  const auto p = MustParseQuery("q(X,Y) :- vb(X,Y), va(X)");
  const auto result = OptimizeOrderM2(p, db);
  // va has 1 row; starting with it shrinks every intermediate.
  EXPECT_EQ(result.plan.order.front(), 1u);
}

TEST(M2OptimizerTest, SingleSubgoal) {
  Database db;
  db.AddRow("v", {1});
  db.AddRow("v", {2});
  const auto p = MustParseQuery("q(X) :- v(X)");
  const auto result = OptimizeOrderM2(p, db);
  EXPECT_EQ(result.cost, 4u);  // size(v) + IR1 = 2 + 2.
  EXPECT_EQ(result.plan.order, (std::vector<size_t>{0}));
}

TEST(M2OptimizerTest, SubsetsCostedIsBounded) {
  const Database db = SkewedViews();
  const auto p = MustParseQuery("q(X,Y) :- va(X), vb(X,Y), vc(X)");
  const auto result = OptimizeOrderM2(p, db);
  EXPECT_LE(result.subsets_costed, 7u);  // 2^3 - 1.
}

TEST(M2OptimizerTest, EmptyViewRelationMakesPlansCheap) {
  Database db;
  db.AddRow("vb", {1, 2});
  const auto p = MustParseQuery("q(X,Y) :- va(X), vb(X,Y)");
  const auto result = OptimizeOrderM2(p, db);
  // All IRs that include va are empty; cost = sizes only.
  EXPECT_LE(result.cost, 2u);
}

// Past the subset DP's width the optimizer orders greedily instead of
// aborting: a permutation whose reported cost is that order's M2 cost.
TEST(M2OptimizerTest, WideRewritingGetsAGreedyOrder) {
  Database db;
  std::string text = "q(X0) :- ";
  for (Value i = 0; i < 22; ++i) {
    if (i > 0) text += ", ";
    const std::string v = "v" + std::to_string(i);
    text += v + "(X" + std::to_string(i) + ",X" + std::to_string(i + 1) + ")";
    for (Value r = 0; r <= i % 3; ++r) db.AddRow(v, {r, r});
  }
  const auto p = MustParseQuery(text);
  const auto wide = OptimizeOrderM2(p, db);
  EXPECT_TRUE(wide.greedy);
  EXPECT_FALSE(wide.aborted);
  std::vector<size_t> sorted = wide.plan.order;
  std::sort(sorted.begin(), sorted.end());
  std::vector<size_t> identity(22);
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(sorted, identity);
  EXPECT_EQ(wide.cost, CostOfOrderM2(p, wide.plan.order, db));

  EXPECT_FALSE(OptimizeOrderM2(MustParseQuery("q(X) :- v0(X,Y)"), db).greedy);
}

}  // namespace
}  // namespace vbr
