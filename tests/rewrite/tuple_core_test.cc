#include "rewrite/tuple_core.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "cq/containment.h"
#include "cq/parser.h"
#include "tests/rewrite/fixtures.h"

namespace vbr {
namespace {

using testing_fixtures::CarLocPartQuery;
using testing_fixtures::CarLocPartViews;
using testing_fixtures::Example41Query;
using testing_fixtures::Example41Views;

// Maps tuple text -> covered subgoal indices for all tuples of (query,
// views).
std::map<std::string, std::vector<size_t>> CoresByTuple(
    const ConjunctiveQuery& query, const ViewSet& views) {
  const ConjunctiveQuery minimal = Minimize(query);
  std::map<std::string, std::vector<size_t>> out;
  for (const ViewTuple& t : ComputeViewTuples(minimal, views)) {
    out[t.atom.ToString()] = ComputeTupleCore(minimal, t, views).covered;
  }
  return out;
}

TEST(TupleCoreTest, Example41Table2) {
  // Table 2 of the paper:
  //   v1(X,Z) covers {a(X,Z), a(Z,Z)}; v1(Z,Z) covers {a(Z,Z)};
  //   v2(Z,Y) covers {b(Z,Y)}.
  // Query subgoals: 0: a(X,Z), 1: a(Z,Z), 2: b(Z,Y).
  const auto cores = CoresByTuple(Example41Query(), Example41Views());
  ASSERT_EQ(cores.size(), 3u);
  EXPECT_EQ(cores.at("v1(X,Z)"), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(cores.at("v1(Z,Z)"), (std::vector<size_t>{1}));
  EXPECT_EQ(cores.at("v2(Z,Y)"), (std::vector<size_t>{2}));
}

TEST(TupleCoreTest, CarLocPartCores) {
  // v1, v2, v4, v5 cover per the paper; v3 has an EMPTY tuple-core because
  // the distinguished variable C would have to map to an existential.
  const auto cores = CoresByTuple(CarLocPartQuery(), CarLocPartViews());
  // Subgoals: 0: car(M,a), 1: loc(a,C), 2: part(S,M,C).
  EXPECT_EQ(cores.at("v1(M,a,C)"), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(cores.at("v5(M,a,C)"), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(cores.at("v2(S,M,C)"), (std::vector<size_t>{2}));
  EXPECT_EQ(cores.at("v4(M,a,C,S)"), (std::vector<size_t>{0, 1, 2}));
  EXPECT_TRUE(cores.at("v3(S)").empty());
}

TEST(TupleCoreTest, MappingWitnessIsIdentityOnTupleArguments) {
  const ConjunctiveQuery q = Example41Query();
  const ViewSet views = Example41Views();
  for (const ViewTuple& t : ComputeViewTuples(q, views)) {
    const TupleCore core = ComputeTupleCore(q, t, views);
    for (Term arg : t.atom.args()) {
      if (!arg.is_variable()) continue;
      if (auto image = core.mapping.Lookup(arg)) {
        EXPECT_EQ(*image, arg) << t.atom.ToString();
      }
    }
  }
}

TEST(TupleCoreTest, Property3PullsInAllSubgoalsOfExistentialVariable) {
  // View v(X) :- a(X,Z), b(Z) hides Z. A query using Z in two subgoals can
  // only be covered wholesale.
  const auto q = MustParseQuery("q(X) :- a(X,Z), b(Z)");
  const auto views = MustParseProgram("v(X) :- a(X,Z), b(Z)");
  const auto cores = CoresByTuple(q, views);
  EXPECT_EQ(cores.at("v(X)"), (std::vector<size_t>{0, 1}));
}

TEST(TupleCoreTest, Property3ForcesEmptyCoreWhenPartnerSubgoalUncoverable) {
  // v(X) :- a(X,Z): the expansion hides Z, but the query also needs c(Z)
  // which v cannot supply, so including a(X,Z) would violate property (3):
  // the core is empty.
  const auto q = MustParseQuery("q(X) :- a(X,Z), c(Z)");
  const auto views = MustParseProgram("v(X) :- a(X,Z)");
  const auto cores = CoresByTuple(q, views);
  EXPECT_TRUE(cores.at("v(X)").empty());
}

TEST(TupleCoreTest, DistinguishedVariableToExistentialIsRejected) {
  // Query head exposes Z; view hides it: empty core (paper's v3 pattern).
  const auto q = MustParseQuery("q(X,Z) :- a(X,Z)");
  const auto views = MustParseProgram("v(X) :- a(X,Z)");
  const auto cores = CoresByTuple(q, views);
  EXPECT_TRUE(cores.at("v(X)").empty());
}

TEST(TupleCoreTest, SharedVariableThroughTupleArgsAllowsPartialCover) {
  // View exposes Z, so covering only a(X,Z) is fine.
  const auto q = MustParseQuery("q(X) :- a(X,Z), c(Z)");
  const auto views = MustParseProgram("v(X,Z) :- a(X,Z)");
  const auto cores = CoresByTuple(q, views);
  EXPECT_EQ(cores.at("v(X,Z)"), (std::vector<size_t>{0}));
}

TEST(TupleCoreTest, InjectivityBlocksCollapsedCover) {
  // Expansion a(X,X) cannot cover a(X,Y) of the query: X and Y would both
  // map to X, violating property (1).
  const auto q = MustParseQuery("q(X,Y) :- a(X,Y), a(Y,Y)");
  const auto views = MustParseProgram("v(A) :- a(A,A)");
  const auto cores = CoresByTuple(q, views);
  // Tuple v(Y): expansion a(Y,Y) covers subgoal 1 only.
  EXPECT_EQ(cores.at("v(Y)"), (std::vector<size_t>{1}));
}

TEST(TupleCoreTest, Example42SingleTupleCoversWholeQuery) {
  // Example 4.2 with k = 3: the view identical to the query covers all 2k
  // subgoals.
  const auto q = MustParseQuery(
      "q(X,Y) :- a1(X,Z1), b1(Z1,Y), a2(X,Z2), b2(Z2,Y), a3(X,Z3), "
      "b3(Z3,Y)");
  const auto views = MustParseProgram(R"(
    v(X,Y) :- a1(X,Z1), b1(Z1,Y), a2(X,Z2), b2(Z2,Y), a3(X,Z3), b3(Z3,Y)
    v1(X,Y) :- a1(X,Z1), b1(Z1,Y)
    v2(X,Y) :- a2(X,Z2), b2(Z2,Y)
  )");
  const auto cores = CoresByTuple(q, views);
  EXPECT_EQ(cores.at("v(X,Y)"), (std::vector<size_t>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(cores.at("v1(X,Y)"), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(cores.at("v2(X,Y)"), (std::vector<size_t>{2, 3}));
}

// A query variable that is not an argument of the view tuple maps only
// onto an existential variable of the expansion. v0(X1) expands
// to e(X1,_), so e(X4,X2) would need X4 -> X1, equating two query
// variables; only v0(X4) covers that subgoal.
TEST(TupleCoreTest, NonTupleVariableMapsOnlyToAnExistential) {
  const auto program = MustParseProgram(
      "q(X0,X1) :- e(X3,X3), e(X1,X4), e(X4,X2), e(X0,X0). "
      "v0(A2) :- e(A2,A3).");
  const ConjunctiveQuery query = program[0];
  const ViewSet views(program.begin() + 1, program.end());
  const auto cores = CoresByTuple(query, views);
  EXPECT_TRUE(cores.at("v0(X1)").empty());
  EXPECT_TRUE(cores.at("v0(X0)").empty());
  ASSERT_EQ(cores.at("v0(X4)").size(), 1u);
  const ConjunctiveQuery minimal = Minimize(query);
  EXPECT_EQ(minimal.subgoal(cores.at("v0(X4)")[0]).ToString(), "e(X4,X2)");
}

TEST(TupleCoreTest, CoreMaskMatchesCoveredList) {
  const ConjunctiveQuery q = Minimize(CarLocPartQuery());
  const ViewSet views = CarLocPartViews();
  for (const ViewTuple& t : ComputeViewTuples(q, views)) {
    const TupleCore core = ComputeTupleCore(q, t, views);
    uint64_t mask = 0;
    for (size_t i : core.covered) mask |= uint64_t{1} << i;
    EXPECT_EQ(mask, core.covered_mask);
    EXPECT_EQ(core.size(), core.covered.size());
    EXPECT_EQ(core.empty(), core.covered.empty());
  }
}

}  // namespace
}  // namespace vbr
