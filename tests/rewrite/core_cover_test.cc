#include "rewrite/core_cover.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cq/parser.h"
#include "rewrite/rewriting.h"
#include "tests/rewrite/fixtures.h"

namespace vbr {
namespace {

using testing_fixtures::CarLocPartQuery;
using testing_fixtures::CarLocPartViews;
using testing_fixtures::Example41Query;
using testing_fixtures::Example41Views;

CoreCoverOptions Verifying() {
  CoreCoverOptions options;
  options.verify_rewritings = true;
  return options;
}

TEST(CoreCoverTest, CarLocPartFindsP4) {
  // The unique GMR is q1(S,C) :- v4(M,a,C,S) (one subgoal).
  const auto result =
      CoreCover(CarLocPartQuery(), CarLocPartViews(), Verifying());
  EXPECT_TRUE(result.has_rewriting);
  EXPECT_EQ(result.stats.minimum_cover_size, 1u);
  ASSERT_EQ(result.rewritings.size(), 1u);
  EXPECT_EQ(result.rewritings[0].ToString(), "q1(S,C) :- v4(M,a,C,S)");
}

TEST(CoreCoverTest, CarLocPartFilterCandidateIsV3) {
  const auto result = CoreCover(CarLocPartQuery(), CarLocPartViews());
  ASSERT_EQ(result.filter_candidates.size(), 1u);
  EXPECT_EQ(
      result.view_tuples[result.filter_candidates[0]].tuple.atom.ToString(),
      "v3(S)");
}

TEST(CoreCoverTest, Example41FindsTheUniqueGmr) {
  const auto result =
      CoreCover(Example41Query(), Example41Views(), Verifying());
  EXPECT_TRUE(result.has_rewriting);
  EXPECT_EQ(result.stats.minimum_cover_size, 2u);
  ASSERT_EQ(result.rewritings.size(), 1u);
  EXPECT_EQ(result.rewritings[0].ToString(), "q(X,Y) :- v1(X,Z), v2(Z,Y)");
}

TEST(CoreCoverTest, Example42OneSubgoalBeatsMiniConStyle) {
  // Example 4.2, k = 3: CoreCover finds the single-subgoal rewriting
  // q(X,Y) :- v(X,Y) even though v1, v2 cover pieces.
  const auto q = MustParseQuery(
      "q(X,Y) :- a1(X,Z1), b1(Z1,Y), a2(X,Z2), b2(Z2,Y), a3(X,Z3), "
      "b3(Z3,Y)");
  const auto views = MustParseProgram(R"(
    v(X,Y) :- a1(X,Z1), b1(Z1,Y), a2(X,Z2), b2(Z2,Y), a3(X,Z3), b3(Z3,Y)
    v1(X,Y) :- a1(X,Z1), b1(Z1,Y)
    v2(X,Y) :- a2(X,Z2), b2(Z2,Y)
  )");
  const auto result = CoreCover(q, views, Verifying());
  ASSERT_EQ(result.rewritings.size(), 1u);
  EXPECT_EQ(result.rewritings[0].ToString(), "q(X,Y) :- v(X,Y)");
}

TEST(CoreCoverTest, NoRewritingReported) {
  const auto q = MustParseQuery("q(X) :- r(X,Y), s(Y)");
  const auto views = MustParseProgram("v(X) :- r(X,Y)");
  const auto result = CoreCover(q, views);
  EXPECT_FALSE(result.has_rewriting);
  EXPECT_TRUE(result.rewritings.empty());
}

TEST(CoreCoverTest, MinimizesQueryFirst) {
  // Redundant subgoal e(X,B) disappears; the GMR covers only e(X,X).
  const auto q = MustParseQuery("q(X) :- e(X,X), e(X,B)");
  const auto views = MustParseProgram("v(A) :- e(A,A)");
  const auto result = CoreCover(q, views, Verifying());
  EXPECT_EQ(result.minimized_query.num_subgoals(), 1u);
  ASSERT_EQ(result.rewritings.size(), 1u);
  EXPECT_EQ(result.rewritings[0].ToString(), "q(X) :- v(X)");
}

TEST(CoreCoverTest, GroupViewsCollapsesEquivalentViews) {
  // v1 and v5 are equivalent; with grouping only one representative's
  // tuples are computed.
  const auto result = CoreCover(CarLocPartQuery(), CarLocPartViews());
  EXPECT_EQ(result.stats.num_views, 5u);
  EXPECT_EQ(result.stats.num_view_classes, 4u);
  EXPECT_EQ(result.stats.num_view_tuples, 4u);  // v1, v2, v3, v4.
}

TEST(CoreCoverTest, WithoutGroupingAllTuplesAppear) {
  CoreCoverOptions options;
  options.group_views = false;
  options.group_view_tuples = false;
  const auto result =
      CoreCover(CarLocPartQuery(), CarLocPartViews(), options);
  EXPECT_EQ(result.stats.num_view_tuples, 5u);  // v5 tuple included.
  EXPECT_TRUE(result.has_rewriting);
}

TEST(CoreCoverTest, MultipleGmrsAreAllFound) {
  // Two disjoint halves, each coverable by two different views: 2x2 GMRs of
  // size 2, plus none smaller.
  const auto q = MustParseQuery("q(X,Y) :- r(X), s(Y)");
  const auto views = MustParseProgram(R"(
    va(X) :- r(X)
    vb(X) :- r(X)
    vc(Y) :- s(Y)
    vd(Y) :- s(Y)
  )");
  CoreCoverOptions options;
  options.group_views = false;
  options.group_view_tuples = false;
  options.verify_rewritings = true;
  const auto result = CoreCover(q, views, options);
  EXPECT_EQ(result.stats.minimum_cover_size, 2u);
  EXPECT_EQ(result.rewritings.size(), 4u);
}

TEST(CoreCoverTest, GroupedTuplesReportClassMetadata) {
  const auto q = MustParseQuery("q(X,Y) :- r(X), s(Y)");
  const auto views = MustParseProgram(R"(
    va(X) :- r(X)
    vb(X) :- r(X)
    vc(Y) :- s(Y)
  )");
  CoreCoverOptions options;
  options.group_views = false;  // Keep both r-views.
  const auto result = CoreCover(q, views, options);
  EXPECT_EQ(result.stats.num_view_tuples, 3u);
  EXPECT_EQ(result.stats.num_tuple_classes, 2u);
  size_t representatives = 0;
  for (const auto& t : result.view_tuples) {
    representatives += t.is_class_representative ? 1 : 0;
  }
  EXPECT_EQ(representatives, 2u);
  // One rewriting per class-representative cover.
  EXPECT_EQ(result.rewritings.size(), 1u);
}

TEST(CoreCoverStarTest, CarLocPartMinimalRewritings) {
  // Minimal covers over tuple classes: {v4} and {v1, v2}. (P3's filter v3
  // is an *addition*, reported separately, not a minimal cover.)
  const auto result =
      CoreCoverStar(CarLocPartQuery(), CarLocPartViews(), Verifying());
  std::set<std::string> texts;
  for (const auto& r : result.rewritings) texts.insert(r.ToString());
  EXPECT_EQ(texts, (std::set<std::string>{
                       "q1(S,C) :- v4(M,a,C,S)",
                       "q1(S,C) :- v1(M,a,C), v2(S,M,C)"}));
  EXPECT_EQ(result.stats.minimum_cover_size, 1u);
}

TEST(CoreCoverStarTest, EveryMinimalRewritingVerifies) {
  const auto q = MustParseQuery(
      "q(X,Y) :- a1(X,Z1), b1(Z1,Y), a2(X,Z2), b2(Z2,Y)");
  const auto views = MustParseProgram(R"(
    v(X,Y) :- a1(X,Z1), b1(Z1,Y), a2(X,Z2), b2(Z2,Y)
    v1(X,Y) :- a1(X,Z1), b1(Z1,Y)
    v2(X,Y) :- a2(X,Z2), b2(Z2,Y)
  )");
  const auto result = CoreCoverStar(q, views, Verifying());
  // {v} and {v1,v2} are the minimal covers.
  EXPECT_EQ(result.rewritings.size(), 2u);
}

TEST(CoreCoverTest, StatsTimingsArePopulated) {
  const auto result = CoreCover(CarLocPartQuery(), CarLocPartViews());
  EXPECT_GE(result.stats.total_ms, 0.0);
  EXPECT_GE(result.stats.minimize_ms, 0.0);
}

TEST(CoreCoverDeathTest, UnsafeQueryAborts) {
  const auto q = MustParseQuery("q(X,Y) :- r(X,X)");
  EXPECT_DEATH(CoreCover(q, {}), "safe");
}

// A cap of 0 is a broken precondition, not a search that found nothing: it
// must not abort deep in the set cover (CoreCover) or report a rewritable
// query as having no rewriting (CoreCoverStar).
TEST(CoreCoverDeathTest, ZeroRewritingCapAborts) {
  CoreCoverOptions options;
  options.max_rewritings = 0;
  EXPECT_DEATH(CoreCover(CarLocPartQuery(), CarLocPartViews(), options),
               "max_rewritings >= 1");
  EXPECT_DEATH(CoreCoverStar(CarLocPartQuery(), CarLocPartViews(), options),
               "max_rewritings >= 1");
}

}  // namespace
}  // namespace vbr
