// Cross-validation of the three rewriting generators (DESIGN.md invariant
// 2): on random workloads CoreCover, the naive enumerator, the Bucket
// algorithm, and MiniCon must agree on whether an equivalent rewriting
// exists, and every rewriting any of them emits must verify.

#include <gtest/gtest.h>

#include <string>

#include "baseline/bucket.h"
#include "baseline/minicon.h"
#include "baseline/naive_enum.h"
#include "cq/parser.h"
#include "rewrite/core_cover.h"
#include "rewrite/rewriting.h"
#include "workload/generator.h"

namespace vbr {
namespace {

class BaselineAgreementTest : public ::testing::TestWithParam<uint64_t> {};

WorkloadConfig SmallConfig(uint64_t seed) {
  WorkloadConfig config;
  config.shape = (seed % 2 == 0) ? QueryShape::kStar : QueryShape::kChain;
  config.num_query_subgoals = 4;
  config.num_predicates = 4;
  config.num_views = 8;
  // Half the seeds run without the safety net so "no rewriting" cases are
  // exercised too.
  config.ensure_rewriting_exists = (seed % 3 != 0);
  config.seed = seed;
  return config;
}

TEST_P(BaselineAgreementTest, ExistenceAgreement) {
  const Workload w = GenerateWorkload(SmallConfig(GetParam()));
  const auto cc = CoreCover(w.query, w.views);
  const auto naive = NaiveEnumerateGmrs(w.query, w.views);
  const auto bucket = BucketAlgorithm(w.query, w.views);
  EXPECT_EQ(cc.has_rewriting, naive.has_rewriting);
  EXPECT_EQ(cc.has_rewriting, !bucket.rewritings.empty());
  // MiniCon restricted to disjoint tilings may miss rewritings that need
  // overlapping cores, so only the one-sided check holds.
  const auto minicon = MiniCon(w.query, w.views);
  if (!minicon.equivalent_rewritings.empty()) {
    EXPECT_TRUE(cc.has_rewriting);
  }
}

TEST_P(BaselineAgreementTest, EveryEmittedRewritingVerifies) {
  const Workload w = GenerateWorkload(SmallConfig(GetParam()));
  const auto naive = NaiveEnumerateGmrs(w.query, w.views);
  for (const auto& p : naive.rewritings) {
    EXPECT_TRUE(IsEquivalentRewriting(p, w.query, w.views)) << p.ToString();
  }
  const auto bucket = BucketAlgorithm(w.query, w.views, 64);
  for (const auto& p : bucket.rewritings) {
    EXPECT_TRUE(IsEquivalentRewriting(p, w.query, w.views)) << p.ToString();
  }
  const auto minicon = MiniCon(w.query, w.views, 64);
  for (const auto& p : minicon.equivalent_rewritings) {
    EXPECT_TRUE(IsEquivalentRewriting(p, w.query, w.views)) << p.ToString();
  }
  for (const auto& p : minicon.contained_rewritings) {
    EXPECT_TRUE(ExpansionContainedInQuery(p, w.query, w.views))
        << p.ToString();
  }
}

TEST_P(BaselineAgreementTest, BucketFindsNoSmallerRewritingThanCoreCover) {
  const Workload w = GenerateWorkload(SmallConfig(GetParam()));
  const auto cc = CoreCover(w.query, w.views);
  if (!cc.has_rewriting) return;
  const auto bucket = BucketAlgorithm(w.query, w.views, 256);
  for (const auto& p : bucket.rewritings) {
    EXPECT_GE(p.num_subgoals(), cc.stats.minimum_cover_size) << p.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineAgreementTest,
                         ::testing::Range<uint64_t>(1, 25));

// Self-join chains q(X0,Xn) :- e(X0,X1), ..., e(Xn-1,Xn) over the single
// edge view: the rewriting is the chain of view atoms, which MiniCon finds.
// CoreCover and CoreCover* must find it too, and only genuine rewritings.
TEST(SelfJoinAgreementTest, EdgeChainsAgreeWithMiniCon) {
  const ViewSet views = MustParseProgram("v(A,B) :- e(A,B).");
  for (int n = 2; n <= 12; ++n) {
    std::string text = "q(X0,X" + std::to_string(n) + ") :- ";
    for (int i = 0; i < n; ++i) {
      if (i > 0) text += ", ";
      text += "e(X" + std::to_string(i) + ",X" + std::to_string(i + 1) + ")";
    }
    const ConjunctiveQuery query = MustParseQuery(text);
    const bool minicon = !MiniCon(query, views).equivalent_rewritings.empty();
    EXPECT_TRUE(minicon) << text;
    for (const auto& result :
         {CoreCover(query, views), CoreCoverStar(query, views)}) {
      EXPECT_EQ(result.has_rewriting, minicon) << text;
      for (const auto& p : result.rewritings) {
        EXPECT_TRUE(IsEquivalentRewriting(p, query, views)) << p.ToString();
      }
    }
  }
}

// A tuple-core that equates query variables would let CoreCover emit the
// non-equivalent q(X0,X1) :- v0(X1), v2(X4,X1), v2(X0,X0) here.
TEST(SelfJoinAgreementTest, CoreCoverEmitsOnlyEquivalentRewritings) {
  const auto program = MustParseProgram(
      "q(X0,X1) :- e(X3,X3), e(X1,X4), e(X4,X2), e(X0,X0). "
      "v0(A2) :- e(A2,A3). v1(A2) :- e(A2,A1). v2(A2,A3) :- e(A3,A2).");
  const ConjunctiveQuery query = program[0];
  const ViewSet views(program.begin() + 1, program.end());
  for (const auto& result :
       {CoreCover(query, views), CoreCoverStar(query, views)}) {
    EXPECT_TRUE(result.has_rewriting);
    for (const auto& p : result.rewritings) {
      EXPECT_TRUE(IsEquivalentRewriting(p, query, views)) << p.ToString();
    }
  }
}

}  // namespace
}  // namespace vbr
