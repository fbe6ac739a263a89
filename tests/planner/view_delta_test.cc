// Delta-mutation tests for ViewPlanner::AddViews / RemoveViews and the
// plan cache's delta-fence reconciliation (plan_cache.h "Delta epoch"),
// plus the order-independent view-set fingerprint that lets snapshots
// warm-start a delta-built catalog.
//
// The adversarial cases ISSUE 9 names:
//   - a removed view sat in the winning rewriting (its cached plan MUST
//     be invalidated, and the replan must not mention it);
//   - an added view improves the best cost (the cached, now-stale plan
//     MUST be invalidated so the cheaper plan is found);
//   - a delta that cannot affect a cached query (its entry MUST keep
//     serving hits — that is the whole point of fences over epoch bumps);
//   - deltas racing an in-flight PlanMany (RCU: results must stay
//     internally consistent, never torn across catalogs);
//   - the delta epoch round-trips through SaveSnapshot/LoadSnapshot, and
//     a delta-built catalog fingerprints identically to the same set
//     handed wholesale to a fresh planner, in any order;
//   - an added view may not reuse a head name: expansion would keep the
//     old definition while the instance is replaced, so plans would read
//     the wrong relation. AddViews aborts instead.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cq/parser.h"
#include "cq/vbin_codec.h"
#include "engine/database.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
#include "planner/snapshot.h"

namespace vbr {
namespace {

// q(X,Z) :- r(X,Y), s(Y,Z), with single-subgoal views over r and s and
// (added later) a two-subgoal view that rewrites q in one subgoal.
ConjunctiveQuery TestQuery() {
  return MustParseQuery("q(X,Z) :- r(X,Y), s(Y,Z)");
}

ViewSet BaseViews() {
  return {MustParseQuery("w1(X,Y) :- r(X,Y)"),
          MustParseQuery("w2(Y,Z) :- s(Y,Z)")};
}

View BetterView() {
  return MustParseQuery("w3(X,Y,Z) :- r(X,Y), s(Y,Z)");
}

View IrrelevantView(const std::string& name) {
  return MustParseQuery(name + "(A,B) :- t(A,B)");
}

std::string LogicalBytes(const ViewPlanner::PlanResult& r) {
  return r.choice.has_value() ? EncodeQueryFile(r.choice->logical) : "";
}

TEST(ViewDeltaDeathTest, AddViewsRejectsAHeadAlreadyInTheCatalog) {
  ViewPlanner planner({MustParseQuery("v0(A) :- e(A,B)")}, Database{});
  EXPECT_DEATH(
      planner.AddViews({MustParseQuery("v0(A) :- f(A,B)")}, Database{}),
      "already in the catalog");
}

TEST(ViewDeltaDeathTest, AddViewsRejectsAHeadRepeatedWithinTheBatch) {
  ViewPlanner planner(BaseViews(), Database{});
  EXPECT_DEATH(planner.AddViews({MustParseQuery("v1(A) :- f(A,B)"),
                                 MustParseQuery("v1(A) :- e(A,B)")},
                                Database{}),
               "repeated within the added views");
}

// An instance relation merges over any relation of the same name, so one
// that names a cataloged view would swap that view's instance without a
// fence.
TEST(ViewDeltaDeathTest, AddViewsRejectsAnInstanceNamingNoAddedView) {
  ViewPlanner planner({MustParseQuery("v0(A) :- e(A,B)")}, Database{});
  Database instances;
  instances.AddRow("v0", {1});
  EXPECT_DEATH(
      planner.AddViews({MustParseQuery("w1(A) :- f(A,B)")}, instances),
      "instance relation names no added view");
}

TEST(ViewDeltaDeathTest, ConstructorRejectsAHeadNamingTwoViews) {
  EXPECT_DEATH(ViewPlanner({MustParseQuery("v0(A) :- e(A,B)"),
                            MustParseQuery("v0(A) :- f(A,B)")},
                           Database{}),
               "repeated within the added views");
}

TEST(ViewDeltaDeathTest, ReplaceViewsRejectsAHeadNamingTwoViews) {
  ViewPlanner planner(BaseViews(), Database{});
  EXPECT_DEATH(planner.ReplaceViews({MustParseQuery("v0(A) :- e(A,B)"),
                                     MustParseQuery("v0(A) :- f(A,B)")},
                                    Database{}),
               "repeated within the added views");
}

TEST(ViewDeltaTest, AddedViewImprovesTheCachedPlan) {
  ViewPlanner planner(BaseViews(), Database{});
  const auto before = planner.Plan(TestQuery(), CostModel::kM1);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.choice->cost, 2u);  // w1 join w2
  EXPECT_EQ(planner.delta_epoch(), 0u);

  planner.AddViews({BetterView()}, Database{});
  EXPECT_EQ(planner.delta_epoch(), 1u);
  EXPECT_EQ(planner.views().size(), 3u);

  // The stale 2-subgoal plan must NOT be served from the cache: w3's body
  // predicates are a subset of the query's, so the fence invalidates it.
  const auto after = planner.Plan(TestQuery(), CostModel::kM1);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.choice->cost, 1u);  // single w3 subgoal
}

TEST(ViewDeltaTest, RemovedWinningViewInvalidatesItsPlan) {
  ViewSet views = BaseViews();
  views.push_back(BetterView());
  ViewPlanner planner(views, Database{});
  const auto before = planner.Plan(TestQuery(), CostModel::kM1);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.choice->cost, 1u);  // w3 wins

  EXPECT_EQ(planner.RemoveViews({"w3"}), 1u);
  EXPECT_EQ(planner.delta_epoch(), 1u);
  EXPECT_EQ(planner.views().size(), 2u);

  const auto after = planner.Plan(TestQuery(), CostModel::kM1);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.choice->cost, 2u);
  // The replanned rewriting must not mention the dropped view.
  EXPECT_EQ(after.choice->logical.ToString().find("w3"), std::string::npos);
}

TEST(ViewDeltaTest, IrrelevantDeltaKeepsServingCacheHits) {
  ViewPlanner planner(BaseViews(), Database{});
  const auto before = planner.Plan(TestQuery(), CostModel::kM1);
  ASSERT_TRUE(before.ok());

  // t(A,B) shares no predicate with q: the fence must NOT invalidate.
  planner.AddViews({IrrelevantView("w9")}, Database{});
  EXPECT_EQ(planner.delta_epoch(), 1u);
  const auto after = planner.Plan(TestQuery(), CostModel::kM1);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.cache_hit);
  EXPECT_EQ(LogicalBytes(after), LogicalBytes(before));

  // Removing the irrelevant view again is equally invisible.
  EXPECT_EQ(planner.RemoveViews({"w9"}), 1u);
  const auto again = planner.Plan(TestQuery(), CostModel::kM1);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.cache_hit);
}

TEST(ViewDeltaTest, UnknownNamesAreIgnoredWithoutAFence) {
  ViewPlanner planner(BaseViews(), Database{});
  EXPECT_EQ(planner.RemoveViews({"nope", "w17"}), 0u);
  // No catalog change: no delta fence, no epoch movement.
  EXPECT_EQ(planner.delta_epoch(), 0u);
  EXPECT_EQ(planner.views().size(), 2u);
  // Mixed known/unknown removes exactly the known one.
  EXPECT_EQ(planner.RemoveViews({"nope", "w2"}), 1u);
  EXPECT_EQ(planner.delta_epoch(), 1u);
  EXPECT_EQ(planner.views().size(), 1u);
}

TEST(ViewDeltaTest, DeltasRacingPlanManyStayConsistent) {
  ViewPlanner planner(BaseViews(), Database{});
  const std::vector<ConjunctiveQuery> batch(8, TestQuery());

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    int i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      planner.AddViews({BetterView()}, Database{});
      planner.RemoveViews({"w3"});
      planner.AddViews({IrrelevantView("x" + std::to_string(i++))},
                       Database{});
    }
  });

  for (int round = 0; round < 40; ++round) {
    const auto results = planner.PlanMany(batch, {.model = CostModel::kM1});
    ASSERT_EQ(results.size(), batch.size());
    for (const auto& r : results) {
      // Whatever catalog generation each request pinned, the plan is one
      // of the two valid answers — never torn, never missing.
      ASSERT_TRUE(r.ok()) << PlanStatusName(r.status) << " " << r.error;
      EXPECT_TRUE(r.choice->cost == 1u || r.choice->cost == 2u);
    }
  }
  stop.store(true, std::memory_order_release);
  mutator.join();
}

// -- Fingerprint order-independence -----------------------------------------

TEST(ViewDeltaTest, FingerprintIsOrderIndependentAndSetSensitive) {
  ViewSet views = BaseViews();
  views.push_back(BetterView());
  ViewSet reversed(views.rbegin(), views.rend());
  ViewSet rotated = {views[1], views[2], views[0]};
  const uint64_t fp = ViewSetFingerprint(views);
  EXPECT_EQ(fp, ViewSetFingerprint(reversed));
  EXPECT_EQ(fp, ViewSetFingerprint(rotated));
  // Different SETS still differ.
  EXPECT_NE(fp, ViewSetFingerprint(BaseViews()));
  EXPECT_NE(ViewSetFingerprint({}), ViewSetFingerprint(BaseViews()));
  ViewSet duplicated = views;
  duplicated.push_back(views[0]);
  EXPECT_NE(fp, ViewSetFingerprint(duplicated));
}

TEST(ViewDeltaTest, DeltaBuiltCatalogFingerprintsLikeWholesale) {
  // Build {w1,w2,w3} three ways; all must fingerprint identically.
  ViewPlanner by_delta(BaseViews(), Database{});
  by_delta.AddViews({IrrelevantView("tmp")}, Database{});
  by_delta.AddViews({BetterView()}, Database{});
  EXPECT_EQ(by_delta.RemoveViews({"tmp"}), 1u);

  ViewSet wholesale = BaseViews();
  wholesale.push_back(BetterView());
  ViewSet reordered = {BetterView(), BaseViews()[1], BaseViews()[0]};

  const uint64_t fp = ViewSetFingerprint(by_delta.snapshot()->views);
  EXPECT_EQ(fp, ViewSetFingerprint(wholesale));
  EXPECT_EQ(fp, ViewSetFingerprint(reordered));
}

// -- Snapshot round-trip -----------------------------------------------------

TEST(ViewDeltaTest, SnapshotCodecRoundTripsTheDeltaEpoch) {
  PlanCacheSnapshot snap;
  snap.view_fingerprint = 41;
  snap.view_count = 2;
  snap.delta_epoch = 7;
  PlanCacheSnapshot back;
  ASSERT_TRUE(DecodeSnapshotBytes(EncodeSnapshotBytes(snap), &back).ok());
  EXPECT_EQ(back.delta_epoch, 7u);
  // The pre-delta layout still decodes — at delta epoch 0.
  PlanCacheSnapshot v2;
  ASSERT_TRUE(
      DecodeSnapshotBytes(EncodeSnapshotBytes(snap, /*body_version=*/2), &v2)
          .ok());
  EXPECT_EQ(v2.delta_epoch, 0u);
  EXPECT_EQ(v2.view_fingerprint, 41u);
}

TEST(ViewDeltaTest, SnapshotWarmStartsADeltaBuiltCatalog) {
  const std::string path = ::testing::TempDir() + "/view_delta_snapshot.vbin";

  ViewPlanner saver(BaseViews(), Database{});
  saver.AddViews({BetterView()}, Database{});
  ASSERT_EQ(saver.delta_epoch(), 1u);
  const auto planned = saver.Plan(TestQuery(), CostModel::kM1);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(planned.choice->cost, 1u);
  ASSERT_TRUE(saver.SaveSnapshot(path).ok());

  // The loader gets the same SET wholesale, in a different order: the
  // order-independent fingerprint must accept it, the delta epoch must
  // fast-forward, and the first Plan must be a byte-identical hit.
  ViewSet reordered = {BetterView(), BaseViews()[0], BaseViews()[1]};
  ViewPlanner loader(reordered, Database{});
  const SnapshotLoadResult load = loader.LoadSnapshot(path);
  ASSERT_TRUE(load.ok()) << load.status.error;
  EXPECT_TRUE(load.compatible);
  EXPECT_EQ(load.entries_loaded, 1u);
  EXPECT_EQ(loader.delta_epoch(), 1u);

  const auto warm = loader.Plan(TestQuery(), CostModel::kM1);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(LogicalBytes(warm), LogicalBytes(planned));

  // Deltas continue PAST the restored epoch on one shared timeline.
  loader.AddViews({IrrelevantView("w9")}, Database{});
  EXPECT_EQ(loader.delta_epoch(), 2u);
  const auto still_warm = loader.Plan(TestQuery(), CostModel::kM1);
  ASSERT_TRUE(still_warm.ok());
  EXPECT_TRUE(still_warm.cache_hit);
}

}  // namespace
}  // namespace vbr
