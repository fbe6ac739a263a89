// Randomized differential harness for the rewriting generators.
//
// A seeded generator produces star / chain / random conjunctive queries and
// view sets; every case runs CoreCover* against the MiniCon and Bucket
// baselines and checks
//   1. existence agreement: CoreCover finds a rewriting iff Bucket does
//      (MiniCon's disjoint-tiling restriction can miss rewritings that need
//      overlapping cores, so its check is one-sided: anything it finds,
//      CoreCover must find too);
//   2. expansion equivalence by certificate: every rewriting any generator
//      emits as equivalent must admit an EquivalenceCertificate whose
//      verification passes (certificate.h's direct, search-free re-check).
//
// Failing-seed replay: a failure message names the exact shape and seed and
// the environment variables to replay it. Set VBR_DIFF_SHAPE / VBR_DIFF_SEED
// and run the ReplayFromEnvironment test to re-execute that single case with
// the full structured trace of the CoreCover run dumped to stderr:
//
//   VBR_DIFF_SHAPE=chain VBR_DIFF_SEED=123 ./random_differential_test \
//       --gtest_filter='*ReplayFromEnvironment*'

#include <cstdio>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "baseline/bucket.h"
#include "baseline/minicon.h"
#include "common/budget.h"
#include "common/trace.h"
#include "cq/vbin_codec.h"
#include "planner/service.h"
#include "rewrite/certificate.h"
#include "rewrite/core_cover.h"
#include "rewrite/vbin_codec.h"
#include "workload/generator.h"

namespace vbr {
namespace {

// 5 blocks x kSeedsPerBlock seeds x 3 shapes = 510 cases.
constexpr size_t kBlocks = 5;
constexpr size_t kSeedsPerBlock = 34;

const char* ShapeName(QueryShape shape) {
  switch (shape) {
    case QueryShape::kStar:
      return "star";
    case QueryShape::kChain:
      return "chain";
    case QueryShape::kRandom:
      return "random";
  }
  return "?";
}

WorkloadConfig DiffConfig(QueryShape shape, uint64_t seed) {
  WorkloadConfig config;
  config.shape = shape;
  // 3-5 query subgoals over a small predicate pool keeps each case in the
  // low milliseconds while still producing nontrivial rewriting structure.
  config.num_query_subgoals = 3 + seed % 3;
  config.num_predicates = 4;
  config.num_views = 8;
  // A third of the seeds run without the coverage views so the harness also
  // exercises agreement on "no rewriting exists".
  config.ensure_rewriting_exists = (seed % 3 != 0);
  config.seed = seed;
  return config;
}

std::string ReplayHint(QueryShape shape, uint64_t seed) {
  return "replay with: VBR_DIFF_SHAPE=" + std::string(ShapeName(shape)) +
         " VBR_DIFF_SEED=" + std::to_string(seed) +
         " ./random_differential_test"
         " --gtest_filter='*ReplayFromEnvironment*'";
}

// Runs one differential case. On disagreement the case is re-run with a
// MemoryTraceSink attached and the failure message carries the span tree of
// the CoreCover run plus the replay command.
::testing::AssertionResult RunCase(QueryShape shape, uint64_t seed,
                                   TraceSink* trace) {
  const Workload w = GenerateWorkload(DiffConfig(shape, seed));
  CoreCoverOptions options;
  options.trace = TraceContext{trace, 0};
  const auto cc = CoreCoverStar(w.query, w.views, options);
  const std::string label = "[shape=" + std::string(ShapeName(shape)) +
                            " seed=" + std::to_string(seed) + "] ";
  if (!cc.ok()) {
    return ::testing::AssertionFailure()
           << label << "CoreCover rejected the query: " << cc.error << "\n"
           << ReplayHint(shape, seed);
  }

  const auto bucket = BucketAlgorithm(w.query, w.views, 64);
  if (cc.has_rewriting != !bucket.rewritings.empty()) {
    return ::testing::AssertionFailure()
           << label << "existence disagreement: CoreCover says "
           << (cc.has_rewriting ? "yes" : "no") << ", Bucket says "
           << (!bucket.rewritings.empty() ? "yes" : "no") << "\nquery: "
           << w.query.ToString() << "\n" << ReplayHint(shape, seed);
  }

  const auto minicon = MiniCon(w.query, w.views, 64);
  if (!minicon.equivalent_rewritings.empty() && !cc.has_rewriting) {
    return ::testing::AssertionFailure()
           << label << "MiniCon found an equivalent rewriting CoreCover "
           << "missed\nquery: " << w.query.ToString() << "\n"
           << ReplayHint(shape, seed);
  }

  // Expansion equivalence via certificates, for every generator's output.
  auto certify = [&](const ConjunctiveQuery& p, const char* source)
      -> ::testing::AssertionResult {
    const auto cert = CertifyEquivalentRewriting(p, w.query, w.views);
    if (!cert.has_value()) {
      return ::testing::AssertionFailure()
             << label << source << " rewriting failed certification: "
             << p.ToString() << "\n" << ReplayHint(shape, seed);
    }
    if (!VerifyCertificate(*cert, w.views)) {
      return ::testing::AssertionFailure()
             << label << source << " certificate failed verification: "
             << p.ToString() << "\n" << ReplayHint(shape, seed);
    }
    return ::testing::AssertionSuccess();
  };
  for (const auto& p : cc.rewritings) {
    if (auto r = certify(p, "CoreCover"); !r) return r;
  }
  for (const auto& p : minicon.equivalent_rewritings) {
    if (auto r = certify(p, "MiniCon"); !r) return r;
  }
  for (const auto& p : bucket.rewritings) {
    if (auto r = certify(p, "Bucket"); !r) return r;
  }
  return ::testing::AssertionSuccess();
}

// Budgeted phase: re-run a case under a work budget sized to bisect the
// governed run (half the measured total). Whatever the governed run returns
// — complete or budget-exhausted — every rewriting it emits must still
// certify under an UNGOVERNED check: partial results are allowed, wrong
// ones are not.
::testing::AssertionResult RunBudgetedCase(QueryShape shape, uint64_t seed) {
  const Workload w = GenerateWorkload(DiffConfig(shape, seed));
  const std::string label = "[budgeted shape=" +
                            std::string(ShapeName(shape)) +
                            " seed=" + std::to_string(seed) + "] ";

  // Measure the case's governed work, then halve it.
  uint64_t total_work = 0;
  {
    ResourceLimits generous;
    generous.work_limit = uint64_t{1} << 40;
    ResourceGovernor governor(generous);
    GovernorScope scope(&governor);
    const auto full = CoreCoverStar(w.query, w.views, {});
    if (!full.ok()) {
      return ::testing::AssertionFailure()
             << label << "generously-governed run failed: " << full.error
             << "\n" << ReplayHint(shape, seed);
    }
    total_work = full.stats.work_used;
  }
  if (total_work < 2) return ::testing::AssertionSuccess();

  ResourceLimits half;
  half.work_limit = total_work / 2;
  ResourceGovernor governor(half);
  GovernorScope scope(&governor);
  const auto cc = CoreCoverStar(w.query, w.views, {});
  if (cc.status != CoreCoverStatus::kOk &&
      cc.status != CoreCoverStatus::kBudgetExhausted) {
    return ::testing::AssertionFailure()
           << label << "unexpected status under budget: " << cc.error << "\n"
           << ReplayHint(shape, seed);
  }
  if (cc.status == CoreCoverStatus::kBudgetExhausted &&
      cc.exhaustion.kind == BudgetKind::kNone) {
    return ::testing::AssertionFailure()
           << label << "budget-exhausted result carries no exhaustion record"
           << "\n" << ReplayHint(shape, seed);
  }
  // Certify OUTSIDE the exhausted governor's scope.
  GovernorScope shield(nullptr);
  for (const auto& p : cc.rewritings) {
    const auto cert = CertifyEquivalentRewriting(p, w.query, w.views);
    if (!cert.has_value() || !VerifyCertificate(*cert, w.views)) {
      return ::testing::AssertionFailure()
             << label << "budget-exhausted rewriting failed certification: "
             << p.ToString() << " (status="
             << (cc.ok() ? "ok" : "budget exhausted") << ")\n"
             << ReplayHint(shape, seed);
    }
  }
  return ::testing::AssertionSuccess();
}

// Service-path phase: an UNLOADED PlanningService (one worker, empty queue,
// breaker at full service, no budgets) must be a pure pass-through — its
// response for every case is byte-identical to a direct ViewPlanner::Plan
// against an identically configured, equally fresh planner.
std::string PlanResultKey(const ViewPlanner::PlanResult& r) {
  std::string key = std::string(PlanStatusName(r.status)) + "|" +
                    (r.cache_hit ? "hit" : "miss") + "|" +
                    (r.degraded ? "degraded" : "full") + "|" +
                    std::to_string(static_cast<int>(r.exhaustion.kind)) + "|" +
                    r.exhaustion.site + "|" + r.error + "|";
  if (r.choice.has_value()) {
    key += r.choice->ToString() + "|" + r.choice->certificate.ToString();
  }
  return key;
}

::testing::AssertionResult RunServiceParityCase(QueryShape shape,
                                                uint64_t seed) {
  const Workload w = GenerateWorkload(DiffConfig(shape, seed));
  const std::string label = "[service shape=" + std::string(ShapeName(shape)) +
                            " seed=" + std::to_string(seed) + "] ";
  for (CostModel model : {CostModel::kM1, CostModel::kM2}) {
    ViewPlanner direct(w.views, Database{});
    const std::string expected = PlanResultKey(direct.Plan(w.query, model));

    ViewPlanner backing(w.views, Database{});
    PlanningService::Options options;
    options.num_workers = 1;
    PlanningService service(&backing, options);
    const auto response = service.Plan({w.query, {.model = model}});
    if (response.status != PlanningService::ServiceStatus::kOk) {
      return ::testing::AssertionFailure()
             << label << "unloaded service did not complete: "
             << PlanningService::ServiceStatusName(response.status) << " ("
             << response.error << ")\n" << ReplayHint(shape, seed);
    }
    if (response.service_level != 0 || response.attempts != 1 ||
        response.model_demoted || response.served_from_cache_only) {
      return ::testing::AssertionFailure()
             << label << "unloaded service took a degraded path (level="
             << response.service_level << " attempts=" << response.attempts
             << ")\n" << ReplayHint(shape, seed);
    }
    const std::string got = PlanResultKey(response.result);
    if (got != expected) {
      return ::testing::AssertionFailure()
             << label << "service result diverged from direct Plan\n"
             << "direct:  " << expected << "\nservice: " << got << "\n"
             << ReplayHint(shape, seed);
    }
  }
  return ::testing::AssertionSuccess();
}

// VBIN round-trip phase: every value the case produces — the query, the
// view set, every rewriting, every certificate — must decode back EQUAL
// from its VBIN encoding, and the decoded value must RE-ENCODE to the
// exact same bytes (decode∘encode is the identity on bytes, so archived
// corpora and snapshots are canonical).
::testing::AssertionResult RunVbinRoundTripCase(QueryShape shape,
                                                uint64_t seed) {
  const Workload w = GenerateWorkload(DiffConfig(shape, seed));
  const std::string label = "[vbin shape=" + std::string(ShapeName(shape)) +
                            " seed=" + std::to_string(seed) + "] ";

  auto fail = [&](const std::string& what) {
    return ::testing::AssertionFailure()
           << label << what << "\n" << ReplayHint(shape, seed);
  };

  auto check_query = [&](const ConjunctiveQuery& q, const char* source)
      -> ::testing::AssertionResult {
    const std::string bytes = EncodeQueryFile(q);
    ConjunctiveQuery back;
    const vbin::Status status = DecodeQueryFile(bytes, &back);
    if (!status.ok()) {
      return fail(std::string(source) + " failed to decode: " + status.error +
                  "\nquery: " + q.ToString());
    }
    if (back != q) {
      return fail(std::string(source) + " decoded unequal\nquery: " +
                  q.ToString() + "\ndecoded: " + back.ToString());
    }
    if (EncodeQueryFile(back) != bytes) {
      return fail(std::string(source) +
                  " re-encode is not byte-identical\nquery: " + q.ToString());
    }
    return ::testing::AssertionSuccess();
  };

  if (auto r = check_query(w.query, "query"); !r) return r;

  const std::string program_bytes = EncodeProgramFile(w.views);
  std::vector<ConjunctiveQuery> views_back;
  if (!DecodeProgramFile(program_bytes, &views_back).ok() ||
      views_back != w.views ||
      EncodeProgramFile(views_back) != program_bytes) {
    return fail("view set did not round-trip");
  }

  const auto cc = CoreCoverStar(w.query, w.views, {});
  if (!cc.ok()) return ::testing::AssertionSuccess();  // phase 1 covers this
  for (const auto& p : cc.rewritings) {
    if (auto r = check_query(p, "rewriting"); !r) return r;

    PlanRecord plan;
    plan.rewriting = p;
    const std::string plan_bytes = EncodePlanFile(plan);
    PlanRecord plan_back;
    if (!DecodePlanFile(plan_bytes, &plan_back).ok() || plan_back != plan ||
        EncodePlanFile(plan_back) != plan_bytes) {
      return fail("plan record did not round-trip: " + p.ToString());
    }

    const auto cert = CertifyEquivalentRewriting(p, w.query, w.views);
    if (!cert.has_value()) continue;  // phase 1 asserts certifiability
    const std::string cert_bytes = EncodeCertificateFile(*cert);
    EquivalenceCertificate cert_back;
    const vbin::Status status = DecodeCertificateFile(cert_bytes, &cert_back);
    if (!status.ok()) {
      return fail("certificate failed to decode: " + status.error);
    }
    if (EncodeCertificateFile(cert_back) != cert_bytes) {
      return fail("certificate re-encode is not byte-identical for " +
                  p.ToString());
    }
    // The decoded certificate must still verify: the substitutions came
    // through with their bindings intact.
    if (!VerifyCertificate(cert_back, w.views)) {
      return fail("decoded certificate failed verification for " +
                  p.ToString());
    }
  }
  return ::testing::AssertionSuccess();
}

// Indexed-candidate phase: CoreCover* with the candidate filter ON (the
// default) must be byte-identical — status, minimized core, rewritings,
// order — to a filter-OFF run of the same case. This is the differential
// harness's own lockdown of ISSUE 9's candidate stage; the dedicated
// view_index_equivalence_test covers the index/scan agreement and the
// threaded planner facade.
::testing::AssertionResult RunIndexedParityCase(QueryShape shape,
                                                uint64_t seed) {
  const Workload w = GenerateWorkload(DiffConfig(shape, seed));
  const std::string label = "[indexed shape=" + std::string(ShapeName(shape)) +
                            " seed=" + std::to_string(seed) + "] ";
  CoreCoverOptions off;
  off.use_view_index = false;
  const auto full = CoreCoverStar(w.query, w.views, off);
  const auto filtered = CoreCoverStar(w.query, w.views, {});
  if (full.status != filtered.status ||
      full.has_rewriting != filtered.has_rewriting ||
      EncodeQueryFile(full.minimized_query) !=
          EncodeQueryFile(filtered.minimized_query) ||
      EncodeProgramFile(full.rewritings) !=
          EncodeProgramFile(filtered.rewritings)) {
    return ::testing::AssertionFailure()
           << label << "candidate filter changed CoreCover* output\nquery: "
           << w.query.ToString() << "\n" << ReplayHint(shape, seed);
  }
  return ::testing::AssertionSuccess();
}

class RandomDifferentialTest : public ::testing::TestWithParam<size_t> {};

TEST_P(RandomDifferentialTest, GeneratorsAgreeAndCertify) {
  const size_t block = GetParam();
  for (size_t i = 0; i < kSeedsPerBlock; ++i) {
    const uint64_t seed = 1 + block * kSeedsPerBlock + i;
    for (QueryShape shape :
         {QueryShape::kStar, QueryShape::kChain, QueryShape::kRandom}) {
      // The fast path runs untraced; a failing case is re-run with the
      // trace sink attached so the failure message carries the span tree.
      auto result = RunCase(shape, seed, nullptr);
      if (!result) {
        MemoryTraceSink sink;
        result = RunCase(shape, seed, &sink);
        ADD_FAILURE() << result.message()
                      << "\n--- CoreCover trace of the failing case ---\n"
                      << sink.ToText();
      }
    }
  }
}

TEST_P(RandomDifferentialTest, BudgetExhaustedResultsStillCertify) {
  const size_t block = GetParam();
  for (size_t i = 0; i < kSeedsPerBlock; ++i) {
    const uint64_t seed = 1 + block * kSeedsPerBlock + i;
    for (QueryShape shape :
         {QueryShape::kStar, QueryShape::kChain, QueryShape::kRandom}) {
      EXPECT_TRUE(RunBudgetedCase(shape, seed));
    }
  }
}

TEST_P(RandomDifferentialTest, IndexedCandidatesMatchFullScan) {
  const size_t block = GetParam();
  for (size_t i = 0; i < kSeedsPerBlock; ++i) {
    const uint64_t seed = 1 + block * kSeedsPerBlock + i;
    for (QueryShape shape :
         {QueryShape::kStar, QueryShape::kChain, QueryShape::kRandom}) {
      EXPECT_TRUE(RunIndexedParityCase(shape, seed));
    }
  }
}

TEST_P(RandomDifferentialTest, VbinRoundTripIsIdentity) {
  const size_t block = GetParam();
  for (size_t i = 0; i < kSeedsPerBlock; ++i) {
    const uint64_t seed = 1 + block * kSeedsPerBlock + i;
    for (QueryShape shape :
         {QueryShape::kStar, QueryShape::kChain, QueryShape::kRandom}) {
      EXPECT_TRUE(RunVbinRoundTripCase(shape, seed));
    }
  }
}

TEST_P(RandomDifferentialTest, ServicePathMatchesDirectPlan) {
  const size_t block = GetParam();
  for (size_t i = 0; i < kSeedsPerBlock; ++i) {
    const uint64_t seed = 1 + block * kSeedsPerBlock + i;
    for (QueryShape shape :
         {QueryShape::kStar, QueryShape::kChain, QueryShape::kRandom}) {
      EXPECT_TRUE(RunServiceParityCase(shape, seed));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Blocks, RandomDifferentialTest,
                         ::testing::Range<size_t>(0, kBlocks));

// Replays one named case from the environment with the full trace on
// stderr; skipped when the variables are unset (the normal CI run).
TEST(RandomDifferentialReplayTest, ReplayFromEnvironment) {
  const char* seed_env = std::getenv("VBR_DIFF_SEED");
  if (seed_env == nullptr) {
    GTEST_SKIP() << "set VBR_DIFF_SHAPE and VBR_DIFF_SEED to replay a case";
  }
  const uint64_t seed = std::strtoull(seed_env, nullptr, 10);
  QueryShape shape = QueryShape::kStar;
  if (const char* shape_env = std::getenv("VBR_DIFF_SHAPE")) {
    const std::string s = shape_env;
    if (s == "chain") shape = QueryShape::kChain;
    if (s == "random") shape = QueryShape::kRandom;
  }
  MemoryTraceSink sink;
  const auto result = RunCase(shape, seed, &sink);
  std::fprintf(stderr, "--- trace [shape=%s seed=%llu] ---\n%s",
               ShapeName(shape), static_cast<unsigned long long>(seed),
               sink.ToText().c_str());
  EXPECT_TRUE(result);
}

}  // namespace
}  // namespace vbr
