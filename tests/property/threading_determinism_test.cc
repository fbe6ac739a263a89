// Determinism under concurrent requests (DESIGN.md "Threading model"): one
// CoreCover run executes on one thread, but service workers run many at
// once over the shared SymbolTable, ContainmentMemo and metrics registry.
// Every caller among 1, 2 or 8 concurrent ones must get exactly the
// rewritings, filter candidates, view-tuple annotations and stats counters
// (not timings) that a lone caller gets, across the star/chain workload
// generators.

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "rewrite/core_cover.h"
#include "workload/generator.h"

namespace vbr {
namespace {

const size_t kThreadCounts[] = {1, 2, 8};

struct Config {
  QueryShape shape;
  uint64_t seed;
  size_t nondistinguished;
};

class ThreadingDeterminismTest : public ::testing::TestWithParam<Config> {};

Workload MakeWorkload(const Config& config) {
  WorkloadConfig wc;
  wc.shape = config.shape;
  wc.num_query_subgoals = 6;
  wc.num_views = 30;
  wc.num_nondistinguished_query_vars = config.nondistinguished;
  wc.num_nondistinguished_view_vars = config.nondistinguished;
  wc.seed = config.seed;
  return GenerateWorkload(wc);
}

// Everything that must not depend on concurrent callers; wall-clock
// timings are excluded.
std::string Fingerprint(const CoreCoverResult& r) {
  std::string s = std::to_string(static_cast<int>(r.status)) + "|" +
                  std::to_string(r.has_rewriting) +
                  std::to_string(r.truncated) + "|" +
                  r.minimized_query.ToString() + "\n";
  for (const ConjunctiveQuery& rw : r.rewritings) s += rw.ToString() + "\n";
  for (size_t i : r.filter_candidates) s += std::to_string(i) + ",";
  for (const AnnotatedViewTuple& vt : r.view_tuples) {
    s += "\n" + vt.tuple.atom.ToString() + " view=" +
         std::to_string(vt.tuple.view_index) + " mask=" +
         std::to_string(vt.core.covered_mask) + " class=" +
         std::to_string(vt.class_id) +
         (vt.is_class_representative ? " rep" : "");
  }
  const CoreCoverStats& st = r.stats;
  for (size_t counter :
       {st.num_views, st.num_view_classes, st.num_view_tuples,
        st.num_tuple_classes, st.num_nonempty_cores, st.minimum_cover_size}) {
    s += "|" + std::to_string(counter);
  }
  return s;
}

// Runs `run` from 1, 2 and 8 concurrent callers; each caller must get the
// lone caller's result.
void ExpectConcurrentCallersAgree(const std::function<CoreCoverResult()>& run) {
  const std::string lone = Fingerprint(run());
  for (size_t threads : kThreadCounts) {
    std::vector<std::string> got(threads);
    std::vector<std::thread> callers;
    for (size_t t = 0; t < threads; ++t) {
      callers.emplace_back([&, t] { got[t] = Fingerprint(run()); });
    }
    for (std::thread& caller : callers) caller.join();
    for (size_t t = 0; t < threads; ++t) {
      EXPECT_EQ(got[t], lone) << "callers=" << threads << " caller " << t;
    }
  }
}

TEST_P(ThreadingDeterminismTest, CoreCoverMatchesSerialAtEveryThreadCount) {
  const Workload w = MakeWorkload(GetParam());
  CoreCoverOptions options;
  options.verify_rewritings = true;  // Exercise the verify stage too.
  ExpectConcurrentCallersAgree(
      [&] { return CoreCover(w.query, w.views, options); });
}

TEST_P(ThreadingDeterminismTest, CoreCoverStarMatchesSerialAtEveryThreadCount) {
  const Workload w = MakeWorkload(GetParam());
  CoreCoverOptions options;
  options.max_rewritings = 64;  // Small cap: truncation must also agree.
  ExpectConcurrentCallersAgree(
      [&] { return CoreCoverStar(w.query, w.views, options); });
}

TEST_P(ThreadingDeterminismTest, UngroupedPipelineAlsoDeterministic) {
  // Grouping off maximizes the number of tuple-cores and cover candidates.
  const Workload w = MakeWorkload(GetParam());
  CoreCoverOptions options;
  options.group_views = false;
  options.group_view_tuples = false;
  options.max_rewritings = 32;
  ExpectConcurrentCallersAgree(
      [&] { return CoreCover(w.query, w.views, options); });
}

std::vector<Config> AllConfigs() {
  std::vector<Config> configs;
  for (const QueryShape shape : {QueryShape::kStar, QueryShape::kChain}) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      for (size_t nondist : {size_t{0}, size_t{1}}) {
        configs.push_back({shape, seed, nondist});
      }
    }
  }
  return configs;
}

std::string ConfigName(const ::testing::TestParamInfo<Config>& info) {
  return std::string(info.param.shape == QueryShape::kStar ? "star" : "chain") +
         "_seed" + std::to_string(info.param.seed) + "_nd" +
         std::to_string(info.param.nondistinguished);
}

INSTANTIATE_TEST_SUITE_P(Workloads, ThreadingDeterminismTest,
                         ::testing::ValuesIn(AllConfigs()), ConfigName);

}  // namespace
}  // namespace vbr
