// Persistence-layer tests (planner/snapshot.h): plan-cache snapshot
// warm-start, version skew, corruption handling, view-set fingerprints,
// and the binary request log (writer, parser, torn tails, and the
// PlanningService logging hook).
//
// The central warm-start contract: plan, SaveSnapshot, construct a FRESH
// planner over the same views, LoadSnapshot — and the very first Plan()
// of every snapshotted query is a cache hit whose logical plan and
// certificate are byte-identical (under the VBIN codecs) to what the
// pre-restart planner served on ITS hit path.
#include "planner/snapshot.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cq/parser.h"
#include "cq/vbin_codec.h"
#include "engine/materialize.h"
#include "planner/plan_cache.h"
#include "planner/planner.h"
#include "planner/service.h"
#include "rewrite/certificate.h"
#include "rewrite/vbin_codec.h"
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
  for (Value i = 0; i < 60; ++i) {
    db.AddRow("part", {1000 + i, i % 25, 100 + (i % 10)});
  }
  return db;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// The byte-level identity of one served plan: the logical rewriting and
// the certificate, both under their VBIN codecs. Two results with equal
// identities are the same plan on the wire and on disk.
struct PlanIdentity {
  std::string status;
  std::string logical;
  std::string certificate;

  friend bool operator==(const PlanIdentity&, const PlanIdentity&) = default;
};

PlanIdentity IdentityOf(const ViewPlanner::PlanResult& result) {
  PlanIdentity id;
  id.status = PlanStatusName(result.status);
  if (result.ok()) {
    id.logical = EncodeQueryFile(result.choice->logical);
    id.certificate = EncodeCertificateFile(result.choice->certificate);
  }
  return id;
}

// One workload the snapshot tests share: the car/loc/part fixture plus a
// second query over the same predicates, planned under several models.
struct SnapshotCase {
  ConjunctiveQuery query;
  CostModel model = CostModel::kM2;
};

std::vector<SnapshotCase> SnapshotCases() {
  return {
      {CarLocPartQuery(), CostModel::kM1},
      {CarLocPartQuery(), CostModel::kM2},
      {CarLocPartQuery(), CostModel::kM3},
      {MustParseQuery("q2(M,C) :- car(M,D), loc(D,C)."), CostModel::kM2},
  };
}

TEST(SnapshotTest, WarmStartServesByteIdenticalPlansFromRequestOne) {
  const ViewSet views = CarLocPartViews();
  const Database instances = MaterializeViews(views, CarLocPartBase());
  const std::vector<SnapshotCase> cases = SnapshotCases();

  // Pre-restart planner: one cold run per case, then one HIT run per case
  // — the hit-path results are what a warm restart must reproduce.
  ViewPlanner before(views, instances);
  std::vector<PlanIdentity> hit_identities;
  for (const SnapshotCase& c : cases) {
    const auto cold = before.Plan(c.query, c.model);
    ASSERT_TRUE(cold.ok()) << cold.error;
    const auto hit = before.Plan(c.query, c.model);
    ASSERT_TRUE(hit.cache_hit);
    hit_identities.push_back(IdentityOf(hit));
  }

  const std::string path = TempPath("warm_start.vbin");
  ASSERT_TRUE(before.SaveSnapshot(path).ok());

  // "Restart": a fresh planner over the same views and instances.
  ViewPlanner after(views, instances);
  const SnapshotLoadResult load = after.LoadSnapshot(path);
  ASSERT_TRUE(load.ok()) << load.status.error;
  EXPECT_TRUE(load.compatible);
  EXPECT_GT(load.entries_loaded, 0u);

  for (size_t i = 0; i < cases.size(); ++i) {
    const auto warm = after.Plan(cases[i].query, cases[i].model);
    EXPECT_TRUE(warm.cache_hit)
        << "case " << i << " missed the warmed cache";
    ASSERT_TRUE(warm.ok()) << warm.error;
    EXPECT_TRUE(IdentityOf(warm) == hit_identities[i])
        << "case " << i << " plan differs after restart";
    std::string error;
    EXPECT_TRUE(VerifyCertificate(warm.choice->certificate, views, &error))
        << error;
  }
  // Cache-warm from request one: every post-restart request was a hit.
  const PlanCacheCounters counters = after.cache_counters();
  EXPECT_EQ(counters.misses, 0u);
  EXPECT_EQ(counters.hits, cases.size());
  std::remove(path.c_str());
}

TEST(SnapshotTest, NegativeOutcomesAreSnapshottedToo) {
  // A query with no rewriting over these views: the cached kNoRewriting
  // entry must survive the round trip so the warm planner skips the
  // (expensive) search for known-unanswerable queries as well.
  const ViewSet views = MustParseProgram("v1(X,Y) :- e(X,Y).");
  const Database instances = MaterializeViews(views, Database());
  const ConjunctiveQuery unanswerable =
      MustParseQuery("q(X) :- f(X,Y).");

  ViewPlanner before(views, instances);
  const auto cold = before.Plan(unanswerable, CostModel::kM2);
  EXPECT_EQ(cold.status, PlanStatus::kNoRewriting);

  const std::string path = TempPath("negative.vbin");
  ASSERT_TRUE(before.SaveSnapshot(path).ok());

  ViewPlanner after(views, instances);
  ASSERT_TRUE(after.LoadSnapshot(path).ok());
  const auto warm = after.Plan(unanswerable, CostModel::kM2);
  EXPECT_EQ(warm.status, PlanStatus::kNoRewriting);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(after.cache_counters().misses, 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, OlderBodyVersionLoadsWithoutCertificates) {
  const ViewSet views = CarLocPartViews();
  const Database instances = MaterializeViews(views, CarLocPartBase());
  ViewPlanner before(views, instances);
  ASSERT_TRUE(before.Plan(CarLocPartQuery(), CostModel::kM2).ok());

  const std::string path = TempPath("skew.vbin");
  ASSERT_TRUE(before.SaveSnapshot(path).ok());

  // Re-encode the saved snapshot in the version-1 (certificate-free)
  // layout — the rollback format an older writer would have produced.
  std::string bytes;
  ASSERT_TRUE(vbin::ReadWholeFile(path, &bytes).ok());
  PlanCacheSnapshot snap;
  ASSERT_TRUE(DecodeSnapshotBytes(bytes, &snap).ok());
  const std::string v1_bytes = EncodeSnapshotBytes(snap, /*body_version=*/1);
  ASSERT_TRUE(vbin::WriteFileAtomic(path, v1_bytes).ok());

  ViewPlanner after(views, instances);
  const SnapshotLoadResult load = after.LoadSnapshot(path);
  ASSERT_TRUE(load.ok()) << load.status.error;
  EXPECT_TRUE(load.compatible);
  EXPECT_GT(load.entries_loaded, 0u);

  // The hit still serves, and its certificate re-derives lazily exactly
  // like a fresh planner's would.
  const auto warm = after.Plan(CarLocPartQuery(), CostModel::kM2);
  ASSERT_TRUE(warm.ok()) << warm.error;
  EXPECT_TRUE(warm.cache_hit);
  std::string error;
  EXPECT_TRUE(VerifyCertificate(warm.choice->certificate, views, &error))
      << error;
  std::remove(path.c_str());
}

// testdata/retired_stats_slots.vbin was saved by the planner before
// intra-query parallelism was removed, after a cold and a hit run of each
// SnapshotCases() entry: its five retired CoreCoverStats slots hold that
// run's per-stage task counts and threads_used = 4. It must still load,
// and its first hits must be the plans a current planner serves on its
// own hit path.
TEST(SnapshotTest, RetiredStatsSlotsStillWarmStart) {
  const std::string path =
      std::string(VBR_TESTDATA_DIR) + "/retired_stats_slots.vbin";
  const ViewSet views = CarLocPartViews();
  const Database instances = MaterializeViews(views, CarLocPartBase());
  const std::vector<SnapshotCase> cases = SnapshotCases();

  ViewPlanner fresh(views, instances);
  std::vector<PlanIdentity> hit_identities;
  for (const SnapshotCase& c : cases) {
    ASSERT_TRUE(fresh.Plan(c.query, c.model).ok());
    hit_identities.push_back(IdentityOf(fresh.Plan(c.query, c.model)));
  }

  ViewPlanner after(views, instances);
  const SnapshotLoadResult load = after.LoadSnapshot(path);
  ASSERT_TRUE(load.ok()) << load.status.error;
  EXPECT_TRUE(load.compatible);
  EXPECT_EQ(load.entries_loaded, cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    const auto warm = after.Plan(cases[i].query, cases[i].model);
    EXPECT_TRUE(warm.cache_hit) << "case " << i;
    EXPECT_TRUE(IdentityOf(warm) == hit_identities[i]) << "case " << i;
  }

  // The slots really are nonzero: re-encoding the decoded file writes them
  // as 0 and so changes its bytes, not its size.
  std::string bytes;
  ASSERT_TRUE(vbin::ReadWholeFile(path, &bytes).ok());
  PlanCacheSnapshot snap;
  ASSERT_TRUE(DecodeSnapshotBytes(bytes, &snap).ok());
  const std::string reencoded = EncodeSnapshotBytes(snap);
  EXPECT_EQ(reencoded.size(), bytes.size());
  EXPECT_NE(reencoded, bytes);
}

TEST(SnapshotTest, NewerBodyVersionIsRejectedCleanly) {
  PlanCacheSnapshot snap;  // content irrelevant: version gates first
  const std::string bytes =
      EncodeSnapshotBytes(snap, kSnapshotBodyVersion + 1);
  PlanCacheSnapshot out;
  const vbin::Status status = DecodeSnapshotBytes(bytes, &out);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error.find("version"), std::string::npos) << status.error;
}

TEST(SnapshotTest, CorruptFileIsRejectedAndLeavesPlannerCold) {
  const ViewSet views = CarLocPartViews();
  const Database instances = MaterializeViews(views, CarLocPartBase());
  ViewPlanner before(views, instances);
  ASSERT_TRUE(before.Plan(CarLocPartQuery(), CostModel::kM2).ok());
  const std::string path = TempPath("corrupt.vbin");
  ASSERT_TRUE(before.SaveSnapshot(path).ok());

  std::string bytes;
  ASSERT_TRUE(vbin::ReadWholeFile(path, &bytes).ok());
  bytes[bytes.size() / 2] ^= 0x40;
  ASSERT_TRUE(vbin::WriteFileAtomic(path, bytes).ok());

  ViewPlanner after(views, instances);
  const SnapshotLoadResult load = after.LoadSnapshot(path);
  EXPECT_FALSE(load.ok());
  EXPECT_FALSE(load.compatible);
  EXPECT_EQ(load.entries_loaded, 0u);
  EXPECT_EQ(after.cache_size(), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, MissingFileIsAnError) {
  const ViewSet views = CarLocPartViews();
  ViewPlanner planner(views, MaterializeViews(views, Database()));
  const SnapshotLoadResult load =
      planner.LoadSnapshot(TempPath("does_not_exist.vbin"));
  EXPECT_FALSE(load.ok());
  EXPECT_EQ(load.entries_loaded, 0u);
}

TEST(SnapshotTest, MismatchedViewSetFallsBackToColdWithoutError) {
  const ViewSet views = CarLocPartViews();
  const Database instances = MaterializeViews(views, CarLocPartBase());
  ViewPlanner before(views, instances);
  ASSERT_TRUE(before.Plan(CarLocPartQuery(), CostModel::kM2).ok());
  const std::string path = TempPath("mismatch.vbin");
  ASSERT_TRUE(before.SaveSnapshot(path).ok());

  // A planner over a DIFFERENT view set: the snapshot must be declined
  // (compatible == false) without an error and without polluting the cache.
  const ViewSet other = MustParseProgram("w(X,Y) :- e(X,Y).");
  ViewPlanner after(other, MaterializeViews(other, Database()));
  const SnapshotLoadResult load = after.LoadSnapshot(path);
  ASSERT_TRUE(load.ok()) << load.status.error;
  EXPECT_FALSE(load.compatible);
  EXPECT_EQ(load.entries_loaded, 0u);
  EXPECT_EQ(after.cache_size(), 0u);
  std::remove(path.c_str());
}

TEST(SnapshotTest, ViewSetFingerprintTracksDefinitionsNotInstances) {
  const ViewSet a = MustParseProgram(
      "v1(X,Y) :- e(X,Y).\n"
      "v2(X,Z) :- e(X,Y), e(Y,Z).\n");
  const ViewSet same = MustParseProgram(
      "v1(X,Y) :- e(X,Y).\n"
      "v2(X,Z) :- e(X,Y), e(Y,Z).\n");
  const ViewSet reordered = MustParseProgram(
      "v2(X,Z) :- e(X,Y), e(Y,Z).\n"
      "v1(X,Y) :- e(X,Y).\n");
  const ViewSet edited = MustParseProgram(
      "v1(X,Y) :- e(X,Y).\n"
      "v2(X,Z) :- e(X,Y), f(Y,Z).\n");
  EXPECT_EQ(ViewSetFingerprint(a), ViewSetFingerprint(same));
  // Order-INDEPENDENT by design: a catalog built by AddViews/RemoveViews
  // deltas must fingerprint identically to the same set handed wholesale
  // to ReplaceViews, whatever order the deltas arrived in (the delta
  // round-trip is pinned by tests/planner/view_delta_test.cc).
  EXPECT_EQ(ViewSetFingerprint(a), ViewSetFingerprint(reordered));
  EXPECT_NE(ViewSetFingerprint(a), ViewSetFingerprint(edited));
}

// -- Request log -------------------------------------------------------------

PlanRequestOptions SampleOptions() {
  PlanRequestOptions options;
  options.model = CostModel::kM3;
  options.deadline_ms = 12.5;
  options.work_limit = 100'000;
  options.memory_limit_bytes = uint64_t{1} << 20;
  options.search_node_cap = 77;
  return options;
}

TEST(RequestLogTest, RecordRoundTripIsByteIdentical) {
  RequestLogRecord record;
  record.query = MustParseQuery("q(X,Z) :- e(X,Y), e(Y,Z), X <= Z.");
  record.options = SampleOptions();

  const std::string bytes = EncodeRequestLogRecord(record);
  RequestLogRecord back;
  ASSERT_TRUE(DecodeRequestLogRecord(bytes, &back).ok());
  EXPECT_EQ(back, record);
  EXPECT_EQ(EncodeRequestLogRecord(back), bytes);
}

TEST(RequestLogTest, WriterAppendsAndReopensPreservingRecords) {
  const std::string path = TempPath("requests.vbrlog");
  std::remove(path.c_str());

  std::vector<RequestLogRecord> written;
  for (int i = 0; i < 3; ++i) {
    RequestLogRecord record;
    record.query = MustParseQuery("q" + std::to_string(i) +
                                  "(X) :- e(X,X).");
    record.options = SampleOptions();
    record.options.work_limit = 1000 * (i + 1);
    written.push_back(record);
  }

  RequestLogWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  writer.Append(written[0].query, written[0].options);
  writer.Append(written[1].query, written[1].options);
  writer.Close();
  EXPECT_EQ(writer.records_written(), 2u);
  EXPECT_TRUE(writer.error().empty());

  // Re-opening appends after the existing records.
  RequestLogWriter again;
  ASSERT_TRUE(again.Open(path).ok());
  again.Append(written[2].query, written[2].options);
  again.Close();

  std::vector<RequestLogRecord> records;
  size_t truncated = 0;
  ASSERT_TRUE(ReadRequestLogFile(path, &records, &truncated).ok());
  EXPECT_EQ(truncated, 0u);
  ASSERT_EQ(records.size(), 3u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i], written[i]) << "record " << i;
  }
  std::remove(path.c_str());
}

TEST(RequestLogTest, TornTailIsToleratedAndReported) {
  RequestLogRecord record;
  record.query = MustParseQuery("q(X) :- e(X,X).");
  const std::string frame_body = EncodeRequestLogRecord(record);
  std::string log;
  for (int i = 0; i < 2; ++i) {
    const uint32_t length = static_cast<uint32_t>(frame_body.size());
    for (int b = 0; b < 4; ++b) {
      log.push_back(static_cast<char>((length >> (8 * b)) & 0xFF));
    }
    log += frame_body;
  }

  // A crash mid-append: the last frame is cut short. The two complete
  // records parse; the torn bytes are reported, not fatal.
  std::string torn = log + log.substr(0, log.size() / 3);
  std::vector<RequestLogRecord> records;
  size_t truncated = 0;
  ASSERT_TRUE(ParseRequestLog(torn, &records, &truncated).ok());
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(truncated, torn.size() - log.size());

  // A torn LENGTH PREFIX (fewer than 4 bytes) truncates cleanly too.
  torn = log + std::string("\x03", 1);
  records.clear();
  ASSERT_TRUE(ParseRequestLog(torn, &records, &truncated).ok());
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(truncated, 1u);

  // A corrupt record body stops parsing at that frame.
  std::string corrupt = log;
  corrupt[corrupt.size() - 5] ^= 0x11;
  records.clear();
  ASSERT_TRUE(ParseRequestLog(corrupt, &records, &truncated).ok());
  EXPECT_EQ(records.size(), 1u);
  EXPECT_GT(truncated, 0u);
}

TEST(RequestLogTest, ServiceLogsEverySubmission) {
  const ViewSet views = CarLocPartViews();
  const Database instances = MaterializeViews(views, CarLocPartBase());
  ViewPlanner planner(views, instances);

  const std::string path = TempPath("service_requests.vbrlog");
  std::remove(path.c_str());
  auto log = std::make_shared<RequestLogWriter>();
  ASSERT_TRUE(log->Open(path).ok());

  PlanRequestOptions request_options;
  request_options.model = CostModel::kM2;
  request_options.work_limit = 500'000;
  {
    PlanningService::Options options;
    options.num_workers = 1;
    options.request_log = log;
    PlanningService service(&planner, options);
    for (int i = 0; i < 2; ++i) {
      PlanningService::PlanRequest request;
      request.query = CarLocPartQuery();
      request.options = request_options;
      const auto response = service.Submit(std::move(request)).get();
      EXPECT_TRUE(response.result.ok());
    }
  }
  log->Close();

  std::vector<RequestLogRecord> records;
  ASSERT_TRUE(ReadRequestLogFile(path, &records).ok());
  ASSERT_EQ(records.size(), 2u);
  for (const RequestLogRecord& record : records) {
    EXPECT_EQ(record.query, CarLocPartQuery());
    // The log records the PRE-merge options: exactly what the client sent.
    EXPECT_EQ(record.options, request_options);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vbr
