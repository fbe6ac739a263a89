// PlanServer end to end: real sockets on loopback, concurrent connections,
// hostile clients.
//
// The headline property is BYTE IDENTITY: a plan served over the binary
// protocol must carry exactly the rewriting, certificate, cost, and status
// that an in-process PlanningService::Submit produces for the same query
// against an identically configured planner.  The server is a transport,
// not a second planner — any drift between the two paths is a bug, and
// this test is where it surfaces.
//
// The hostile-client tests cover the rest of the wire contract: slow
// clients dribbling one byte at a time, clients that disconnect while
// their request is still planning (the completion must be dropped, never
// crash or block the IO loop), garbage and oversized frames, and version
// skew.
#include "server/plan_server.h"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "cq/rename.h"
#include "cq/substitution.h"
#include "engine/materialize.h"
#include "net/frame.h"
#include "net/load_driver.h"
#include "net/socket.h"
#include "planner/planner.h"
#include "planner/service.h"
#include "workload/data_gen.h"
#include "workload/generator.h"

namespace vbr {
namespace {

using net::DecodeStatus;
using net::WireStatus;

constexpr char kFaultSite[] = "corecover.view_tuples";

// Two identically configured planner+service stacks over one generated
// workload: `served` sits behind the PlanServer, `reference` is driven
// in-process.  Separate instances (not a shared planner) so the wire path
// cannot accidentally lean on state the in-process path created.
struct ServerFixture {
  Workload workload;
  Database view_db;
  std::unique_ptr<ViewPlanner> served_planner;
  std::unique_ptr<ViewPlanner> reference_planner;
  std::unique_ptr<PlanningService> served;
  std::unique_ptr<PlanningService> reference;
  std::unique_ptr<server::PlanServer> server;

  explicit ServerFixture(uint64_t seed, size_t workers = 2) {
    WorkloadConfig wc;
    wc.shape = QueryShape::kStar;
    wc.num_query_subgoals = 4;
    wc.num_views = 6;
    wc.seed = seed;
    workload = GenerateWorkload(wc);
    DataConfig dc;
    dc.rows_per_relation = 20;
    dc.domain_size = 6;
    dc.seed = seed + 100;
    const Database base = GenerateBaseData(workload.query, workload.views, dc);
    view_db = MaterializeViews(workload.views, base);
    served_planner = std::make_unique<ViewPlanner>(workload.views, view_db);
    reference_planner = std::make_unique<ViewPlanner>(workload.views, view_db);
    PlanningService::Options service_options;
    service_options.num_workers = workers;
    served = std::make_unique<PlanningService>(served_planner.get(),
                                               service_options);
    reference = std::make_unique<PlanningService>(reference_planner.get(),
                                                  service_options);
    server = std::make_unique<server::PlanServer>(served.get(),
                                                  server::PlanServerOptions{});
    std::string error;
    if (!server->Start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
    }
  }

  ~ServerFixture() {
    server->Stop();
    served->Shutdown();
    reference->Shutdown();
  }
};

// Blocking single round trip over an already-open binary connection.
bool RoundTrip(int fd, const net::PlanRequestFrame& request,
               net::PlanResponseFrame* response, std::string* buffer) {
  std::string wire;
  EncodePlanRequest(request, &wire);
  if (!net::WriteAll(fd, wire.data(), wire.size())) return false;
  return [&] {
    char chunk[8192];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      std::string_view payload;
      size_t consumed = 0;
      const DecodeStatus es = net::ExtractFrame(*buffer, net::kDefaultMaxPayload,
                                                &payload, &consumed);
      if (es == DecodeStatus::kOk) {
        const DecodeStatus ds = net::DecodePlanResponse(payload, response);
        buffer->erase(0, consumed);
        return ds == DecodeStatus::kOk;
      }
      if (es != DecodeStatus::kNeedMore) return false;
      const net::IoResult r = net::ReadSome(fd, chunk, sizeof(chunk));
      if (r.status == net::IoStatus::kOk) {
        buffer->append(chunk, r.n);
      } else if (r.status == net::IoStatus::kWouldBlock) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      } else {
        return false;
      }
    }
    return false;
  }();
}

TEST(PlanServerTest, WirePlansAreByteIdenticalToInProcessAcrossConnections) {
  ServerFixture fx(21);

  // 24 distinct (renamed-apart) query variants, split over 4 concurrent
  // connections; every variant is also planned in-process.
  constexpr size_t kConnections = 4;
  constexpr size_t kPerConnection = 6;
  std::vector<ConjunctiveQuery> queries;
  for (size_t i = 0; i < kConnections * kPerConnection; ++i) {
    Substitution renaming;
    // Lower-case prefix on purpose: these variables print as ?-escaped
    // names (lower-case identifiers read as constants by convention), so
    // the wire round trip exercises the escape path end to end.
    queries.push_back(RenameVariablesApart(
        fx.workload.query, "w" + std::to_string(i), &renaming));
  }

  std::vector<net::PlanResponseFrame> wire_responses(queries.size());
  // vector<char>, not vector<bool>: each client thread writes its own
  // slots, and vector<bool> would pack neighbouring slots into one word.
  std::vector<char> wire_ok(queries.size(), 0);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kConnections; ++c) {
    clients.emplace_back([&, c] {
      std::string error;
      net::OwnedFd fd =
          net::ConnectTcp("127.0.0.1", fx.server->binary_port(), &error);
      ASSERT_TRUE(fd.valid()) << error;
      std::string buffer;
      for (size_t k = 0; k < kPerConnection; ++k) {
        const size_t index = c * kPerConnection + k;
        net::PlanRequestFrame request;
        request.request_id = index;
        request.want_certificate = true;
        request.options.model = CostModel::kM2;
        request.query_text = queries[index].ToString();
        wire_ok[index] = RoundTrip(fd.get(), request,
                                   &wire_responses[index], &buffer);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(wire_ok[i]) << "wire round trip " << i << " failed";
    PlanningService::PlanRequest in_process;
    in_process.query = queries[i];
    in_process.options.model = CostModel::kM2;
    const auto expected = fx.reference->Submit(std::move(in_process)).get();

    const net::PlanResponseFrame& got = wire_responses[i];
    ASSERT_EQ(expected.status, PlanningService::ServiceStatus::kOk);
    ASSERT_EQ(got.status, WireStatus::kOk) << got.error;
    ASSERT_TRUE(expected.result.ok());
    ASSERT_TRUE(expected.result.choice.has_value());
    EXPECT_EQ(got.plan_status, static_cast<uint8_t>(expected.result.status));
    // Byte identity of the plan and its witness.
    EXPECT_EQ(got.rewriting, expected.result.choice->logical.ToString());
    EXPECT_EQ(got.certificate,
              expected.result.choice->certificate.ToString());
    EXPECT_EQ(got.cost, expected.result.choice->cost);
    EXPECT_EQ(got.request_id, i);
  }

  const auto stats = fx.server->stats();
  EXPECT_EQ(stats.frames_received, queries.size());
  EXPECT_EQ(stats.responses_sent, queries.size());
  EXPECT_EQ(stats.dropped_responses, 0u);
}

TEST(PlanServerTest, SlowClientDribblingBytesStillGetsItsPlan) {
  ServerFixture fx(22);
  std::string error;
  net::OwnedFd fd =
      net::ConnectTcp("127.0.0.1", fx.server->binary_port(), &error);
  ASSERT_TRUE(fd.valid()) << error;

  net::PlanRequestFrame request;
  request.request_id = 77;
  request.options.model = CostModel::kM2;
  request.query_text = fx.workload.query.ToString();
  std::string wire;
  EncodePlanRequest(request, &wire);

  // One byte at a time: the server must buffer partial frames across many
  // poll iterations without misparsing or timing the connection out.
  for (const char byte : wire) {
    ASSERT_TRUE(net::WriteAll(fd.get(), &byte, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::string buffer;
  net::PlanResponseFrame got;
  net::PlanRequestFrame probe;  // complete second request, normal speed
  probe.request_id = 78;
  probe.options.model = CostModel::kM2;
  probe.query_text = fx.workload.query.ToString();

  // Read the slow request's response, then round-trip a normal one on the
  // same connection to prove the stream stayed in sync.
  {
    std::string empty_request_buffer;
    char chunk[8192];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    bool decoded = false;
    while (!decoded && std::chrono::steady_clock::now() < deadline) {
      std::string_view payload;
      size_t consumed = 0;
      if (net::ExtractFrame(buffer, net::kDefaultMaxPayload, &payload,
                            &consumed) == DecodeStatus::kOk) {
        ASSERT_EQ(net::DecodePlanResponse(payload, &got), DecodeStatus::kOk);
        buffer.erase(0, consumed);
        decoded = true;
        break;
      }
      const net::IoResult r = net::ReadSome(fd.get(), chunk, sizeof(chunk));
      if (r.status == net::IoStatus::kOk) {
        buffer.append(chunk, r.n);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ASSERT_TRUE(decoded);
  }
  EXPECT_EQ(got.request_id, 77u);
  EXPECT_EQ(got.status, WireStatus::kOk) << got.error;
  EXPECT_FALSE(got.rewriting.empty());

  net::PlanResponseFrame second;
  ASSERT_TRUE(RoundTrip(fd.get(), probe, &second, &buffer));
  EXPECT_EQ(second.request_id, 78u);
  EXPECT_EQ(second.status, WireStatus::kOk);
  EXPECT_EQ(second.rewriting, got.rewriting);
}

TEST(PlanServerTest, QueryHandleRoundTripAndUnknownHandle) {
  ServerFixture fx(23);
  std::string error;
  net::OwnedFd fd =
      net::ConnectTcp("127.0.0.1", fx.server->binary_port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  std::string buffer;

  const std::string text = fx.workload.query.ToString();
  net::PlanRequestFrame by_text;
  by_text.request_id = 1;
  by_text.query_text = text;
  net::PlanResponseFrame first;
  ASSERT_TRUE(RoundTrip(fd.get(), by_text, &first, &buffer));
  ASSERT_EQ(first.status, WireStatus::kOk) << first.error;
  EXPECT_EQ(first.query_handle, net::HashQueryText(text));

  // Resend by fingerprint only: same plan, no query text on the wire.
  net::PlanRequestFrame by_handle;
  by_handle.request_id = 2;
  by_handle.query_is_handle = true;
  by_handle.query_handle = first.query_handle;
  net::PlanResponseFrame second;
  ASSERT_TRUE(RoundTrip(fd.get(), by_handle, &second, &buffer));
  ASSERT_EQ(second.status, WireStatus::kOk) << second.error;
  EXPECT_EQ(second.rewriting, first.rewriting);
  EXPECT_TRUE(second.cache_hit);  // isomorphic resubmission hits the cache

  // A fingerprint the server never issued is answered, not dropped.
  net::PlanRequestFrame bogus;
  bogus.request_id = 3;
  bogus.query_is_handle = true;
  bogus.query_handle = first.query_handle ^ 0xFFFF;
  net::PlanResponseFrame third;
  ASSERT_TRUE(RoundTrip(fd.get(), bogus, &third, &buffer));
  EXPECT_EQ(third.status, WireStatus::kUnknownHandle);
  EXPECT_EQ(third.request_id, 3u);

  const auto stats = fx.server->stats();
  EXPECT_EQ(stats.handle_hits, 1u);
  EXPECT_EQ(stats.handle_misses, 1u);
}

TEST(PlanServerTest, BadFramesGetErrorResponsesAndStreamStaysInSync) {
  ServerFixture fx(24);
  std::string error;
  net::OwnedFd fd =
      net::ConnectTcp("127.0.0.1", fx.server->binary_port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  std::string buffer;

  // Unparseable query text: kBadRequest, connection stays usable.
  net::PlanRequestFrame bad_query;
  bad_query.request_id = 5;
  bad_query.query_text = "this is not datalog";
  net::PlanResponseFrame response;
  ASSERT_TRUE(RoundTrip(fd.get(), bad_query, &response, &buffer));
  EXPECT_EQ(response.status, WireStatus::kBadRequest);
  EXPECT_EQ(response.request_id, 5u);
  EXPECT_FALSE(response.error.empty());

  // Version-skewed frame: kUnsupportedVersion with the id echoed back.
  net::PlanRequestFrame skewed;
  skewed.request_id = 6;
  skewed.query_text = fx.workload.query.ToString();
  std::string wire;
  EncodePlanRequest(skewed, &wire);
  wire[4] = static_cast<char>(net::kProtocolVersion + 1);
  ASSERT_TRUE(net::WriteAll(fd.get(), wire.data(), wire.size()));
  {
    net::PlanRequestFrame good;
    good.request_id = 7;
    good.query_text = fx.workload.query.ToString();
    net::PlanResponseFrame skew_response;
    ASSERT_TRUE(RoundTrip(fd.get(), good, &skew_response, &buffer));
    // Responses arrive in order: first the skew error, then the good plan.
    EXPECT_EQ(skew_response.status, WireStatus::kUnsupportedVersion);
    EXPECT_EQ(skew_response.request_id, 6u);
    net::PlanResponseFrame good_response;
    char chunk[8192];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    bool decoded = false;
    while (!decoded && std::chrono::steady_clock::now() < deadline) {
      std::string_view payload;
      size_t consumed = 0;
      if (net::ExtractFrame(buffer, net::kDefaultMaxPayload, &payload,
                            &consumed) == DecodeStatus::kOk) {
        ASSERT_EQ(net::DecodePlanResponse(payload, &good_response),
                  DecodeStatus::kOk);
        buffer.erase(0, consumed);
        decoded = true;
        break;
      }
      const net::IoResult r = net::ReadSome(fd.get(), chunk, sizeof(chunk));
      if (r.status == net::IoStatus::kOk) {
        buffer.append(chunk, r.n);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ASSERT_TRUE(decoded);
    EXPECT_EQ(good_response.status, WireStatus::kOk);
    EXPECT_EQ(good_response.request_id, 7u);
  }

  // An oversized length prefix kills the connection (unrecoverable).
  const uint32_t huge = net::kDefaultMaxPayload + 1;
  ASSERT_TRUE(net::WriteAll(fd.get(), &huge, sizeof(huge)));
  char scratch[64];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool closed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    const net::IoResult r = net::ReadSome(fd.get(), scratch, sizeof(scratch));
    if (r.status == net::IoStatus::kEof || r.status == net::IoStatus::kError) {
      closed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(closed);
  EXPECT_GE(fx.server->stats().bad_frames, 2u);
}

// A client that vanishes while its request is still being planned: the
// completion must be counted as dropped, and the server must keep serving
// other connections.
TEST(PlanServerTest, DisconnectMidPlanDropsTheResponseAndNothingElse) {
  FaultRegistry::Global().Reset();

  WorkloadConfig wc;
  wc.shape = QueryShape::kStar;
  wc.num_query_subgoals = 4;
  wc.num_views = 6;
  wc.seed = 31;
  Workload workload = GenerateWorkload(wc);
  DataConfig dc;
  dc.rows_per_relation = 20;
  dc.domain_size = 6;
  dc.seed = 131;
  const Database base = GenerateBaseData(workload.query, workload.views, dc);
  ViewPlanner::Options planner_options;
  planner_options.enable_minicon_fallback = false;
  ViewPlanner planner(workload.views,
                      MaterializeViews(workload.views, base),
                      planner_options);

  // One worker, parked inside the retry backoff of an injected fault while
  // it is planning the doomed connection's request.
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool open = false;
  PlanningService::Options service_options;
  service_options.num_workers = 1;
  service_options.retry.max_attempts = 2;
  service_options.budget.work_limit = uint64_t{1} << 40;
  service_options.sleep_ms = [&](double) {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  };
  PlanningService service(&planner, service_options);
  server::PlanServer server(&service, server::PlanServerOptions{});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  FaultRegistry::Global().Arm(kFaultSite, FaultKind::kStageAbort, 1);
  {
    net::OwnedFd doomed =
        net::ConnectTcp("127.0.0.1", server.binary_port(), &error);
    ASSERT_TRUE(doomed.valid()) << error;
    net::PlanRequestFrame request;
    request.request_id = 99;
    request.options.model = CostModel::kM2;
    request.query_text = workload.query.ToString();
    std::string wire;
    EncodePlanRequest(request, &wire);
    ASSERT_TRUE(net::WriteAll(doomed.get(), wire.data(), wire.size()));
    // Wait until the worker is provably inside this request's retry sleep,
    // then vanish without reading the response.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }  // doomed connection closes here

  // Give the IO thread a moment to observe the hangup, then release the
  // worker so the plan completes into a missing connection.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
  }
  cv.notify_all();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().dropped_responses == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.stats().dropped_responses, 1u);

  // The server is still fully functional for a fresh connection.
  net::OwnedFd fd = net::ConnectTcp("127.0.0.1", server.binary_port(), &error);
  ASSERT_TRUE(fd.valid()) << error;
  std::string buffer;
  net::PlanRequestFrame request;
  request.request_id = 100;
  request.options.model = CostModel::kM2;
  request.query_text = workload.query.ToString();
  net::PlanResponseFrame response;
  ASSERT_TRUE(RoundTrip(fd.get(), request, &response, &buffer));
  EXPECT_EQ(response.status, WireStatus::kOk) << response.error;

  server.Stop();
  service.Shutdown();
  FaultRegistry::Global().Reset();

  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
  EXPECT_EQ(stats.admitted, stats.completed + stats.shed + stats.failed);
}

TEST(PlanServerTest, LoadDriverFloodLosesNothing) {
  ServerFixture fx(25);
  net::LoadDriverOptions load;
  load.port = fx.server->binary_port();
  load.connections = 4;
  load.qps = 0;  // flood
  load.total_requests = 400;
  load.queries = {fx.workload.query.ToString()};
  load.request.model = CostModel::kM2;
  net::LoadReport report;
  std::string error;
  ASSERT_TRUE(net::RunLoad(load, &report, &error)) << error;
  EXPECT_EQ(report.sent, 400u);
  EXPECT_EQ(report.lost, 0u);
  EXPECT_EQ(report.duplicated, 0u);
  EXPECT_EQ(report.decode_errors, 0u);
  // Every response is one of the service dispositions; under flood some
  // may be shed or rejected, but all are answered.
  EXPECT_EQ(report.received,
            report.by_status[0] + report.by_status[1] + report.by_status[2] +
                report.by_status[3]);

  // Accounting holds at the service once the driver has drained.
  const auto stats = fx.served->stats();
  EXPECT_EQ(stats.submitted, stats.admitted + stats.rejected);
  EXPECT_EQ(stats.admitted, stats.completed + stats.shed + stats.failed);
}

// HTTP "Connection: close" on /plan: the completion flush closes the
// connection from inside DrainCompletions, where the ownership maps hold
// the only references — regression test for a use-after-free in CloseConn.
TEST(PlanServerTest, HttpConnectionCloseAfterPlanFlushStaysClean) {
  ServerFixture fx(27);
  std::string error;
  const std::string body = "{\"query\":\"" + fx.workload.query.ToString() +
                           "\",\"options\":{\"model\":\"m2\"}}";
  const std::string request =
      "POST /plan HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
      "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n" + body;
  for (int round = 0; round < 3; ++round) {
    net::OwnedFd fd =
        net::ConnectTcp("127.0.0.1", fx.server->http_port(), &error);
    ASSERT_TRUE(fd.valid()) << error;
    ASSERT_TRUE(net::WriteAll(fd.get(), request.data(), request.size()));
    // The server must deliver the full response, then close the socket.
    std::string response;
    char chunk[8192];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    bool eof = false;
    while (!eof && std::chrono::steady_clock::now() < deadline) {
      const net::IoResult r = net::ReadSome(fd.get(), chunk, sizeof(chunk));
      if (r.status == net::IoStatus::kOk) {
        response.append(chunk, r.n);
      } else if (r.status == net::IoStatus::kWouldBlock) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      } else {
        eof = r.status == net::IoStatus::kEof;
        break;
      }
    }
    ASSERT_TRUE(eof) << "server did not close after flushing round " << round;
    EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
    EXPECT_NE(response.find("Connection: close"), std::string::npos);
    EXPECT_NE(response.find("\"service_status\":\"ok\""), std::string::npos);
  }
  EXPECT_EQ(fx.server->stats().active_connections, 0u);
}

// Blocking single HTTP round trip over an already-open connection: returns
// once the headers and the declared body length have arrived.
bool HttpRoundTrip(int fd, const std::string& request_text,
                   std::string* response_out) {
  if (!net::WriteAll(fd, request_text.data(), request_text.size())) {
    return false;
  }
  std::string response;
  char chunk[8192];
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    // A complete response has headers plus the declared body length.
    const size_t body_at = response.find("\r\n\r\n");
    if (body_at != std::string::npos) {
      const size_t content_at = response.find("Content-Length: ");
      if (content_at != std::string::npos && content_at < body_at) {
        const size_t len = static_cast<size_t>(
            std::atoll(response.c_str() + content_at + 16));
        if (response.size() >= body_at + 4 + len) {
          *response_out = response;
          return true;
        }
      }
    }
    const net::IoResult r = net::ReadSome(fd, chunk, sizeof(chunk));
    if (r.status == net::IoStatus::kOk) {
      response.append(chunk, r.n);
    } else if (r.status == net::IoStatus::kWouldBlock) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } else {
      return false;
    }
  }
  return false;
}

// Percent-encodes everything but letters and digits (a query parameter).
std::string UrlEncode(const std::string& text) {
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : text) {
    if (std::isalnum(c)) {
      out += static_cast<char>(c);
    } else {
      out += '%';
      out += kHex[c >> 4];
      out += kHex[c & 15];
    }
  }
  return out;
}

TEST(PlanServerTest, HttpPlanAndHealthEndpointsAnswerOverRawSockets) {
  ServerFixture fx(26);
  std::string error;
  net::OwnedFd fd =
      net::ConnectTcp("127.0.0.1", fx.server->http_port(), &error);
  ASSERT_TRUE(fd.valid()) << error;

  std::string response;
  ASSERT_TRUE(HttpRoundTrip(
      fd.get(), "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", &response));
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(response.find("\"status\":\"ok\""), std::string::npos);

  const std::string body = "{\"query\":\"" + fx.workload.query.ToString() +
                           "\",\"options\":{\"model\":\"m2\"}}";
  response.clear();
  ASSERT_TRUE(HttpRoundTrip(
      fd.get(),
      "POST /plan HTTP/1.1\r\nHost: t\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body,
      &response));
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(response.find("\"service_status\":\"ok\""), std::string::npos);

  // Same connection (keep-alive), a malformed body answers 400.
  response.clear();
  ASSERT_TRUE(HttpRoundTrip(
      fd.get(),
      "POST /plan HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\n\r\nxxx",
      &response));
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);
}

// Both parse, but neither can be planned: the first is unsafe (Z occurs in
// no body subgoal), the second has a comparison. Each port answers a bad
// request, and the server keeps serving.
TEST(PlanServerTest, InvalidQueriesAreBadRequestsOnBothPorts) {
  ServerFixture fx(27);
  const std::vector<std::string> invalid = {
      "q(S,Z) :- car(M,D), loc(D,C), part(S,M,C).",
      "q(S,C) :- car(M,D), loc(D,C), part(S,M,C), S != C."};
  std::string error;
  net::OwnedFd wire =
      net::ConnectTcp("127.0.0.1", fx.server->binary_port(), &error);
  ASSERT_TRUE(wire.valid()) << error;
  net::OwnedFd http =
      net::ConnectTcp("127.0.0.1", fx.server->http_port(), &error);
  ASSERT_TRUE(http.valid()) << error;
  std::string buffer;
  uint64_t request_id = 0;
  for (const std::string& text : invalid) {
    net::PlanRequestFrame request;
    request.request_id = ++request_id;
    request.query_text = text;
    request.options.model = CostModel::kM2;
    net::PlanResponseFrame response;
    ASSERT_TRUE(RoundTrip(wire.get(), request, &response, &buffer)) << text;
    EXPECT_EQ(response.status, WireStatus::kBadRequest) << text;
    EXPECT_EQ(response.request_id, request_id);
    EXPECT_FALSE(response.error.empty());

    const std::string body =
        "{\"query\":\"" + text + "\",\"options\":{\"model\":\"m2\"}}";
    std::string reply;
    ASSERT_TRUE(HttpRoundTrip(
        http.get(),
        "POST /plan HTTP/1.1\r\nHost: t\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body,
        &reply));
    EXPECT_NE(reply.find("HTTP/1.1 400"), std::string::npos) << reply;
    EXPECT_NE(reply.find("invalid query"), std::string::npos) << reply;

    reply.clear();
    ASSERT_TRUE(HttpRoundTrip(http.get(),
                              "GET /explain?q=" + UrlEncode(text) +
                                  " HTTP/1.1\r\nHost: t\r\n\r\n",
                              &reply));
    EXPECT_NE(reply.find("HTTP/1.1 400"), std::string::npos) << reply;
    EXPECT_NE(reply.find("invalid query"), std::string::npos) << reply;
  }

  std::string reply;
  ASSERT_TRUE(HttpRoundTrip(http.get(),
                            "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
                            &reply));
  EXPECT_NE(reply.find("HTTP/1.1 200"), std::string::npos);
  net::PlanRequestFrame valid;
  valid.request_id = ++request_id;
  valid.query_text = fx.workload.query.ToString();
  net::PlanResponseFrame response;
  ASSERT_TRUE(RoundTrip(wire.get(), valid, &response, &buffer));
  EXPECT_EQ(response.status, WireStatus::kOk) << response.error;
}

}  // namespace
}  // namespace vbr
