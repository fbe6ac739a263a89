#include "server/plan_server.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/json.h"
#include "common/metrics.h"
#include "cq/parser.h"
#include "planner/planner.h"

namespace vbr::server {

namespace {

using net::DecodeStatus;
using net::WireStatus;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Maps a terminal PlanResponse onto the wire representation.
net::PlanResponseFrame ToWire(const PlanningService::PlanResponse& response,
                              uint64_t request_id, bool want_certificate,
                              uint64_t query_handle) {
  net::PlanResponseFrame frame;
  frame.request_id = request_id;
  frame.query_handle = query_handle;
  switch (response.status) {
    case PlanningService::ServiceStatus::kOk:
      frame.status = WireStatus::kOk;
      break;
    case PlanningService::ServiceStatus::kRejected:
      frame.status = WireStatus::kRejected;
      break;
    case PlanningService::ServiceStatus::kShed:
      frame.status = WireStatus::kShed;
      break;
    case PlanningService::ServiceStatus::kFailed:
      frame.status = WireStatus::kFailed;
      break;
  }
  frame.reject_reason = static_cast<uint8_t>(response.reject_reason);
  frame.attempts = static_cast<uint8_t>(
      response.attempts > 255 ? 255 : response.attempts);
  frame.service_level = response.service_level;
  frame.served_from_cache_only = response.served_from_cache_only;
  frame.model_demoted = response.model_demoted;
  frame.queue_wait_ms = response.queue_wait_ms;
  frame.error = response.error;
  if (response.status == PlanningService::ServiceStatus::kOk) {
    const ViewPlanner::PlanResult& result = response.result;
    frame.plan_status = static_cast<uint8_t>(result.status);
    // An unsafe or comparison-bearing query is the client's error.
    if (result.status == PlanStatus::kInvalidQuery) {
      frame.status = WireStatus::kBadRequest;
    }
    frame.cache_hit = result.cache_hit;
    frame.degraded = result.degraded;
    if (frame.error.empty()) frame.error = result.error;
    if (result.choice.has_value()) {
      frame.cost = result.choice->cost;
      frame.rewriting = result.choice->logical.ToString();
      if (want_certificate) {
        frame.certificate = result.choice->certificate.ToString();
      }
    }
  }
  return frame;
}

// HTTP status for a service disposition.
int HttpCodeFor(const PlanningService::PlanResponse& response) {
  switch (response.status) {
    case PlanningService::ServiceStatus::kOk:
      return response.result.status == PlanStatus::kInvalidQuery ? 400 : 200;
    case PlanningService::ServiceStatus::kRejected:
      return response.reject_reason ==
                     PlanningService::RejectReason::kShuttingDown
                 ? 503
                 : 429;
    case PlanningService::ServiceStatus::kShed:
      return 503;
    case PlanningService::ServiceStatus::kFailed:
      return 500;
  }
  return 500;
}

std::string JsonError(const std::string& message) {
  return "{\"error\":\"" + JsonEscape(message) + "\"}";
}

}  // namespace

std::string PlanServerStats::ToJson() const {
  std::string s = "{";
  s += "\"accepted\":" + std::to_string(accepted);
  s += ",\"rejected_connections\":" + std::to_string(rejected_connections);
  s += ",\"active_connections\":" + std::to_string(active_connections);
  s += ",\"frames_received\":" + std::to_string(frames_received);
  s += ",\"responses_sent\":" + std::to_string(responses_sent);
  s += ",\"dropped_responses\":" + std::to_string(dropped_responses);
  s += ",\"bad_frames\":" + std::to_string(bad_frames);
  s += ",\"http_requests\":" + std::to_string(http_requests);
  s += ",\"handle_hits\":" + std::to_string(handle_hits);
  s += ",\"handle_misses\":" + std::to_string(handle_misses);
  s += ",\"handle_collisions\":" + std::to_string(handle_collisions);
  s += ",\"evicted_idle\":" + std::to_string(evicted_idle);
  s += ",\"evicted_slowloris\":" + std::to_string(evicted_slowloris);
  s += ",\"evicted_write_stall\":" + std::to_string(evicted_write_stall);
  s += "}";
  return s;
}

void PlanServer::CompletionQueue::Post(uint64_t conn_id, std::string wire,
                                       bool close_after_flush) {
  if (!open.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(mu);
    ready.push_back({conn_id, std::move(wire), close_after_flush});
  }
  const char byte = 1;
  (void)net::WriteSome(wakeup_tx.get(), &byte, 1);
}

PlanServer::PlanServer(PlanningService* service, PlanServerOptions options)
    : service_(service),
      options_(std::move(options)),
      write_stall_us_(
          MetricsRegistry::Global().GetHistogram("server.write_stall_us")) {}

PlanServer::~PlanServer() { Stop(); }

bool PlanServer::Start(std::string* error) {
  if (started_) {
    if (error != nullptr) *error = "server already started";
    return false;
  }
  binary_listener_ =
      net::ListenTcp(options_.host, options_.binary_port, error);
  if (!binary_listener_.valid()) return false;
  http_listener_ = net::ListenTcp(options_.host, options_.http_port, error);
  if (!http_listener_.valid()) {
    binary_listener_.reset();
    return false;
  }
  completions_ = std::make_shared<CompletionQueue>();
  if (!net::SocketPair(&wakeup_rx_, &completions_->wakeup_tx, error)) {
    binary_listener_.reset();
    http_listener_.reset();
    completions_.reset();
    return false;
  }
  binary_port_ = net::LocalPort(binary_listener_.get());
  http_port_ = net::LocalPort(http_listener_.get());

  poller_ = net::Poller();
  poller_.Watch(binary_listener_.get(), /*want_read=*/true, false);
  poller_.Watch(http_listener_.get(), /*want_read=*/true, false);
  poller_.Watch(wakeup_rx_.get(), /*want_read=*/true, false);

  running_.store(true, std::memory_order_release);
  started_ = true;
  debug_stop_ = false;
  accept_paused_ = false;
  draining_.store(false, std::memory_order_release);
  drain_listeners_closed_ = false;
  drain_done_ = false;
  io_thread_ = std::thread([this] { IoLoop(); });
  debug_thread_ = std::thread([this] { DebugLoop(); });
  return true;
}

bool PlanServer::Drain(int grace_ms) {
  if (!started_) return true;
  draining_.store(true, std::memory_order_release);
  const char byte = 1;
  (void)net::WriteSome(completions_->wakeup_tx.get(), &byte, 1);
  std::unique_lock<std::mutex> lock(drain_mu_);
  return drain_cv_.wait_for(lock, std::chrono::milliseconds(grace_ms),
                            [this] { return drain_done_; });
}

void PlanServer::Stop() {
  if (!started_) return;
  running_.store(false, std::memory_order_release);
  completions_->open.store(false, std::memory_order_release);
  const char byte = 1;
  (void)net::WriteSome(completions_->wakeup_tx.get(), &byte, 1);
  io_thread_.join();
  {
    std::lock_guard<std::mutex> lock(debug_mu_);
    debug_stop_ = true;
  }
  debug_cv_.notify_all();
  debug_thread_.join();

  conns_by_fd_.clear();
  conns_by_id_.clear();
  handles_.clear();
  binary_listener_.reset();
  http_listener_.reset();
  wakeup_rx_.reset();
  active_connections_.store(0, std::memory_order_relaxed);
  started_ = false;
}

PlanServerStats PlanServer::stats() const {
  PlanServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected_connections =
      rejected_connections_.load(std::memory_order_relaxed);
  s.active_connections = active_connections_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.responses_sent = responses_sent_.load(std::memory_order_relaxed);
  s.dropped_responses = dropped_responses_.load(std::memory_order_relaxed);
  s.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  s.http_requests = http_requests_.load(std::memory_order_relaxed);
  s.handle_hits = handle_hits_.load(std::memory_order_relaxed);
  s.handle_misses = handle_misses_.load(std::memory_order_relaxed);
  s.handle_collisions = handle_collisions_.load(std::memory_order_relaxed);
  s.evicted_idle = evicted_idle_.load(std::memory_order_relaxed);
  s.evicted_slowloris = evicted_slowloris_.load(std::memory_order_relaxed);
  s.evicted_write_stall =
      evicted_write_stall_.load(std::memory_order_relaxed);
  return s;
}

void PlanServer::IoLoop() {
  int logged_poll_errno = 0;
  while (running_.load(std::memory_order_acquire)) {
    net::PollStatus poll_status = net::PollStatus::kReady;
    std::vector<net::PollEntry> ready =
        poller_.Wait(/*timeout_ms=*/200, &poll_status);
    if (poll_status == net::PollStatus::kError &&
        poller_.last_error() != logged_poll_errno) {
      // Log each distinct errno once; a persistent poll error otherwise
      // spins this loop silently at full speed.
      logged_poll_errno = poller_.last_error();
      std::fprintf(stderr, "plan_server: poll failed: %s\n",
                   std::strerror(logged_poll_errno));
    }
    for (const net::PollEntry& entry : ready) {
      if (entry.fd == binary_listener_.get()) {
        AcceptAll(entry.fd, ConnKind::kBinary);
        continue;
      }
      if (entry.fd == http_listener_.get()) {
        AcceptAll(entry.fd, ConnKind::kHttp);
        continue;
      }
      if (entry.fd == wakeup_rx_.get()) {
        char scratch[256];
        while (net::ReadSome(wakeup_rx_.get(), scratch, sizeof(scratch))
                   .status == net::IoStatus::kOk) {
        }
        continue;
      }
      const auto it = conns_by_fd_.find(entry.fd);
      if (it == conns_by_fd_.end()) continue;
      const std::shared_ptr<Connection> conn = it->second;
      if (entry.events.readable || entry.events.closed) {
        HandleReadable(*conn);
      }
      if (conn->fd.valid() && entry.events.writable) {
        HandleWritable(*conn);
      }
    }
    // Flush completions posted by workers while we were handling events.
    DrainCompletions();
    EnforceDeadlines();
    if (draining_.load(std::memory_order_acquire)) DrainTick();
  }
}

void PlanServer::EnforceDeadlines() {
  if (options_.idle_timeout_ms <= 0 && options_.progress_timeout_ms <= 0 &&
      options_.write_stall_timeout_ms <= 0) {
    return;
  }
  const int64_t now = NowMs();
  // Snapshot: CloseConn mutates conns_by_fd_.
  std::vector<std::shared_ptr<Connection>> conns;
  conns.reserve(conns_by_fd_.size());
  for (const auto& [fd, conn] : conns_by_fd_) conns.push_back(conn);
  for (const std::shared_ptr<Connection>& conn : conns) {
    if (!conn->fd.valid()) continue;
    const bool out_pending = conn->out_offset < conn->out.size();
    if (options_.write_stall_timeout_ms > 0 && out_pending &&
        now - conn->last_write_progress_ms > options_.write_stall_timeout_ms) {
      evicted_write_stall_.fetch_add(1, std::memory_order_relaxed);
      CloseConn(*conn);
      continue;
    }
    if (options_.progress_timeout_ms > 0 && conn->partial_since_ms != 0 &&
        now - conn->partial_since_ms > options_.progress_timeout_ms) {
      evicted_slowloris_.fetch_add(1, std::memory_order_relaxed);
      CloseConn(*conn);
      continue;
    }
    if (options_.idle_timeout_ms > 0 && conn->in_flight == 0 &&
        !out_pending && conn->partial_since_ms == 0 &&
        now - conn->last_activity_ms > options_.idle_timeout_ms) {
      evicted_idle_.fetch_add(1, std::memory_order_relaxed);
      CloseConn(*conn);
    }
  }
}

void PlanServer::DrainTick() {
  if (!drain_listeners_closed_) {
    poller_.Forget(binary_listener_.get());
    poller_.Forget(http_listener_.get());
    drain_listeners_closed_ = true;
  }
  std::vector<std::shared_ptr<Connection>> conns;
  conns.reserve(conns_by_fd_.size());
  for (const auto& [fd, conn] : conns_by_fd_) conns.push_back(conn);
  for (const std::shared_ptr<Connection>& conn : conns) {
    if (!conn->fd.valid()) continue;
    // A connection still owes responses (planning, or buffered output);
    // keep it until the completion flushes.
    if (conn->in_flight > 0 || conn->out_offset < conn->out.size()) continue;
    CloseConn(*conn);
  }
  if (conns_by_fd_.empty()) {
    std::lock_guard<std::mutex> lock(drain_mu_);
    drain_done_ = true;
    drain_cv_.notify_all();
  }
}

void PlanServer::PauseAccept() {
  if (accept_paused_) return;
  poller_.Forget(binary_listener_.get());
  poller_.Forget(http_listener_.get());
  accept_paused_ = true;
}

void PlanServer::ResumeAccept() {
  if (!accept_paused_) return;
  poller_.Watch(binary_listener_.get(), /*want_read=*/true, false);
  poller_.Watch(http_listener_.get(), /*want_read=*/true, false);
  accept_paused_ = false;
}

void PlanServer::AcceptAll(int listener_fd, ConnKind kind) {
  while (true) {
    if (conns_by_fd_.size() >= options_.max_connections &&
        !options_.reject_over_capacity) {
      // Accept-backpressure: stop watching the listeners; new clients wait
      // in the kernel backlog until a connection closes (ResumeAccept).
      PauseAccept();
      return;
    }
    net::OwnedFd fd = net::AcceptConn(listener_fd);
    if (!fd.valid()) return;
    if (conns_by_fd_.size() >= options_.max_connections) {
      rejected_connections_.fetch_add(1, std::memory_order_relaxed);
      continue;  // OwnedFd closes it; client sees an orderly RST/EOF
    }
    auto conn = std::make_shared<Connection>();
    conn->id = next_conn_id_++;
    conn->kind = kind;
    const int raw = fd.get();
    conn->fd = std::move(fd);
    conn->last_activity_ms = NowMs();
    conns_by_fd_[raw] = conn;
    conns_by_id_[conn->id] = conn;
    poller_.Watch(raw, /*want_read=*/true, /*want_write=*/false);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    active_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

void PlanServer::CloseConn(Connection& conn) {
  if (!conn.fd.valid()) return;
  // The two maps are the only owners of the Connection; hold a reference
  // until cleanup is done touching it (a caller may only have a bare
  // reference into the maps).
  std::shared_ptr<Connection> keep;
  if (const auto it = conns_by_id_.find(conn.id); it != conns_by_id_.end()) {
    keep = it->second;
  }
  // Responses still planning for this connection will find no entry in
  // conns_by_id_ and are counted as dropped when they arrive.
  poller_.Forget(conn.fd.get());
  conns_by_fd_.erase(conn.fd.get());
  conns_by_id_.erase(conn.id);
  conn.fd.reset();
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
  if (accept_paused_ && !draining_.load(std::memory_order_acquire) &&
      conns_by_fd_.size() < options_.max_connections) {
    ResumeAccept();
  }
}

void PlanServer::UpdateInterest(Connection& conn) {
  if (!conn.fd.valid()) return;
  const bool want_write = conn.out_offset < conn.out.size();
  poller_.Watch(conn.fd.get(), /*want_read=*/true, want_write);
}

void PlanServer::HandleReadable(Connection& conn) {
  // Per-event input cap: a firehose client must not let one readable
  // event grow `in` without bound and monopolize the IO loop (deadline
  // enforcement and completion flushing run between events).  The poll is
  // level-triggered, so unread kernel data re-fires the event next tick.
  constexpr size_t kMaxBufferedInput = 256 * 1024;
  char chunk[16 * 1024];
  bool got_bytes = false;
  while (conn.fd.valid() && conn.in.size() < kMaxBufferedInput) {
    const net::IoResult r =
        net::ReadSome(conn.fd.get(), chunk, sizeof(chunk));
    if (r.status == net::IoStatus::kOk) {
      conn.in.append(chunk, r.n);
      got_bytes = true;
      continue;
    }
    if (r.status == net::IoStatus::kWouldBlock) break;
    CloseConn(conn);  // EOF or error
    return;
  }
  if (got_bytes) conn.last_activity_ms = NowMs();
  bool progressed;
  if (conn.kind == ConnKind::kBinary) {
    progressed = ProcessBinary(conn);
  } else {
    progressed = ProcessHttp(conn);
  }
  if (conn.fd.valid()) {
    // Slowloris watermark: consuming a complete request (or emptying the
    // buffer) restarts the clock; a lingering partial keeps its start time.
    if (conn.in.empty() || progressed) {
      conn.partial_since_ms = conn.in.empty() ? 0 : NowMs();
    } else if (!conn.in.empty() && conn.partial_since_ms == 0) {
      conn.partial_since_ms = NowMs();
    }
  }
  UpdateInterest(conn);
}

void PlanServer::HandleWritable(Connection& conn) {
  while (conn.out_offset < conn.out.size()) {
    const net::IoResult r =
        net::WriteSome(conn.fd.get(), conn.out.data() + conn.out_offset,
                       conn.out.size() - conn.out_offset);
    if (r.status == net::IoStatus::kOk) {
      conn.out_offset += r.n;
      conn.last_write_progress_ms = NowMs();
      continue;
    }
    if (r.status == net::IoStatus::kWouldBlock) break;
    CloseConn(conn);
    return;
  }
  if (conn.out_offset >= conn.out.size()) {
    if (!conn.out.empty()) {
      conn.out.clear();
      conn.out_offset = 0;
      conn.last_activity_ms = NowMs();
      if (conn.write_pending_us != 0) {
        const int64_t waited = NowUs() - conn.write_pending_us;
        write_stall_us_->Record(waited < 0 ? 0 : waited);
        conn.write_pending_us = 0;
      }
    }
    if (conn.close_after_flush) {
      CloseConn(conn);
      return;
    }
  }
  UpdateInterest(conn);
}

void PlanServer::AppendOutput(Connection& conn, std::string_view wire) {
  if (conn.out_offset >= conn.out.size()) {
    // Buffer transitions flushed -> pending: start the stall clocks.
    conn.write_pending_us = NowUs();
    conn.last_write_progress_ms = NowMs();
  }
  conn.out.append(wire);
}

void PlanServer::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_->mu);
    batch.swap(completions_->ready);
  }
  for (auto& [conn_id, wire, close_after_flush] : batch) {
    const auto it = conns_by_id_.find(conn_id);
    if (it == conns_by_id_.end()) {
      dropped_responses_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Own the connection across the flush: HandleWritable/ProcessHttp may
    // CloseConn, which erases the maps' (otherwise only) references.
    const std::shared_ptr<Connection> conn_ptr = it->second;
    Connection& conn = *conn_ptr;
    AppendOutput(conn, wire);
    if (close_after_flush) conn.close_after_flush = true;
    responses_sent_.fetch_add(1, std::memory_order_relaxed);
    if (conn.in_flight > 0) --conn.in_flight;
    if (conn.kind == ConnKind::kHttp) {
      conn.busy = false;
      // A queued pipeline request may already be buffered.
      ProcessHttp(conn);
    }
    if (conn.fd.valid()) {
      HandleWritable(conn);  // opportunistic flush; also updates interest
    }
  }
}

// ---------------------------------------------------------------- binary --

void PlanServer::SendWireError(Connection& conn, uint64_t request_id,
                               WireStatus status, const std::string& error) {
  net::PlanResponseFrame frame;
  frame.request_id = request_id;
  frame.status = status;
  frame.error = error;
  std::string wire;
  EncodePlanResponse(frame, &wire);
  AppendOutput(conn, wire);
  responses_sent_.fetch_add(1, std::memory_order_relaxed);
}

bool PlanServer::ProcessBinary(Connection& conn) {
  bool progressed = false;
  // Consume frames from a moving offset and erase the prefix ONCE at the
  // end: erasing per frame is a memmove of the whole remaining buffer,
  // which goes quadratic exactly when a flood client piles frames up.
  size_t pos = 0;
  while (conn.fd.valid()) {
    std::string_view payload;
    size_t consumed = 0;
    const DecodeStatus es =
        net::ExtractFrame(std::string_view(conn.in).substr(pos),
                          options_.max_frame_payload, &payload, &consumed);
    if (es == DecodeStatus::kNeedMore) break;
    if (es != DecodeStatus::kOk) {
      // Oversized length prefix: the stream cannot be resynchronized.
      bad_frames_.fetch_add(1, std::memory_order_relaxed);
      CloseConn(conn);
      return progressed;
    }
    progressed = true;
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    net::PlanRequestFrame frame;
    const DecodeStatus ds = net::DecodePlanRequest(payload, &frame);
    pos += consumed;
    switch (ds) {
      case DecodeStatus::kOk:
        SubmitWireRequest(conn, frame);
        break;
      case DecodeStatus::kVersionSkew:
        bad_frames_.fetch_add(1, std::memory_order_relaxed);
        SendWireError(conn, frame.request_id,
                      WireStatus::kUnsupportedVersion,
                      "protocol version newer than server");
        break;
      default:
        // Framing was intact (length prefix consumed), so the stream stays
        // in sync; report and keep the connection.
        bad_frames_.fetch_add(1, std::memory_order_relaxed);
        SendWireError(conn, frame.request_id, WireStatus::kBadRequest,
                      std::string("malformed request frame: ") +
                          net::DecodeStatusName(ds));
        break;
    }
  }
  if (conn.fd.valid() && pos > 0) conn.in.erase(0, pos);
  return progressed;
}

void PlanServer::SubmitWireRequest(Connection& conn,
                                   const net::PlanRequestFrame& frame) {
  ConjunctiveQuery query;
  uint64_t handle = 0;
  if (frame.query_is_handle) {
    const auto it = handles_.find(frame.query_handle);
    if (it == handles_.end()) {
      handle_misses_.fetch_add(1, std::memory_order_relaxed);
      SendWireError(conn, frame.request_id, WireStatus::kUnknownHandle,
                    "unknown query handle; resend the query text");
      return;
    }
    handle_hits_.fetch_add(1, std::memory_order_relaxed);
    handle = frame.query_handle;
    query = it->second.query;
  } else {
    std::string parse_error;
    std::optional<ConjunctiveQuery> parsed =
        ParseQuery(frame.query_text, &parse_error);
    if (!parsed.has_value()) {
      SendWireError(conn, frame.request_id, WireStatus::kBadRequest,
                    "query parse error: " + parse_error);
      return;
    }
    query = std::move(*parsed);
    handle = net::HashQueryText(frame.query_text);
    if (const auto hit = handles_.find(handle); hit != handles_.end()) {
      if (hit->second.text != frame.query_text) {
        // 64-bit fingerprint collision: the stored query keeps the handle.
        // Issue none for this text, or its reuse would silently plan a
        // different query.
        handle_collisions_.fetch_add(1, std::memory_order_relaxed);
        handle = 0;
      }
    } else if (handles_.size() < options_.handle_capacity) {
      handles_.emplace(handle, HandleEntry{frame.query_text, query});
    } else {
      handle = 0;  // map full: plan anyway, but the handle is not reusable
    }
  }

  PlanningService::PlanRequest request;
  request.query = std::move(query);
  request.options = frame.options;
  ++conn.in_flight;

  // The callback runs on a service worker thread; it owns nothing of the
  // server except the completion queue (kept alive by shared_ptr), so a
  // completion after Stop() is a no-op rather than a crash.
  const std::shared_ptr<CompletionQueue> queue = completions_;
  const uint64_t conn_id = conn.id;
  const uint64_t request_id = frame.request_id;
  const bool want_certificate = frame.want_certificate;
  service_->SubmitWithCallback(
      std::move(request),
      [queue, conn_id, request_id, want_certificate,
       handle](PlanningService::PlanResponse response) {
        const net::PlanResponseFrame frame =
            ToWire(response, request_id, want_certificate, handle);
        std::string wire;
        EncodePlanResponse(frame, &wire);
        queue->Post(conn_id, std::move(wire), /*close_after_flush=*/false);
      });
}

// ------------------------------------------------------------------ http --

void PlanServer::QueueHttpResponse(Connection& conn, int status_code,
                                   std::string_view body, bool keep_alive) {
  AppendOutput(conn, net::BuildHttpResponse(status_code, "application/json",
                                            body, keep_alive));
  responses_sent_.fetch_add(1, std::memory_order_relaxed);
  if (!keep_alive) conn.close_after_flush = true;
}

bool PlanServer::ProcessHttp(Connection& conn) {
  bool progressed = false;
  while (conn.fd.valid() && !conn.busy) {
    net::HttpRequest request;
    size_t consumed = 0;
    const net::HttpParseStatus ps = net::ParseHttpRequest(
        conn.in, options_.max_http_request_bytes, &request, &consumed);
    if (ps == net::HttpParseStatus::kNeedMore) return progressed;
    if (ps == net::HttpParseStatus::kTooLarge) {
      QueueHttpResponse(conn, 413, JsonError("request too large"),
                        /*keep_alive=*/false);
      return progressed;
    }
    if (ps == net::HttpParseStatus::kBad) {
      QueueHttpResponse(conn, 400, JsonError("malformed HTTP request"),
                        /*keep_alive=*/false);
      return progressed;
    }
    conn.in.erase(0, consumed);
    progressed = true;
    http_requests_.fetch_add(1, std::memory_order_relaxed);
    RouteHttp(conn, std::move(request));
  }
  return progressed;
}

void PlanServer::RouteHttp(Connection& conn, net::HttpRequest request) {
  const bool keep_alive = request.keep_alive;
  if (request.path == "/healthz") {
    const std::string body =
        "{\"status\":\"ok\",\"service_level\":" +
        std::to_string(service_->service_level()) + "}";
    QueueHttpResponse(conn, 200, body, keep_alive);
    return;
  }
  if (request.path == "/metricz") {
    const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
    const auto format = request.params.find("format");
    if (format != request.params.end() && format->second == "text") {
      AppendOutput(conn, net::BuildHttpResponse(
          200, "text/plain; charset=utf-8", snapshot.ToText(), keep_alive));
      responses_sent_.fetch_add(1, std::memory_order_relaxed);
      if (!keep_alive) conn.close_after_flush = true;
    } else {
      QueueHttpResponse(conn, 200, snapshot.ToJson(), keep_alive);
    }
    return;
  }
  if (request.path == "/statz") {
    const std::string body = "{\"service\":" + service_->stats().ToJson() +
                             ",\"server\":" + stats().ToJson() + "}";
    QueueHttpResponse(conn, 200, body, keep_alive);
    return;
  }
  if (request.path == "/plan") {
    if (request.method != "POST") {
      QueueHttpResponse(conn, 405, JsonError("use POST /plan"), keep_alive);
      return;
    }
    HandleHttpPlan(conn, request);
    return;
  }
  if (request.path == "/explain") {
    if (request.method != "GET") {
      QueueHttpResponse(conn, 405, JsonError("use GET /explain"), keep_alive);
      return;
    }
    if (request.params.find("q") == request.params.end()) {
      QueueHttpResponse(conn, 400,
                        JsonError("missing ?q=<urlencoded datalog query>"),
                        keep_alive);
      return;
    }
    conn.busy = true;
    ++conn.in_flight;
    {
      std::lock_guard<std::mutex> lock(debug_mu_);
      debug_jobs_.push_back({conn.id, std::move(request), keep_alive});
    }
    debug_cv_.notify_one();
    return;
  }
  QueueHttpResponse(conn, 404, JsonError("no such endpoint"), keep_alive);
}

void PlanServer::HandleHttpPlan(Connection& conn,
                                const net::HttpRequest& request) {
  const bool keep_alive = request.keep_alive;
  std::string error;
  std::optional<JsonValue> body = ParseJson(request.body, &error);
  if (!body.has_value() || !body->is_object()) {
    QueueHttpResponse(
        conn, 400,
        JsonError("body must be a JSON object: " +
                  (error.empty() ? std::string("not an object") : error)),
        keep_alive);
    return;
  }
  const JsonValue* query_member = body->Get("query");
  if (query_member == nullptr || !query_member->is_string()) {
    QueueHttpResponse(conn, 400,
                      JsonError("\"query\" must be a datalog rule string"),
                      keep_alive);
    return;
  }
  PlanRequestOptions options;
  if (const JsonValue* options_member = body->Get("options");
      options_member != nullptr) {
    std::optional<PlanRequestOptions> parsed =
        PlanRequestOptions::FromJson(*options_member, &error);
    if (!parsed.has_value()) {
      QueueHttpResponse(conn, 400, JsonError("options: " + error),
                        keep_alive);
      return;
    }
    options = *parsed;
  }
  std::optional<ConjunctiveQuery> query =
      ParseQuery(query_member->string_value(), &error);
  if (!query.has_value()) {
    QueueHttpResponse(conn, 400, JsonError("query parse error: " + error),
                      keep_alive);
    return;
  }

  PlanningService::PlanRequest plan_request;
  plan_request.query = std::move(*query);
  plan_request.options = options;

  conn.busy = true;
  ++conn.in_flight;
  const std::shared_ptr<CompletionQueue> queue = completions_;
  const uint64_t conn_id = conn.id;
  service_->SubmitWithCallback(
      std::move(plan_request),
      [queue, conn_id, keep_alive](PlanningService::PlanResponse response) {
        std::string wire = net::BuildHttpResponse(
            HttpCodeFor(response), "application/json", response.ToJson(),
            keep_alive);
        queue->Post(conn_id, std::move(wire), /*close_after_flush=*/!keep_alive);
      });
}

void PlanServer::DebugLoop() {
  while (true) {
    DebugJob job;
    {
      std::unique_lock<std::mutex> lock(debug_mu_);
      debug_cv_.wait(lock,
                     [this] { return debug_stop_ || !debug_jobs_.empty(); });
      if (debug_stop_ && debug_jobs_.empty()) return;
      job = std::move(debug_jobs_.front());
      debug_jobs_.pop_front();
    }
    std::string body;
    int code = 200;
    std::string error;
    const std::string& text = job.request.params.at("q");
    std::optional<ConjunctiveQuery> query = ParseQuery(text, &error);
    PlanRequestOptions request;
    if (const auto it = job.request.params.find("model");
        it != job.request.params.end() &&
        !CostModelFromName(it->second, &request.model)) {
      code = 400;
      body = JsonError("model must be m1|m2|m3");
    } else if (!query.has_value()) {
      code = 400;
      body = JsonError("query parse error: " + error);
    } else {
      const ViewPlanner::PlanExplanation explanation =
          service_->planner().Explain(*query, request);
      if (explanation.status == PlanStatus::kInvalidQuery) code = 400;
      body = explanation.ToJson();
    }
    std::string wire =
        net::BuildHttpResponse(code, "application/json", body,
                               job.keep_alive);
    completions_->Post(job.conn_id, std::move(wire),
                       /*close_after_flush=*/!job.keep_alive);
  }
}

}  // namespace vbr::server
