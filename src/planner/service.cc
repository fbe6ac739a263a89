#include "planner/service.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/json.h"
#include "common/metrics.h"
#include "planner/snapshot.h"

namespace vbr {

namespace {

// The brown-out ladder's service-time instruments, resolved once.
struct ServiceMetrics {
  Counter* submitted;
  Counter* admitted;
  Counter* rejected;
  Counter* completed;
  Counter* shed;
  Counter* failed;
  Counter* retries;
  Counter* probes;
  Counter* deadline_misses;
  Counter* cache_only_hits;
  Counter* model_demotions;
  Histogram* queue_wait_us;
  Histogram* serve_us;

  static const ServiceMetrics& Get() {
    static const ServiceMetrics metrics = [] {
      MetricsRegistry& registry = MetricsRegistry::Global();
      ServiceMetrics m;
      m.submitted = registry.GetCounter("service.submitted");
      m.admitted = registry.GetCounter("service.admitted");
      m.rejected = registry.GetCounter("service.rejected");
      m.completed = registry.GetCounter("service.completed");
      m.shed = registry.GetCounter("service.shed");
      m.failed = registry.GetCounter("service.failed");
      m.retries = registry.GetCounter("service.retries");
      m.probes = registry.GetCounter("service.probes");
      m.deadline_misses = registry.GetCounter("service.deadline_misses");
      m.cache_only_hits = registry.GetCounter("service.cache_only_hits");
      m.model_demotions = registry.GetCounter("service.model_demotions");
      m.queue_wait_us = registry.GetHistogram("service.queue_wait_us");
      m.serve_us = registry.GetHistogram("service.serve_us");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

const char* PlanningService::ServiceStatusName(ServiceStatus status) {
  switch (status) {
    case ServiceStatus::kOk:
      return "ok";
    case ServiceStatus::kRejected:
      return "rejected";
    case ServiceStatus::kShed:
      return "shed";
    case ServiceStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

const char* PlanningService::RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kQueueFull:
      return "queue_full";
    case RejectReason::kDeadlineUnmeetable:
      return "deadline_unmeetable";
    case RejectReason::kOverloaded:
      return "overloaded";
    case RejectReason::kShuttingDown:
      return "shutting_down";
  }
  return "unknown";
}

std::string PlanningService::Stats::ToString() const {
  std::ostringstream out;
  out << "service.submitted " << submitted << "\n"
      << "service.admitted " << admitted << "\n"
      << "service.completed " << completed << "\n"
      << "service.shed " << shed << "\n"
      << "service.failed " << failed << "\n"
      << "service.rejected " << rejected << "\n"
      << "service.rejected_queue_full " << rejected_queue_full << "\n"
      << "service.rejected_deadline " << rejected_deadline << "\n"
      << "service.rejected_overload " << rejected_overload << "\n"
      << "service.rejected_shutdown " << rejected_shutdown << "\n"
      << "service.retries " << retries << "\n"
      << "service.probes " << probes << "\n"
      << "service.deadline_misses " << deadline_misses << "\n"
      << "service.cache_only_hits " << cache_only_hits << "\n"
      << "service.model_demotions " << model_demotions << "\n"
      << "service.queue_depth " << queue_depth << "\n"
      << "service.breaker_level " << breaker_level << "\n"
      << "service.breaker_trips " << breaker_trips << "\n"
      << "service.breaker_recoveries " << breaker_recoveries << "\n"
      << "service.service_time_estimate_ms " << service_time_estimate_ms
      << "\n";
  return out.str();
}

std::string PlanningService::Stats::ToJson() const {
  std::ostringstream out;
  out << "{\"submitted\":" << submitted << ",\"admitted\":" << admitted
      << ",\"completed\":" << completed << ",\"shed\":" << shed
      << ",\"failed\":" << failed << ",\"rejected\":" << rejected
      << ",\"rejected_queue_full\":" << rejected_queue_full
      << ",\"rejected_deadline\":" << rejected_deadline
      << ",\"rejected_overload\":" << rejected_overload
      << ",\"rejected_shutdown\":" << rejected_shutdown
      << ",\"retries\":" << retries << ",\"probes\":" << probes
      << ",\"deadline_misses\":" << deadline_misses
      << ",\"cache_only_hits\":" << cache_only_hits
      << ",\"model_demotions\":" << model_demotions
      << ",\"queue_depth\":" << queue_depth
      << ",\"breaker_level\":" << breaker_level
      << ",\"breaker_trips\":" << breaker_trips
      << ",\"breaker_recoveries\":" << breaker_recoveries
      << ",\"service_time_estimate_ms\":" << service_time_estimate_ms << "}";
  return out.str();
}

std::string PlanningService::PlanResponse::ToJson() const {
  std::string s = "{";
  s += "\"service_status\":\"" + std::string(ServiceStatusName(status)) + "\"";
  s += ",\"reject_reason\":\"" + std::string(RejectReasonName(reject_reason)) +
       "\"";
  s += ",\"attempts\":" + std::to_string(attempts);
  s += ",\"service_level\":" + std::to_string(service_level);
  s += ",\"served_from_cache_only\":" +
       std::string(served_from_cache_only ? "true" : "false");
  s += ",\"model_demoted\":" + std::string(model_demoted ? "true" : "false");
  s += ",\"queue_wait_ms\":" + std::to_string(queue_wait_ms);
  s += ",\"error\":\"" + JsonEscape(error) + "\"";
  s += ",\"result\":";
  s += status == ServiceStatus::kOk ? result.ToJson() : "null";
  s += "}";
  return s;
}

PlanningService::PlanningService(const ViewPlanner* planner, Options options)
    : planner_(planner),
      options_(std::move(options)),
      breaker_(options_.breaker) {
  VBR_CHECK_MSG(planner_ != nullptr, "service needs a planner");
  VBR_CHECK_MSG(options_.num_workers >= 1, "service needs a worker");
  VBR_CHECK_MSG(options_.max_queue >= 1, "service needs a queue slot");
  VBR_CHECK_MSG(options_.retry.max_attempts >= 1,
                "retry.max_attempts counts the first attempt");
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

PlanningService::~PlanningService() { Shutdown(DrainMode::kDrain); }

void PlanningService::Fulfill(Request& request, PlanResponse response) {
  if (request.callback) {
    request.callback(std::move(response));
  } else {
    request.promise.set_value(std::move(response));
  }
}

std::future<PlanningService::PlanResponse> PlanningService::Submit(
    PlanRequest request) {
  return SubmitInternal(std::move(request), nullptr);
}

void PlanningService::SubmitWithCallback(
    PlanRequest request, std::function<void(PlanResponse)> done) {
  VBR_CHECK_MSG(done != nullptr, "SubmitWithCallback needs a callback");
  SubmitInternal(std::move(request), std::move(done));
}

std::future<PlanningService::PlanResponse> PlanningService::SubmitInternal(
    PlanRequest request, std::function<void(PlanResponse)> done) {
  const ServiceMetrics& metrics = ServiceMetrics::Get();
  metrics.submitted->Increment();
  if (options_.request_log != nullptr) {
    // Record the request's OWN options, pre-merge, so a replay through a
    // differently-configured service still submits what the client asked.
    options_.request_log->Append(request.query, request.options);
  }
  // The promise/future pair is only armed for future-style submissions;
  // callback submissions leave the future in a default (invalid) state the
  // caller never sees.
  std::promise<PlanResponse> promise;
  std::future<PlanResponse> future;
  if (done == nullptr) future = promise.get_future();

  RejectReason reject = RejectReason::kNone;
  bool probe = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
    if (stopping_) {
      reject = RejectReason::kShuttingDown;
    } else {
      switch (breaker_.Admit()) {
        case CircuitBreaker::Admission::kAdmit:
          break;
        case CircuitBreaker::Admission::kProbe:
          probe = true;
          break;
        case CircuitBreaker::Admission::kReject:
          reject = RejectReason::kOverloaded;
          break;
      }
    }
    if (reject == RejectReason::kNone && request.options.deadline_ms > 0) {
      // Provably-unmeetable deadline: with `queue_depth` requests ahead and
      // num_workers servers, this request waits roughly
      // ceil(depth / workers) service times before its own begins.
      const double estimate = options_.assumed_service_ms > 0
                                  ? options_.assumed_service_ms
                                  : (ewma_valid_ ? ewma_service_ms_ : 0);
      if (estimate > 0) {
        const double ahead = static_cast<double>(
            queue_.size() / options_.num_workers + 1);
        if (ahead * estimate > request.options.deadline_ms) {
          reject = RejectReason::kDeadlineUnmeetable;
        }
      }
    }
    if (reject == RejectReason::kNone && queue_.size() >= options_.max_queue) {
      reject = RejectReason::kQueueFull;
    }

    if (reject == RejectReason::kNone) {
      ++stats_.admitted;
      if (probe) ++stats_.probes;
      auto queued = std::make_unique<Request>();
      queued->request = std::move(request);
      queued->promise = std::move(promise);
      queued->callback = std::move(done);
      queued->probe = probe;
      queued->id = next_id_++;
      queue_.push_back(std::move(queued));
      VBR_CHECK(queue_.size() <= options_.max_queue);
      metrics.admitted->Increment();
      if (probe) metrics.probes->Increment();
      cv_.notify_one();
      return future;
    }

    ++stats_.rejected;
    switch (reject) {
      case RejectReason::kQueueFull:
        ++stats_.rejected_queue_full;
        break;
      case RejectReason::kDeadlineUnmeetable:
        ++stats_.rejected_deadline;
        break;
      case RejectReason::kOverloaded:
        ++stats_.rejected_overload;
        break;
      case RejectReason::kShuttingDown:
        ++stats_.rejected_shutdown;
        break;
      case RejectReason::kNone:
        break;
    }
  }
  metrics.rejected->Increment();
  // Rejections are NOT recorded in the breaker: a breaker fed by its own
  // rejections can never observe recovery.
  PlanResponse response;
  response.status = ServiceStatus::kRejected;
  response.reject_reason = reject;
  response.error = RejectReasonName(reject);
  if (done != nullptr) {
    // Rejected callback submissions complete inline on the caller's thread.
    done(std::move(response));
  } else {
    promise.set_value(std::move(response));
  }
  return future;
}

PlanningService::PlanResponse PlanningService::Plan(PlanRequest request) {
  return Submit(std::move(request)).get();
}

void PlanningService::WorkerLoop() {
  for (;;) {
    std::unique_ptr<Request> request;
    bool shed_pending = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue
      request = std::move(queue_.front());
      queue_.pop_front();
      shed_pending = stopping_ && drain_mode_ == DrainMode::kShedPending;
    }
    // Every dequeued request records its queue wait, whatever its fate
    // (served, expired, or shutdown-shed).
    ServiceMetrics::Get().queue_wait_us->Record(
        static_cast<uint64_t>(request->queued.ElapsedMillis() * 1000.0));
    if (shed_pending) {
      // Shutdown policy, not a health signal: do not feed the breaker.
      Shed(*request, "shutdown shed the pending queue",
           /*record_failure=*/false);
    } else {
      Serve(*request);
    }
  }
}

uint32_t PlanningService::EffectiveLevel() const {
  // Requests that reach a worker were admitted (possibly as probes), so the
  // reject rung never executes; clamp to the rung below it.
  return std::min(breaker_.level(), breaker_.reject_level() - 1);
}

PlanRequestOptions PlanningService::AttemptOptions(const Request& request,
                                                   uint32_t level,
                                                   CostModel model) const {
  PlanRequestOptions attempt = request.request.options;
  attempt.model = model;
  // The deadline counts from submission, so an attempt gets what is left.
  if (attempt.deadline_ms > 0) {
    attempt.deadline_ms = std::max(
        0.001, attempt.deadline_ms - request.queued.ElapsedMillis());
  }
  // A client can narrow its request but never widen the operator's limits.
  attempt = attempt.StricterOf(options_.budget);
  if (level >= 2) attempt = attempt.StricterOf(options_.brownout_budget);
  return attempt;
}

void PlanningService::Shed(Request& request, const std::string& why,
                           bool record_failure) {
  PlanResponse response;
  response.status = ServiceStatus::kShed;
  response.queue_wait_ms = request.queued.ElapsedMillis();
  response.error = why;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.shed;
  }
  ServiceMetrics::Get().shed->Increment();
  if (record_failure) breaker_.RecordFailure();
  Fulfill(request, std::move(response));
}

void PlanningService::Serve(Request& request) {
  const ServiceMetrics& metrics = ServiceMetrics::Get();
  const double waited_ms = request.queued.ElapsedMillis();
  const double deadline_ms = request.request.options.deadline_ms;
  if (deadline_ms > 0 && waited_ms >= deadline_ms) {
    // Too late to be useful; shedding now is cheaper than planning a result
    // nobody is waiting for. Queue-deadline misses are a genuine overload
    // signal, so they DO feed the breaker.
    Shed(request, "deadline expired while queued", /*record_failure=*/true);
    return;
  }

  const Timer serve_timer;
  const uint32_t level = EffectiveLevel();
  PlanResponse response;
  response.service_level = level;
  response.queue_wait_ms = waited_ms;

  // Rung 1: shed tracing (and EXPLAIN-style extras) before planning work.
  TraceContext trace;
  std::optional<TraceSpan> span;
  if (request.request.trace != nullptr && level < 1) {
    span.emplace(request.request.trace, "service.request");
    span->AddAttribute("level", static_cast<uint64_t>(level));
    span->AddAttribute("model", CostModelName(request.request.options.model));
    if (request.probe) span->AddAttribute("probe", true);
    trace = span->context();
  }

  CostModel model = request.request.options.model;
  bool served = false;
  // Rung 3: cached-or-M1-only. Warm traffic is still answered (a cache hit
  // serves its entry's stored choice and never searches); cold traffic
  // is demoted to M1, the instance-independent model with the cheapest
  // costing loop.
  if (level >= 3) {
    if (std::optional<ViewPlanner::PlanResult> cached =
            planner_->TryPlanFromCache(request.request.query,
                                       AttemptOptions(request, level, model),
                                       trace)) {
      response.result = std::move(*cached);
      response.served_from_cache_only = true;
      served = true;
      metrics.cache_only_hits->Increment();
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.cache_only_hits;
    } else if (model != CostModel::kM1) {
      model = CostModel::kM1;
      response.model_demoted = true;
      metrics.model_demotions->Increment();
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.model_demotions;
    }
  }

  uint32_t attempts = 0;
  if (!served) {
    for (;;) {
      ++attempts;
      // Rung 2 (and the deadline) act through the attempt's options.
      response.result = planner_->Plan(
          request.request.query, AttemptOptions(request, level, model), trace);
      const bool transient =
          response.result.status == PlanStatus::kBudgetExhausted &&
          response.result.exhaustion.kind == BudgetKind::kInjected;
      if (!transient || attempts >= options_.retry.max_attempts) break;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.retries;
      }
      metrics.retries->Increment();
      const double delay_ms =
          options_.retry.DelayMs(attempts, options_.retry_seed + request.id);
      if (options_.sleep_ms) {
        options_.sleep_ms(delay_ms);
      } else if (delay_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(delay_ms));
      }
    }
  }
  response.attempts = attempts;

  // Terminal classification. A transient (injected) fault that survived
  // every retry is a service FAILURE; genuine budget exhaustion is an
  // answer (the caller gets the planner's account), though it still feeds
  // the breaker as a degradation signal.
  const bool persistent_fault =
      !served && response.result.status == PlanStatus::kBudgetExhausted &&
      response.result.exhaustion.kind == BudgetKind::kInjected;
  bool breaker_failure;
  if (persistent_fault) {
    response.status = ServiceStatus::kFailed;
    response.error = "transient fault persisted across " +
                     std::to_string(attempts) + " attempts: " +
                     response.result.error;
    breaker_failure = true;
  } else {
    response.status = ServiceStatus::kOk;
    breaker_failure =
        response.result.status == PlanStatus::kBudgetExhausted;
  }
  const double total_ms = request.queued.ElapsedMillis();
  const bool missed_deadline = deadline_ms > 0 && total_ms > deadline_ms;
  if (missed_deadline) breaker_failure = true;

  const double serve_ms = serve_timer.ElapsedMillis();
  metrics.serve_us->Record(static_cast<uint64_t>(serve_ms * 1000.0));
  if (missed_deadline) metrics.deadline_misses->Increment();
  (response.status == ServiceStatus::kOk ? metrics.completed
                                         : metrics.failed)
      ->Increment();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (response.status == ServiceStatus::kOk) {
      ++stats_.completed;
    } else {
      ++stats_.failed;
    }
    if (missed_deadline) ++stats_.deadline_misses;
    // EWMA of observed service times, feeding the admission estimate.
    ewma_service_ms_ =
        ewma_valid_ ? 0.8 * ewma_service_ms_ + 0.2 * serve_ms : serve_ms;
    ewma_valid_ = true;
  }
  if (breaker_failure) {
    breaker_.RecordFailure();
  } else {
    breaker_.RecordSuccess();
  }

  if (span) {
    span->AddAttribute("status", ServiceStatusName(response.status));
    span->AddAttribute("attempts", static_cast<uint64_t>(attempts));
    if (response.status == ServiceStatus::kOk) {
      span->AddAttribute("plan_status",
                         PlanStatusName(response.result.status));
    }
    // Flush before fulfilling the promise: once the future is ready the
    // caller may tear the sink down.
    span.reset();
  }
  Fulfill(request, std::move(response));
}

void PlanningService::Shutdown(DrainMode mode) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_) {
      stopping_ = true;
      drain_mode_ = mode;  // first caller's policy wins
    }
  }
  cv_.notify_all();
  // joinable() goes false after the first join, so a second Shutdown (the
  // destructor, typically) passes through without re-joining.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  VBR_CHECK_MSG(queue_.empty(), "workers exited with requests still queued");
}

PlanningService::Stats PlanningService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats snapshot = stats_;
  snapshot.queue_depth = queue_.size();
  snapshot.breaker_level = breaker_.level();
  snapshot.breaker_trips = breaker_.trips();
  snapshot.breaker_recoveries = breaker_.recoveries();
  snapshot.service_time_estimate_ms = ewma_valid_ ? ewma_service_ms_ : 0;
  return snapshot;
}

}  // namespace vbr
