#ifndef VBR_COMMON_THREAD_POOL_H_
#define VBR_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace vbr {

// A fixed-size thread pool with a blocking ParallelFor, used by
// ViewPlanner::PlanMany to plan the members of a batch concurrently. The
// pool propagates nothing across threads: each member's governor is
// installed by the planning call the task runs.
//
// Design notes:
//  * No work stealing: one shared atomic index per ParallelFor call hands
//    out loop indices; a task plans whole requests, so contention on one
//    counter is irrelevant.
//  * Deterministic results are the CALLER's contract: callers write their
//    output into a pre-sized slot per index (results[i] from body(i)), so
//    the outcome is independent of the schedule.
//  * The calling thread participates, so a pool of one thread spawns no
//    workers and ParallelFor is a plain serial loop.
//  * Task bodies must not call ParallelFor on the same pool, and must not
//    throw (the library does not use exceptions, see common/check.h).
class ThreadPool {
 public:
  // Spawns `num_threads - 1` workers (the caller is the remaining thread).
  explicit ThreadPool(size_t num_threads) {
    for (size_t i = 1; i < num_threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
      ++generation_;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  static size_t DefaultThreadCount() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
  }

  // Invokes body(i) for every i in [0, n), distributing indices over the
  // pool, and blocks until all invocations completed. Concurrent external
  // callers are serialized.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body) {
    if (n == 0) return;
    if (workers_.empty() || n == 1) {
      for (size_t i = 0; i < n; ++i) body(i);
      return;
    }
    std::lock_guard<std::mutex> serialize(for_mu_);
    auto state = std::make_shared<ForState>();
    state->body = &body;
    state->n = n;
    {
      std::lock_guard<std::mutex> lock(mu_);
      state_ = state;
      ++generation_;
    }
    cv_.notify_all();
    RunTasks(*state);
    {
      std::unique_lock<std::mutex> lock(state->mu);
      state->done.wait(lock, [&] { return state->completed == state->n; });
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      state_.reset();
    }
  }

 private:
  // Shared state of one ParallelFor call. Heap-allocated and shared_ptr-held
  // by every participating thread so a straggler that wakes up after the
  // caller returned touches live memory.
  struct ForState {
    const std::function<void(size_t)>* body = nullptr;
    size_t n = 0;
    std::atomic<size_t> next{0};
    std::mutex mu;
    size_t completed = 0;  // guarded by mu
    std::condition_variable done;
  };

  static void RunTasks(ForState& s) {
    size_t finished = 0;
    for (size_t i; (i = s.next.fetch_add(1, std::memory_order_relaxed)) < s.n;) {
      (*s.body)(i);
      ++finished;
    }
    if (finished > 0) {
      std::lock_guard<std::mutex> lock(s.mu);
      s.completed += finished;
      if (s.completed == s.n) s.done.notify_all();
    }
  }

  void WorkerLoop() {
    uint64_t seen = 0;
    while (true) {
      std::shared_ptr<ForState> state;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
        if (shutdown_) return;
        seen = generation_;
        state = state_;
      }
      if (state != nullptr) RunTasks(*state);
    }
  }

  std::vector<std::thread> workers_;
  std::mutex for_mu_;  // serializes external ParallelFor calls
  std::mutex mu_;      // guards state_, generation_, shutdown_
  std::condition_variable cv_;
  std::shared_ptr<ForState> state_;
  uint64_t generation_ = 0;
  bool shutdown_ = false;
};

}  // namespace vbr

#endif  // VBR_COMMON_THREAD_POOL_H_
