#include "util/thread_pool.h"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

namespace cdt {
namespace util {

namespace {

// Which pool (if any) the current thread is a worker of. Used to detect
// nested submissions: a task that fans out again on its own pool must run
// the nested work inline, or all workers could end up blocked in
// ParallelFor waiting for each other.
thread_local const ThreadPool* g_worker_of = nullptr;

Status SafeInvoke(const std::function<Status(std::size_t)>& body,
                  std::size_t index) {
  try {
    return body(index);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("ParallelFor body threw: ") +
                            e.what());
  } catch (...) {
    return Status::Internal("ParallelFor body threw a non-standard exception");
  }
}

}  // namespace

// Shared bookkeeping for one ParallelFor call. Lives on the caller's stack;
// ParallelFor does not return until pending hits zero, so worker references
// to it never dangle.
struct ThreadPool::ForState {
  std::mutex mu;
  std::condition_variable done;
  std::size_t pending = 0;
  bool failed = false;
  Status error;
  std::size_t error_index = 0;
};

ThreadPool::ThreadPool(int jobs) : jobs_(std::max(jobs, 1)) {
  if (jobs_ == 1) return;  // inline pool: no threads, no queue traffic
  workers_.reserve(static_cast<std::size_t>(jobs_));
  for (int i = 0; i < jobs_; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

int ThreadPool::DefaultJobs() {
  unsigned int n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

bool ThreadPool::RunsInline() const {
  return workers_.empty() || g_worker_of == this;
}

void ThreadPool::WorkerLoop() {
  g_worker_of = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [this]() { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::RunIteration(
    ForState* state, std::size_t index,
    const std::function<Status(std::size_t)>& body) {
  bool skip;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    skip = state->failed;
  }
  Status status = skip ? Status::OK() : SafeInvoke(body, index);
  std::lock_guard<std::mutex> lock(state->mu);
  if (!status.ok() && (!state->failed || index < state->error_index)) {
    state->failed = true;
    state->error = std::move(status);
    state->error_index = index;
  }
  if (--state->pending == 0) state->done.notify_all();
}

Status ThreadPool::ParallelFor(
    std::size_t begin, std::size_t end,
    const std::function<Status(std::size_t)>& body) {
  if (end <= begin) return Status::OK();
  if (RunsInline() || end - begin == 1) {
    // Serial reference path: first error wins, later iterations never run.
    for (std::size_t i = begin; i < end; ++i) {
      CDT_RETURN_NOT_OK(SafeInvoke(body, i));
    }
    return Status::OK();
  }

  ForState state;
  state.pending = end - begin;
  {
    // Enqueue in index order (FIFO queue), so iteration start order matches
    // the serial loop and the lowest-index error mirrors the serial one.
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = begin; i < end; ++i) {
      queue_.push_back([&state, &body, i]() { RunIteration(&state, i, body); });
    }
  }
  wake_.notify_all();

  std::unique_lock<std::mutex> lock(state.mu);
  state.done.wait(lock, [&state]() { return state.pending == 0; });
  return state.failed ? state.error : Status::OK();
}

}  // namespace util
}  // namespace cdt
