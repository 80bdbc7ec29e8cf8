// A fixed-size worker pool for fanning out independent units of work.
//
// Design points, in the spirit of the rest of the library:
//
//  * Status-first: `ParallelFor` runs a Status-returning body over an index
//    range and propagates the failure with the lowest index (tasks are
//    dispatched FIFO, so with jobs=1 this is exactly the serial first
//    error). Once a failure is recorded, not-yet-started iterations are
//    skipped (best-effort cancellation); in-flight ones run to completion.
//  * Exception-safe: a body that throws is captured and surfaced as
//    Status::Internal — exceptions never cross the pool boundary.
//  * Deterministic-friendly: the pool imposes no ordering on results; it is
//    the caller's job to write results into pre-sized slots keyed by index
//    (see sim::RunSweep), which makes output independent of the job count.
//  * Inline degenerate case: `ThreadPool(1)` (or 0/negative) spawns no
//    worker threads and runs everything on the calling thread, reproducing
//    single-threaded behavior bit-for-bit with zero synchronization.
//  * Nested-submission guard: a task running on a pool worker that calls
//    back into the same pool's ParallelFor executes the nested work inline
//    on that worker instead of enqueueing, so nested fan-out can never
//    deadlock waiting for workers that are all busy waiting.
//
//   util::ThreadPool pool(8);
//   CDT_RETURN_NOT_OK(pool.ParallelFor(0, n, [&](std::size_t i) {
//     return DoExpensiveUnit(i);   // -> util::Status
//   }));

#ifndef CDT_UTIL_THREAD_POOL_H_
#define CDT_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace cdt {
namespace util {

class ThreadPool {
 public:
  /// Creates a pool with `jobs` concurrent lanes. `jobs <= 1` creates an
  /// inline pool: no threads are spawned and all work runs on the caller.
  explicit ThreadPool(int jobs);

  /// Joins all workers. Pending (never-started) tasks are abandoned; a
  /// destructor running while ParallelFor is in flight is a programming
  /// error (ParallelFor blocks until its iterations are done).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The default job count for `--jobs=0`: hardware_concurrency, but at
  /// least 1 (hardware_concurrency may report 0 on exotic platforms).
  static int DefaultJobs();

  /// Number of concurrent lanes (>= 1). 1 means fully inline.
  int jobs() const { return jobs_; }

  /// Runs `body(i)` for every i in [begin, end), spread over the pool, and
  /// blocks until all started iterations finished. Returns OK when every
  /// iteration returned OK; otherwise the error with the lowest index.
  /// After the first failure remaining unstarted iterations are skipped.
  /// An empty range returns OK without touching the pool. Safe to call
  /// from within a pool task (runs inline, see header comment).
  Status ParallelFor(std::size_t begin, std::size_t end,
                     const std::function<Status(std::size_t)>& body);

 private:
  struct ForState;

  void WorkerLoop();
  /// True when work must run on the calling thread: inline pool, or the
  /// caller is one of this pool's own workers.
  bool RunsInline() const;
  static void RunIteration(ForState* state, std::size_t index,
                           const std::function<Status(std::size_t)>& body);

  int jobs_ = 1;
  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace util
}  // namespace cdt

#endif  // CDT_UTIL_THREAD_POOL_H_
