#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace cdt {
namespace util {
namespace {

TEST(ThreadPoolTest, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::DefaultJobs(), 1);
}

TEST(ThreadPoolTest, JobsAreClampedToAtLeastOne) {
  EXPECT_EQ(ThreadPool(0).jobs(), 1);
  EXPECT_EQ(ThreadPool(-3).jobs(), 1);
  EXPECT_EQ(ThreadPool(4).jobs(), 4);
}

TEST(ThreadPoolTest, EmptyRangeNeverInvokesBody) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  Status st = pool.ParallelFor(5, 5, [&](std::size_t) {
    ++calls;
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t kCount = 500;
  std::vector<std::atomic<int>> hits(kCount);
  Status st = pool.ParallelFor(0, kCount, [&](std::size_t i) {
    ++hits[i];
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ManyMoreTasksThanWorkers) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  Status st = pool.ParallelFor(0, 1000, [&](std::size_t) {
    ++total;
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPoolTest, JobsOneRunsInlineOnCallingThread) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> seen;
  Status st = pool.ParallelFor(0, 8, [&](std::size_t) {
    seen.insert(std::this_thread::get_id());
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(*seen.begin(), caller);
}

TEST(ThreadPoolTest, PropagatesLowestFailingIndex) {
  // The lowest failing index is always popped (FIFO) before any other
  // failure can mark the loop failed, so its status wins deterministically.
  ThreadPool pool(4);
  Status st = pool.ParallelFor(0, 100, [&](std::size_t i) {
    if (i == 3 || i == 7 || i == 50) {
      return Status::InvalidArgument("bad index " + std::to_string(i));
    }
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad index 3");
}

TEST(ThreadPoolTest, SerialErrorShortCircuits) {
  ThreadPool pool(1);
  std::atomic<int> calls{0};
  Status st = pool.ParallelFor(0, 10, [&](std::size_t i) {
    ++calls;
    if (i == 2) return Status::Internal("stop");
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "stop");
  EXPECT_EQ(calls.load(), 3);  // 0, 1, 2 then stop
}

TEST(ThreadPoolTest, ExceptionBecomesInternalStatus) {
  ThreadPool pool(4);
  Status st = pool.ParallelFor(0, 16, [&](std::size_t i) -> Status {
    if (i == 5) throw std::runtime_error("boom");
    return Status::OK();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("threw"), std::string::npos);
  EXPECT_NE(st.message().find("boom"), std::string::npos);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  // A body that re-enters the pool must not wait on its own worker slot;
  // nested calls run inline on the worker thread.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  Status st = pool.ParallelFor(0, 4, [&](std::size_t) {
    return pool.ParallelFor(0, 8, [&](std::size_t) {
      ++total;
      return Status::OK();
    });
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPoolTest, NestedErrorPropagatesThroughOuterLoop) {
  ThreadPool pool(2);
  Status st = pool.ParallelFor(0, 4, [&](std::size_t outer) {
    return pool.ParallelFor(0, 4, [&](std::size_t inner) {
      if (outer == 0 && inner == 2) {
        return Status::FailedPrecondition("inner failure");
      }
      return Status::OK();
    });
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "inner failure");
}

TEST(ThreadPoolTest, PoolIsReusableAcrossLoops) {
  ThreadPool pool(3);
  for (int iteration = 0; iteration < 5; ++iteration) {
    std::atomic<int> total{0};
    Status st = pool.ParallelFor(0, 20, [&](std::size_t) {
      ++total;
      return Status::OK();
    });
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(total.load(), 20);
  }
}

}  // namespace
}  // namespace util
}  // namespace cdt
