// Unit tests for the worker pool behind morsel-parallel execution:
// submit/wait/shutdown, exception-to-Status propagation, and the
// ParallelMorsels scheduler, whose strips claim morsels from a shared
// counter while every morsel keeps its fixed index range.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace mural {
namespace {

TEST(ThreadPoolTest, SubmitRunsTasksAndReturnsTheirStatus) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> ran{0};
  std::vector<std::future<Status>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Submit([&ran] {
      ran.fetch_add(1);
      return Status::OK();
    }));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPoolTest, ErrorStatusPropagatesThroughTheFuture) {
  ThreadPool pool(2);
  std::future<Status> f =
      pool.Submit([] { return Status::InvalidArgument("bad morsel"); });
  const Status s = f.get();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("bad morsel"), std::string::npos);
}

TEST(ThreadPoolTest, ThrownExceptionBecomesInternalStatus) {
  ThreadPool pool(2);
  // std::stoi on a non-number throws std::invalid_argument inside the
  // task; the pool must convert it rather than terminate.
  std::future<Status> f = pool.Submit([] {
    const int parsed = std::stoi("not a number");
    return parsed == 0 ? Status::OK() : Status::OK();
  });
  const Status s = f.get();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("task threw"), std::string::npos);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  std::vector<std::future<Status>> futures;
  {
    ThreadPool pool(1);
    for (int i = 0; i < 16; ++i) {
      futures.push_back(pool.Submit([&ran] {
        ran.fetch_add(1);
        return Status::OK();
      }));
    }
    pool.Shutdown();
    EXPECT_EQ(ran.load(), 16);
    pool.Shutdown();  // idempotent
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
}

TEST(ThreadPoolTest, SubmitAfterShutdownReturnsAborted) {
  ThreadPool pool(1);
  pool.Shutdown();
  std::future<Status> f = pool.Submit([] { return Status::OK(); });
  const Status s = f.get();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("shut down"), std::string::npos);
}

TEST(ThreadPoolTest, HardwareConcurrencyIsAtLeastOne) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1u);
}

TEST(ParallelMorselsTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 10'000;
  std::vector<std::atomic<int>> touched(n);
  const Status s = ParallelMorsels(
      &pool, n, /*dop=*/4,
      [&touched](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
        return Status::OK();
      });
  ASSERT_TRUE(s.ok());
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(touched[i].load(), 1) << i;
}

TEST(ParallelMorselsTest, MorselCountComesFromCountAlone) {
  // About 128 morsels per input, at least one unit each.
  EXPECT_EQ(MorselCount(0), 0u);
  EXPECT_EQ(MorselCount(1), 1u);
  EXPECT_EQ(MorselCount(100), 100u);
  EXPECT_EQ(MorselCount(128), 128u);
  EXPECT_EQ(MorselCount(129), 65u);    // 2 units each, the last one short
  EXPECT_EQ(MorselCount(549), 110u);   // 5 pages each
  EXPECT_EQ(MorselCount(1200), 120u);  // 10 rows each
  EXPECT_EQ(MorselCount(8192), 128u);  // 64 rows each
}

TEST(ParallelMorselsTest, MorselIndexingIsDeterministic) {
  // Morsel m always covers the same range, so writers keyed by morsel
  // index produce identical layouts at any DOP.  1001 units make 126
  // morsels of 8 and a ragged last morsel of 1.
  ThreadPool pool(4);
  const size_t n = 1001, size = 8;
  ASSERT_EQ(MorselCount(n), 126u);
  for (int dop : {1, 2, 4, 8}) {
    std::vector<std::pair<size_t, size_t>> ranges(MorselCount(n));
    const Status s = ParallelMorsels(
        &pool, n, dop,
        [&ranges](size_t m, size_t begin, size_t end) {
          ranges[m] = {begin, end};
          return Status::OK();
        });
    ASSERT_TRUE(s.ok());
    for (size_t m = 0; m < ranges.size(); ++m) {
      EXPECT_EQ(ranges[m].first, m * size);
      EXPECT_EQ(ranges[m].second, std::min(n, (m + 1) * size));
    }
    EXPECT_EQ(ranges.back(), std::make_pair(n - 1, n));
  }
}

TEST(ParallelMorselsTest, RunsInlineWithoutAPool) {
  size_t covered = 0;
  const Status s = ParallelMorsels(
      nullptr, 100, /*dop=*/8,
      [&covered](size_t, size_t begin, size_t end) {
        covered += end - begin;  // safe: inline path is single-threaded
        return Status::OK();
      });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(covered, 100u);
}

TEST(ParallelMorselsTest, TinyInputRunsInlineInTheSameMorsels) {
  // Fewer than two units per strip: every morsel runs on the calling
  // thread, and the input is still cut into MorselCount(count) morsels.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (const size_t n : {size_t{1}, size_t{3}, size_t{7}}) {
    std::vector<size_t> seen;  // safe: the inline path is single-threaded
    bool off_caller = false;
    const Status s = ParallelMorsels(
        &pool, n, /*dop=*/4, [&](size_t m, size_t, size_t) {
          seen.push_back(m);
          off_caller |= std::this_thread::get_id() != caller;
          return Status::OK();
        });
    ASSERT_TRUE(s.ok());
    EXPECT_FALSE(off_caller) << "n=" << n;
    EXPECT_EQ(seen.size(), MorselCount(n)) << "n=" << n;
  }
}

TEST(ParallelMorselsTest, EmptyInputIsANoop) {
  ThreadPool pool(2);
  int calls = 0;
  const Status s = ParallelMorsels(&pool, 0, 4,
                                   [&calls](size_t, size_t, size_t) {
                                     ++calls;
                                     return Status::OK();
                                   });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 0);
}

TEST(ParallelMorselsTest, FirstErrorWins) {
  ThreadPool pool(4);
  const Status s = ParallelMorsels(
      &pool, 1000, 4, [](size_t m, size_t, size_t) {
        if (m == 3) return Status::InvalidArgument("morsel 3 failed");
        return Status::OK();
      });
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("failed"), std::string::npos);
}

TEST(ParallelMorselsTest, LowestFailingMorselsErrorWins) {
  // Claims are handed out in index order and a claimed morsel always runs,
  // so morsel 3 fails on every schedule and its error is the one returned.
  ThreadPool pool(4);
  for (int dop : {1, 2, 4, 8}) {
    const Status s = ParallelMorsels(
        &pool, 1000, dop, [](size_t m, size_t, size_t) {
          if (m == 3) return Status::InvalidArgument("morsel 3 failed");
          if (m == 40) return Status::InvalidArgument("morsel 40 failed");
          return Status::OK();
        });
    EXPECT_NE(s.ToString().find("morsel 3 failed"), std::string::npos)
        << "dop=" << dop << ": " << s.ToString();
  }
}

TEST(ParallelMorselsTest, FailureStopsFurtherClaims) {
  // Inline, the one strip stops at the failing morsel.
  int calls = 0;
  const Status s = ParallelMorsels(
      nullptr, 1000, /*dop=*/1, [&calls](size_t m, size_t, size_t) {
        ++calls;
        if (m == 5) return Status::InvalidArgument("stop");
        return Status::OK();
      });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(calls, 6);
}

}  // namespace
}  // namespace mural
