// Concurrency stress for the latched page-guard API: many workers fetch,
// write, evict and flush through ONE shared 4-frame BufferPool over a
// fault-injected disk.  Run under the tsan preset in CI (and the tsa
// preset compiles the pool's annotations); the asserts here are about
// Status propagation and data integrity — the data-race checking is the
// sanitizer's job.
//
// Protocol under test (see DESIGN.md "Storage concurrency"):
//   * table_mu_ guards the frame table; per-frame SharedMutex latches
//     guard the page images (ReadPageGuard shared, WritePageGuard
//     exclusive).
//   * With 4 frames against 16 pages every worker round trips through
//     PinPage/AcquireFreeFrame/eviction, so pin counts, LRU membership
//     and dirty write-back all run concurrently.
//   * FlushAll runs against live fetch traffic.
//   * An armed disk fault surfaces as a clean IOError Status from ANY of
//     those paths, and never corrupts pages that were already durable.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "storage/buffer_pool.h"
#include "storage/fault_injection.h"
#include "storage/page.h"

namespace mural {
namespace {

constexpr size_t kFrames = 4;
constexpr size_t kPages = 16;
constexpr int kWorkers = 4;
constexpr int kRoundsPerWorker = 200;

// Slot 0: immutable birthmark, verified on every read.
std::string Birthmark(PageId id) {
  return "page-" + std::to_string(id) + "-birthmark";
}

// Slot 1: mutable cell, always overwritten in place with a same-length
// value so Update never needs to grow the record.
std::string Cell(uint64_t v) {
  std::string s = std::to_string(v % 1000000);
  return std::string(6 - s.size(), '0') + s;
}

/// Creates kPages pages, each with the birthmark in slot 0 and "000000" in
/// slot 1, and flushes them to disk.
Status Populate(BufferPool* pool, std::vector<PageId>* ids) {
  for (size_t p = 0; p < kPages; ++p) {
    MURAL_ASSIGN_OR_RETURN(WritePageGuard guard, pool->NewPage());
    guard->Init();
    MURAL_RETURN_IF_ERROR(guard->Insert(Slice(Birthmark(guard.id()))).status());
    MURAL_RETURN_IF_ERROR(guard->Insert(Slice(Cell(0))).status());
    guard.MarkDirty();
    ids->push_back(guard.id());
  }
  return pool->FlushAll();
}

/// One worker: a deterministic LCG walk over the pages.  Mostly reads
/// (verifying the birthmark), some in-place writes through the exclusive
/// latch, and a sprinkle of FlushAll.  Any error must be a clean Status;
/// under an armed disk only IOError is acceptable.
Status WorkerBody(BufferPool* pool, const std::vector<PageId>& ids, int seed,
                  bool faults_armed) {
  uint64_t rng = 0x9e3779b97f4a7c15ull * (seed + 1);
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  for (int round = 0; round < kRoundsPerWorker; ++round) {
    const PageId id = ids[next() % ids.size()];
    const uint64_t dice = next() % 100;
    Status status = Status::OK();
    if (dice < 70) {
      // Shared read: birthmark must be intact whatever else is going on.
      StatusOr<ReadPageGuard> guard = pool->Fetch(id);
      if (guard.ok()) {
        StatusOr<Slice> rec = (*guard)->Get(0);
        if (!rec.ok()) {
          status = rec.status();
        } else if (rec->ToStringView() != Birthmark(id)) {
          return Status::Internal("birthmark corrupted on page " +
                                  std::to_string(id));
        }
      } else {
        status = guard.status();
      }
    } else if (dice < 95) {
      // Exclusive write: same-length in-place update of the cell.
      StatusOr<WritePageGuard> guard = pool->FetchForWrite(id);
      if (guard.ok()) {
        status = (*guard)->Update(1, Slice(Cell(next())));
        if (status.ok()) guard->MarkDirty();
      } else {
        status = guard.status();
      }
    } else {
      status = pool->FlushAll();
    }
    if (!status.ok()) {
      if (!faults_armed) return status;
      if (status.code() != StatusCode::kIOError) {
        return Status::Internal("expected IOError under faults, got " +
                                status.ToString());
      }
    }
  }
  return Status::OK();
}

/// Full integrity check through a FRESH pool over the same disk, so every
/// byte read went through eviction/write-back at least once.
void VerifyDurable(DiskManager* disk, const std::vector<PageId>& ids) {
  BufferPool fresh(disk, kFrames);
  for (const PageId id : ids) {
    StatusOr<ReadPageGuard> guard = fresh.Fetch(id);
    ASSERT_TRUE(guard.ok()) << guard.status().ToString();
    StatusOr<Slice> rec = (*guard)->Get(0);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(rec->ToStringView(), Birthmark(id));
    StatusOr<Slice> cell = (*guard)->Get(1);
    ASSERT_TRUE(cell.ok()) << cell.status().ToString();
    EXPECT_EQ(cell->size(), 6u);  // same-length discipline held
  }
}

TEST(BufferPoolConcurrencyTest, ConcurrentFetchEvictFlush) {
  MemoryDiskManager disk;
  FaultInjectionDiskManager faulty(&disk);
  BufferPool pool(&faulty, kFrames);
  std::vector<PageId> ids;
  ASSERT_TRUE(Populate(&pool, &ids).ok());

  ThreadPool workers(kWorkers);
  std::vector<std::future<Status>> futures;
  for (int w = 0; w < kWorkers; ++w) {
    futures.push_back(workers.Submit([&pool, &ids, w] {
      return WorkerBody(&pool, ids, w, /*faults_armed=*/false);
    }));
  }
  for (auto& f : futures) {
    const Status s = f.get();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  // 4 frames over 16 pages: the walk cannot have stayed resident.
  const BufferPoolStats stats = pool.stats();
  EXPECT_GT(stats.misses, kPages);  // initial loads + re-loads
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.dirty_writebacks, 0u);

  ASSERT_TRUE(pool.FlushAll().ok());
  VerifyDurable(&faulty, ids);
}

TEST(BufferPoolConcurrencyTest, ArmedFaultsSurfaceAsIOErrorAndRecover) {
  MemoryDiskManager disk;
  FaultInjectionDiskManager faulty(&disk);
  BufferPool pool(&faulty, kFrames);
  std::vector<PageId> ids;
  ASSERT_TRUE(Populate(&pool, &ids).ok());

  // Let a handful of operations through, then fail everything: eviction
  // write-backs, miss reads and flushes all hit the armed disk while four
  // workers are mid-traffic.  WorkerBody tolerates IOError (and only
  // IOError) in this mode.
  faulty.Arm(20);
  ThreadPool workers(kWorkers);
  std::vector<std::future<Status>> futures;
  for (int w = 0; w < kWorkers; ++w) {
    futures.push_back(workers.Submit([&pool, &ids, w] {
      return WorkerBody(&pool, ids, w, /*faults_armed=*/true);
    }));
  }
  for (auto& f : futures) {
    const Status s = f.get();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_GT(faulty.injected_failures(), 0u);

  // Recovery: disarm, run a clean concurrent round, then prove no page
  // that reached the disk was ever corrupted.
  faulty.Disarm();
  std::vector<std::future<Status>> retry;
  for (int w = 0; w < kWorkers; ++w) {
    retry.push_back(workers.Submit([&pool, &ids, w] {
      return WorkerBody(&pool, ids, w + kWorkers, /*faults_armed=*/false);
    }));
  }
  for (auto& f : retry) {
    const Status s = f.get();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  VerifyDurable(&faulty, ids);
}

TEST(BufferPoolConcurrencyTest, ConcurrentFetchersOfOneColdPageDedupTheLoad) {
  MemoryDiskManager disk;
  BufferPool warmup(&disk, kFrames);
  std::vector<PageId> ids;
  ASSERT_TRUE(Populate(&warmup, &ids).ok());

  // A fresh pool: page ids[0] is cold.  Every worker fetches it at once;
  // the loader's exclusive latch serializes the single read, the rest pin
  // the placeholder and wait.  All must observe the full image.
  BufferPool pool(&disk, kFrames);
  ThreadPool workers(kWorkers);
  std::vector<std::future<Status>> futures;
  for (int w = 0; w < kWorkers; ++w) {
    futures.push_back(workers.Submit([&pool, &ids]() -> Status {
      for (int i = 0; i < 50; ++i) {
        MURAL_ASSIGN_OR_RETURN(const ReadPageGuard guard,
                               pool.Fetch(ids[0]));
        MURAL_ASSIGN_OR_RETURN(const Slice rec, guard->Get(0));
        if (rec.ToStringView() != Birthmark(ids[0])) {
          return Status::Internal("partial page observed");
        }
      }
      return Status::OK();
    }));
  }
  for (auto& f : futures) {
    const Status s = f.get();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
}

}  // namespace
}  // namespace mural
