// BufferPool: fixed set of in-memory frames caching disk pages, with LRU
// replacement, pin counting and dirty tracking — the PostgreSQL-shaped
// buffer layer under every access method in this engine.
//
// The pool is thread-safe (see DESIGN.md "Storage concurrency"):
//
//   * `table_mu_` (a SharedMutex) guards the frame table: page_table_,
//     free_list_, lru_, pin counts and the stats block.  Its critical
//     sections are short and straight-line — they never perform I/O and
//     never block on a frame latch.
//   * Every frame carries its own SharedMutex latch guarding the 8 KiB
//     page image.  ReadPageGuard holds it shared, WritePageGuard
//     exclusive.
//   * Guards pin (under table_mu_) before latching and unlatch before
//     unpinning, so a frame with pin_count == 0 has no latch holder and
//     is safe to evict.  Lock order: table_mu_ before any frame latch
//     (declared against the lock_rank tokens in common/lock_order.h).
//   * All disk I/O — miss reads, eviction and flush write-backs — runs
//     with table_mu_ released and the frame's exclusive latch held, per
//     the no-lock-across-g2p-io lint rule.  The loader's exclusive latch
//     doubles as I/O dedup: concurrent fetchers of the same page find the
//     table entry, pin it, and block on the latch until the read lands.

#pragma once

#include <atomic>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/lock_order.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace mural {

/// Buffer-pool level counters (hit ratio matters to the cost experiments).
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;

  void Reset() { *this = BufferPoolStats(); }
};

/// The buffer pool proper.  Obtain pages through the RAII guards:
/// Fetch -> ReadPageGuard (shared latch, const view of the page),
/// FetchForWrite / NewPage -> WritePageGuard (exclusive latch, MarkDirty).
class BufferPool {
 public:
  class ReadPageGuard;
  class WritePageGuard;

  /// `capacity` frames over `disk` (not owned).
  BufferPool(DiskManager* disk, size_t capacity);

  /// Pins page `id` for reading, loading it from disk on a miss.  The
  /// returned guard holds the frame's latch shared: concurrent readers
  /// proceed, writers of the same page wait.  Wall time spent here (pin
  /// + any disk read + latch wait) accumulates into the
  /// storage.buffer_pool.fetch_nanos counter, which is how the bench
  /// harness attributes storage-layer time per query.
  // lint: blocking
  [[nodiscard]] StatusOr<ReadPageGuard> Fetch(PageId id);

  /// Pins page `id` for writing.  The returned guard holds the frame's
  /// latch exclusively.  Time accumulates into fetch_nanos like Fetch.
  // lint: blocking
  [[nodiscard]] StatusOr<WritePageGuard> FetchForWrite(PageId id);

  /// Allocates a fresh zeroed page on disk and pins it for writing
  /// (already marked dirty).  Formatting (Page::Init or an index layout)
  /// is left to the caller.
  // lint: blocking
  [[nodiscard]] StatusOr<WritePageGuard> NewPage();

  /// Writes back all dirty pages (does not evict).  Safe to run
  /// concurrently with fetches.
  // lint: blocking
  [[nodiscard]] Status FlushAll();

  size_t capacity() const { return capacity_; }

  /// A locked snapshot of the counters (a copy, not a reference: the
  /// underlying block is guarded by table_mu_).
  BufferPoolStats stats() const;

  DiskManager* disk() { return disk_; }

 private:
  struct Frame {
    /// Guards the page image.  Acquired only while the frame is pinned,
    /// and never while holding table_mu_ (pin first, then latch).
    SharedMutex latch ACQUIRED_AFTER(lock_rank::kBufferTable);
    PageId id = kInvalidPage;  // lint: unguarded(guarded by BufferPool::table_mu_; stable while pinned)
    int pin_count = 0;  // lint: unguarded(guarded by BufferPool::table_mu_)
    /// Set by WritePageGuard::MarkDirty under the exclusive latch;
    /// cleared by write-back under the exclusive latch.
    std::atomic<bool> dirty{false};
    /// Set by a loader whose disk read failed, while still holding the
    /// exclusive latch; waiters observe it after acquiring the latch and
    /// the last unpinner returns the frame to the free list.
    std::atomic<bool> load_failed{false};
    std::unique_ptr<Page> page;  // lint: unguarded(pointer fixed at construction; bytes guarded by latch)
    std::list<size_t>::iterator lru_pos;  // lint: unguarded(guarded by BufferPool::table_mu_)
    bool in_lru = false;  // lint: unguarded(guarded by BufferPool::table_mu_)
  };

  /// Result of PinPage: the pinned frame, and whether this thread is the
  /// loader (holding the frame's exclusive latch over an unread image).
  struct PinResult {
    size_t idx = 0;
    bool loader = false;
  };

  /// Untimed bodies of Fetch / FetchForWrite; the public entry points
  /// wrap them with the fetch_nanos stopwatch.
  [[nodiscard]] StatusOr<ReadPageGuard> FetchImpl(PageId id);
  [[nodiscard]] StatusOr<WritePageGuard> FetchForWriteImpl(PageId id);

  /// Pins `id`'s frame, installing a latched placeholder on a miss.
  [[nodiscard]] StatusOr<PinResult> PinPage(PageId id) EXCLUDES(table_mu_);

  /// Pops a free frame, evicting (and writing back) an LRU victim when
  /// needed.  The returned frame is "floating": unpinned, absent from the
  /// table, free list and LRU, so this thread owns it exclusively.
  [[nodiscard]] StatusOr<size_t> AcquireFreeFrame() EXCLUDES(table_mu_);

  /// Drops one pin; the last unpinner re-inserts into the LRU, or frees
  /// the frame outright when its load failed.
  void Unpin(size_t idx) EXCLUDES(table_mu_);

  DiskManager* const disk_;  // lint: unguarded(const pointer, fixed at construction)
  const size_t capacity_;
  // The array itself is fixed at construction (frame pointers stay
  // stable); per-frame state is guarded as documented on Frame.
  std::unique_ptr<Frame[]> frames_;  // lint: unguarded(fixed at construction; per-frame state guarded per Frame)

  mutable SharedMutex table_mu_ ACQUIRED_AFTER(lock_rank::kCatalog)
      ACQUIRED_BEFORE(lock_rank::kFrameLatch);
  std::vector<size_t> free_list_ GUARDED_BY(table_mu_);
  std::list<size_t> lru_ GUARDED_BY(table_mu_);  // unpinned frames, least-recent first
  std::unordered_map<PageId, size_t> page_table_ GUARDED_BY(table_mu_);
  BufferPoolStats stats_ GUARDED_BY(table_mu_);
};

/// RAII shared (read) pin on a buffered page: holds the frame's latch
/// shared for its lifetime and unpins on destruction.  Exposes only a
/// const view — there is deliberately no MarkDirty here (a negative-
/// compile test pins that down); use FetchForWrite to write.
class BufferPool::ReadPageGuard {
 public:
  ReadPageGuard() = default;
  ReadPageGuard(ReadPageGuard&& other) noexcept { *this = std::move(other); }
  ReadPageGuard& operator=(ReadPageGuard&& other) noexcept;
  ReadPageGuard(const ReadPageGuard&) = delete;
  ReadPageGuard& operator=(const ReadPageGuard&) = delete;
  ~ReadPageGuard() { Release(); }

  const Page* operator->() const { return page_; }
  const Page* get() const { return page_; }
  PageId id() const { return id_; }
  bool Valid() const { return page_ != nullptr; }

  /// Drops the shared latch, then the pin.
  void Release();

 private:
  friend class BufferPool;
  ReadPageGuard(BufferPool* pool, size_t frame, PageId id, const Page* page)
      : pool_(pool), frame_(frame), id_(id), page_(page) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  PageId id_ = kInvalidPage;
  const Page* page_ = nullptr;
};

/// RAII exclusive (write) pin on a buffered page: holds the frame's latch
/// exclusively for its lifetime.  Mark the page dirty before letting the
/// guard go if you wrote to it.
class BufferPool::WritePageGuard {
 public:
  WritePageGuard() = default;
  WritePageGuard(WritePageGuard&& other) noexcept { *this = std::move(other); }
  WritePageGuard& operator=(WritePageGuard&& other) noexcept;
  WritePageGuard(const WritePageGuard&) = delete;
  WritePageGuard& operator=(const WritePageGuard&) = delete;
  ~WritePageGuard() { Release(); }

  Page* operator->() { return page_; }
  const Page* operator->() const { return page_; }
  Page* get() { return page_; }
  const Page* get() const { return page_; }
  PageId id() const { return id_; }
  bool Valid() const { return page_ != nullptr; }

  /// Marks the page dirty so eviction/flush writes it back.
  void MarkDirty();

  /// Drops the exclusive latch, then the pin.
  void Release();

 private:
  friend class BufferPool;
  WritePageGuard(BufferPool* pool, size_t frame, PageId id, Page* page)
      : pool_(pool), frame_(frame), id_(id), page_(page) {}

  BufferPool* pool_ = nullptr;
  size_t frame_ = 0;
  PageId id_ = kInvalidPage;
  Page* page_ = nullptr;
};

using ReadPageGuard = BufferPool::ReadPageGuard;
using WritePageGuard = BufferPool::WritePageGuard;

}  // namespace mural
