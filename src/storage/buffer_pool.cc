#include "storage/buffer_pool.h"

#include <cstring>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/timer.h"

namespace mural {

namespace {

struct PoolMetrics {
  Counter* hits;
  Counter* misses;
  Counter* evictions;
  Counter* dirty_writebacks;
  Counter* io_errors;
  Counter* fetch_nanos;
};

PoolMetrics& Metrics() {
  static PoolMetrics m = [] {
    MetricsRegistry& reg = MetricsRegistry::Global();
    PoolMetrics out;
    out.hits = reg.GetCounter("storage.buffer_pool.hits");
    out.misses = reg.GetCounter("storage.buffer_pool.misses");
    out.evictions = reg.GetCounter("storage.buffer_pool.evictions");
    out.dirty_writebacks =
        reg.GetCounter("storage.buffer_pool.dirty_writebacks");
    out.io_errors = reg.GetCounter("storage.io_errors");
    out.fetch_nanos = reg.GetCounter("storage.buffer_pool.fetch_nanos");
    return out;
  }();
  return m;
}

/// Counts a failed disk call in storage.io_errors — exactly once per
/// failing operation, at the buffer pool's disk boundary.
Status CountIoError(Status s) {
  if (!s.ok()) Metrics().io_errors->Increment();
  return s;
}

}  // namespace

// Frame latches are dynamic (one per frame) and cross the function
// boundary inside guards, which Clang's thread-safety analysis cannot
// follow.  These four helpers are the only place latch transitions are
// hidden from the analysis; everything table_mu_-related stays fully
// checked through the scoped locks below.
namespace {

void LatchShared(SharedMutex& latch) NO_THREAD_SAFETY_ANALYSIS {
  latch.ReaderLock();
}
void UnlatchShared(SharedMutex& latch) NO_THREAD_SAFETY_ANALYSIS {
  latch.ReaderUnlock();
}
void LatchExclusive(SharedMutex& latch) NO_THREAD_SAFETY_ANALYSIS {
  latch.Lock();
}
void UnlatchExclusive(SharedMutex& latch) NO_THREAD_SAFETY_ANALYSIS {
  latch.Unlock();
}

}  // namespace

// ---------------------------------------------------------------------------
// ReadPageGuard

BufferPool::ReadPageGuard& BufferPool::ReadPageGuard::operator=(
    ReadPageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    id_ = other.id_;
    page_ = other.page_;
    other.pool_ = nullptr;
    other.page_ = nullptr;
    other.id_ = kInvalidPage;
  }
  return *this;
}

void BufferPool::ReadPageGuard::Release() {
  if (pool_ != nullptr && page_ != nullptr) {
    UnlatchShared(pool_->frames_[frame_].latch);
    pool_->Unpin(frame_);
  }
  pool_ = nullptr;
  page_ = nullptr;
  id_ = kInvalidPage;
}

// ---------------------------------------------------------------------------
// WritePageGuard

BufferPool::WritePageGuard& BufferPool::WritePageGuard::operator=(
    WritePageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    id_ = other.id_;
    page_ = other.page_;
    other.pool_ = nullptr;
    other.page_ = nullptr;
    other.id_ = kInvalidPage;
  }
  return *this;
}

void BufferPool::WritePageGuard::MarkDirty() {
  if (pool_ != nullptr && page_ != nullptr) {
    pool_->frames_[frame_].dirty.store(true);
  }
}

void BufferPool::WritePageGuard::Release() {
  if (pool_ != nullptr && page_ != nullptr) {
    UnlatchExclusive(pool_->frames_[frame_].latch);
    pool_->Unpin(frame_);
  }
  pool_ = nullptr;
  page_ = nullptr;
  id_ = kInvalidPage;
}

// ---------------------------------------------------------------------------
// BufferPool

BufferPool::BufferPool(DiskManager* disk, size_t capacity)
    : disk_(disk), capacity_(capacity) {
  MURAL_CHECK(capacity >= 2) << "buffer pool needs at least two frames";
  frames_ = std::make_unique<Frame[]>(capacity);
  WriterMutexLock lock(table_mu_);
  free_list_.reserve(capacity);
  for (size_t i = 0; i < capacity; ++i) {
    frames_[i].page = std::make_unique<Page>();
    free_list_.push_back(capacity - 1 - i);
  }
}

StatusOr<size_t> BufferPool::AcquireFreeFrame() {
  for (;;) {
    size_t victim = 0;
    PageId victim_id = kInvalidPage;
    {
      WriterMutexLock lock(table_mu_);
      if (!free_list_.empty()) {
        const size_t idx = free_list_.back();
        free_list_.pop_back();
        return idx;
      }
      if (lru_.empty()) {
        return Status::ResourceExhausted("all buffer frames are pinned");
      }
      victim = lru_.front();
      lru_.pop_front();
      Frame& f = frames_[victim];
      f.in_lru = false;
      MURAL_DCHECK(f.pin_count == 0);
      if (!f.dirty.load()) {
        page_table_.erase(f.id);
        f.id = kInvalidPage;
        ++stats_.evictions;
        Metrics().evictions->Increment();
        return victim;
      }
      // Dirty victim: pin it so it stays resident and unreachable to
      // other evictors, then write it back outside the table lock.
      ++f.pin_count;
      victim_id = f.id;
    }
    Frame& f = frames_[victim];
    LatchExclusive(f.latch);
    const Status s = CountIoError(disk_->WritePage(
        victim_id, reinterpret_cast<const char*>(f.page.get())));
    if (s.ok()) f.dirty.store(false);
    UnlatchExclusive(f.latch);
    bool claimed = false;
    {
      WriterMutexLock lock(table_mu_);
      --f.pin_count;
      if (!s.ok()) {
        // Put the victim back; the caller sees the write-back error.
        if (f.pin_count == 0) {
          f.lru_pos = lru_.insert(lru_.begin(), victim);
          f.in_lru = true;
        }
      } else {
        ++stats_.dirty_writebacks;
        if (f.pin_count == 0 && !f.dirty.load()) {
          page_table_.erase(f.id);
          f.id = kInvalidPage;
          ++stats_.evictions;
          claimed = true;
        } else if (f.pin_count == 0) {
          // Re-dirtied while we wrote: back to the cold end, try again.
          f.lru_pos = lru_.insert(lru_.begin(), victim);
          f.in_lru = true;
        }
        // pin_count > 0: someone re-fetched the page mid-write-back;
        // their unpin will re-insert it into the LRU.
      }
    }
    if (!s.ok()) return s;
    Metrics().dirty_writebacks->Increment();
    if (claimed) {
      Metrics().evictions->Increment();
      return victim;
    }
  }
}

StatusOr<BufferPool::PinResult> BufferPool::PinPage(PageId id) {
  for (;;) {
    {
      WriterMutexLock lock(table_mu_);
      auto it = page_table_.find(id);
      if (it != page_table_.end()) {
        Frame& f = frames_[it->second];
        if (f.pin_count == 0 && f.in_lru) {
          lru_.erase(f.lru_pos);
          f.in_lru = false;
        }
        ++f.pin_count;
        ++stats_.hits;
        Metrics().hits->Increment();
        return PinResult{it->second, /*loader=*/false};
      }
    }
    MURAL_ASSIGN_OR_RETURN(const size_t idx, AcquireFreeFrame());
    Frame& f = frames_[idx];
    // Take the exclusive latch *before* publishing the table entry so no
    // fetcher can latch the frame ahead of the disk read.  The frame is
    // floating (owned by this thread), so the latch is uncontended.
    LatchExclusive(f.latch);
    {
      WriterMutexLock lock(table_mu_);
      auto it = page_table_.find(id);
      if (it != page_table_.end()) {
        // Another thread installed the page while we acquired a frame;
        // give ours back and pin theirs on the next loop iteration.
        UnlatchExclusive(f.latch);
        f.id = kInvalidPage;
        free_list_.push_back(idx);
        continue;
      }
      f.id = id;
      f.pin_count = 1;
      f.dirty.store(false);
      f.load_failed.store(false);
      page_table_[id] = idx;
      ++stats_.misses;
    }
    Metrics().misses->Increment();
    return PinResult{idx, /*loader=*/true};
  }
}

void BufferPool::Unpin(size_t idx) {
  WriterMutexLock lock(table_mu_);
  Frame& f = frames_[idx];
  MURAL_DCHECK(f.pin_count > 0);
  if (--f.pin_count > 0) return;
  if (f.load_failed.load()) {
    // Last pinner of a frame whose disk read failed: retire the entry so
    // a later Fetch retries the load from scratch.
    page_table_.erase(f.id);
    f.id = kInvalidPage;
    f.load_failed.store(false);
    f.dirty.store(false);
    free_list_.push_back(idx);
    return;
  }
  f.lru_pos = lru_.insert(lru_.end(), idx);
  f.in_lru = true;
}

StatusOr<BufferPool::ReadPageGuard> BufferPool::Fetch(PageId id) {
  Timer timer;
  StatusOr<ReadPageGuard> guard = FetchImpl(id);
  Metrics().fetch_nanos->Add(timer.ElapsedNanos());
  return guard;
}

StatusOr<BufferPool::WritePageGuard> BufferPool::FetchForWrite(PageId id) {
  Timer timer;
  StatusOr<WritePageGuard> guard = FetchForWriteImpl(id);
  Metrics().fetch_nanos->Add(timer.ElapsedNanos());
  return guard;
}

StatusOr<BufferPool::ReadPageGuard> BufferPool::FetchImpl(PageId id) {
  MURAL_ASSIGN_OR_RETURN(const PinResult pin, PinPage(id));
  Frame& f = frames_[pin.idx];
  if (pin.loader) {
    const Status s = CountIoError(
        disk_->ReadPage(id, reinterpret_cast<char*>(f.page.get())));
    if (!s.ok()) {
      f.load_failed.store(true);
      UnlatchExclusive(f.latch);
      Unpin(pin.idx);
      return s;
    }
    // Downgrade: drop the exclusive latch and re-acquire shared.  A
    // writer may slip in between, which only means the guard observes a
    // newer image — the pin keeps the frame itself resident.
    UnlatchExclusive(f.latch);
  }
  LatchShared(f.latch);
  if (f.load_failed.load()) {
    UnlatchShared(f.latch);
    Unpin(pin.idx);
    return Status::IOError("page " + std::to_string(id) +
                           ": concurrent load failed");
  }
  return ReadPageGuard(this, pin.idx, id, f.page.get());
}

StatusOr<BufferPool::WritePageGuard> BufferPool::FetchForWriteImpl(PageId id) {
  MURAL_ASSIGN_OR_RETURN(const PinResult pin, PinPage(id));
  Frame& f = frames_[pin.idx];
  if (pin.loader) {
    const Status s = CountIoError(
        disk_->ReadPage(id, reinterpret_cast<char*>(f.page.get())));
    if (!s.ok()) {
      f.load_failed.store(true);
      UnlatchExclusive(f.latch);
      Unpin(pin.idx);
      return s;
    }
    // Loader already holds the exclusive latch — keep it for the guard.
    return WritePageGuard(this, pin.idx, id, f.page.get());
  }
  LatchExclusive(f.latch);
  if (f.load_failed.load()) {
    UnlatchExclusive(f.latch);
    Unpin(pin.idx);
    return Status::IOError("page " + std::to_string(id) +
                           ": concurrent load failed");
  }
  return WritePageGuard(this, pin.idx, id, f.page.get());
}

StatusOr<BufferPool::WritePageGuard> BufferPool::NewPage() {
  StatusOr<PageId> alloc = disk_->AllocatePage();
  MURAL_RETURN_IF_ERROR(CountIoError(alloc.status()));
  const PageId id = *alloc;
  MURAL_ASSIGN_OR_RETURN(const size_t idx, AcquireFreeFrame());
  Frame& f = frames_[idx];
  LatchExclusive(f.latch);
  std::memset(f.page.get(), 0, kPageSize);
  {
    WriterMutexLock lock(table_mu_);
    f.id = id;
    f.pin_count = 1;
    f.dirty.store(true);  // fresh pages must reach disk
    f.load_failed.store(false);
    page_table_[id] = idx;
  }
  return WritePageGuard(this, idx, id, f.page.get());
}

Status BufferPool::FlushAll() {
  for (size_t i = 0; i < capacity_; ++i) {
    Frame& f = frames_[i];
    PageId id = kInvalidPage;
    {
      WriterMutexLock lock(table_mu_);
      if (f.id == kInvalidPage || !f.dirty.load()) continue;
      id = f.id;
      // Pin so the frame cannot be evicted or repurposed mid-flush.
      if (f.pin_count == 0 && f.in_lru) {
        lru_.erase(f.lru_pos);
        f.in_lru = false;
      }
      ++f.pin_count;
    }
    LatchExclusive(f.latch);
    const Status s = CountIoError(disk_->WritePage(
        id, reinterpret_cast<const char*>(f.page.get())));
    if (s.ok()) f.dirty.store(false);
    UnlatchExclusive(f.latch);
    Unpin(i);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

BufferPoolStats BufferPool::stats() const {
  ReaderMutexLock lock(table_mu_);
  return stats_;
}

}  // namespace mural
