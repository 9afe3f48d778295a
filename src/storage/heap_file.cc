#include "storage/heap_file.h"

#include <utility>

namespace mural {

StatusOr<HeapFile> HeapFile::Create(BufferPool* pool) {
  MURAL_ASSIGN_OR_RETURN(WritePageGuard guard, pool->NewPage());
  guard->Init();
  guard.MarkDirty();
  const PageId first = guard.id();
  return HeapFile(pool, first, first, 0);
}

StatusOr<HeapFile> HeapFile::Open(BufferPool* pool, PageId first_page,
                                  PageId last_page, uint64_t num_records) {
  if (first_page == kInvalidPage) {
    return Status::InvalidArgument("heap has no first page");
  }
  HeapFile heap(pool, first_page, last_page, num_records);
  heap.pages_.clear();
  PageId pid = first_page;
  while (pid != kInvalidPage) {
    heap.pages_.push_back(pid);
    MURAL_ASSIGN_OR_RETURN(const ReadPageGuard guard, pool->Fetch(pid));
    pid = guard->next_page();
  }
  heap.last_page_ = heap.pages_.back();
  return heap;
}

StatusOr<Rid> HeapFile::Insert(Slice record) {
  if (record.size() > kPageSize / 2) {
    return Status::InvalidArgument(
        "record exceeds half a page; TOAST-style overflow is out of scope");
  }
  MURAL_ASSIGN_OR_RETURN(WritePageGuard guard,
                         pool_->FetchForWrite(last_page_));
  StatusOr<SlotId> slot = guard->Insert(record);
  if (!slot.ok()) {
    // Current tail is full: chain a fresh page.  Drop the tail latch
    // FIRST — NewPage latches the fresh frame (and possibly an eviction
    // victim during write-back), and holding two frame latches at once
    // creates a lock-order inversion between frames (TSan flags it as a
    // potential deadlock).  The single-writer discipline means nothing
    // can touch the tail in the unlatched window.
    guard.Release();
    MURAL_ASSIGN_OR_RETURN(WritePageGuard fresh, pool_->NewPage());
    fresh->Init();
    MURAL_ASSIGN_OR_RETURN(const SlotId s, fresh->Insert(record));
    fresh.MarkDirty();
    const PageId fresh_id = fresh.id();
    fresh.Release();
    // Re-latch the old tail to publish the chain link; readers cannot
    // reach the fresh page until this write lands.
    MURAL_ASSIGN_OR_RETURN(WritePageGuard tail,
                           pool_->FetchForWrite(last_page_));
    tail->set_next_page(fresh_id);
    tail.MarkDirty();
    tail.Release();
    last_page_ = fresh_id;
    pages_.push_back(fresh_id);
    ++num_records_;
    return Rid{fresh_id, s};
  }
  guard.MarkDirty();
  ++num_records_;
  return Rid{guard.id(), *slot};
}

Status HeapFile::Get(Rid rid, std::string* out) const {
  MURAL_ASSIGN_OR_RETURN(const ReadPageGuard guard, pool_->Fetch(rid.page));
  MURAL_ASSIGN_OR_RETURN(const Slice record, guard->Get(rid.slot));
  out->assign(record.data(), record.size());
  return Status::OK();
}

Status HeapFile::Delete(Rid rid) {
  MURAL_ASSIGN_OR_RETURN(WritePageGuard guard,
                         pool_->FetchForWrite(rid.page));
  MURAL_RETURN_IF_ERROR(guard->Delete(rid.slot));
  guard.MarkDirty();
  if (num_records_ > 0) --num_records_;
  return Status::OK();
}

HeapFile::Iterator::Iterator(BufferPool* pool, PageId first_page)
    : pool_(pool), page_id_(first_page) {
  Advance(/*first=*/true);
}

void HeapFile::Iterator::Next() { Advance(/*first=*/false); }

void HeapFile::Iterator::Advance(bool first) {
  (void)first;
  valid_ = false;
  while (page_id_ != kInvalidPage) {
    StatusOr<ReadPageGuard> guard = pool_->Fetch(page_id_);
    if (!guard.ok()) {
      status_ = guard.status();
      return;
    }
    const Page* page = guard->get();
    while (next_slot_ < page->NumSlots()) {
      const SlotId slot = static_cast<SlotId>(next_slot_++);
      StatusOr<Slice> record = page->Get(slot);
      if (record.ok()) {
        rid_ = Rid{page_id_, slot};
        record_.assign(record->data(), record->size());
        valid_ = true;
        return;
      }
      // Tombstone: keep scanning.
    }
    page_id_ = page->next_page();
    next_slot_ = 0;
  }
}

}  // namespace mural
