// MUST NOT COMPILE — on any compiler, not just under the tsa preset.
// ReadPageGuard deliberately has no MarkDirty(): dirtying a page requires
// the frame's exclusive latch, which only WritePageGuard (via
// FetchForWrite or NewPage) holds.  This file
// calls MarkDirty on a read guard; the negative_compile_read_guard ctest
// passes only on the compiler's "no member named MarkDirty" error.  If it
// ever compiles, the read/write split of the guard API has been broken.
//
// It is deliberately NOT part of any CMake target's sources; the test
// invokes the compiler on it directly with -fsyntax-only.

#include "storage/buffer_pool.h"

namespace mural {

void Touch(BufferPool* pool) {
  StatusOr<ReadPageGuard> guard = pool->Fetch(0);
  if (guard.ok()) {
    guard->MarkDirty();  // BUG: no such member on ReadPageGuard -> error
  }
}

}  // namespace mural
