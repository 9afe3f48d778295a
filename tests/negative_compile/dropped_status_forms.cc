// MUST NOT COMPILE under -Werror=unused-result (the repository's build
// flags), whichever FORM (1-4) it is built with.  Each form drops a
// returned Status or StatusOr in one shape a caller can hide it behind:
//
//   1  a free helper returning Status;
//   2  a method returning Status, called through a pointer;
//   3  a function returning StatusOr<T>;
//   4  a call wrapped in a macro.
//
// Class-level [[nodiscard]] on Status/StatusOr makes every one of them a
// compile error, so no lint rule has to track Status-returning names.
// The negative_compile_dropped_status_form<N> ctests build this file with
// -DFORM=N and pass only on the unused-result diagnostic.
//
// It is deliberately NOT part of any CMake target's sources; the tests
// invoke the compiler on it directly.

#include "common/status.h"

namespace mural {

Status Flush();

class Pool {
 public:
  Status FlushAll();
};

StatusOr<int> CountPages();

#define MURAL_FLUSH_ALL(pool) (pool)->FlushAll()

void Drop(Pool* pool) {
#if FORM == 1
  Flush();  // BUG: discarded Status -> error
#elif FORM == 2
  pool->FlushAll();  // BUG: discarded Status -> error
#elif FORM == 3
  CountPages();  // BUG: discarded StatusOr<int> -> error
#elif FORM == 4
  MURAL_FLUSH_ALL(pool);  // BUG: discarded Status -> error
#else
#error "build with -DFORM=1, 2, 3 or 4"
#endif
}

}  // namespace mural
