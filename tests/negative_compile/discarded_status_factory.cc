// MUST NOT COMPILE under -Werror=unused-result (the repository's build
// flags).  Status is [[nodiscard]], so calling a Status factory and
// dropping the result is a compile error rather than silently discarded
// error handling; the negative_compile_discarded_status ctest passes
// only on the unused-result diagnostic.
//
// The factory-call form is the one the compiler catches.  A bare
// `Status(code, msg);` temporary is NOT flagged by GCC 12, which is why
// mural_lint's discarded-status rule stays (see tools/lint/lint.h).
//
// It is deliberately NOT part of any CMake target's sources; the test
// invokes the compiler on it directly.

#include "common/status.h"

namespace mural {

void Report() {
  Status::Internal("lost");  // BUG: discarded Status -> error
}

}  // namespace mural
