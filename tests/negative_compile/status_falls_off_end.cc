// MUST NOT COMPILE under -Werror=return-type (the repository's build
// flags).  A Status function that can reach its closing brace returns
// garbage; the compiler's return-type check makes that an error, so no
// lint rule has to look for it.  The negative_compile_status_fallthrough
// ctest passes only on the return-type diagnostic.
//
// It is deliberately NOT part of any CMake target's sources.  GCC only
// diagnoses a missing return during code generation, so the test compiles
// to an object file rather than using -fsyntax-only.

#include "common/status.h"

namespace mural {

Status Validate(int pages) {
  if (pages > 0) return Status::OK();
}  // BUG: falls off the end when pages <= 0 -> error

}  // namespace mural
