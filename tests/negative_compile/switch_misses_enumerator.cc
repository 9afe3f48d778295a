// MUST NOT COMPILE under -Werror=switch (the repository's build flags).  A
// switch over an enum with no default must name every enumerator, so
// adding a StatusCode fails to compile at each dispatch that forgot it,
// and no lint rule has to track enums.  The negative_compile_switch_enum
// ctest passes only on the switch diagnostic.
//
// It is deliberately NOT part of any CMake target's sources; the test
// invokes the compiler on it directly.

#include "common/status.h"

namespace mural {

bool Retryable(StatusCode code) {
  switch (code) {  // BUG: kOverloaded is not handled -> error
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
    case StatusCode::kOutOfRange:
    case StatusCode::kCorruption:
    case StatusCode::kNotSupported:
    case StatusCode::kResourceExhausted:
    case StatusCode::kInternal:
    case StatusCode::kIOError:
    case StatusCode::kAborted:
      return false;
  }
  return false;
}

}  // namespace mural
