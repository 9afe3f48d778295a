// MUST DRAW clang-tidy's bugprone finding for a side effect inside
// assert() (the check that took over from mural_lint's own assert rule;
// see .clang-tidy).  The increment inside assert() vanishes under NDEBUG,
// so release and debug builds disagree on `next`.  The
// negative_tidy_assert_side_effect ctest runs clang-tidy with only that
// check enabled and passes only on its finding.
//
// It is deliberately NOT part of any CMake target's sources.

#include <cassert>

namespace mural {

int NextPage(int next) {
  assert(next++ < 1024);  // BUG: side effect inside assert
  return next;
}

}  // namespace mural
