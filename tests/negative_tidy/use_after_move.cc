// MUST DRAW clang-tidy's bugprone finding for a read of a moved-from
// object (the check that took over from mural_lint's own move tracking;
// see .clang-tidy).  `pages` is read after std::move handed its value
// away.  The negative_tidy_use_after_move ctest runs clang-tidy with only
// that check enabled and passes only on its finding.
//
// It is deliberately NOT part of any CMake target's sources.

#include <utility>

#include "common/status.h"

namespace mural {

StatusOr<int> CountPages();

bool Consume(StatusOr<int> pages);

bool Check() {
  StatusOr<int> pages = CountPages();
  const bool consumed = Consume(std::move(pages));
  return consumed && pages.ok();  // BUG: `pages` was moved from
}

}  // namespace mural
