// Seeded-violation fixture for the path-sensitive latch-scope rule
// (mural_lint v4): the guard is released on the `flush` branch only, so
// the blocking call below the branch is reached with the latch still
// held on the other path.  The v3 lexical rule was blind to exactly this
// shape — the textual Release() ended the guard's life for the rest of
// the function regardless of branching — so this fixture is the
// regression proof that the CFG rule sees through it.  The
// mural_lint_latch_branch ctest passes only when the lint reports
// [latch-scope] here.

void ReadPage(int page_id);  // lint: blocking

namespace mural {

class ReadPageGuard;
ReadPageGuard FetchPage(int page_id);

void Compact(bool flush) {
  ReadPageGuard guard = FetchPage(1);
  if (flush) {
    guard.Release();
  }
  ReadPage(2);  // latch still held when !flush
}

}  // namespace mural
