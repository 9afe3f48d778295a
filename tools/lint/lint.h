// mural_lint: repo-invariant checks that neither the compiler nor
// clang-tidy can express.  Generic checks live with those tools: a dropped
// Status/StatusOr (-Werror=unused-result), a Status function falling off
// its end (-Werror=return-type), a switch missing an enumerator
// (-Werror=switch), use after std::move and side effects inside assert
// (clang-tidy's bugprone checks; see .clang-tidy).
//
// The core is a pure function over (path label, file content) so the unit
// test can feed synthetic sources with seeded violations.  v2 runs every
// rule over one shared token stream (lexer.h) instead of per-rule regex
// scans: the file is tokenized once, comments and literal contents never
// reach the rules, and each rule walks tokens with real identifier
// boundaries and maximal-munch operators.  Rules:
//
//   no-throw            `throw` is forbidden outside tools/ (the engine's
//                       error model is Status/StatusOr, never exceptions).
//   no-raw-new-delete   `new` not immediately owned by a smart pointer, and
//                       any `delete`, are forbidden outside storage/.
//   pragma-once         every header must contain `#pragma once`.
//   own-header-first    a .cc that includes its own header must include it
//                       before any other #include.
//   discarded-status    a Status constructed as a bare expression statement
//                       is dead code that looks like error handling.  Not
//                       redundant with [[nodiscard]] + -Werror=unused-result:
//                       GCC 12 flags a discarded factory call
//                       (`Status::Internal(msg);`) but not a discarded
//                       `Status(code, msg);` temporary, which only this
//                       rule catches.
//   no-bare-thread      std::thread / std::jthread / std::async outside
//                       common/ (and tools/): all engine concurrency goes
//                       through common/thread_pool.h so parallelism stays
//                       bounded, observable, and Status-propagating.
//   no-direct-clock     std::chrono::steady_clock::now() outside common/
//                       (and tools/): all timing goes through
//                       SpanClock::NowNanos() / Timer (common/timer.h) so
//                       tests can install a deterministic fake clock.
//   no-raw-mutex        std::mutex / std::shared_mutex / lock_guard /
//                       unique_lock / condition_variable outside common/
//                       (and tools/): locking goes through the annotated
//                       mural::Mutex wrappers (common/mutex.h) so
//                       -Wthread-safety sees every acquisition.
//   no-lock-across-g2p-io  no blocking call textually inside a MutexLock
//                       scope: slow work runs outside the lock, then
//                       relocks to publish (the phoneme-cache discipline).
//                       The banned-call list is not hand-maintained: it is
//                       derived from `// lint: blocking` markers on the
//                       declarations themselves (Transform, ReadPage, ...)
//                       collected across the tree by the two-pass driver.
//   guarded-field       a class that declares a mural::Mutex must annotate
//                       every mutable data member with GUARDED_BY /
//                       PT_GUARDED_BY, or carry an explicit
//                       `// lint: unguarded(reason)` marker.  Lock-order
//                       attributes (ACQUIRED_BEFORE / ACQUIRED_AFTER) on a
//                       member are understood, not mistaken for function
//                       parameter lists.
//   lock-order          every ACQUIRED_BEFORE / ACQUIRED_AFTER attribute
//                       declares an edge in the global lock order (see
//                       common/lock_order.h); the merged cross-file graph
//                       must stay acyclic.  GCC expands the attributes to
//                       nothing, so this rule is what actually enforces
//                       the declared order on every compiler.
//
// v3 adds rules over the include graph, read from each file's
// declaration parse (symbols.h):
//
//   layering            every #include edge between src/ subsystems must
//                       run downward in the architecture DAG declared in
//                       tools/lint/layers.toml.  An upward or sideways
//                       include fails with the offending path printed;
//                       `// lint: layer-exception(reason)` on the include
//                       line is the (audited) escape hatch.
//   layer-config-drift  a file under src/ whose directory has no layer
//                       assignment in layers.toml: new subsystems must be
//                       placed in the DAG deliberately, or the layering
//                       rule silently would not see them.
//
// v4 runs the flow-sensitive rule on per-function control-flow graphs
// (cfg.h): function bodies located by the declaration parser are parsed
// into basic blocks (if/else, loops, switch, break/continue, return, ?:,
// and the MURAL_RETURN_IF_ERROR / MURAL_ASSIGN_OR_RETURN early exits),
// then forward dataflow runs to a fixpoint:
//
//   latch-scope         no `// lint: blocking`-marked call while a
//                       ReadPageGuard / WritePageGuard is live on ANY
//                       path into the call: page latches follow the same
//                       discipline as mutexes (release, do the slow work,
//                       re-fetch).  Release() or std::move() ends a
//                       guard's scope on that path; a guard released on
//                       every incoming path is not reported (v3's lexical
//                       version could not tell the difference).
//                       Intentional two-latch sections (B+-tree splits)
//                       carry `// lint: latch-exception(reason)`.

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lexer.h"

namespace mural::lint {

struct LayerConfig;  // layers.h

/// Accumulated wall-clock nanoseconds per rule (and per shared stage:
/// "lex", "symbols"), filled when LintOptions::timings is set.  The
/// driver keeps one per worker and merges, so no synchronization here.
using RuleTimings = std::map<std::string, int64_t>;

struct Violation {
  std::string file;     // repo-relative path label, e.g. "src/exec/foo.cc"
  int line = 0;         // 1-based
  std::string rule;     // stable rule id, e.g. "no-throw"
  std::string message;  // human-readable detail

  bool operator==(const Violation& o) const {
    return file == o.file && line == o.line && rule == o.rule;
  }
};

/// One declared edge of the global lock order: `before` must be acquired
/// before `after`.  ACQUIRED_BEFORE(x) on lock L yields {L, x};
/// ACQUIRED_AFTER(x) yields {x, L}.  Names are unqualified (the last
/// identifier of the expression, so `lock_rank::kFrameLatch` and a member
/// `kFrameLatch` agree).
struct LockOrderEdge {
  std::string before;
  std::string after;
  std::string file;  // where the attribute was written
  int line = 0;
};

/// Cross-file inputs for the rules, assembled by the driver's first pass
/// over every file and then shared by every LintFile call.
struct LintOptions {
  /// Names banned inside MutexLock scopes (no-lock-across-g2p-io), merged
  /// from `// lint: blocking` markers across the whole tree.  LintFile
  /// always adds the file's own markers, so single-file invocations (unit
  /// tests, editor integration) still see their local declarations.
  std::vector<std::string> blocking_calls;

  /// Architecture layer map (layers.h).  When null the layering and
  /// layer-config-drift rules are skipped.
  const LayerConfig* layers = nullptr;

  /// When non-null, LintFile accumulates per-rule wall time here
  /// (--timings).  Not thread-safe: give each worker its own and merge.
  RuleTimings* timings = nullptr;
};

/// Replaces comments, string literals (including raw strings), and char
/// literals with spaces, preserving newlines so line numbers survive.
std::string StripCommentsAndStrings(std::string_view src);

/// Pass 1: names declared blocking via `// lint: blocking` markers.  Three
/// forms are understood:
///   ret Foo(args);               // lint: blocking   (trailing: bans Foo)
///   // lint: blocking            (whole line above the declaration)
///   // lint: blocking(a, b, c)   (explicit list, for out-of-repo names
///                                 like the libc fsync family)
/// For the first two forms the banned name is the identifier immediately
/// before the first '(' on the marked declaration line.
/// The LexResult overloads of the pass-1 collectors let the driver lex
/// each file once and share the tokens across every pass.
std::vector<std::string> CollectBlockingMarkers(std::string_view content);
std::vector<std::string> CollectBlockingMarkers(const LexResult& lexed);

/// Pass 1: every lock-order edge declared in `content` via
/// ACQUIRED_BEFORE / ACQUIRED_AFTER attributes.
std::vector<LockOrderEdge> CollectLockOrderEdges(const std::string& rel_path,
                                                 std::string_view content);
std::vector<LockOrderEdge> CollectLockOrderEdges(const std::string& rel_path,
                                                 const LexResult& lexed);

/// Pass 2 companion to CollectLockOrderEdges: checks the merged edge set
/// for contradictions (a cycle, including self-edges) and returns one
/// "lock-order" violation per cycle found.
std::vector<Violation> CheckLockOrder(const std::vector<LockOrderEdge>& edges);

/// Runs every per-file rule against one file.  `rel_path` decides
/// path-scoped rules (tools/ may throw, storage/ may new/delete) and the
/// own-header check.  The two-argument form lints the file in isolation:
/// only its own `// lint: blocking` markers feed no-lock-across-g2p-io.
std::vector<Violation> LintFile(const std::string& rel_path,
                                std::string_view content);
std::vector<Violation> LintFile(const std::string& rel_path,
                                std::string_view content,
                                const LintOptions& options);
/// The same over tokens the caller already lexed from the file.
std::vector<Violation> LintFile(const std::string& rel_path,
                                const LexResult& lexed,
                                const LintOptions& options);

/// Lex(content), adding its CPU time to (*timings)["lex"] when `timings`
/// is set (the --timings breakdown).
LexResult TimedLex(std::string_view content, RuleTimings* timings);

/// Formats "file:line: [rule] message".
std::string FormatViolation(const Violation& v);

}  // namespace mural::lint
