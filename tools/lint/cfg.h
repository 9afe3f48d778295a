// Per-function control-flow graphs and forward dataflow for mural_lint's
// path-sensitive latch-scope rule.
//
// A lexical scan tracks guard liveness over the token stream, so
// `if (done) g.Release();` would end the guard's life for the *textual*
// remainder of the function — blind to the branch that never released.
// Instead every function body (located by the declaration parser,
// symbols.h) is parsed into basic blocks with edges for if/else,
// for/while/do, switch/case, break/continue, return, the conditional
// operator, and the MURAL_RETURN_IF_ERROR / MURAL_ASSIGN_OR_RETURN
// early-exit macros, then forward dataflow runs to a fixpoint:
//
//   latch-scope  a Read/WritePageGuard live on ANY path into a
//                `// lint: blocking` call is a violation; guards released
//                on every incoming path are not.  Union (may) join;
//                Release()/std::move end liveness on that path, scope
//                exit ends it for the block's locals, and guard
//                parameters are live for the whole body.
//                `// lint: latch-exception(reason)` is the audited
//                escape hatch.
//
// The graph is a heuristic over the token stream, like everything else in
// this linter: statements are token spans, lambdas and nested class bodies
// stay opaque inside their statement, and malformed input degrades to
// fewer blocks rather than failure (a lint pass must survive any input).

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lexer.h"
#include "lint.h"
#include "symbols.h"

namespace mural::lint {

struct CfgStmt {
  enum class Kind {
    kPlain,      // any statement or branch condition, scanned in order
    kScopeExit,  // scope close or jump out: locals at depth >= exit_depth die
  };
  Kind kind = Kind::kPlain;
  size_t begin = 0;  // token range [begin, end) into the LexResult
  size_t end = 0;
  int depth = 0;       // lexical scope depth (function body = 1)
  int exit_depth = 0;  // kScopeExit only
};

struct CfgBlock {
  std::vector<CfgStmt> stmts;
  std::vector<int> succs;
};

/// The control-flow graph of one function definition.
struct Cfg {
  size_t sig_begin = 0;  // parameter-list '(' ... ')' token indices
  size_t sig_end = 0;
  int entry = 0;
  int exit = 1;  // synthetic: every return edge lands here
  std::vector<CfgBlock> blocks;
};

/// Builds one CFG per function definition in `syms` (bodies located by the
/// declaration parser).  Tokens are shared with `lexed`, which must
/// outlive the result.  Never fails on malformed input.
std::vector<Cfg> BuildCfgs(const LexResult& lexed, const FileSymbols& syms);

/// Cross-file inputs for the CFG-backed rule.
struct CfgRuleInputs {
  /// Blocking-call names (`// lint: blocking` markers), as merged by the
  /// driver — same set no-lock-across-g2p-io uses.
  const std::vector<std::string>* blocking = nullptr;
};

/// Runs latch-scope over every function in `syms`.
std::vector<Violation> CheckCfgRules(const std::string& path,
                                     const LexResult& lexed,
                                     const FileSymbols& syms,
                                     const CfgRuleInputs& inputs);

}  // namespace mural::lint
