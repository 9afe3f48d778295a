#include "lint.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstddef>
#include <functional>
#include <iterator>
#include <map>

#include "cfg.h"
#include "layers.h"
#include "lexer.h"
#include "symbols.h"
#include "token_util.h"

namespace mural::lint {

namespace {

bool PathContains(const std::string& path, std::string_view dir) {
  return path.find(dir) != std::string::npos;
}

bool IsHeaderPath(const std::string& path) {
  return path.size() > 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

bool IsSourcePath(const std::string& path) {
  return path.size() > 3 && path.compare(path.size() - 3, 3, ".cc") == 0;
}

std::string Basename(std::string_view path) {
  const size_t slash = path.rfind('/');
  return std::string(slash == std::string_view::npos ? path
                                                     : path.substr(slash + 1));
}

// MatchingParen / LooksLikeParamList / TokAnyOf live in token_util.h,
// shared with the declaration parser (symbols.cc).
bool AnyOf(const Tok& t, std::initializer_list<std::string_view> names) {
  return TokAnyOf(t, names);
}

// ---------------------------------------------------------------------------
// no-throw
// ---------------------------------------------------------------------------

void CheckThrow(const std::string& path, const Toks& t,
                std::vector<Violation>* out) {
  if (PathContains(path, "tools/")) return;
  for (const Tok& tk : t) {
    if (tk.IsIdent("throw")) {
      out->push_back({path, tk.line, "no-throw",
                      "exceptions are forbidden outside tools/; return a "
                      "Status instead"});
    }
  }
}

// ---------------------------------------------------------------------------
// no-raw-new-delete
// ---------------------------------------------------------------------------

void CheckNewDelete(const std::string& path, const Toks& t,
                    std::vector<Violation>* out) {
  if (PathContains(path, "storage/")) return;
  for (size_t i = 0; i < t.size(); ++i) {
    if (t[i].IsIdent("new")) {
      // Walk back over this statement: a `new` is acceptable only when the
      // result lands in a smart pointer at the use site.
      size_t start = i;
      while (start > 0 && !t[start - 1].IsPunct(";") &&
             !t[start - 1].IsPunct("{") && !t[start - 1].IsPunct("}")) {
        --start;
      }
      bool owned = false;
      for (size_t k = start; k < i; ++k) {
        if (AnyOf(t[k], {"unique_ptr", "shared_ptr"})) owned = true;
        if (t[k].IsIdent("reset") && k + 1 < t.size() &&
            t[k + 1].IsPunct("(")) {
          owned = true;
        }
      }
      if (!owned) {
        out->push_back({path, t[i].line, "no-raw-new-delete",
                        "raw `new` outside storage/; use std::make_unique or "
                        "wrap in a smart pointer immediately"});
      }
    } else if (t[i].IsIdent("delete")) {
      // `= delete` (deleted special members) is declaration syntax.
      if (i > 0 && t[i - 1].IsPunct("=")) continue;
      out->push_back({path, t[i].line, "no-raw-new-delete",
                      "raw `delete` outside storage/; ownership must live in "
                      "a smart pointer"});
    }
  }
}

// ---------------------------------------------------------------------------
// pragma-once
// ---------------------------------------------------------------------------

void CheckPragmaOnce(const std::string& path, const Toks& t,
                     std::vector<Violation>* out) {
  if (!IsHeaderPath(path)) return;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].IsPunct("#") && t[i + 1].IsIdent("pragma") &&
        t[i + 2].IsIdent("once")) {
      return;
    }
  }
  out->push_back({path, 1, "pragma-once", "header is missing `#pragma once`"});
}

// ---------------------------------------------------------------------------
// own-header-first
// ---------------------------------------------------------------------------

void CheckOwnHeaderFirst(const std::string& path, const Toks& t,
                         std::vector<Violation>* out) {
  if (!IsSourcePath(path)) return;
  const std::string base = Basename(path);
  const std::string stem = base.substr(0, base.size() - 3);
  // Match the header by its last TWO path components (dir/stem.h) so a
  // same-named header in another directory ("sql/expression.h" for
  // src/exec/expression.cc) does not satisfy the rule.  Files directly
  // under the root fall back to the bare "stem.h" form.
  std::string dir;
  const size_t slash = path.rfind('/');
  if (slash != std::string::npos) {
    const size_t prev = path.rfind('/', slash - 1);
    dir = path.substr(prev == std::string::npos ? 0 : prev + 1,
                      slash - (prev == std::string::npos ? 0 : prev + 1));
  }
  const std::string own = dir.empty() ? "" : dir + "/" + stem + ".h\"";
  const std::string own_bare = "\"" + stem + ".h\"";

  int first_include_line = 0;
  bool first_is_own = false;
  bool includes_own = false;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    if (!t[i].IsPunct("#") || !t[i + 1].IsIdent("include")) continue;
    bool is_own = false;
    if (i + 2 < t.size() && t[i + 2].kind == TokKind::kString) {
      const std::string_view text = t[i + 2].text;
      is_own = text.find(own_bare) != std::string_view::npos ||
               (!own.empty() && text.find(own) != std::string_view::npos);
    }
    if (first_include_line == 0) {
      first_include_line = t[i].line;
      first_is_own = is_own;
    }
    if (is_own) includes_own = true;
  }
  if (includes_own && !first_is_own) {
    out->push_back({path, first_include_line, "own-header-first",
                    "a .cc must include its own header before any other "
                    "#include (catches non-self-contained headers)"});
  }
}

// ---------------------------------------------------------------------------
// discarded-status
// ---------------------------------------------------------------------------

void CheckDiscardedStatus(const std::string& path, const Toks& t,
                          std::vector<Violation>* out) {
  for (size_t i = 0; i < t.size(); ++i) {
    if (!t[i].IsIdent("Status")) continue;
    // Allow a `mural::` / `::mural::` qualifier, then require a statement
    // boundary before: nothing may bind the constructed value.
    size_t j = i;
    if (j >= 2 && t[j - 1].IsPunct("::") && t[j - 2].IsIdent("mural")) j -= 2;
    if (j >= 1 && t[j - 1].IsPunct("::")) --j;
    if (j > 0 && !t[j - 1].IsPunct(";") && !t[j - 1].IsPunct("{") &&
        !t[j - 1].IsPunct("}")) {
      continue;
    }
    size_t open = std::string_view::npos;
    bool is_factory = false;
    if (i + 1 < t.size() && t[i + 1].IsPunct("(")) {
      open = i + 1;
    } else if (i + 3 < t.size() && t[i + 1].IsPunct("::") &&
               t[i + 2].kind == TokKind::kIdent && t[i + 3].IsPunct("(")) {
      open = i + 3;
      is_factory = true;
    }
    if (open == std::string_view::npos) continue;
    const size_t close = MatchingParen(t, open);
    if (close == std::string_view::npos || close + 1 >= t.size() ||
        !t[close + 1].IsPunct(";")) {
      continue;
    }
    if (is_factory || !LooksLikeParamList(t, open + 1, close)) {
      out->push_back({path, t[i].line, "discarded-status",
                      "Status constructed and discarded on its own line; "
                      "return it, check it, or drop the statement"});
    }
    i = close;
  }
}

// ---------------------------------------------------------------------------
// no-bare-thread
// ---------------------------------------------------------------------------

void CheckBareThread(const std::string& path, const Toks& t,
                     std::vector<Violation>* out) {
  // common/ owns the one sanctioned ThreadPool implementation; tools/ are
  // standalone binaries outside the engine's concurrency model.
  if (PathContains(path, "common/") || PathContains(path, "tools/")) return;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].IsIdent("std") && t[i + 1].IsPunct("::") &&
        AnyOf(t[i + 2], {"thread", "jthread", "async"})) {
      out->push_back({path, t[i].line, "no-bare-thread",
                      "spawn threads via common/thread_pool.h (ThreadPool), "
                      "not bare std::" + std::string(t[i + 2].text)});
    }
  }
}

// ---------------------------------------------------------------------------
// no-direct-clock
// ---------------------------------------------------------------------------

void CheckDirectClock(const std::string& path, const Toks& t,
                      std::vector<Violation>* out) {
  // common/timer.cc is the single sanctioned steady_clock call site; all
  // timing flows through SpanClock::NowNanos() so tests can substitute a
  // fake clock (common/timer.h).  tools/ are standalone binaries.
  if (PathContains(path, "common/") || PathContains(path, "tools/")) return;
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].IsIdent("steady_clock") && t[i + 1].IsPunct("::") &&
        t[i + 2].IsIdent("now")) {
      out->push_back({path, t[i].line, "no-direct-clock",
                      "read time via SpanClock::NowNanos() or Timer "
                      "(common/timer.h), not steady_clock::now(); direct "
                      "clock reads cannot be faked in tests"});
    }
  }
}

// ---------------------------------------------------------------------------
// no-raw-mutex
// ---------------------------------------------------------------------------

void CheckRawMutex(const std::string& path, const Toks& t,
                   std::vector<Violation>* out) {
  // common/mutex.h wraps the std primitives once; tools/ are standalone.
  if (PathContains(path, "common/") || PathContains(path, "tools/")) return;
  for (size_t i = 0; i < t.size(); ++i) {
    if (AnyOf(t[i],
              {"lock_guard", "unique_lock", "scoped_lock", "shared_lock"})) {
      out->push_back(
          {path, t[i].line, "no-raw-mutex",
           "use MutexLock / ReaderMutexLock / WriterMutexLock "
           "(common/mutex.h) instead of std::" + std::string(t[i].text) +
               "; the wrappers carry thread-safety annotations"});
      continue;
    }
    if (i + 2 < t.size() && t[i].IsIdent("std") && t[i + 1].IsPunct("::") &&
        AnyOf(t[i + 2],
              {"mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
               "recursive_timed_mutex", "condition_variable",
               "condition_variable_any"})) {
      out->push_back(
          {path, t[i].line, "no-raw-mutex",
           "use mural::Mutex / SharedMutex / CondVar (common/mutex.h) "
           "instead of std::" + std::string(t[i + 2].text) +
               "; raw primitives are invisible to -Wthread-safety"});
    }
  }
}

// ---------------------------------------------------------------------------
// no-lock-across-g2p-io
// ---------------------------------------------------------------------------

/// The identifier immediately before the first '(' among the tokens of
/// `line`, or "" — the declared name a trailing / line-above
/// `// lint: blocking` marker bans.
std::string NameBeforeParenOnLine(const Toks& t, int line) {
  for (size_t i = 1; i < t.size(); ++i) {
    if (t[i].line != line) continue;
    if (t[i].IsPunct("(") && t[i - 1].kind == TokKind::kIdent &&
        t[i - 1].line == line) {
      return std::string(t[i - 1].text);
    }
    if (t[i].IsPunct("(")) return "";
  }
  return "";
}

void CollectBlockingFromLex(const LexResult& lexed,
                            std::vector<std::string>* names) {
  constexpr std::string_view kMarker = "lint: blocking";
  auto add = [names](std::string n) {
    if (n.empty()) return;
    if (std::find(names->begin(), names->end(), n) != names->end()) return;
    names->push_back(std::move(n));
  };
  for (const CommentSpan& c : lexed.comments) {
    const size_t pos = c.text.find(kMarker);
    if (pos == std::string::npos) continue;
    size_t i = pos + kMarker.size();
    if (i < c.text.size() && c.text[i] == '(') {
      // Explicit list: `// lint: blocking(pread, pwrite, ...)`.  The '('
      // must touch the marker — prose like "blocking (slow)" is not a list.
      ++i;
      std::string cur;
      for (; i < c.text.size() && c.text[i] != ')'; ++i) {
        const char ch = c.text[i];
        if (std::isalnum(ch & 0xff) || ch == '_') {
          cur += ch;
        } else {
          add(std::move(cur));
          cur.clear();
        }
      }
      add(std::move(cur));
      continue;
    }
    // Trailing form: the marked declaration shares the comment's line.
    // Line-above form: it is the line after the comment ends.
    std::string n = NameBeforeParenOnLine(lexed.tokens, c.first_line);
    if (n.empty()) n = NameBeforeParenOnLine(lexed.tokens, c.last_line + 1);
    add(std::move(n));
  }
}

void CheckLockAcrossIo(const std::string& path, const Toks& t,
                       const std::vector<std::string>& banned,
                       std::vector<Violation>* out) {
  if (PathContains(path, "common/") || PathContains(path, "tools/")) return;
  auto is_banned = [&banned](const Tok& tk) {
    return tk.kind == TokKind::kIdent &&
           std::find(banned.begin(), banned.end(), tk.text) != banned.end();
  };
  int depth = 0;
  std::vector<int> lock_depths;  // brace depth at each live MutexLock decl
  for (size_t i = 0; i < t.size(); ++i) {
    const Tok& tk = t[i];
    if (tk.IsPunct("{")) {
      ++depth;
      continue;
    }
    if (tk.IsPunct("}")) {
      --depth;
      while (!lock_depths.empty() && lock_depths.back() > depth) {
        lock_depths.pop_back();
      }
      continue;
    }
    // `MutexLock lock(mu_);` — the following ident distinguishes a guard
    // declaration from mentions of the type itself.
    if (AnyOf(tk, {"MutexLock", "ReaderMutexLock", "WriterMutexLock"}) &&
        i + 1 < t.size() && t[i + 1].kind == TokKind::kIdent) {
      lock_depths.push_back(depth);
      continue;
    }
    if (!lock_depths.empty() && i + 1 < t.size() && t[i + 1].IsPunct("(") &&
        is_banned(tk)) {
      out->push_back(
          {path, tk.line, "no-lock-across-g2p-io",
           "`" + std::string(tk.text) +
               "` (declared `// lint: blocking`) called while a MutexLock "
               "is held; G2P transforms and page IO must run outside the "
               "lock (compute, then relock and publish — see "
               "common/mutex.h)"});
    }
  }
}

// ---------------------------------------------------------------------------
// guarded-field
// ---------------------------------------------------------------------------

/// True when the member statement reads like a function declaration or
/// definition header: a top-level '(' (outside template angles) before any
/// top-level '='.
bool StmtLooksLikeFunction(const std::vector<const Tok*>& stmt) {
  int angle = 0;
  for (const Tok* tk : stmt) {
    if (tk->IsPunct("<")) {
      ++angle;
    } else if (tk->IsPunct(">")) {
      angle = std::max(0, angle - 1);
    } else if (tk->IsPunct(">>")) {
      angle = std::max(0, angle - 2);
    } else if (tk->IsPunct("=") && angle == 0) {
      return false;
    } else if (tk->IsPunct("(") && angle == 0) {
      return true;
    }
  }
  return false;
}

struct ClassCtx {
  std::string name;
  int body_depth = 0;  // brace depth of tokens directly inside the body
  bool has_mutex = false;
  std::vector<Violation> candidates;  // emitted only if has_mutex at close
};

/// Classifies one member statement of the innermost class.
void ClassifyMember(const std::string& path,
                    const std::vector<const Tok*>& stmt,
                    const std::vector<CommentSpan>& comments, ClassCtx* ctx) {
  if (stmt.empty()) return;
  if (AnyOf(*stmt.front(),
            {"public", "private", "protected", "using", "typedef", "friend",
             "static", "inline", "template", "class", "struct", "enum",
             "operator", "virtual", "explicit"})) {
    return;
  }
  // Rule out non-member statements first: method declarations (including
  // deleted ctors like `Mutex(const Mutex&) = delete;`, which must not set
  // has_mutex) and operator members (`T& operator=(...) = delete;`, whose
  // `=` precedes the `(` and defeats the signature heuristic).
  for (const Tok* tk : stmt) {
    if (tk->IsIdent("operator")) return;
  }
  // Strip thread-safety attribute groups before the function-signature
  // heuristic: `SharedMutex mu_ ACQUIRED_BEFORE(lock_rank::kX);` carries a
  // top-level '(' but is a data member, and its class absolutely must
  // count as mutex-holding.
  bool annotated = false;
  std::vector<const Tok*> core;
  core.reserve(stmt.size());
  for (size_t i = 0; i < stmt.size(); ++i) {
    if (AnyOf(*stmt[i], {"GUARDED_BY", "PT_GUARDED_BY", "ACQUIRED_BEFORE",
                         "ACQUIRED_AFTER"}) &&
        i + 1 < stmt.size() && stmt[i + 1]->IsPunct("(")) {
      if (AnyOf(*stmt[i], {"GUARDED_BY", "PT_GUARDED_BY"})) annotated = true;
      int pdepth = 0;
      size_t k = i + 1;
      for (; k < stmt.size(); ++k) {
        if (stmt[k]->IsPunct("(")) ++pdepth;
        if (stmt[k]->IsPunct(")") && --pdepth == 0) break;
      }
      i = k;
      continue;
    }
    core.push_back(stmt[i]);
  }
  if (StmtLooksLikeFunction(core)) return;
  bool is_mutex = false, internally_sync = false;
  for (const Tok* tk : core) {
    if (AnyOf(*tk, {"Mutex", "SharedMutex"})) is_mutex = true;
    if (AnyOf(*tk, {"atomic", "CondVar"})) internally_sync = true;
  }
  if (is_mutex) {
    ctx->has_mutex = true;
    return;
  }
  if (annotated || internally_sync) return;
  if (AnyOf(*stmt.front(), {"const", "constexpr"})) return;  // immutable
  // Member name: last identifier before a top-level initializer.
  std::string name;
  int angle = 0;
  for (const Tok* tk : core) {
    if (tk->IsPunct("<")) ++angle;
    if (tk->IsPunct(">")) angle = std::max(0, angle - 1);
    if (tk->IsPunct(">>")) angle = std::max(0, angle - 2);
    if (tk->IsPunct("=") && angle == 0) break;
    if (tk->kind == TokKind::kIdent) name = std::string(tk->text);
  }
  if (name.empty()) return;
  // `// lint: unguarded(reason)` on the member's line (or the line above)
  // is the documented escape hatch.
  const int first_line = stmt.front()->line;
  const int last_line = stmt.back()->line;
  for (const CommentSpan& c : comments) {
    if (c.last_line >= first_line - 1 && c.first_line <= last_line &&
        c.text.find("lint: unguarded") != std::string::npos) {
      return;
    }
  }
  ctx->candidates.push_back(
      {path, first_line, "guarded-field",
       "field `" + name + "` of mutex-holding class `" + ctx->name +
           "` has no GUARDED_BY/PT_GUARDED_BY annotation; annotate it or "
           "mark it `// lint: unguarded(reason)`"});
}

void CheckGuardedField(const std::string& path, const LexResult& lexed,
                       std::vector<Violation>* out) {
  if (PathContains(path, "tools/")) return;
  const Toks& t = lexed.tokens;
  int depth = 0;
  std::vector<ClassCtx> stack;
  std::vector<const Tok*> stmt;
  bool pending_class = false;
  std::string pending_name;
  bool pending_name_locked = false;

  auto in_body = [&]() {
    return !stack.empty() && depth == stack.back().body_depth;
  };

  for (size_t i = 0; i < t.size(); ++i) {
    const Tok& tk = t[i];

    if (pending_class) {
      if (tk.IsPunct("(")) {
        // Attribute-macro arguments, e.g. `class CAPABILITY("mutex") Mutex`.
        const size_t close = MatchingParen(t, i);
        if (close == std::string_view::npos) {
          pending_class = false;
        } else {
          i = close;
          continue;
        }
      } else if (tk.IsPunct(";") || tk.IsPunct("=")) {
        pending_class = false;  // forward declaration / non-type use
      } else if (tk.IsPunct("{")) {
        stack.push_back(ClassCtx{pending_name, depth + 1, false, {}});
        pending_class = false;
        stmt.clear();
        ++depth;
        continue;
      } else if (tk.IsPunct(":")) {
        pending_name_locked = true;  // base-clause: name already seen
      } else if (tk.kind == TokKind::kIdent && !pending_name_locked &&
                 !AnyOf(tk, {"final", "alignas"})) {
        pending_name = std::string(tk.text);
      }
      if (pending_class) continue;
    }

    if (tk.IsPunct("{")) {
      if (in_body() && !stmt.empty()) {
        // A '{' at member level opens either a method body (discard the
        // signature) or a brace initializer (keep collecting to the ';').
        if (StmtLooksLikeFunction(stmt)) stmt.clear();
      }
      ++depth;
      continue;
    }
    if (tk.IsPunct("}")) {
      --depth;
      if (!stack.empty() && depth == stack.back().body_depth - 1) {
        ClassCtx ctx = std::move(stack.back());
        stack.pop_back();
        if (ctx.has_mutex) {
          for (Violation& v : ctx.candidates) out->push_back(std::move(v));
        }
        stmt.clear();
      }
      continue;
    }

    if ((tk.IsIdent("class") || tk.IsIdent("struct")) &&
        !(i > 0 && (t[i - 1].IsIdent("enum") || t[i - 1].IsPunct("<") ||
                    t[i - 1].IsPunct(",")))) {
      pending_class = true;
      pending_name.clear();
      pending_name_locked = false;
      stmt.clear();
      continue;
    }

    if (!in_body()) continue;

    if (tk.IsPunct(";")) {
      ClassifyMember(path, stmt, lexed.comments, &stack.back());
      stmt.clear();
      continue;
    }
    if (tk.IsPunct(":") && stmt.size() == 1 &&
        AnyOf(*stmt.front(), {"public", "private", "protected"})) {
      stmt.clear();  // access specifier
      continue;
    }
    stmt.push_back(&tk);
  }
}

// ---------------------------------------------------------------------------
// layering / layer-config-drift
// ---------------------------------------------------------------------------

/// True when an escape-hatch comment containing `marker` sits on `line` or
/// the line above it (same convention as `// lint: unguarded`).
bool HasEscapeComment(const std::vector<CommentSpan>& comments, int line,
                      std::string_view marker) {
  for (const CommentSpan& c : comments) {
    if (c.last_line >= line - 1 && c.first_line <= line &&
        c.text.find(marker) != std::string::npos) {
      return true;
    }
  }
  return false;
}

void CheckLayering(const std::string& path, const FileSymbols& syms,
                   const std::vector<CommentSpan>& comments,
                   const LayerConfig& layers, std::vector<Violation>* out) {
  const std::string layer = LayerOfPath(path);
  if (layer.empty()) {
    // Files directly under src/ have no subsystem; everything else (tools/,
    // tests/) is outside the layered engine.
    constexpr std::string_view kSrc = "src/";
    if (path.compare(0, kSrc.size(), kSrc) == 0 &&
        path.find('/', kSrc.size()) == std::string::npos) {
      out->push_back({path, 1, "layer-config-drift",
                      "file sits directly under src/, outside every layer; "
                      "move it into a subsystem directory listed in "
                      "tools/lint/layers.toml"});
    }
    return;
  }
  if (!layers.Known(layer)) {
    out->push_back(
        {path, 1, "layer-config-drift",
         "directory `src/" + layer + "/` has no layer assignment in "
         "tools/lint/layers.toml; place the new subsystem in the DAG"});
    return;
  }
  const std::set<std::string>& allowed = layers.allowed.at(layer);
  for (const IncludeRef& inc : syms.includes) {
    if (!inc.quoted) continue;  // system headers are outside the DAG
    const size_t slash = inc.path.find('/');
    if (slash == std::string::npos) continue;  // same-directory include
    const std::string target = inc.path.substr(0, slash);
    if (!layers.Known(target)) continue;  // not a src/ subsystem
    if (allowed.count(target) != 0) continue;
    if (HasEscapeComment(comments, inc.line, "lint: layer-exception")) {
      continue;
    }
    out->push_back(
        {path, inc.line, "layering",
         "`" + layer + "` must not include \"" + inc.path + "\": `" + target +
             "` is not beneath it in the architecture DAG "
             "(tools/lint/layers.toml); invert the dependency or add "
             "`// lint: layer-exception(reason)`"});
  }
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

/// The lock an ACQUIRED_BEFORE/ACQUIRED_AFTER attribute at index `attr`
/// annotates: the nearest plain identifier scanning backward over any
/// earlier attribute groups on the same declaration
/// (`SharedMutex table_mu_ ACQUIRED_AFTER(a) ACQUIRED_BEFORE(b)` names
/// `table_mu_` from both attributes).
std::string DeclaredLockName(const Toks& t, size_t attr) {
  size_t j = attr;
  while (j > 0) {
    --j;
    if (t[j].IsPunct(")")) {
      // Skip a preceding attribute's argument group.
      int depth = 0;
      size_t k = j + 1;
      while (k > 0) {
        --k;
        if (t[k].IsPunct(")")) ++depth;
        if (t[k].IsPunct("(") && --depth == 0) break;
      }
      if (k == 0) return "";
      j = k;
      continue;
    }
    if (t[j].kind != TokKind::kIdent) return "";
    if (AnyOf(t[j], {"ACQUIRED_BEFORE", "ACQUIRED_AFTER", "GUARDED_BY",
                     "PT_GUARDED_BY"})) {
      continue;  // the name of the argument group just skipped
    }
    return std::string(t[j].text);
  }
  return "";
}

void CollectEdgesFromLex(const std::string& path, const LexResult& lexed,
                         std::vector<LockOrderEdge>* out) {
  const Toks& t = lexed.tokens;
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    const bool before = t[i].IsIdent("ACQUIRED_BEFORE");
    if (!before && !t[i].IsIdent("ACQUIRED_AFTER")) continue;
    if (!t[i + 1].IsPunct("(")) continue;
    const size_t close = MatchingParen(t, i + 1);
    if (close == std::string_view::npos) continue;
    // The macro definition itself (#define ACQUIRED_BEFORE(...)) yields no
    // identifier arguments and is skipped naturally below.
    const std::string decl = DeclaredLockName(t, i);
    if (decl.empty() || decl == "define") {
      i = close;
      continue;
    }
    // Each top-level comma piece contributes one edge; the piece's name is
    // its last identifier, so `lock_rank::kFrameLatch` and a plain member
    // `kFrameLatch` land on the same node.
    std::string arg;
    int depth = 0;
    auto flush = [&] {
      if (arg.empty()) return;
      if (before) {
        out->push_back({decl, arg, path, t[i].line});
      } else {
        out->push_back({arg, decl, path, t[i].line});
      }
      arg.clear();
    };
    for (size_t k = i + 2; k < close; ++k) {
      if (t[k].IsPunct("(")) ++depth;
      if (t[k].IsPunct(")")) --depth;
      if (t[k].IsPunct(",") && depth == 0) {
        flush();
        continue;
      }
      if (t[k].kind == TokKind::kIdent) arg = std::string(t[k].text);
    }
    flush();
    i = close;
  }
}

}  // namespace

std::vector<std::string> CollectBlockingMarkers(std::string_view content) {
  return CollectBlockingMarkers(Lex(content));
}

std::vector<std::string> CollectBlockingMarkers(const LexResult& lexed) {
  std::vector<std::string> names;
  CollectBlockingFromLex(lexed, &names);
  return names;
}

std::vector<LockOrderEdge> CollectLockOrderEdges(const std::string& rel_path,
                                                 std::string_view content) {
  return CollectLockOrderEdges(rel_path, Lex(content));
}

std::vector<LockOrderEdge> CollectLockOrderEdges(const std::string& rel_path,
                                                 const LexResult& lexed) {
  std::vector<LockOrderEdge> edges;
  CollectEdgesFromLex(rel_path, lexed, &edges);
  return edges;
}

std::vector<Violation> CheckLockOrder(const std::vector<LockOrderEdge>& edges) {
  // std::map keeps traversal (and therefore reporting) order deterministic
  // regardless of the order files were scanned in.
  std::map<std::string, std::vector<const LockOrderEdge*>> adj;
  for (const LockOrderEdge& e : edges) {
    adj[e.before].push_back(&e);
    adj.emplace(e.after, std::vector<const LockOrderEdge*>());
  }
  std::vector<Violation> out;
  std::map<std::string, int> color;  // 0 new, 1 on the DFS stack, 2 done
  std::vector<std::string> stack;
  const std::function<void(const std::string&)> dfs =
      [&](const std::string& n) {
        color[n] = 1;
        stack.push_back(n);
        for (const LockOrderEdge* e : adj[n]) {
          const int c = color[e->after];
          if (c == 1) {
            std::string msg = "lock-order cycle: ";
            for (auto it = std::find(stack.begin(), stack.end(), e->after);
                 it != stack.end(); ++it) {
              msg += *it + " -> ";
            }
            msg += e->after;
            out.push_back(
                {e->file, e->line, "lock-order",
                 msg + "; the ACQUIRED_BEFORE/ACQUIRED_AFTER declarations "
                       "contradict each other (see common/lock_order.h)"});
          } else if (c == 0) {
            dfs(e->after);
          }
        }
        stack.pop_back();
        color[n] = 2;
      };
  for (const auto& [node, unused] : adj) {
    if (color[node] == 0) dfs(node);
  }
  return out;
}

std::string StripCommentsAndStrings(std::string_view src) {
  const LexResult lexed = Lex(src);
  std::string out(src.size(), ' ');
  for (size_t i = 0; i < src.size(); ++i) {
    if (src[i] == '\n') out[i] = '\n';
  }
  for (const Tok& t : lexed.tokens) {
    if (t.kind == TokKind::kString || t.kind == TokKind::kChar) continue;
    std::copy(t.text.begin(), t.text.end(), out.begin() + t.offset);
  }
  return out;
}

std::vector<Violation> LintFile(const std::string& rel_path,
                                std::string_view content) {
  return LintFile(rel_path, content, LintOptions());
}

LexResult TimedLex(std::string_view content, RuleTimings* timings) {
  if (timings == nullptr) return Lex(content);
  const auto t0 = std::chrono::steady_clock::now();
  LexResult lexed = Lex(content);
  const auto t1 = std::chrono::steady_clock::now();
  (*timings)["lex"] +=
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  return lexed;
}

std::vector<Violation> LintFile(const std::string& rel_path,
                                std::string_view content,
                                const LintOptions& options) {
  return LintFile(rel_path, TimedLex(content, options.timings), options);
}

std::vector<Violation> LintFile(const std::string& rel_path,
                                const LexResult& lexed,
                                const LintOptions& options) {
  std::vector<Violation> out;
  // Per-rule wall time, accumulated into options.timings when the caller
  // asked for a breakdown (--timings).  A no-op otherwise so the hot path
  // pays nothing.  tools/ is exempt from no-direct-clock.
  auto timed = [&options](const char* key, auto&& fn) {
    if (options.timings == nullptr) {
      fn();
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    (*options.timings)[key] +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  };
  const Toks& t = lexed.tokens;
  // The file's own `// lint: blocking` markers always apply, on top of
  // whatever the driver's cross-file pass collected.
  std::vector<std::string> banned = options.blocking_calls;
  CollectBlockingFromLex(lexed, &banned);
  timed("no-throw", [&] { CheckThrow(rel_path, t, &out); });
  timed("no-raw-new-delete", [&] { CheckNewDelete(rel_path, t, &out); });
  timed("pragma-once", [&] { CheckPragmaOnce(rel_path, t, &out); });
  timed("own-header-first", [&] { CheckOwnHeaderFirst(rel_path, t, &out); });
  timed("discarded-status", [&] { CheckDiscardedStatus(rel_path, t, &out); });
  timed("no-bare-thread", [&] { CheckBareThread(rel_path, t, &out); });
  timed("no-direct-clock", [&] { CheckDirectClock(rel_path, t, &out); });
  timed("no-raw-mutex", [&] { CheckRawMutex(rel_path, t, &out); });
  timed("no-lock-across-g2p-io",
        [&] { CheckLockAcrossIo(rel_path, t, banned, &out); });
  timed("guarded-field", [&] { CheckGuardedField(rel_path, lexed, &out); });
  // latch-scope runs on per-function CFGs, which need the declaration
  // parse for function bodies, so the symbols are built unconditionally.
  FileSymbols syms;
  timed("symbols", [&] { syms = ParseFileSymbols(rel_path, lexed); });
  timed("latch-scope", [&] {
    CfgRuleInputs inputs;
    inputs.blocking = &banned;
    std::vector<Violation> cfg_out =
        CheckCfgRules(rel_path, lexed, syms, inputs);
    out.insert(out.end(), std::make_move_iterator(cfg_out.begin()),
               std::make_move_iterator(cfg_out.end()));
  });
  if (options.layers != nullptr) {
    timed("layering", [&] {
      CheckLayering(rel_path, syms, lexed.comments, *options.layers, &out);
    });
  }
  return out;
}

std::string FormatViolation(const Violation& v) {
  return v.file + ":" + std::to_string(v.line) + ": [" + v.rule + "] " +
         v.message;
}

}  // namespace mural::lint
