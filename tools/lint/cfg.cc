#include "cfg.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string_view>
#include <utility>

#include "token_util.h"

namespace mural::lint {

namespace {

constexpr size_t kNpos = std::string_view::npos;

bool PathContains(const std::string& path, std::string_view dir) {
  return path.find(dir) != std::string::npos;
}

/// True when a comment containing `marker` sits on `line` or the line
/// above it (the repo-wide escape-hatch convention).
bool HasMarker(const std::vector<CommentSpan>& comments, int line,
               std::string_view marker) {
  for (const CommentSpan& c : comments) {
    if (c.last_line >= line - 1 && c.first_line <= line &&
        c.text.find(marker) != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// Index one past the statement's terminating ';', scanning from `i`
/// within [i, end).  Balanced (), [], {} groups (call arguments, lambda
/// bodies, brace initializers) are skipped wholesale; a '}' that would
/// close the enclosing scope ends the statement early (malformed input
/// degrades, never loops).
size_t StmtEnd(const Toks& t, size_t i, size_t end) {
  int depth = 0;
  for (size_t k = i; k < end; ++k) {
    const Tok& tk = t[k];
    if (tk.IsPunct("(") || tk.IsPunct("[") || tk.IsPunct("{")) {
      ++depth;
    } else if (tk.IsPunct(")") || tk.IsPunct("]") || tk.IsPunct("}")) {
      if (depth == 0) return k;
      --depth;
    } else if (tk.IsPunct(";") && depth == 0) {
      return k + 1;
    }
  }
  return end;
}

/// Statements that never return: the successor edge goes straight to the
/// function exit, like `return`.
bool IsTerminatorCall(const Toks& t, size_t i, size_t end) {
  size_t k = i;
  if (k + 1 < end && t[k].IsIdent("std") && t[k + 1].IsPunct("::")) k += 2;
  if (k >= end || t[k].kind != TokKind::kIdent) return false;
  if (!TokAnyOf(t[k], {"abort", "_Exit", "quick_exit", "unreachable",
                       "__builtin_unreachable", "__builtin_trap"})) {
    return false;
  }
  return k + 1 < end && t[k + 1].IsPunct("(");
}

class CfgBuilder {
 public:
  CfgBuilder(const Toks& t, Cfg* cfg) : t_(t), cfg_(cfg) {}

  void Build(size_t body_open, size_t body_close) {
    cfg_->entry = NewBlock();
    cfg_->exit = NewBlock();
    cur_ = cfg_->entry;
    ParseStmtList(body_open + 1, body_close, /*depth=*/1);
    EmitScopeExit(body_close, /*depth=*/0, /*exit_depth=*/1);
    AddEdge(cur_, cfg_->exit);
  }

 private:
  struct JumpTarget {
    int block;
    int exit_depth;  // locals at depth >= this die on the jump
  };

  int NewBlock() {
    cfg_->blocks.emplace_back();
    return static_cast<int>(cfg_->blocks.size()) - 1;
  }

  void AddEdge(int from, int to) { cfg_->blocks[from].succs.push_back(to); }

  void EmitTo(int block, size_t b, size_t e, int depth) {
    cfg_->blocks[block].stmts.push_back(
        {CfgStmt::Kind::kPlain, b, e, depth, 0});
  }

  void Emit(size_t b, size_t e, int depth) { EmitTo(cur_, b, e, depth); }

  void EmitScopeExit(size_t at, int depth, int exit_depth) {
    cfg_->blocks[cur_].stmts.push_back(
        {CfgStmt::Kind::kScopeExit, at, at, depth, exit_depth});
  }

  /// `while (true)` / `for (;;)`-style conditions get no exit edge, so an
  /// infinite loop does not fabricate a path past the loop.
  bool CondAlwaysTrue(size_t b, size_t e) const {
    if (b >= e) return true;  // empty for-condition
    if (e - b != 1) return false;
    if (t_[b].IsIdent("true")) return true;
    return t_[b].kind == TokKind::kNumber && t_[b].text != "0";
  }

  void ParseStmtList(size_t i, size_t end, int depth) {
    while (i < end) {
      const size_t next = ParseStmt(i, end, depth);
      i = next > i ? next : i + 1;  // malformed input must still advance
    }
  }

  // Returns the index one past the parsed statement.
  size_t ParseStmt(size_t i, size_t end, int depth) {
    const Tok& tk = t_[i];

    if (tk.IsPunct(";")) return i + 1;  // empty statement
    if (tk.IsPunct("}") || tk.IsPunct(")")) return i + 1;  // stray closer

    if (tk.IsPunct("{")) {
      size_t close = MatchingBrace(t_, i);
      if (close == kNpos || close > end) close = end;
      ParseStmtList(i + 1, close, depth + 1);
      EmitScopeExit(close, depth, depth + 1);
      return close < end ? close + 1 : end;
    }

    if (tk.IsIdent("if")) {
      size_t p = i + 1;
      if (p < end && t_[p].IsIdent("constexpr")) ++p;
      if (p < end && t_[p].IsPunct("(")) {
        const size_t cp = MatchingParen(t_, p);
        if (cp != kNpos && cp < end) return ParseIf(i, cp, end, depth);
      }
    }

    if (tk.IsIdent("while") && i + 1 < end && t_[i + 1].IsPunct("(")) {
      const size_t cp = MatchingParen(t_, i + 1);
      if (cp != kNpos && cp < end) return ParseWhile(i, cp, end, depth);
    }

    if (tk.IsIdent("do")) return ParseDo(i, end, depth);

    if (tk.IsIdent("for") && i + 1 < end && t_[i + 1].IsPunct("(")) {
      const size_t cp = MatchingParen(t_, i + 1);
      if (cp != kNpos && cp < end) return ParseFor(i, cp, end, depth);
    }

    if (tk.IsIdent("switch") && i + 1 < end && t_[i + 1].IsPunct("(")) {
      const size_t cp = MatchingParen(t_, i + 1);
      if (cp != kNpos && cp + 1 < end && t_[cp + 1].IsPunct("{")) {
        return ParseSwitch(i, cp, end, depth);
      }
    }

    if (tk.IsIdent("break") && !breaks_.empty()) {
      EmitScopeExit(i, depth, breaks_.back().exit_depth);
      AddEdge(cur_, breaks_.back().block);
      cur_ = NewBlock();
      return (i + 1 < end && t_[i + 1].IsPunct(";")) ? i + 2 : i + 1;
    }
    if (tk.IsIdent("continue") && !continues_.empty()) {
      EmitScopeExit(i, depth, continues_.back().exit_depth);
      AddEdge(cur_, continues_.back().block);
      cur_ = NewBlock();
      return (i + 1 < end && t_[i + 1].IsPunct(";")) ? i + 2 : i + 1;
    }

    if (tk.IsIdent("return") || tk.IsIdent("co_return") ||
        tk.IsIdent("throw") || IsTerminatorCall(t_, i, end)) {
      const size_t e = StmtEnd(t_, i, end);
      Emit(i, e, depth);
      AddEdge(cur_, cfg_->exit);
      cur_ = NewBlock();
      return e;
    }

    if (tk.IsIdent("MURAL_RETURN_IF_ERROR") ||
        tk.IsIdent("MURAL_ASSIGN_OR_RETURN")) {
      const size_t e = StmtEnd(t_, i, end);
      Emit(i, e, depth);
      AddEdge(cur_, cfg_->exit);
      const int next = NewBlock();
      AddEdge(cur_, next);
      cur_ = next;
      return e;
    }

    return ParsePlain(i, end, depth);
  }

  size_t ParseIf(size_t i, size_t close, size_t end, int depth) {
    Emit(i, close + 1, depth);
    const int head = cur_;
    const int then_b = NewBlock();
    AddEdge(head, then_b);
    cur_ = then_b;
    size_t j = close + 1 < end ? ParseStmt(close + 1, end, depth) : end;
    const int after_then = cur_;
    if (j < end && t_[j].IsIdent("else")) {
      const int else_b = NewBlock();
      AddEdge(head, else_b);
      cur_ = else_b;
      j = j + 1 < end ? ParseStmt(j + 1, end, depth) : end;
      const int after_else = cur_;
      const int join = NewBlock();
      AddEdge(after_then, join);
      AddEdge(after_else, join);
      cur_ = join;
    } else {
      const int join = NewBlock();
      AddEdge(after_then, join);
      AddEdge(head, join);
      cur_ = join;
    }
    return j;
  }

  size_t ParseWhile(size_t i, size_t close, size_t end, int depth) {
    const int head = NewBlock();
    AddEdge(cur_, head);
    cur_ = head;
    Emit(i, close + 1, depth);
    const int body = NewBlock();
    const int exit_b = NewBlock();
    AddEdge(head, body);
    if (!CondAlwaysTrue(i + 2, close)) AddEdge(head, exit_b);
    breaks_.push_back({exit_b, depth + 1});
    continues_.push_back({head, depth + 1});
    cur_ = body;
    const size_t j = close + 1 < end ? ParseStmt(close + 1, end, depth) : end;
    AddEdge(cur_, head);
    breaks_.pop_back();
    continues_.pop_back();
    cur_ = exit_b;
    return j;
  }

  size_t ParseDo(size_t i, size_t end, int depth) {
    const int body = NewBlock();
    AddEdge(cur_, body);
    const int cond_b = NewBlock();
    const int exit_b = NewBlock();
    breaks_.push_back({exit_b, depth + 1});
    continues_.push_back({cond_b, depth + 1});
    cur_ = body;
    size_t j = i + 1 < end ? ParseStmt(i + 1, end, depth) : end;
    breaks_.pop_back();
    continues_.pop_back();
    AddEdge(cur_, cond_b);
    cur_ = cond_b;
    if (j < end && t_[j].IsIdent("while") && j + 1 < end &&
        t_[j + 1].IsPunct("(")) {
      const size_t cp = MatchingParen(t_, j + 1);
      if (cp != kNpos && cp < end) {
        Emit(j, cp + 1, depth);
        AddEdge(cond_b, body);
        if (!CondAlwaysTrue(j + 2, cp)) AddEdge(cond_b, exit_b);
        j = cp + 1;
        if (j < end && t_[j].IsPunct(";")) ++j;
        cur_ = exit_b;
        return j;
      }
    }
    // Malformed do-statement: keep both edges so no path is invented away.
    AddEdge(cond_b, body);
    AddEdge(cond_b, exit_b);
    cur_ = exit_b;
    return j;
  }

  size_t ParseFor(size_t i, size_t close, size_t end, int depth) {
    // Top-level ';' positions split init / condition / increment; none at
    // all means a range-for.
    std::vector<size_t> semis;
    int d = 0;
    for (size_t k = i + 2; k < close; ++k) {
      if (t_[k].IsPunct("(") || t_[k].IsPunct("[") || t_[k].IsPunct("{")) ++d;
      if (t_[k].IsPunct(")") || t_[k].IsPunct("]") || t_[k].IsPunct("}")) --d;
      if (t_[k].IsPunct(";") && d == 0) semis.push_back(k);
    }
    int exit_b;
    size_t j;
    if (semis.empty()) {
      // Range-for: the header declares the loop variable, scoped to the
      // body, and the range may be empty (edge to exit).
      const int head = NewBlock();
      AddEdge(cur_, head);
      cur_ = head;
      Emit(i, close + 1, depth + 1);
      const int body = NewBlock();
      exit_b = NewBlock();
      AddEdge(head, body);
      AddEdge(head, exit_b);
      breaks_.push_back({exit_b, depth + 1});
      continues_.push_back({head, depth + 1});
      cur_ = body;
      j = close + 1 < end ? ParseStmt(close + 1, end, depth) : end;
      AddEdge(cur_, head);
      breaks_.pop_back();
      continues_.pop_back();
    } else {
      const size_t s1 = semis[0];
      const size_t s2 = semis.size() > 1 ? semis[1] : close;
      if (s1 > i + 2) Emit(i + 2, s1 + 1, depth + 1);
      const int head = NewBlock();
      AddEdge(cur_, head);
      cur_ = head;
      const bool infinite = CondAlwaysTrue(s1 + 1, s2);
      if (s2 > s1 + 1) Emit(s1 + 1, s2, depth + 1);
      const int body = NewBlock();
      const int inc_b = NewBlock();
      exit_b = NewBlock();
      AddEdge(head, body);
      if (!infinite) AddEdge(head, exit_b);
      breaks_.push_back({exit_b, depth + 1});
      continues_.push_back({inc_b, depth + 1});
      cur_ = body;
      j = close + 1 < end ? ParseStmt(close + 1, end, depth) : end;
      AddEdge(cur_, inc_b);
      cur_ = inc_b;
      if (s2 + 1 < close) {
        Emit(s2 + 1, close, depth + 1);
      }
      AddEdge(inc_b, head);
      breaks_.pop_back();
      continues_.pop_back();
    }
    cur_ = exit_b;
    EmitScopeExit(close, depth, depth + 1);  // loop-scoped locals die here
    return j;
  }

  size_t ParseSwitch(size_t i, size_t close_paren, size_t end, int depth) {
    size_t close = MatchingBrace(t_, close_paren + 1);
    if (close == kNpos || close > end) close = end;
    Emit(i, close_paren + 1, depth);
    const int head = cur_;
    const int exit_b = NewBlock();
    bool has_default = false;
    breaks_.push_back({exit_b, depth + 1});
    cur_ = NewBlock();  // statements before the first label: unreachable
    size_t j = close_paren + 2;
    while (j < close) {
      if (t_[j].IsIdent("case")) {
        size_t colon = j + 1;
        int d = 0;
        while (colon < close) {
          const Tok& ck = t_[colon];
          if (ck.IsPunct("(") || ck.IsPunct("[") || ck.IsPunct("{")) ++d;
          if (ck.IsPunct(")") || ck.IsPunct("]") || ck.IsPunct("}")) --d;
          if (ck.IsPunct(":") && d == 0) break;
          ++colon;
        }
        const int nb = NewBlock();
        AddEdge(head, nb);
        AddEdge(cur_, nb);  // fallthrough from the previous case body
        cur_ = nb;
        j = colon < close ? colon + 1 : close;
        continue;
      }
      if (t_[j].IsIdent("default") && j + 1 < close &&
          t_[j + 1].IsPunct(":")) {
        has_default = true;
        const int nb = NewBlock();
        AddEdge(head, nb);
        AddEdge(cur_, nb);
        cur_ = nb;
        j += 2;
        continue;
      }
      const size_t n = ParseStmt(j, close, depth + 1);
      j = n > j ? n : j + 1;
    }
    AddEdge(cur_, exit_b);  // fall off the last case body
    if (!has_default) AddEdge(head, exit_b);  // uncovered value
    breaks_.pop_back();
    cur_ = exit_b;
    EmitScopeExit(close, depth, depth + 1);
    return close < end ? close + 1 : end;
  }

  size_t ParsePlain(size_t i, size_t end, int depth) {
    const size_t e = StmtEnd(t_, i, end);
    // A top-level conditional operator splits the statement into a
    // condition and two arm blocks, so `x = c ? std::move(a) : b` moves
    // `a` on one path only.
    size_t q = kNpos;
    int d = 0;
    for (size_t k = i; k < e; ++k) {
      const Tok& tk = t_[k];
      if (tk.IsPunct("(") || tk.IsPunct("[") || tk.IsPunct("{")) ++d;
      if (tk.IsPunct(")") || tk.IsPunct("]") || tk.IsPunct("}")) --d;
      if (tk.IsPunct("?") && d == 0) {
        q = k;
        break;
      }
    }
    if (q != kNpos) {
      size_t colon = kNpos;
      int nested = 0;
      d = 0;
      for (size_t k = q + 1; k < e; ++k) {
        const Tok& tk = t_[k];
        if (tk.IsPunct("(") || tk.IsPunct("[") || tk.IsPunct("{")) ++d;
        if (tk.IsPunct(")") || tk.IsPunct("]") || tk.IsPunct("}")) --d;
        if (d != 0) continue;
        if (tk.IsPunct("?")) ++nested;
        if (tk.IsPunct(":")) {
          if (nested == 0) {
            colon = k;
            break;
          }
          --nested;
        }
      }
      if (colon != kNpos) {
        Emit(i, q + 1, depth);
        const int head = cur_;
        const int a1 = NewBlock();
        const int a2 = NewBlock();
        const int join = NewBlock();
        AddEdge(head, a1);
        AddEdge(head, a2);
        EmitTo(a1, q + 1, colon, depth);
        EmitTo(a2, colon + 1, e, depth);
        AddEdge(a1, join);
        AddEdge(a2, join);
        cur_ = join;
        return e;
      }
    }
    Emit(i, e, depth);
    return e;
  }

  const Toks& t_;
  Cfg* cfg_;
  int cur_ = 0;
  std::vector<JumpTarget> breaks_;
  std::vector<JumpTarget> continues_;
};

}  // namespace

std::vector<Cfg> BuildCfgs(const LexResult& lexed, const FileSymbols& syms) {
  std::vector<Cfg> out;
  const Toks& t = lexed.tokens;
  for (const FunctionDecl& f : syms.functions) {
    if (!f.is_definition || f.body_begin == kNpos || f.body_end == kNpos ||
        f.body_begin >= t.size() || f.body_end >= t.size() ||
        f.body_begin >= f.body_end) {
      continue;
    }
    Cfg cfg;
    cfg.sig_begin = f.sig_begin;
    cfg.sig_end = f.sig_end;
    CfgBuilder(t, &cfg).Build(f.body_begin, f.body_end);
    out.push_back(std::move(cfg));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Forward dataflow
// ---------------------------------------------------------------------------

namespace {

/// Live guards: each tracked local's name and the scope depth it was
/// declared at.
using State = std::map<std::string, int>;

/// May-join: a guard live on any incoming path survives the merge.
/// Shadowed re-declarations keep the outer (smaller) depth so the fact
/// outlives the inner scope conservatively.
void Join(const State& from, State* into, bool* changed) {
  for (const auto& [name, depth] : from) {
    auto [it, inserted] = into->emplace(name, depth);
    if (inserted) {
      *changed = true;
    } else if (depth < it->second) {
      it->second = depth;
      *changed = true;
    }
  }
}

/// Iterates `transfer` over the graph to a fixpoint and returns the
/// converged block-entry states.  `transfer` must be monotone under Join
/// (gen/kill over a finite name set), so this terminates; the iteration
/// cap is a belt for malformed graphs, not a load-bearing bound.
template <typename Transfer>
std::vector<State> SolveForward(const Cfg& cfg, State entry_state,
                                const Transfer& transfer) {
  const size_t n = cfg.blocks.size();
  std::vector<State> in(n), out(n);
  in[cfg.entry] = std::move(entry_state);
  std::deque<int> worklist;
  std::vector<bool> queued(n, false);
  worklist.push_back(cfg.entry);
  queued[cfg.entry] = true;
  int budget = static_cast<int>(n) * 8 + 64;
  while (!worklist.empty() && budget-- > 0) {
    const int b = worklist.front();
    worklist.pop_front();
    queued[b] = false;
    State s = in[b];
    for (const CfgStmt& stmt : cfg.blocks[b].stmts) transfer(stmt, &s);
    out[b] = std::move(s);
    for (int succ : cfg.blocks[b].succs) {
      bool changed = false;
      Join(out[b], &in[succ], &changed);
      if (changed && !queued[succ]) {
        worklist.push_back(succ);
        queued[succ] = true;
      }
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// Statement-span scanners
// ---------------------------------------------------------------------------

bool IsGuardType(const Tok& t) {
  return TokAnyOf(t, {"ReadPageGuard", "WritePageGuard"});
}

/// Skips a balanced <...> template-argument group starting at `i` (which
/// must point at '<'); returns the index one past the closing '>'.
size_t SkipAngles(const Toks& t, size_t i, size_t end) {
  int depth = 0;
  for (size_t k = i; k < end && k < i + 64; ++k) {
    if (t[k].IsPunct("<")) ++depth;
    if (t[k].IsPunct(">") && --depth == 0) return k + 1;
    if (t[k].IsPunct(">>")) {
      depth -= 2;
      if (depth <= 0) return k + 1;
    }
  }
  return i + 1;
}

/// Matches a local declaration `Type [<...>] [*&]* name` whose type token
/// sits at `i`.  On success sets *name/*name_idx and returns true.  A
/// guard pointer counts as a guard: whoever handed it over holds the
/// latch.
bool MatchDeclAt(const Toks& t, size_t i, size_t end, std::string* name,
                 size_t* name_idx) {
  size_t j = i + 1;
  if (j < end && t[j].IsPunct("<")) j = SkipAngles(t, j, end);
  while (j < end && (t[j].IsPunct("*") || t[j].IsPunct("&") ||
                     t[j].IsPunct("&&") || t[j].IsIdent("const"))) {
    ++j;
  }
  if (j >= end || t[j].kind != TokKind::kIdent) return false;
  if (j + 1 < end && !(t[j + 1].IsPunct("=") || t[j + 1].IsPunct(";") ||
                       t[j + 1].IsPunct(",") || t[j + 1].IsPunct(")") ||
                       t[j + 1].IsPunct("{") || t[j + 1].IsPunct("("))) {
    return false;
  }
  *name = std::string(t[j].text);
  *name_idx = j;
  return true;
}

/// `std::move(name)` (or a bare `move(name)`) whose `move` token is `i`.
bool MatchMoveAt(const Toks& t, size_t i, size_t end, std::string* name,
                 size_t* close_idx) {
  if (!t[i].IsIdent("move")) return false;
  if (i + 3 >= end || !t[i + 1].IsPunct("(") ||
      t[i + 2].kind != TokKind::kIdent || !t[i + 3].IsPunct(")")) {
    return false;
  }
  *name = std::string(t[i + 2].text);
  *close_idx = i + 3;
  return true;
}

/// True when the identifier at `i` is a member access or qualified name
/// (`obj.guard`, `ns::ReadPageGuard`) rather than the local itself.
bool IsMemberOrQualified(const Toks& t, size_t i) {
  return i > 0 && (t[i - 1].IsPunct(".") || t[i - 1].IsPunct("->") ||
                   t[i - 1].IsPunct("::"));
}

/// Guard parameters of the analyzed definition, live at depth 1 (the
/// whole body): the caller holds those latches.
State GuardParams(const Toks& t, const Cfg& cfg) {
  State s;
  if (cfg.sig_begin >= t.size() || cfg.sig_end >= t.size()) return s;
  for (size_t i = cfg.sig_begin + 1; i < cfg.sig_end; ++i) {
    if (!IsGuardType(t[i])) continue;
    std::string name;
    size_t name_idx;
    if (MatchDeclAt(t, i, cfg.sig_end + 1, &name, &name_idx)) {
      s[name] = 1;
      i = name_idx;
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Rule: latch-scope (path-sensitive)
// ---------------------------------------------------------------------------

/// Called at a `// lint: blocking` call site with the state current at
/// that token.  Empty during the fixpoint, set during the report sweep.
using BlockingCallSink = std::function<void(const Tok&, const State&)>;

/// One statement's worth of latch-liveness transfer, in token order:
/// blocking-call checks see the state current at their token, Release()
/// and std::move() kill immediately, and new guard declarations go live
/// only at the end of the statement (their own initializer runs latchless).
void LatchTransfer(const Toks& t, const std::vector<std::string>& banned,
                   const CfgStmt& stmt, State* s,
                   const BlockingCallSink& on_blocking_call) {
  if (stmt.kind == CfgStmt::Kind::kScopeExit) {
    for (auto it = s->begin(); it != s->end();) {
      it = it->second >= stmt.exit_depth ? s->erase(it) : ++it;
    }
    return;
  }
  std::vector<std::string> pending;
  for (size_t i = stmt.begin; i < stmt.end; ++i) {
    const Tok& tk = t[i];
    if (tk.kind != TokKind::kIdent) continue;
    std::string name;
    size_t idx;
    if (IsGuardType(tk) && !IsMemberOrQualified(t, i) &&
        MatchDeclAt(t, i, stmt.end, &name, &idx)) {
      pending.push_back(std::move(name));
      i = idx;
      continue;
    }
    if (MatchMoveAt(t, i, stmt.end, &name, &idx)) {
      s->erase(name);
      i = idx;
      continue;
    }
    if (i + 2 < stmt.end &&
        (t[i + 1].IsPunct(".") || t[i + 1].IsPunct("->")) &&
        t[i + 2].IsIdent("Release")) {
      s->erase(std::string(tk.text));
      continue;
    }
    if (!s->empty() && i + 1 < stmt.end && t[i + 1].IsPunct("(") &&
        std::find(banned.begin(), banned.end(), tk.text) != banned.end()) {
      if (on_blocking_call) on_blocking_call(tk, *s);
    }
  }
  for (std::string& name : pending) (*s)[name] = stmt.depth;
}

void CheckLatchScope(const std::string& path, const LexResult& lexed,
                     const std::vector<Cfg>& cfgs,
                     const std::vector<std::string>& banned,
                     std::vector<Violation>* out) {
  const Toks& t = lexed.tokens;
  for (const Cfg& cfg : cfgs) {
    auto transfer = [&](const CfgStmt& stmt, State* s) {
      LatchTransfer(t, banned, stmt, s, BlockingCallSink());
    };
    const std::vector<State> in =
        SolveForward(cfg, GuardParams(t, cfg), transfer);
    // Report sweep over the converged states; unreachable blocks carry no
    // state and therefore report nothing.
    std::set<std::pair<int, std::string>> reported;
    const BlockingCallSink report = [&](const Tok& tk, const State& live) {
      if (HasMarker(lexed.comments, tk.line, "lint: latch-exception")) {
        return;
      }
      const std::string callee(tk.text);
      if (!reported.insert({tk.line, callee}).second) return;
      out->push_back(
          {path, tk.line, "latch-scope",
           "`" + callee +
               "` (declared `// lint: blocking`) is reachable while page "
               "guard `" + live.begin()->first +
               "` is still held on at least one path; Release() the "
               "latch on every path first, or mark an intentional "
               "two-latch section with `// lint: latch-exception(reason)`"});
    };
    for (size_t b = 0; b < cfg.blocks.size(); ++b) {
      State s = in[b];
      for (const CfgStmt& stmt : cfg.blocks[b].stmts) {
        LatchTransfer(t, banned, stmt, &s, report);
      }
    }
  }
}

}  // namespace

std::vector<Violation> CheckCfgRules(const std::string& path,
                                     const LexResult& lexed,
                                     const FileSymbols& syms,
                                     const CfgRuleInputs& inputs) {
  std::vector<Violation> out;
  // tools/ are standalone binaries outside the engine's discipline (and
  // the lint sources themselves quote rule syntax in docs and tests).
  // buffer_pool.{h,cc} implement the guards (and do page IO while wiring
  // them up); everything above the pool must follow the latch discipline.
  if (PathContains(path, "tools/") || PathContains(path, "common/") ||
      PathContains(path, "storage/buffer_pool")) {
    return out;
  }
  if (inputs.blocking == nullptr || inputs.blocking->empty()) return out;
  const std::vector<Cfg> cfgs = BuildCfgs(lexed, syms);
  CheckLatchScope(path, lexed, cfgs, *inputs.blocking, &out);
  return out;
}

}  // namespace mural::lint
