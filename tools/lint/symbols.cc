#include "symbols.h"

#include <utility>

#include "token_util.h"

namespace mural::lint {

namespace {

// Specifier-ish keywords that may precede a return type without being part
// of it.  They are skipped when walking a declaration backwards but do not
// count as the "real" type identifier a declaration needs.
bool IsSpecifierKeyword(const Tok& t) {
  return TokAnyOf(t, {"virtual", "static", "inline", "constexpr", "explicit",
                      "friend", "mutable", "typename", "extern", "const",
                      "volatile", "nodiscard", "maybe_unused", "unsigned",
                      "signed", "struct", "class", "enum"});
}

// Keywords that terminate the backward walk outright: anything to their
// right cannot be a declaration's return type.
bool IsDeclBoundaryKeyword(const Tok& t) {
  return TokAnyOf(t, {"return", "else", "do", "case", "goto", "new", "delete",
                      "throw", "operator", "if", "while", "for", "switch",
                      "sizeof", "co_return", "co_await", "using", "namespace",
                      "public", "private", "protected", "template"});
}

// ---------------------------------------------------------------------------
// #include extraction
// ---------------------------------------------------------------------------

void CollectIncludes(const Toks& t, std::vector<IncludeRef>* out) {
  for (size_t i = 0; i + 2 < t.size(); ++i) {
    if (!t[i].IsPunct("#") || !t[i + 1].IsIdent("include")) continue;
    const int line = t[i].line;
    if (t[i + 2].kind == TokKind::kString) {
      std::string_view text = t[i + 2].text;
      if (text.size() >= 2) text = text.substr(1, text.size() - 2);
      out->push_back({std::string(text), line, /*quoted=*/true});
      continue;
    }
    if (t[i + 2].IsPunct("<")) {
      // <vector>, <sys/mman.h>: tokens up to the matching '>' on the same
      // logical line, joined by their spelling.
      std::string path;
      size_t k = i + 3;
      for (; k < t.size() && !t[k].IsPunct(">") && t[k].line == line; ++k) {
        path.append(t[k].text);
      }
      if (k < t.size() && t[k].IsPunct(">")) {
        out->push_back({std::move(path), line, /*quoted=*/false});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Declaration parsing
// ---------------------------------------------------------------------------

struct ClassScope {
  std::string qualified_name;
  int body_depth = 0;  // brace depth of tokens directly inside the body
};

/// Parses a candidate function declaration whose name is the identifier at
/// `name_idx`, immediately followed by '(' at `open`.  Returns true and
/// fills *decl on success; `resume` is set to the index parsing may resume
/// from (the close paren), so call arguments are not rescanned.
bool ParseFunctionAt(const Toks& t, size_t name_idx, size_t open,
                     const std::vector<ClassScope>& classes, size_t* resume,
                     FunctionDecl* decl) {
  const size_t close = MatchingParen(t, open);
  if (close == std::string_view::npos) return false;

  // Walk the qualifier chain backwards: `BufferPool::Fetch` or
  // `BufferPool::ReadPageGuard::Release` (out-of-line definitions).
  size_t chain_begin = name_idx;
  std::string qualifier;
  {
    size_t j = name_idx;
    while (j >= 2 && t[j - 1].IsPunct("::") &&
           t[j - 2].kind == TokKind::kIdent) {
      j -= 2;
    }
    chain_begin = j;
    for (size_t k = chain_begin; k < name_idx; k += 2) {
      if (!qualifier.empty()) qualifier += "::";
      qualifier += std::string(t[k].text);
    }
  }

  // Walk the return type backwards from the chain, type-ish tokens only:
  // a declaration needs a real type identifier there.
  bool has_type_ident = false;
  {
    int angle = 0;
    size_t j = chain_begin;
    while (j > 0) {
      const Tok& p = t[j - 1];
      if (p.IsPunct(">")) {
        ++angle;
      } else if (p.IsPunct(">>")) {
        angle += 2;
      } else if (p.IsPunct("<")) {
        if (angle == 0) break;  // comparison, not a template arg list
        --angle;
      } else if (p.IsPunct("::") || p.IsPunct("*") || p.IsPunct("&") ||
                 p.IsPunct("&&") || p.IsPunct("[") || p.IsPunct("]") ||
                 p.IsPunct(",")) {
        // qualifiers, ptr/ref, attribute brackets; ',' only inside angles
        if (p.IsPunct(",") && angle == 0) break;
      } else if (p.kind == TokKind::kIdent) {
        if (IsDeclBoundaryKeyword(p)) break;
        if (!IsSpecifierKeyword(p) && angle == 0) has_type_ident = true;
      } else {
        break;  // ; { } ( ) = . -> # number string ...
      }
      --j;
    }
  }
  if (!has_type_ident) return false;  // constructor, call, or expression

  // The parenthesized region must read like a parameter list, not call
  // arguments (`Status s(code, msg)` is a variable, not a function).
  if (!LooksLikeParamList(t, open + 1, close)) return false;

  // The signature must be followed by declaration syntax.
  bool is_definition = false;
  size_t body_open = std::string_view::npos;
  {
    size_t k = close + 1;
    bool ok = false;
    int guard_tokens = 0;
    while (k < t.size() && guard_tokens++ < 16) {
      const Tok& n = t[k];
      if (n.IsPunct(";")) {
        ok = true;
        break;
      }
      if (n.IsPunct("{") || n.IsPunct(":")) {  // body or ctor-init list
        ok = true;
        is_definition = true;
        if (n.IsPunct("{")) body_open = k;
        break;
      }
      if (n.IsPunct("=")) {
        // = 0 (pure), = default, = delete.
        ok = true;
        is_definition = k + 1 < t.size() && (t[k + 1].IsIdent("default") ||
                                             t[k + 1].IsIdent("delete"));
        break;
      }
      if (TokAnyOf(n, {"const", "noexcept", "override", "final"}) ||
          n.IsPunct("&") || n.IsPunct("&&")) {
        ++k;
        continue;
      }
      if (n.IsPunct("(")) {  // noexcept(...) / attribute group
        const size_t c = MatchingParen(t, k);
        if (c == std::string_view::npos) break;
        k = c + 1;
        continue;
      }
      if (TokAnyOf(n, {"ACQUIRE", "RELEASE", "EXCLUDES", "REQUIRES",
                       "ACQUIRE_SHARED", "RELEASE_SHARED",
                       "REQUIRES_SHARED", "RETURN_CAPABILITY",
                       "NO_THREAD_SAFETY_ANALYSIS", "ASSERT_CAPABILITY"})) {
        ++k;
        continue;
      }
      break;  // anything else: an expression, not a declaration
    }
    if (!ok) return false;
  }

  decl->name = std::string(t[name_idx].text);
  decl->class_name =
      !qualifier.empty()
          ? qualifier
          : (classes.empty() ? "" : classes.back().qualified_name);
  decl->line = t[name_idx].line;
  decl->is_definition = is_definition;
  decl->sig_begin = open;
  decl->sig_end = close;
  if (body_open != std::string_view::npos) {
    const size_t body_close = MatchingBrace(t, body_open);
    if (body_close != std::string_view::npos) {
      decl->body_begin = body_open;
      decl->body_end = body_close;
    }
  }
  *resume = close;
  return true;
}

}  // namespace

FileSymbols ParseFileSymbols(const std::string& rel_path,
                             std::string_view content) {
  return ParseFileSymbols(rel_path, Lex(content));
}

FileSymbols ParseFileSymbols(const std::string& rel_path,
                             const LexResult& lexed) {
  FileSymbols out;
  out.path = rel_path;
  const Toks& t = lexed.tokens;
  CollectIncludes(t, &out.includes);

  std::vector<ClassScope> classes;
  int depth = 0;

  // Class-header state machine (mirrors the guarded-field rule's): after
  // `class`/`struct`, collect the name until `{` (definition), `;`
  // (forward declaration), or something that rules the header out.
  bool pending_class = false;
  std::string pending_name;
  bool pending_name_locked = false;
  int pending_line = 0;

  auto qualified = [&classes](const std::string& name) {
    return classes.empty() ? name
                           : classes.back().qualified_name + "::" + name;
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
      } else if (tk.IsPunct(";")) {
        if (!pending_name.empty()) {
          out.classes.push_back(
              {qualified(pending_name), pending_line, /*is_definition=*/false});
        }
        pending_class = false;
      } else if (tk.IsPunct("=") || tk.IsPunct(")") || tk.IsPunct(",") ||
                 tk.IsPunct(">")) {
        pending_class = false;  // template parameter / non-type use
      } else if (tk.IsPunct("{")) {
        const std::string q = qualified(pending_name);
        out.classes.push_back({q, pending_line, /*is_definition=*/true});
        classes.push_back({q, depth + 1});
        pending_class = false;
        ++depth;
        continue;
      } else if (tk.IsPunct(":")) {
        pending_name_locked = true;  // base clause: name already seen
      } else if (tk.kind == TokKind::kIdent && !pending_name_locked &&
                 !TokAnyOf(tk, {"final", "alignas"})) {
        pending_name = std::string(tk.text);
        pending_line = tk.line;
      }
      if (pending_class) continue;
    }

    if (tk.IsPunct("{")) {
      ++depth;
      continue;
    }
    if (tk.IsPunct("}")) {
      --depth;
      while (!classes.empty() && depth < classes.back().body_depth) {
        classes.pop_back();
      }
      continue;
    }

    if ((tk.IsIdent("class") || tk.IsIdent("struct")) &&
        !(i > 0 && (t[i - 1].IsIdent("enum") || t[i - 1].IsPunct("<") ||
                    t[i - 1].IsPunct(",") || t[i - 1].IsIdent("template")))) {
      pending_class = true;
      pending_name.clear();
      pending_name_locked = false;
      pending_line = tk.line;
      continue;
    }

    // Function declarations: identifier immediately followed by '('.
    if (tk.kind == TokKind::kIdent && i + 1 < t.size() &&
        t[i + 1].IsPunct("(")) {
      FunctionDecl decl;
      size_t resume = i;
      if (ParseFunctionAt(t, i, i + 1, classes, &resume, &decl)) {
        out.functions.push_back(std::move(decl));
        i = resume;
      }
    }
  }
  return out;
}

void SymbolIndex::AddFile(FileSymbols symbols) {
  files_[symbols.path] = std::move(symbols);
}

}  // namespace mural::lint
