// The project-wide symbol index behind mural_lint's cross-TU rules.
//
// Pass 1 of the driver parses every file into a FileSymbols — its include
// list, class declarations, and function declarations with their
// signature and body spans — using a lightweight declaration parser on top
// of the shared lexer (lexer.h).  Consumers:
//
//   * the architecture-layering rule reads the per-file include lists
//     (the edges of the project include graph);
//   * the include-graph artifact (--graph-json/--graph-dot) is a straight
//     serialization of the merged SymbolIndex;
//   * the CFG builder (cfg.h) parses the function bodies the declaration
//     parser located.
//
// The parser is a heuristic over the token stream, not a real C++ front
// end.  It is deliberately conservative: templates are treated as opaque
// token groups, and expressions that merely resemble declarations are
// rejected through LooksLikeParamList.

#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lexer.h"

namespace mural::lint {

/// One #include directive.
struct IncludeRef {
  std::string path;    // spelling without delimiters, e.g. "exec/operator.h"
  int line = 0;        // 1-based
  bool quoted = false; // "..." (project include) vs <...> (system include)
};

/// One class/struct declaration.  `name` is qualified by lexical nesting
/// ("BufferPool::ReadPageGuard" for a nested class).
struct ClassDecl {
  std::string name;
  int line = 0;
  bool is_definition = false;  // false for a forward declaration
};

/// One function declaration or definition.
struct FunctionDecl {
  std::string name;         // unqualified: "Fetch"
  std::string class_name;   // enclosing class ("BufferPool"), "" for free
                            // functions; for out-of-line definitions the
                            // qualifier chain before the name
  int line = 0;
  bool is_definition = false;  // had a body (or = default / = delete)
  // Token indices into the LexResult the declaration was parsed from: the
  // parameter list's '(' ... ')' pair, and for definitions with a real
  // body the '{' ... '}' pair.  npos when absent (= default, = delete,
  // bare declarations).  The CFG builder (cfg.h) consumes these.
  size_t sig_begin = static_cast<size_t>(-1);
  size_t sig_end = static_cast<size_t>(-1);
  size_t body_begin = static_cast<size_t>(-1);
  size_t body_end = static_cast<size_t>(-1);
};

/// Everything pass 1 learns about one file.
struct FileSymbols {
  std::string path;  // repo-relative label, e.g. "src/exec/foo.cc"
  std::vector<IncludeRef> includes;
  std::vector<ClassDecl> classes;
  std::vector<FunctionDecl> functions;
};

/// Parses one file.  Never fails: unparseable regions simply contribute no
/// symbols (a lint pass must survive any input).
FileSymbols ParseFileSymbols(const std::string& rel_path,
                             std::string_view content);

/// Same, over an existing lex result (callers that already tokenized).
FileSymbols ParseFileSymbols(const std::string& rel_path,
                             const LexResult& lexed);

/// The merged tree-wide index, keyed by path.
class SymbolIndex {
 public:
  void AddFile(FileSymbols symbols);

  const std::map<std::string, FileSymbols>& files() const { return files_; }

 private:
  std::map<std::string, FileSymbols> files_;
};

}  // namespace mural::lint
