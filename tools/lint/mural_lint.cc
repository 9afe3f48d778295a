// mural_lint driver: walks the given directories and lints every .h/.cc
// file in two passes, both parallelized over common/thread_pool.
//
// Pass 1 parses every file once and collects the cross-file inputs:
//   * `// lint: blocking` markers (the banned-call list shared by
//     no-lock-across-g2p-io and latch-scope),
//   * ACQUIRED_BEFORE/ACQUIRED_AFTER lock-order edges,
//   * the project-wide symbol index (symbols.h) — per-file include lists
//     for the include-graph artifact.
//
// Pass 2 runs the per-file rules with the merged inputs, then checks the
// merged lock-order graph for cycles.  Prints violations and exits
// non-zero when any are found.  Registered as a tier-1 ctest test over
// src/ and tools/ so every PR runs it.
//
// Flags:
//   --layers FILE      layer map (tools/lint/layers.toml); enables the
//                      layering and layer-config-drift rules
//   --graph-json FILE  write the include graph (layers, per-file include
//                      lists, layer-level edges) as JSON
//   --graph-dot FILE   write the layer-level include graph as Graphviz DOT
//   --github-annotations  also print each violation as a GitHub Actions
//                      workflow command (::error file=...,line=...) so CI
//                      failures annotate the PR diff inline
//   --timings          print a per-rule wall-time breakdown after the run
//   --budget-ms N      fail (exit 3) when both passes together exceed N
//                      milliseconds — the perf regression gate CI runs
//                      with N=2000

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "layers.h"
#include "lint.h"
#include "symbols.h"

namespace fs = std::filesystem;

namespace {

bool IsLintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cc";
}

/// Label files relative to the parent of the scanned root, so scanning
/// /repo/src yields "src/exec/foo.cc" — the path form the path-scoped rules
/// (tools/, storage/) expect.
std::string LabelFor(const fs::path& root, const fs::path& file) {
  std::error_code ec;
  const fs::path rel = fs::relative(file, root.parent_path(), ec);
  return (ec ? file : rel).generic_string();
}

struct SourceFile {
  std::string label;
  std::string content;
};

/// Everything pass 1 learns about one file; filled concurrently, one slot
/// per source, merged single-threaded afterwards.
struct ParsedFile {
  mural::lint::LexResult lexed;  // views into the SourceFile's content
  std::vector<std::string> blocking;
  std::vector<mural::lint::LockOrderEdge> edges;
  mural::lint::FileSymbols symbols;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Layer-level include edges derived from the symbol index: from-layer ->
/// to-layer -> number of include directives.
std::map<std::string, std::map<std::string, int>> LayerEdges(
    const mural::lint::SymbolIndex& index,
    const mural::lint::LayerConfig& layers) {
  std::map<std::string, std::map<std::string, int>> edges;
  for (const auto& [path, syms] : index.files()) {
    const std::string from = mural::lint::LayerOfPath(path);
    if (from.empty() || !layers.Known(from)) continue;
    for (const mural::lint::IncludeRef& inc : syms.includes) {
      if (!inc.quoted) continue;
      const size_t slash = inc.path.find('/');
      if (slash == std::string::npos) continue;
      const std::string to = inc.path.substr(0, slash);
      if (!layers.Known(to) || to == from) continue;
      ++edges[from][to];
    }
  }
  return edges;
}

bool WriteGraphJson(const std::string& out_path,
                    const mural::lint::SymbolIndex& index,
                    const mural::lint::LayerConfig& layers) {
  std::ofstream out(out_path, std::ios::binary);
  if (!out) return false;
  out << "{\n  \"layers\": {\n";
  for (size_t i = 0; i < layers.order.size(); ++i) {
    const std::string& name = layers.order[i];
    out << "    \"" << JsonEscape(name) << "\": [";
    const std::vector<std::string>& deps = layers.deps.at(name);
    for (size_t k = 0; k < deps.size(); ++k) {
      out << (k ? ", " : "") << "\"" << JsonEscape(deps[k]) << "\"";
    }
    out << "]" << (i + 1 < layers.order.size() ? "," : "") << "\n";
  }
  out << "  },\n  \"files\": [\n";
  size_t emitted = 0;
  const size_t total = index.files().size();
  for (const auto& [path, syms] : index.files()) {
    out << "    {\"path\": \"" << JsonEscape(path) << "\", \"layer\": \""
        << JsonEscape(mural::lint::LayerOfPath(path)) << "\", \"includes\": [";
    bool first = true;
    for (const mural::lint::IncludeRef& inc : syms.includes) {
      if (!inc.quoted) continue;
      out << (first ? "" : ", ") << "\"" << JsonEscape(inc.path) << "\"";
      first = false;
    }
    out << "]}" << (++emitted < total ? "," : "") << "\n";
  }
  out << "  ],\n  \"edges\": [\n";
  const auto edges = LayerEdges(index, layers);
  size_t n_edges = 0;
  for (const auto& [from, tos] : edges) n_edges += tos.size();
  size_t e = 0;
  for (const auto& [from, tos] : edges) {
    for (const auto& [to, count] : tos) {
      out << "    {\"from\": \"" << JsonEscape(from) << "\", \"to\": \""
          << JsonEscape(to) << "\", \"includes\": " << count << "}"
          << (++e < n_edges ? "," : "") << "\n";
    }
  }
  out << "  ]\n}\n";
  return out.good();
}

bool WriteGraphDot(const std::string& out_path,
                   const mural::lint::SymbolIndex& index,
                   const mural::lint::LayerConfig& layers) {
  std::ofstream out(out_path, std::ios::binary);
  if (!out) return false;
  out << "// Layer-level include graph, generated by mural_lint.\n"
      << "// Solid edges are declared in tools/lint/layers.toml; the\n"
      << "// label is the number of #include directives riding the edge.\n"
      << "digraph mural_layers {\n  rankdir=BT;\n  node [shape=box];\n";
  for (const std::string& name : layers.order) {
    out << "  \"" << name << "\";\n";
  }
  const auto edges = LayerEdges(index, layers);
  for (const auto& [from, tos] : edges) {
    for (const auto& [to, count] : tos) {
      out << "  \"" << from << "\" -> \"" << to << "\" [label=\"" << count
          << "\"];\n";
    }
  }
  out << "}\n";
  return out.good();
}

/// Escapes a GitHub Actions workflow-command property value (the rules
/// from the runner source: %, CR, LF always; ':' and ',' in properties).
std::string GithubEscapeProperty(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '%': out += "%25"; break;
      case '\r': out += "%0D"; break;
      case '\n': out += "%0A"; break;
      case ':': out += "%3A"; break;
      case ',': out += "%2C"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string GithubEscapeData(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '%': out += "%25"; break;
      case '\r': out += "%0D"; break;
      case '\n': out += "%0A"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string layers_path, graph_json_path, graph_dot_path;
  std::vector<std::string> roots;
  bool github_annotations = false;
  bool timings = false;
  long budget_ms = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto flag_value = [&](const char* flag) -> const char* {
      if (arg != flag) return nullptr;
      if (i + 1 >= argc) {
        std::cerr << "mural_lint: " << flag << " needs an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (const char* v = flag_value("--layers")) {
      layers_path = v;
    } else if (const char* v = flag_value("--graph-json")) {
      graph_json_path = v;
    } else if (const char* v = flag_value("--graph-dot")) {
      graph_dot_path = v;
    } else if (const char* v = flag_value("--budget-ms")) {
      budget_ms = std::strtol(v, nullptr, 10);
      if (budget_ms <= 0) {
        std::cerr << "mural_lint: --budget-ms needs a positive integer\n";
        return 2;
      }
    } else if (arg == "--github-annotations") {
      github_annotations = true;
    } else if (arg == "--timings") {
      timings = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "mural_lint: unknown flag " << arg << "\n";
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty()) {
    std::cerr << "usage: mural_lint [--layers layers.toml] "
                 "[--graph-json out.json] [--graph-dot out.dot] "
                 "[--github-annotations] [--timings] [--budget-ms N] "
                 "<dir-or-file>...\n";
    return 2;
  }

  mural::lint::LayerConfig layers;
  bool have_layers = false;
  if (!layers_path.empty()) {
    std::ifstream in(layers_path, std::ios::binary);
    if (!in) {
      std::cerr << "mural_lint: cannot read " << layers_path << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string err = mural::lint::ParseLayerConfig(buf.str(), &layers);
    if (!err.empty()) {
      std::cerr << "mural_lint: " << err << "\n";
      return 2;
    }
    have_layers = true;
  }

  std::vector<SourceFile> sources;
  for (const std::string& r : roots) {
    const fs::path root = fs::absolute(r).lexically_normal();
    std::error_code ec;
    std::vector<fs::path> files;
    if (fs::is_directory(root, ec)) {
      // A walk that errors out must fail the run loudly: linting zero
      // files and exiting 0 would turn the CI gate into a no-op.
      fs::recursive_directory_iterator it(root, ec);
      if (ec) {
        std::cerr << "mural_lint: cannot walk " << root << ": "
                  << ec.message() << "\n";
        return 2;
      }
      for (const fs::recursive_directory_iterator end; it != end;
           it.increment(ec)) {
        if (ec) {
          std::cerr << "mural_lint: directory walk failed under " << root
                    << ": " << ec.message() << "\n";
          return 2;
        }
        std::error_code fec;
        if (it->is_regular_file(fec) && !fec && IsLintable(it->path())) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
    } else {
      std::cerr << "mural_lint: cannot open " << root << "\n";
      return 2;
    }
    for (const auto& file : files) {
      std::ifstream in(file, std::ios::binary);
      if (!in) {
        std::cerr << "mural_lint: cannot read " << file << "\n";
        return 2;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      sources.push_back({LabelFor(root, file), buf.str()});
    }
  }

  mural::ThreadPool pool(mural::ThreadPool::HardwareConcurrency());
  const int dop = static_cast<int>(pool.num_threads());

  // The --budget-ms clock covers both analysis passes (file IO above is
  // excluded: disk speed is not what the gate protects).
  const auto analysis_start = std::chrono::steady_clock::now();

  // Each file gets its own timing slot so the morsels never share one.
  std::vector<mural::lint::RuleTimings> timing_slots(
      timings ? sources.size() : 0);
  auto timing_slot = [&timing_slots, timings](size_t i) {
    return timings ? &timing_slots[i] : nullptr;
  };

  // Pass 1: lex and parse every file once, concurrently; each morsel
  // writes its own slots, so the merge below needs no locking.  The
  // tokens are kept for pass 2.
  std::vector<ParsedFile> parsed(sources.size());
  mural::Status p1 = mural::ParallelMorsels(
      &pool, sources.size(), dop,
      [&sources, &parsed, &timing_slot](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          const SourceFile& src = sources[i];
          ParsedFile& slot = parsed[i];
          slot.lexed = mural::lint::TimedLex(src.content, timing_slot(i));
          slot.blocking = mural::lint::CollectBlockingMarkers(slot.lexed);
          slot.edges =
              mural::lint::CollectLockOrderEdges(src.label, slot.lexed);
          slot.symbols = mural::lint::ParseFileSymbols(src.label, slot.lexed);
        }
        return mural::Status::OK();
      });
  if (!p1.ok()) {
    std::cerr << "mural_lint: parse pass failed: " << p1.ToString() << "\n";
    return 2;
  }

  mural::lint::LintOptions options;
  std::vector<mural::lint::LockOrderEdge> edges;
  mural::lint::SymbolIndex index;
  for (size_t i = 0; i < sources.size(); ++i) {
    // tools/ is exempt from the lock rules, and the lint sources themselves
    // quote marker syntax in docs and tests — don't harvest markers (or
    // symbols) there.
    if (sources[i].label.find("tools/") != std::string::npos) continue;
    for (std::string& name : parsed[i].blocking) {
      auto& calls = options.blocking_calls;
      if (std::find(calls.begin(), calls.end(), name) == calls.end()) {
        calls.push_back(std::move(name));
      }
    }
    for (mural::lint::LockOrderEdge& e : parsed[i].edges) {
      edges.push_back(std::move(e));
    }
    index.AddFile(std::move(parsed[i].symbols));
  }
  if (have_layers) options.layers = &layers;

  // Pass 2: per-file rules with the merged inputs, then the global graph.
  std::vector<std::vector<mural::lint::Violation>> per_file(sources.size());
  mural::Status p2 = mural::ParallelMorsels(
      &pool, sources.size(), dop,
      [&sources, &parsed, &per_file, &options,
       &timing_slot](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          mural::lint::LintOptions file_options = options;
          file_options.timings = timing_slot(i);
          per_file[i] = mural::lint::LintFile(sources[i].label,
                                              parsed[i].lexed, file_options);
        }
        return mural::Status::OK();
      });
  if (!p2.ok()) {
    std::cerr << "mural_lint: lint pass failed: " << p2.ToString() << "\n";
    return 2;
  }

  std::vector<mural::lint::Violation> all;
  for (auto& file_violations : per_file) {
    for (auto& v : file_violations) all.push_back(std::move(v));
  }
  for (auto& v : mural::lint::CheckLockOrder(edges)) {
    all.push_back(std::move(v));
  }
  const auto analysis_elapsed =
      std::chrono::steady_clock::now() - analysis_start;
  const long elapsed_ms =
      static_cast<long>(std::chrono::duration_cast<std::chrono::milliseconds>(
                            analysis_elapsed)
                            .count());

  // Graph artifacts are written even when violations exist: CI uploads
  // them precisely to debug a failing layering run.
  if (have_layers && !graph_json_path.empty() &&
      !WriteGraphJson(graph_json_path, index, layers)) {
    std::cerr << "mural_lint: cannot write " << graph_json_path << "\n";
    return 2;
  }
  if (have_layers && !graph_dot_path.empty() &&
      !WriteGraphDot(graph_dot_path, index, layers)) {
    std::cerr << "mural_lint: cannot write " << graph_dot_path << "\n";
    return 2;
  }
  if (!have_layers && (!graph_json_path.empty() || !graph_dot_path.empty())) {
    std::cerr << "mural_lint: --graph-json/--graph-dot need --layers\n";
    return 2;
  }

  for (const auto& v : all) {
    std::cout << mural::lint::FormatViolation(v) << "\n";
    if (github_annotations) {
      std::cout << "::error file=" << GithubEscapeProperty(v.file)
                << ",line=" << v.line << ",title="
                << GithubEscapeProperty("mural_lint [" + v.rule + "]")
                << "::" << GithubEscapeData(v.message) << "\n";
    }
  }

  if (timings) {
    // CPU-time breakdown (summed across workers, so rules are comparable
    // to each other; the budget below is wall time).
    mural::lint::RuleTimings merged;
    for (const mural::lint::RuleTimings& slot : timing_slots) {
      for (const auto& [rule, ns] : slot) merged[rule] += ns;
    }
    std::vector<std::pair<std::string, int64_t>> rows(merged.begin(),
                                                      merged.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    int64_t total_ns = 0;
    for (const auto& [rule, ns] : rows) total_ns += ns;
    std::cout << "mural_lint: per-rule timings (CPU, all workers)\n";
    for (const auto& [rule, ns] : rows) {
      std::cout << "  " << std::left << std::setw(24) << rule << std::right
                << std::setw(9) << std::fixed << std::setprecision(2)
                << static_cast<double>(ns) / 1e6 << " ms  ("
                << std::setprecision(1)
                << (total_ns > 0
                        ? 100.0 * static_cast<double>(ns) /
                              static_cast<double>(total_ns)
                        : 0.0)
                << "%)\n";
    }
    std::cout << "  " << std::left << std::setw(24) << "total" << std::right
              << std::setw(9) << std::fixed << std::setprecision(2)
              << static_cast<double>(total_ns) / 1e6 << " ms; wall "
              << elapsed_ms << " ms over " << dop << " worker(s)\n";
  }

  std::cout << "mural_lint: " << sources.size() << " files, "
            << options.blocking_calls.size() << " blocking marker(s), "
            << edges.size() << " lock-order edge(s), " << all.size()
            << " violation(s)\n";

  if (budget_ms > 0 && elapsed_ms > budget_ms) {
    std::cerr << "mural_lint: analysis took " << elapsed_ms
              << " ms, over the --budget-ms " << budget_ms << " gate\n";
    return 3;
  }
  return all.empty() ? 0 : 1;
}
