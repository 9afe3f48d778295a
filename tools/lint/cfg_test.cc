// Unit tests for the per-function control-flow graph (cfg.h) through the
// path-sensitive latch-scope rule built on it: the rule must fire on a
// guard held along any path into a blocking call and stay silent when
// every path released it first.

#include "cfg.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "lint.h"

namespace mural::lint {
namespace {

bool HasRule(const std::vector<Violation>& vs, const std::string& rule) {
  return std::any_of(vs.begin(), vs.end(),
                     [&](const Violation& v) { return v.rule == rule; });
}

int CountRule(const std::vector<Violation>& vs, const std::string& rule) {
  return static_cast<int>(
      std::count_if(vs.begin(), vs.end(),
                    [&](const Violation& v) { return v.rule == rule; }));
}

LintOptions BlockingCalls(std::vector<std::string> names) {
  LintOptions options;
  options.blocking_calls = std::move(names);
  return options;
}

// ---------------------------------------------------------------------------
// latch-scope, path-sensitive
// ---------------------------------------------------------------------------

TEST(LatchScopeCfg, ReleaseOnOneBranchOnlyStillFires) {
  // The v3 lexical rule was blind to this: the textual Release() ended
  // the guard's life even though only one path runs it.
  const auto vs = LintFile("src/index/tree.cc",
                           "void F(BufferPool* pool, bool flush) {\n"
                           "  ReadPageGuard g = pool->Fetch(1);\n"
                           "  if (flush) {\n"
                           "    g.Release();\n"
                           "  }\n"
                           "  pool->NewPage();\n"
                           "}\n",
                           BlockingCalls({"Fetch", "NewPage"}));
  EXPECT_EQ(CountRule(vs, "latch-scope"), 1);
}

TEST(LatchScopeCfg, ReleaseOnEveryBranchIsSilent) {
  const auto vs = LintFile("src/index/tree.cc",
                           "void F(BufferPool* pool, bool flush) {\n"
                           "  ReadPageGuard g = pool->Fetch(1);\n"
                           "  if (flush) {\n"
                           "    g.Release();\n"
                           "  } else {\n"
                           "    g.Release();\n"
                           "  }\n"
                           "  pool->NewPage();\n"
                           "}\n",
                           BlockingCalls({"Fetch", "NewPage"}));
  EXPECT_FALSE(HasRule(vs, "latch-scope"));
}

TEST(LatchScopeCfg, EarlyReturnPathDoesNotLeakIntoTheOther) {
  const auto vs = LintFile("src/index/tree.cc",
                           "void F(BufferPool* pool, bool done) {\n"
                           "  ReadPageGuard g = pool->Fetch(1);\n"
                           "  if (done) {\n"
                           "    return;\n"
                           "  }\n"
                           "  g.Release();\n"
                           "  pool->NewPage();\n"
                           "}\n",
                           BlockingCalls({"Fetch", "NewPage"}));
  EXPECT_FALSE(HasRule(vs, "latch-scope"));
}

TEST(LatchScopeCfg, GuardHeldAcrossLoopBackEdgeFires) {
  // `g` is declared before the loop and released only after the blocking
  // call inside it, so the first iteration calls NewPage with it held.
  const auto vs = LintFile("src/index/tree.cc",
                           "void F(BufferPool* pool, int n) {\n"
                           "  ReadPageGuard g = pool->Fetch(0);\n"
                           "  while (n > 0) {\n"
                           "    pool->NewPage();\n"
                           "    g.Release();\n"
                           "  }\n"
                           "}\n",
                           BlockingCalls({"Fetch", "NewPage"}));
  EXPECT_EQ(CountRule(vs, "latch-scope"), 1);
}

TEST(LatchScopeCfg, LoopLocalGuardReleasedEachIterationIsSilent) {
  const auto vs = LintFile("src/index/tree.cc",
                           "void F(BufferPool* pool, int n) {\n"
                           "  for (int i = 0; i < n; ++i) {\n"
                           "    ReadPageGuard g = pool->Fetch(i);\n"
                           "    Use(g.get());\n"
                           "  }\n"
                           "  pool->NewPage();\n"
                           "}\n",
                           BlockingCalls({"Fetch", "NewPage"}));
  EXPECT_FALSE(HasRule(vs, "latch-scope"))
      << "the loop body's scope exit ends the guard before the back edge";
}

}  // namespace
}  // namespace mural::lint
