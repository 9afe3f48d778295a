// Unit tests for the mural_lint rules: each rule must fire on a seeded
// violation and stay silent on the idiomatic equivalent.

#include "lint.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "layers.h"
#include "lexer.h"

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

TEST(LexerTest, TokenKindsAndLines) {
  const LexResult r = Lex("int x = 42;\nfoo(\"s\", 'c');\n");
  ASSERT_EQ(r.tokens.size(), 12u);
  EXPECT_TRUE(r.tokens[0].IsIdent("int"));
  EXPECT_EQ(r.tokens[2].kind, TokKind::kPunct);
  EXPECT_TRUE(r.tokens[2].Is("="));
  EXPECT_EQ(r.tokens[3].kind, TokKind::kNumber);
  EXPECT_EQ(r.tokens[0].line, 1);
  EXPECT_TRUE(r.tokens[5].IsIdent("foo"));
  EXPECT_EQ(r.tokens[5].line, 2);
  EXPECT_EQ(r.tokens[7].kind, TokKind::kString);
  EXPECT_EQ(r.tokens[7].text, "\"s\"");
  EXPECT_EQ(r.tokens[9].kind, TokKind::kChar);
}

TEST(LexerTest, MaximalMunchPunctuation) {
  const LexResult r = Lex("a==b; c<=d; e<<=f; x::y->z;");
  auto has = [&](std::string_view p) {
    return std::any_of(r.tokens.begin(), r.tokens.end(),
                       [&](const Tok& t) { return t.IsPunct(p); });
  };
  EXPECT_TRUE(has("=="));
  EXPECT_TRUE(has("<="));
  EXPECT_TRUE(has("<<="));
  EXPECT_TRUE(has("::"));
  EXPECT_TRUE(has("->"));
  EXPECT_FALSE(has("="));  // no bare assignment anywhere in this input
}

TEST(LexerTest, CommentsAreRecordedNotTokenized) {
  const LexResult r = Lex(
      "int a; // lint: unguarded(set once at startup)\n"
      "/* block\n   spans lines */ int b;\n");
  ASSERT_EQ(r.comments.size(), 2u);
  EXPECT_EQ(r.comments[0].first_line, 1);
  EXPECT_NE(r.comments[0].text.find("lint: unguarded"), std::string::npos);
  EXPECT_EQ(r.comments[1].first_line, 2);
  EXPECT_EQ(r.comments[1].last_line, 3);
  for (const Tok& t : r.tokens) {
    EXPECT_NE(t.text, "block");
    EXPECT_NE(t.text, "spans");
  }
}

TEST(LexerTest, RawStringsAndDigitSeparators) {
  const LexResult r = Lex(
      "auto s = R\"x(throw \"mid\" )\" )x\"; int n = 1'000'000;\n");
  bool saw_raw = false;
  for (const Tok& t : r.tokens) {
    if (t.kind == TokKind::kString) saw_raw = true;
    EXPECT_NE(t.text, "throw");
    EXPECT_NE(t.text, "mid");
  }
  EXPECT_TRUE(saw_raw);
  const auto num = std::find_if(
      r.tokens.begin(), r.tokens.end(),
      [](const Tok& t) { return t.kind == TokKind::kNumber; });
  ASSERT_NE(num, r.tokens.end());
  EXPECT_EQ(num->text, "1'000'000");
}

TEST(StripTest, RemovesCommentsAndStringsPreservingLines) {
  const std::string src =
      "int a; // throw in a comment\n"
      "const char* s = \"throw new delete\";\n"
      "/* throw\n   across lines */ int b;\n";
  const std::string out = StripCommentsAndStrings(src);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_EQ(out.find("throw"), std::string::npos);
  EXPECT_NE(out.find("int b;"), std::string::npos);
}

TEST(StripTest, RawStringLiterals) {
  const std::string src = "auto s = R\"(throw new \" delete)\"; int x;\n";
  const std::string out = StripCommentsAndStrings(src);
  EXPECT_EQ(out.find("throw"), std::string::npos);
  EXPECT_NE(out.find("int x;"), std::string::npos);
}

TEST(StripTest, DigitSeparatorsAreNotCharLiterals) {
  // 1'000'000 must not open a char literal and swallow the code after it.
  const auto vs = LintFile(
      "src/a.cc",
      "int big = 1'000'000; void F() { throw 1; } int hex = 0xFF'FF;\n");
  EXPECT_TRUE(HasRule(vs, "no-throw"));
  // Real char literals still strip: 'x' must not leak its content.
  const std::string out =
      StripCommentsAndStrings("char c = 'x'; auto u = u'\\u00e9';\n");
  EXPECT_EQ(out.find('x'), std::string::npos);
}

TEST(NoThrowRule, FiresOnThrowOutsideTools) {
  const auto vs =
      LintFile("src/exec/foo.cc", "void F() { throw 42; }\n");
  EXPECT_TRUE(HasRule(vs, "no-throw"));
}

TEST(NoThrowRule, AllowsThrowInTools) {
  const auto vs =
      LintFile("tools/lint/foo.cc", "void F() { throw 42; }\n");
  EXPECT_FALSE(HasRule(vs, "no-throw"));
}

TEST(NoThrowRule, IgnoresCommentsStringsAndIdentifiers) {
  const auto vs = LintFile("src/a.cc",
                           "// throw\n"
                           "const char* s = \"throw\";\n"
                           "int rethrow_count = 0;\n");
  EXPECT_FALSE(HasRule(vs, "no-throw"));
}

TEST(NewDeleteRule, FiresOnRawNewOutsideStorage) {
  const auto vs = LintFile("src/exec/foo.cc", "int* p = new int(3);\n");
  EXPECT_TRUE(HasRule(vs, "no-raw-new-delete"));
}

TEST(NewDeleteRule, FiresOnDeleteOutsideStorage) {
  const auto vs = LintFile("src/exec/foo.cc", "void F(int* p) { delete p; }\n");
  EXPECT_TRUE(HasRule(vs, "no-raw-new-delete"));
}

TEST(NewDeleteRule, AllowsSmartPointerWrappedNew) {
  const auto vs = LintFile(
      "src/engine/db.cc",
      "std::unique_ptr<Database> db(new Database());\n"
      "auto p = std::shared_ptr<Node>(new Node(1, 2));\n");
  EXPECT_FALSE(HasRule(vs, "no-raw-new-delete"));
}

TEST(NewDeleteRule, AllowsResetWithNew) {
  const auto vs = LintFile("src/engine/db.cc",
                           "void F(std::unique_ptr<int>& p) {\n"
                           "  p.reset(new int(3));\n"
                           "  ptr->reset(new int(4));\n"
                           "}\n");
  EXPECT_FALSE(HasRule(vs, "no-raw-new-delete"));
}

TEST(NewDeleteRule, AllowsDeletedSpecialMembers) {
  const auto vs = LintFile("src/a.h",
                           "#pragma once\n"
                           "struct S { S(const S&) = delete; };\n");
  EXPECT_FALSE(HasRule(vs, "no-raw-new-delete"));
}

TEST(NewDeleteRule, AllowsEverythingInStorage) {
  const auto vs = LintFile("src/storage/pool.cc",
                           "char* f = new char[8192]; delete[] f;\n");
  EXPECT_FALSE(HasRule(vs, "no-raw-new-delete"));
}

TEST(PragmaOnceRule, FiresOnHeaderWithoutPragma) {
  const auto vs = LintFile("src/a.h", "struct S {};\n");
  EXPECT_TRUE(HasRule(vs, "pragma-once"));
}

TEST(PragmaOnceRule, SilentWithPragmaAndOnSourceFiles) {
  EXPECT_FALSE(
      HasRule(LintFile("src/a.h", "#pragma once\nstruct S {};\n"),
              "pragma-once"));
  EXPECT_FALSE(HasRule(LintFile("src/a.cc", "struct S {};\n"),
                       "pragma-once"));
}

TEST(OwnHeaderRule, FiresWhenOwnHeaderNotFirst) {
  const auto vs = LintFile("src/exec/foo.cc",
                           "#include <vector>\n"
                           "#include \"exec/foo.h\"\n");
  EXPECT_TRUE(HasRule(vs, "own-header-first"));
}

TEST(OwnHeaderRule, SameBasenameInOtherDirDoesNotSatisfy) {
  // sql/expression.h is NOT exec/expression.cc's own header; including it
  // first while the real own header comes later must still fire.
  const auto vs = LintFile("src/exec/expression.cc",
                           "#include \"sql/expression.h\"\n"
                           "#include \"exec/expression.h\"\n");
  EXPECT_TRUE(HasRule(vs, "own-header-first"));
}

TEST(OwnHeaderRule, SilentWhenOwnHeaderFirstOrAbsent) {
  EXPECT_FALSE(HasRule(LintFile("src/exec/foo.cc",
                                "#include \"exec/foo.h\"\n"
                                "#include <vector>\n"),
                       "own-header-first"));
  // A main-style file with no matching header is exempt.
  EXPECT_FALSE(HasRule(LintFile("src/exec/tool_main.cc",
                                "#include <vector>\n"),
                       "own-header-first"));
}

TEST(DiscardedStatusRule, FiresOnBareStatusStatement) {
  const auto vs = LintFile("src/a.cc",
                           "void F() {\n"
                           "  Status::InvalidArgument(\"oops\");\n"
                           "  mural::Status(StatusCode::kInternal, \"x\");\n"
                           "}\n");
  EXPECT_EQ(CountRule(vs, "discarded-status"), 2);
}

TEST(DiscardedStatusRule, IgnoresConstructorDeclarations) {
  // Member declarations inside the Status class itself (or a wrapper) look
  // like bare Status(...) statements but are parameter lists, not values.
  const auto vs = LintFile("src/common/status.h",
                           "#pragma once\n"
                           "class Status {\n"
                           " public:\n"
                           "  Status();\n"
                           "  Status(StatusCode code, std::string msg);\n"
                           "  Status(const Status&);\n"
                           "  Status(const Status&) = default;\n"
                           "  Status(Status&& other) noexcept;\n"
                           "};\n");
  EXPECT_FALSE(HasRule(vs, "discarded-status"));
}

TEST(DiscardedStatusRule, AllowsBoundAndReturnedStatus) {
  const auto vs = LintFile(
      "src/a.cc",
      "Status F() { return Status::OK(); }\n"
      "void G() { Status st = Status::OK(); (void)st; }\n"
      "Status H();\n");
  EXPECT_FALSE(HasRule(vs, "discarded-status"));
}

TEST(BareThreadRule, FiresOnStdThreadOutsideCommon) {
  const auto vs = LintFile(
      "src/exec/foo.cc",
      "void F() { std::thread t([]{}); t.join(); }\n"
      "void G() { auto f = std::async([]{ return 1; }); }\n"
      "void H() { std::jthread t([]{}); }\n");
  EXPECT_EQ(CountRule(vs, "no-bare-thread"), 3);
}

TEST(BareThreadRule, AllowsThreadInCommonAndTools) {
  EXPECT_FALSE(HasRule(
      LintFile("src/common/thread_pool.cc",
               "void ThreadPool::Start() { workers_.emplace_back("
               "std::thread([this] { Loop(); })); }\n"),
      "no-bare-thread"));
  EXPECT_FALSE(HasRule(
      LintFile("tools/bench/driver.cc", "std::thread t([]{});\n"),
      "no-bare-thread"));
}

TEST(BareThreadRule, IgnoresLookalikesAndNonSpawningUses) {
  const auto vs = LintFile(
      "src/exec/foo.cc",
      "// std::thread in a comment\n"
      "const char* s = \"std::thread\";\n"
      "int std_thread_count = 0;\n"
      "void F() { std::this_thread::yield(); }\n");
  EXPECT_FALSE(HasRule(vs, "no-bare-thread"));
}

TEST(DirectClockRule, FiresOnSteadyClockNowOutsideCommon) {
  const auto vs = LintFile(
      "src/exec/foo.cc",
      "auto t = std::chrono::steady_clock::now();\n"
      "auto u = steady_clock::now();\n");
  EXPECT_EQ(CountRule(vs, "no-direct-clock"), 2);
}

TEST(DirectClockRule, AllowsClockInCommonAndTools) {
  EXPECT_FALSE(HasRule(
      LintFile("src/common/timer.cc",
               "uint64_t Now() { return std::chrono::steady_clock::now()"
               ".time_since_epoch().count(); }\n"),
      "no-direct-clock"));
  EXPECT_FALSE(HasRule(
      LintFile("tools/bench/driver.cc",
               "auto t = std::chrono::steady_clock::now();\n"),
      "no-direct-clock"));
}

TEST(DirectClockRule, IgnoresCommentsAndStrings) {
  const auto vs = LintFile(
      "src/exec/foo.cc",
      "// steady_clock::now() in a comment\n"
      "const char* s = \"steady_clock::now\";\n"
      "uint64_t t = SpanClock::NowNanos();\n");
  EXPECT_FALSE(HasRule(vs, "no-direct-clock"));
}

TEST(RawMutexRule, FiresOnStdPrimitivesOutsideCommon) {
  const auto vs = LintFile(
      "src/exec/foo.cc",
      "std::mutex mu;\n"
      "std::shared_mutex smu;\n"
      "std::condition_variable cv;\n"
      "void F() { std::lock_guard<std::mutex> l(mu); }\n"
      "void G() { std::unique_lock<std::mutex> l(mu); }\n");
  // line 4 and 5 each count twice: the guard template AND its std::mutex arg.
  EXPECT_EQ(CountRule(vs, "no-raw-mutex"), 7);
}

TEST(RawMutexRule, AllowsPrimitivesInCommonAndWrappersEverywhere) {
  EXPECT_FALSE(HasRule(
      LintFile("src/common/mutex.h",
               "#pragma once\nclass Mutex { std::mutex mu_; };\n"),
      "no-raw-mutex"));
  EXPECT_FALSE(HasRule(
      LintFile("src/exec/foo.cc",
               "void F() { MutexLock lock(mu_); }\n"
               "// std::mutex in a comment\n"
               "const char* s = \"std::lock_guard\";\n"),
      "no-raw-mutex"));
}

// The banned-call list comes from `// lint: blocking` markers — either
// collected across the tree by the driver (LintOptions) or written in the
// linted file itself.
LintOptions BlockingCalls(std::vector<std::string> names) {
  LintOptions options;
  options.blocking_calls = std::move(names);
  return options;
}

TEST(LockAcrossIoRule, FiresOnMarkedCallUnderLock) {
  const auto vs = LintFile(
      "src/phonetic/foo.cc",
      "void F() {\n"
      "  MutexLock lock(mu_);\n"
      "  auto p = transformer->Transform(text);\n"
      "}\n",
      BlockingCalls({"Transform"}));
  EXPECT_TRUE(HasRule(vs, "no-lock-across-g2p-io"));
}

TEST(LockAcrossIoRule, SilentWhenLockScopeClosesFirst) {
  const auto vs = LintFile(
      "src/phonetic/foo.cc",
      "void F() {\n"
      "  { MutexLock lock(mu_); if (Probe()) return; }\n"
      "  auto p = transformer->Transform(text);\n"
      "  { MutexLock lock(mu_); Publish(p); }\n"
      "}\n",
      BlockingCalls({"Transform"}));
  EXPECT_FALSE(HasRule(vs, "no-lock-across-g2p-io"));
}

TEST(LockAcrossIoRule, FiresOnPageIoUnderLock) {
  const auto vs = LintFile(
      "src/storage/foo.cc",
      "void F() { MutexLock lock(mu_); pread(fd, buf, n, off); }\n"
      "void G() { WriterMutexLock lock(mu_); pager->ReadPage(42); }\n",
      BlockingCalls({"pread", "ReadPage"}));
  EXPECT_EQ(CountRule(vs, "no-lock-across-g2p-io"), 2);
}

TEST(LockAcrossIoRule, SilentWithoutAMarkerForTheCall) {
  // No hand-maintained table: an unmarked call is not banned, even one
  // that used to be hard-coded.
  const auto vs = LintFile(
      "src/phonetic/foo.cc",
      "void F() { MutexLock lock(mu_); auto p = t->Transform(text); }\n");
  EXPECT_FALSE(HasRule(vs, "no-lock-across-g2p-io"));
}

TEST(LockAcrossIoRule, FileLocalMarkerAppliesWithoutDriverOptions) {
  const auto vs = LintFile(
      "src/phonetic/foo.cc",
      "PhonemeString Transform(std::string_view s) const;  // lint: blocking\n"
      "void F() { MutexLock lock(mu_); auto p = Transform(text); }\n");
  EXPECT_TRUE(HasRule(vs, "no-lock-across-g2p-io"));
}

TEST(BlockingMarkers, CollectsAllThreeForms) {
  const auto names = CollectBlockingMarkers(
      "// lint: blocking(pread, pwrite, fsync)\n"
      "class DiskManager {\n"
      "  virtual Status ReadPage(PageId id, char* out) = 0;  // lint: blocking\n"
      "  // lint: blocking\n"
      "  virtual Status WritePage(PageId id, const char* d) = 0;\n"
      "  PhonemeString Transform(std::string_view text,  // lint: blocking\n"
      "                          LangId lang) const;\n"
      "};\n");
  const std::vector<std::string> expected = {"pread", "pwrite", "fsync",
                                             "ReadPage", "WritePage",
                                             "Transform"};
  EXPECT_EQ(names, expected);
}

TEST(BlockingMarkers, IgnoresUnmarkedDeclarationsAndOtherComments) {
  const auto names = CollectBlockingMarkers(
      "// a comment about blocking behavior, not a marker\n"
      "Status ReadPage(PageId id);\n"
      "int x;  // lint: unguarded(why)\n");
  EXPECT_TRUE(names.empty());
}

TEST(LockOrderRule, CollectsBeforeAndAfterEdges) {
  // Mirrors the real declarations: rank witnesses use ACQUIRED_BEFORE,
  // member locks tie in with qualified ACQUIRED_AFTER/BEFORE arguments and
  // stacked attributes.
  const auto edges = CollectLockOrderEdges(
      "src/common/lock_order.h",
      "inline SharedMutex kFrameLatch;\n"
      "inline SharedMutex kBufferTable ACQUIRED_BEFORE(kFrameLatch);\n"
      "mutable SharedMutex table_mu_ ACQUIRED_AFTER(lock_rank::kCatalog)\n"
      "    ACQUIRED_BEFORE(lock_rank::kFrameLatch);\n");
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0].before, "kBufferTable");
  EXPECT_EQ(edges[0].after, "kFrameLatch");
  EXPECT_EQ(edges[1].before, "kCatalog");  // AFTER inverts the edge
  EXPECT_EQ(edges[1].after, "table_mu_");
  EXPECT_EQ(edges[2].before, "table_mu_");
  EXPECT_EQ(edges[2].after, "kFrameLatch");
  EXPECT_EQ(edges[0].file, "src/common/lock_order.h");
  EXPECT_EQ(edges[0].line, 2);
}

TEST(LockOrderRule, MacroDefinitionYieldsNoEdges) {
  const auto edges = CollectLockOrderEdges(
      "src/common/thread_annotations.h",
      "#define ACQUIRED_BEFORE(...) \\\n"
      "  THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))\n"
      "#define ACQUIRED_AFTER(...) \\\n"
      "  THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))\n");
  EXPECT_TRUE(edges.empty());
}

TEST(LockOrderRule, AcyclicGraphIsClean) {
  std::vector<LockOrderEdge> edges = {
      {"kCatalog", "kBufferTable", "src/common/lock_order.h", 35},
      {"kBufferTable", "kFrameLatch", "src/common/lock_order.h", 31},
      {"mu_", "kBufferTable", "src/catalog/catalog.h", 100},
      {"kCatalog", "table_mu_", "src/storage/buffer_pool.h", 132},
      {"table_mu_", "kFrameLatch", "src/storage/buffer_pool.h", 132},
  };
  EXPECT_TRUE(CheckLockOrder(edges).empty());
}

TEST(LockOrderRule, FiresOnContradictoryDeclarations) {
  // a before b (declared in one file) and b before a (another file): the
  // merged graph has a cycle and the build must fail.
  std::vector<LockOrderEdge> edges = {
      {"a_mu", "b_mu", "src/x/one.h", 10},
      {"b_mu", "a_mu", "src/y/two.h", 20},
  };
  const auto vs = CheckLockOrder(edges);
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs.front().rule, "lock-order");
  EXPECT_NE(vs.front().message.find("a_mu"), std::string::npos);
  EXPECT_NE(vs.front().message.find("b_mu"), std::string::npos);
}

TEST(LockOrderRule, FiresOnSelfEdge) {
  std::vector<LockOrderEdge> edges = {{"mu_", "mu_", "src/x/one.h", 5}};
  EXPECT_EQ(CheckLockOrder(edges).size(), 1u);
}

TEST(GuardedFieldRule, FiresOnUnannotatedFieldInMutexClass) {
  const auto vs = LintFile(
      "src/exec/cache.h",
      "#pragma once\n"
      "class Cache {\n"
      " public:\n"
      "  void Put(int k);\n"
      " private:\n"
      "  mutable Mutex mu_;\n"
      "  std::map<int, int> entries_ GUARDED_BY(mu_);\n"
      "  uint64_t hits_;\n"
      "};\n");
  ASSERT_EQ(CountRule(vs, "guarded-field"), 1);
  const auto it = std::find_if(
      vs.begin(), vs.end(),
      [](const Violation& v) { return v.rule == "guarded-field"; });
  EXPECT_EQ(it->line, 8);
  EXPECT_NE(it->message.find("hits_"), std::string::npos);
}

TEST(GuardedFieldRule, SilentWhenAllFieldsAnnotatedOrExempt) {
  const auto vs = LintFile(
      "src/exec/cache.h",
      "#pragma once\n"
      "class Cache {\n"
      " private:\n"
      "  const Engine* engine_;\n"
      "  mutable Mutex mu_;\n"
      "  std::map<int, int> entries_ GUARDED_BY(mu_);\n"
      "  int* shared_ PT_GUARDED_BY(mu_);\n"
      "  std::atomic<uint64_t> fast_hits_;\n"
      "  static constexpr int kMax = 8;\n"
      "  std::vector<std::thread> workers_;  // lint: unguarded(joined in "
      "Shutdown before destruction)\n"
      "};\n");
  EXPECT_FALSE(HasRule(vs, "guarded-field"));
}

TEST(GuardedFieldRule, SilentOnClassesWithoutMutexes) {
  const auto vs = LintFile(
      "src/exec/plain.h",
      "#pragma once\n"
      "class Plain {\n"
      "  uint64_t hits_ = 0;\n"
      "  std::string name_;\n"
      "};\n");
  EXPECT_FALSE(HasRule(vs, "guarded-field"));
}

TEST(GuardedFieldRule, MutexAfterFieldStillGuardsWholeClass) {
  // The Mutex member is declared AFTER the unannotated field; the rule
  // must still fire (candidates are buffered until the class closes).
  const auto vs = LintFile(
      "src/exec/cache.h",
      "#pragma once\n"
      "class Cache {\n"
      "  uint64_t hits_;\n"
      "  Mutex mu_;\n"
      "};\n");
  EXPECT_EQ(CountRule(vs, "guarded-field"), 1);
}

TEST(GuardedFieldRule, LockOrderAttributesDoNotHideTheMutex) {
  // `SharedMutex mu_ ACQUIRED_BEFORE(...)` carries a top-level '(' — the
  // function-signature heuristic must not misread it as a method decl, or
  // the class would silently stop counting as mutex-holding.
  const auto vs = LintFile(
      "src/storage/pool.h",
      "#pragma once\n"
      "class Pool {\n"
      "  mutable SharedMutex mu_ ACQUIRED_AFTER(lock_rank::kCatalog)\n"
      "      ACQUIRED_BEFORE(lock_rank::kFrameLatch);\n"
      "  std::map<int, int> table_ GUARDED_BY(mu_);\n"
      "  uint64_t hits_;\n"
      "};\n");
  ASSERT_EQ(CountRule(vs, "guarded-field"), 1);
  EXPECT_NE(vs.front().message.find("hits_"), std::string::npos);
}

TEST(GuardedFieldRule, NestedAndAttributedClasses) {
  // Inner has a mutex and an unguarded field; Outer has neither violation.
  // The attribute-macro form `class CAPABILITY("mutex") X` must parse.
  const auto vs = LintFile(
      "src/exec/nested.h",
      "#pragma once\n"
      "class CAPABILITY(\"mutex\") Outer {\n"
      " public:\n"
      "  struct Inner {\n"
      "    mutable Mutex mu;\n"
      "    int dirty;\n"
      "  };\n"
      "  void Lock() ACQUIRE();\n"
      "  std::vector<Inner> shards_;\n"
      "};\n");
  EXPECT_EQ(CountRule(vs, "guarded-field"), 1);
}

TEST(NewRules, IgnoreRawStringsAndBlockComments) {
  // Satellite regression: R"(...)" bodies and /* */ comments must not trip
  // the token-stream rules.
  const auto vs = LintFile(
      "src/exec/gen.cc",
      "const char* kDoc = R\"(std::mutex MutexLock Transform( throw)\";\n"
      "/* std::lock_guard<std::mutex> l(mu); Transform(x); throw; */\n"
      "int ok = 1;\n");
  EXPECT_TRUE(vs.empty());
}

TEST(LintFileTest, CleanFileHasNoViolations) {
  const std::string src =
      "#include \"exec/clean.h\"\n"
      "\n"
      "#include <memory>\n"
      "\n"
      "namespace mural {\n"
      "Status Clean::Run() {\n"
      "  assert(ready_);\n"
      "  auto node = std::make_unique<Node>();\n"
      "  return Status::OK();\n"
      "}\n"
      "}  // namespace mural\n";
  EXPECT_TRUE(LintFile("src/exec/clean.cc", src).empty());
}

TEST(LintFileTest, ReportsLineNumbers) {
  const auto vs = LintFile("src/a.cc",
                           "int x;\n"
                           "int y;\n"
                           "void F() { throw 1; }\n");
  ASSERT_TRUE(HasRule(vs, "no-throw"));
  EXPECT_EQ(vs.front().line, 3);
}

// ---------------------------------------------------------------------------
// v3 cross-TU rules: layering, latch-scope
// ---------------------------------------------------------------------------

constexpr std::string_view kTestLayers = R"(
[layer.common]
deps = []
[layer.exec]
deps = ["catalog"]
[layer.catalog]
deps = ["common"]
[layer.sql]
deps = ["exec"]
)";

LayerConfig TestLayers() {
  LayerConfig config;
  const std::string err = ParseLayerConfig(kTestLayers, &config);
  EXPECT_EQ(err, "");
  return config;
}

TEST(LayerConfigTest, ParsesDepsAndComputesClosure) {
  const LayerConfig config = TestLayers();
  EXPECT_TRUE(config.Known("sql"));
  // sql -> exec -> catalog -> common: the closure covers the whole chain.
  const std::set<std::string>& allowed = config.allowed.at("sql");
  EXPECT_EQ(allowed.count("common"), 1u);
  EXPECT_EQ(allowed.count("sql"), 1u);
  // common depends on nothing but itself.
  EXPECT_EQ(config.allowed.at("common").size(), 1u);
}

TEST(LayerConfigTest, RejectsUndeclaredDepAndCycle) {
  LayerConfig config;
  EXPECT_NE(ParseLayerConfig("[layer.a]\ndeps = [\"ghost\"]\n", &config), "");
  EXPECT_NE(
      ParseLayerConfig(
          "[layer.a]\ndeps = [\"b\"]\n[layer.b]\ndeps = [\"a\"]\n", &config),
      "");
}

LintOptions WithLayers(const LayerConfig* layers) {
  LintOptions options;
  options.layers = layers;
  return options;
}

TEST(LayeringRule, FiresOnUpwardInclude) {
  const LayerConfig layers = TestLayers();
  const auto vs = LintFile("src/exec/op.cc", "#include \"sql/parser.h\"\n",
                           WithLayers(&layers));
  EXPECT_TRUE(HasRule(vs, "layering"));
}

TEST(LayeringRule, SilentOnDownwardAndSystemIncludes) {
  const LayerConfig layers = TestLayers();
  const auto vs = LintFile("src/sql/parser.cc",
                           "#include \"sql/parser.h\"\n"
                           "#include <vector>\n"
                           "#include \"exec/op.h\"\n"
                           "#include \"common/status.h\"\n",
                           WithLayers(&layers));
  EXPECT_FALSE(HasRule(vs, "layering"));
}

TEST(LayeringRule, LayerExceptionCommentIsHonored) {
  const LayerConfig layers = TestLayers();
  const auto vs = LintFile(
      "src/exec/op.cc",
      "// lint: layer-exception(legacy shim until the planner split lands)\n"
      "#include \"sql/parser.h\"\n",
      WithLayers(&layers));
  EXPECT_FALSE(HasRule(vs, "layering"));
}

TEST(LayeringRule, DriftOnUnassignedDirectory) {
  const LayerConfig layers = TestLayers();
  const auto vs = LintFile("src/server/server.cc", "int x;\n",
                           WithLayers(&layers));
  EXPECT_TRUE(HasRule(vs, "layer-config-drift"));
  // Files outside src/ are outside the layered engine entirely.
  const auto tools = LintFile("tools/bench/bench.cc", "int x;\n",
                              WithLayers(&layers));
  EXPECT_FALSE(HasRule(tools, "layer-config-drift"));
}

TEST(LatchScopeRule, FiresOnBlockingCallWhileGuardHeld) {
  const auto vs = LintFile("src/index/tree.cc",
                           "Status F(BufferPool* pool) {\n"
                           "  MURAL_ASSIGN_OR_RETURN(WritePageGuard guard,\n"
                           "                         pool->FetchForWrite(1));\n"
                           "  MURAL_ASSIGN_OR_RETURN(WritePageGuard fresh,\n"
                           "                         pool->NewPage());\n"
                           "  return Status::OK();\n"
                           "}\n",
                           BlockingCalls({"FetchForWrite", "NewPage"}));
  EXPECT_EQ(CountRule(vs, "latch-scope"), 1);
}

TEST(LatchScopeRule, SilentAfterReleaseOrMove) {
  const auto vs = LintFile("src/index/tree.cc",
                           "Status F(BufferPool* pool) {\n"
                           "  MURAL_ASSIGN_OR_RETURN(ReadPageGuard probe,\n"
                           "                         pool->Fetch(1));\n"
                           "  probe.Release();\n"
                           "  MURAL_ASSIGN_OR_RETURN(WritePageGuard a,\n"
                           "                         pool->NewPage());\n"
                           "  WritePageGuard b = std::move(a);\n"
                           "  Consume(std::move(b));\n"
                           "  MURAL_ASSIGN_OR_RETURN(WritePageGuard c,\n"
                           "                         pool->NewPage());\n"
                           "  return Status::OK();\n"
                           "}\n",
                           BlockingCalls({"Fetch", "NewPage"}));
  EXPECT_FALSE(HasRule(vs, "latch-scope"));
}

TEST(LatchScopeRule, SilentWhenGuardScopeClosesFirst) {
  const auto vs = LintFile("src/index/tree.cc",
                           "Status F(BufferPool* pool) {\n"
                           "  {\n"
                           "    MURAL_ASSIGN_OR_RETURN(ReadPageGuard g,\n"
                           "                           pool->Fetch(1));\n"
                           "    Use(g.get());\n"
                           "  }\n"
                           "  MURAL_ASSIGN_OR_RETURN(WritePageGuard n,\n"
                           "                         pool->NewPage());\n"
                           "  return Status::OK();\n"
                           "}\n",
                           BlockingCalls({"Fetch", "NewPage"}));
  EXPECT_FALSE(HasRule(vs, "latch-scope"));
}

TEST(LatchScopeRule, TracksGuardParametersOfDefinitions) {
  const auto vs = LintFile("src/index/tree.cc",
                           "Status Split(BufferPool* pool,\n"
                           "             WritePageGuard* guard) {\n"
                           "  MURAL_ASSIGN_OR_RETURN(WritePageGuard sib,\n"
                           "                         pool->NewPage());\n"
                           "  return Status::OK();\n"
                           "}\n",
                           BlockingCalls({"NewPage"}));
  EXPECT_TRUE(HasRule(vs, "latch-scope"));
  // A bare declaration binds no guard: nothing is live.
  const auto decl = LintFile("src/index/tree.h",
                             "#pragma once\n"
                             "Status Split(BufferPool* pool,\n"
                             "             WritePageGuard* guard);\n"
                             "Status Helper(BufferPool* pool) {\n"
                             "  MURAL_RETURN_IF_ERROR(pool->FlushAll());\n"
                             "  return Status::OK();\n"
                             "}\n",
                             BlockingCalls({"FlushAll"}));
  EXPECT_FALSE(HasRule(decl, "latch-scope"));
}

TEST(LatchScopeRule, LatchExceptionCommentIsHonored) {
  const auto vs = LintFile(
      "src/index/tree.cc",
      "Status F(BufferPool* pool) {\n"
      "  MURAL_ASSIGN_OR_RETURN(WritePageGuard guard,\n"
      "                         pool->FetchForWrite(1));\n"
      "  // lint: latch-exception(two-latch split section)\n"
      "  MURAL_ASSIGN_OR_RETURN(WritePageGuard fresh, pool->NewPage());\n"
      "  return Status::OK();\n"
      "}\n",
      BlockingCalls({"FetchForWrite", "NewPage"}));
  EXPECT_FALSE(HasRule(vs, "latch-scope"));
}

}  // namespace
}  // namespace mural::lint
