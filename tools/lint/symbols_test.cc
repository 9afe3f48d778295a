// Unit tests for the declaration parser (symbols.h): includes, forward
// declarations, nested classes, out-of-line definitions, and
// templates-as-opaque.

#include "symbols.h"

#include <string>

#include <gtest/gtest.h>

namespace mural::lint {
namespace {

const ClassDecl* FindClass(const FileSymbols& fs, const std::string& name) {
  for (const ClassDecl& c : fs.classes) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const FunctionDecl* FindFunction(const FileSymbols& fs,
                                 const std::string& name) {
  for (const FunctionDecl& f : fs.functions) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

TEST(SymbolsTest, CollectsQuotedAndSystemIncludes) {
  const FileSymbols fs = ParseFileSymbols("src/exec/foo.cc", R"(
#include "exec/foo.h"

#include <vector>
#include <sys/mman.h>

#include "catalog/catalog.h"
)");
  ASSERT_EQ(fs.includes.size(), 4u);
  EXPECT_EQ(fs.includes[0].path, "exec/foo.h");
  EXPECT_TRUE(fs.includes[0].quoted);
  EXPECT_EQ(fs.includes[1].path, "vector");
  EXPECT_FALSE(fs.includes[1].quoted);
  EXPECT_EQ(fs.includes[2].path, "sys/mman.h");
  EXPECT_FALSE(fs.includes[2].quoted);
  EXPECT_EQ(fs.includes[3].path, "catalog/catalog.h");
  EXPECT_TRUE(fs.includes[3].quoted);
}

TEST(SymbolsTest, ForwardDeclarationVsDefinition) {
  const FileSymbols fs = ParseFileSymbols("src/a.h", R"(
class Forward;
struct Defined { int x = 0; };
)");
  const ClassDecl* fwd = FindClass(fs, "Forward");
  ASSERT_NE(fwd, nullptr);
  EXPECT_FALSE(fwd->is_definition);
  const ClassDecl* def = FindClass(fs, "Defined");
  ASSERT_NE(def, nullptr);
  EXPECT_TRUE(def->is_definition);
}

TEST(SymbolsTest, NestedClassGetsQualifiedName) {
  const FileSymbols fs = ParseFileSymbols("src/a.h", R"(
class Outer {
 public:
  class Inner {
   public:
    Status Flush();
  };
  void Run();
};
)");
  EXPECT_NE(FindClass(fs, "Outer"), nullptr);
  EXPECT_NE(FindClass(fs, "Outer::Inner"), nullptr);
  const FunctionDecl* flush = FindFunction(fs, "Flush");
  ASSERT_NE(flush, nullptr);
  EXPECT_EQ(flush->class_name, "Outer::Inner");
  const FunctionDecl* run = FindFunction(fs, "Run");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->class_name, "Outer");
}

TEST(SymbolsTest, OutOfLineDefinitionKeepsQualifier) {
  const FileSymbols fs = ParseFileSymbols("src/a.cc", R"(
StatusOr<ReadPageGuard> BufferPool::Fetch(PageId id) {
  return Status::OK();
}
)");
  const FunctionDecl* fetch = FindFunction(fs, "Fetch");
  ASSERT_NE(fetch, nullptr);
  EXPECT_EQ(fetch->class_name, "BufferPool");
  EXPECT_TRUE(fetch->is_definition);
}

TEST(SymbolsTest, DeclarationVsDefinitionFlag) {
  const FileSymbols fs = ParseFileSymbols("src/a.h", R"(
Status Init(int n);
Status Shutdown() { return Status::OK(); }
)");
  const FunctionDecl* init = FindFunction(fs, "Init");
  ASSERT_NE(init, nullptr);
  EXPECT_FALSE(init->is_definition);
  const FunctionDecl* shutdown = FindFunction(fs, "Shutdown");
  ASSERT_NE(shutdown, nullptr);
  EXPECT_TRUE(shutdown->is_definition);
}

TEST(SymbolsTest, TemplatesAreOpaque) {
  const FileSymbols fs = ParseFileSymbols("src/a.h", R"(
template <typename T>
Status Apply(const T& value);

std::vector<Status> History();
)");
  const FunctionDecl* apply = FindFunction(fs, "Apply");
  ASSERT_NE(apply, nullptr);
  const FunctionDecl* history = FindFunction(fs, "History");
  ASSERT_NE(history, nullptr);
}

TEST(SymbolsTest, ExpressionsAreNotDeclarations) {
  const FileSymbols fs = ParseFileSymbols("src/a.cc", R"(
void Caller(BufferPool* pool) {
  auto r = pool->Fetch(1);
  Status s(StatusCode::kInternal, "msg");
  MURAL_RETURN_IF_ERROR(Helper());
  return;
}
)");
  // `Caller` is a real declaration; none of the calls inside are.
  EXPECT_NE(FindFunction(fs, "Caller"), nullptr);
  EXPECT_EQ(FindFunction(fs, "Fetch"), nullptr);
  EXPECT_EQ(FindFunction(fs, "Status"), nullptr);
  EXPECT_EQ(FindFunction(fs, "Helper"), nullptr);
  EXPECT_EQ(FindFunction(fs, "MURAL_RETURN_IF_ERROR"), nullptr);
}

TEST(SymbolsTest, PureVirtualAndAnnotatedDeclarations) {
  const FileSymbols fs = ParseFileSymbols("src/a.h", R"(
class Disk {
 public:
  virtual Status ReadPage(PageId id, char* out) = 0;
  Status Lock() ACQUIRE(mu_);
  [[nodiscard]] Status Sync() const noexcept;
};
)");
  const FunctionDecl* read = FindFunction(fs, "ReadPage");
  ASSERT_NE(read, nullptr);
  EXPECT_FALSE(read->is_definition);
  ASSERT_NE(FindFunction(fs, "Lock"), nullptr);
  const FunctionDecl* sync = FindFunction(fs, "Sync");
  ASSERT_NE(sync, nullptr);
}

TEST(SymbolsTest, EnumBodiesDoNotBreakClassNesting) {
  const FileSymbols fs = ParseFileSymbols("src/a.h", R"(
struct ScanSpec {
  enum class Kind : uint8_t { kFullTable, kIndexEq = Size(2), kIndexRange };
  void Run();
};
void Free();
)");
  EXPECT_NE(FindClass(fs, "ScanSpec"), nullptr);
  EXPECT_EQ(FindClass(fs, "ScanSpec::Kind"), nullptr);
  EXPECT_EQ(FindFunction(fs, "Size"), nullptr)
      << "an enumerator initializer is not a declaration";
  const FunctionDecl* run = FindFunction(fs, "Run");
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->class_name, "ScanSpec");
  const FunctionDecl* free_fn = FindFunction(fs, "Free");
  ASSERT_NE(free_fn, nullptr);
  EXPECT_EQ(free_fn->class_name, "");
}

}  // namespace
}  // namespace mural::lint
