// Fuzz-smoke tests: every parser and decoder in the system must turn
// arbitrary bytes into a clean Status — never crash, hang, or read out of
// bounds.  (Run under ASan/UBSan for full effect; deterministic seeds keep
// failures reproducible.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>

#include "catalog/tuple_codec.h"
#include "common/coding.h"
#include "common/random.h"
#include "common/utf8.h"
#include "distance/bounded_myers.h"
#include "distance/edit_distance.h"
#include "cfg.h"
#include "plfront/pl_parser.h"
#include "plfront/udf_runtime.h"
#include "sql/sql.h"

namespace mural {
namespace {

std::string RandomBytes(Rng* rng, size_t max_len) {
  const size_t len = rng->Uniform(max_len + 1);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng->Uniform(256)));
  }
  return s;
}

/// Random soup of plausible tokens — exercises deeper parser paths than
/// raw bytes, which usually die in the lexer.
std::string RandomTokenSoup(Rng* rng, const std::vector<std::string>& vocab,
                            size_t max_tokens) {
  std::string out;
  const size_t n = rng->Uniform(max_tokens + 1);
  for (size_t i = 0; i < n; ++i) {
    out += vocab[rng->Uniform(vocab.size())];
    out += ' ';
  }
  return out;
}

/// A copy of `bytes` in a heap block of exactly its size.  A std::string
/// keeps a NUL terminator past its end, so only an exact-size block lets
/// ASan flag a decoder that over-reads by a single byte.
class ExactBuffer {
 public:
  explicit ExactBuffer(std::string_view bytes)
      : size_(bytes.size()), data_(std::make_unique<char[]>(bytes.size())) {
    std::memcpy(data_.get(), bytes.data(), size_);
  }

  std::string_view view() const { return {data_.get(), size_}; }

  /// True when `v` lies wholly inside the buffer (empty views anywhere).
  bool Contains(std::string_view v) const {
    const auto lo = reinterpret_cast<uintptr_t>(data_.get());
    const auto p = reinterpret_cast<uintptr_t>(v.data());
    return v.empty() || (p >= lo && p + v.size() <= lo + size_);
  }

 private:
  size_t size_;
  std::unique_ptr<char[]> data_;
};

/// Every storable column type sits ahead of the key, which is last, so a
/// peek must skip each encoding (UniText with and without phonemes, and a
/// NULL) before it reaches the key.
Schema PeekSchema(TypeId key_type) {
  return Schema({{"b", TypeId::kBool},
                 {"i", TypeId::kInt32},
                 {"l", TypeId::kInt64},
                 {"f", TypeId::kFloat64},
                 {"t", TypeId::kText},
                 {"u_ph", TypeId::kUniText},
                 {"u", TypeId::kUniText},
                 {"n", TypeId::kInt64},
                 {"key", key_type}});
}

Row PeekRow(TypeId key_type) {
  Row row{Value::Bool(true),
          Value::Int32(-7),
          Value::Int64(int64_t{1} << 40),
          Value::Float64(2.5),
          Value::Text("plain"),
          Value::Uni("svara", lang::kTamil),
          Value::Uni("nadi", lang::kHindi),
          Value::Null(),
          key_type == TypeId::kText ? Value::Text("charitram")
                                    : Value::Uni("charitram", lang::kTamil)};
  row[5].mutable_unitext().set_phonemes("S V A R A");
  if (key_type == TypeId::kUniText) {
    row[8].mutable_unitext().set_phonemes("C A R I T R A M");
  }
  return row;
}

/// A random value of `type`; one in five is NULL.
Value RandomValue(Rng* rng, TypeId type) {
  if (rng->Uniform(5) == 0) return Value::Null();
  switch (type) {
    case TypeId::kBool:
      return Value::Bool(rng->Uniform(2) == 1);
    case TypeId::kInt32:
      return Value::Int32(static_cast<int32_t>(rng->Next()));
    case TypeId::kInt64:
      return Value::Int64(static_cast<int64_t>(rng->Next()));
    case TypeId::kFloat64:
      return Value::Float64(static_cast<double>(rng->Uniform(1000)) / 8);
    case TypeId::kText:
      return Value::Text(RandomBytes(rng, 12));
    case TypeId::kUniText: {
      UniText u(RandomBytes(rng, 12), static_cast<LangId>(rng->Uniform(8)));
      if (rng->Uniform(2) == 1) u.set_phonemes(RandomBytes(rng, 12));
      return Value::Uni(std::move(u));
    }
    case TypeId::kNull:
      break;
  }
  return Value::Null();
}

class FuzzSmokeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSmokeTest, SqlParserNeverCrashes) {
  Rng rng(GetParam());
  const std::vector<std::string> vocab = {
      "SELECT", "FROM",     "WHERE",    "LEXEQUAL", "SEMEQUAL", "IN",
      "AND",    "OR",       "NOT",      "GROUP",    "BY",       "ORDER",
      "LIMIT",  "count",    "(",        ")",        "*",        ",",
      "=",      "<",        ">",        "<=",       ";",        ".",
      "'x'",    "'y'@Tamil", "42",      "3.5",      "Book",     "Author",
      "THRESHOLD", "CREATE", "TABLE",   "INDEX",    "INSERT",   "INTO",
      "VALUES", "SET",      "EXPLAIN",  "ANALYZE",  "AS",       "USING"};
  for (int iter = 0; iter < 300; ++iter) {
    (void)sql::Parse(RandomBytes(&rng, 120));
    (void)sql::Parse(RandomTokenSoup(&rng, vocab, 24));
  }
  SUCCEED();
}

TEST_P(FuzzSmokeTest, PlParserNeverCrashes) {
  Rng rng(GetParam() ^ 0xabcdULL);
  const std::vector<std::string> vocab = {
      "FUNCTION", "RETURNS", "AS",    "BEGIN", "END",   "IF",    "THEN",
      "ELSE",     "ELSIF",   "WHILE", "LOOP",  "FOR",   "IN",    "RETURN",
      "INT",      "TEXT",    "ARRAY", ":=",    ";",     "(",     ")",
      "[",        "]",       "+",     "-",     "*",     "/",     "..",
      "x",        "y",       "f",     "1",     "2.5",   "'s'",   "=",
      "<>",       "AND",     "OR",    "NOT",   "NULL",  "TRUE"};
  for (int iter = 0; iter < 300; ++iter) {
    (void)pl::ParseProgram(RandomBytes(&rng, 150));
    (void)pl::ParseProgram(RandomTokenSoup(&rng, vocab, 30));
  }
  SUCCEED();
}

TEST_P(FuzzSmokeTest, TupleCodecRejectsGarbageCleanly) {
  Rng rng(GetParam() ^ 0x5555ULL);
  Schema schema({{"a", TypeId::kInt32},
                 {"b", TypeId::kText},
                 {"c", TypeId::kUniText},
                 {"d", TypeId::kFloat64}});
  Row row;
  for (int iter = 0; iter < 500; ++iter) {
    const Status st =
        TupleCodec::Deserialize(schema, RandomBytes(&rng, 80), &row);
    // Either it decodes (tiny chance the bytes are well-formed) or it
    // fails cleanly; both are fine — crashing is not.
    (void)st;
  }
  SUCCEED();
}

TEST_P(FuzzSmokeTest, TupleCodecSurvivesTruncationOfValidTuples) {
  Rng rng(GetParam() ^ 0x7777ULL);
  Schema schema({{"a", TypeId::kInt64}, {"b", TypeId::kUniText}});
  Row row{Value::Int64(42),
          Value::Uni("charitram-notes", lang::kTamil)};
  std::string bytes;
  ASSERT_TRUE(TupleCodec::Serialize(schema, row, &bytes).ok());
  Row out;
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const ExactBuffer prefix(std::string_view(bytes).substr(0, cut));
    const Status st = TupleCodec::Deserialize(schema, prefix.view(), &out);
    EXPECT_FALSE(st.ok()) << "prefix of length " << cut << " decoded";
  }
  // Bit flips: decode either succeeds or errors, never crashes.
  for (int iter = 0; iter < 300; ++iter) {
    std::string mutated = bytes;
    mutated[rng.Uniform(mutated.size())] ^=
        static_cast<char>(1 << rng.Uniform(8));
    (void)TupleCodec::Deserialize(schema, ExactBuffer(mutated).view(), &out);
  }
  SUCCEED();
}

// The key peek the Psi scan runs on every heap record gets the same
// treatment as Deserialize: every strict prefix of a valid tuple fails
// (the key is last, so each cut removes bytes the peek must read), and a
// bit-flipped tuple either fails or yields views inside its buffer.
TEST_P(FuzzSmokeTest, PeekUniTextSurvivesTruncationAndBitFlips) {
  Rng rng(GetParam() ^ 0x3e3eULL);
  for (const TypeId key_type : {TypeId::kUniText, TypeId::kText}) {
    const Schema schema = PeekSchema(key_type);
    const size_t key = schema.NumColumns() - 1;
    std::string bytes;
    ASSERT_TRUE(TupleCodec::Serialize(schema, PeekRow(key_type), &bytes).ok());
    UniTextColumnView view;
    ASSERT_TRUE(
        TupleCodec::PeekUniText(schema, ExactBuffer(bytes).view(), key, &view)
            .ok());
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      const ExactBuffer prefix(std::string_view(bytes).substr(0, cut));
      EXPECT_FALSE(
          TupleCodec::PeekUniText(schema, prefix.view(), key, &view).ok())
          << "prefix of length " << cut << " peeked";
    }
    for (int iter = 0; iter < 300; ++iter) {
      std::string mutated = bytes;
      mutated[rng.Uniform(mutated.size())] ^=
          static_cast<char>(1 << rng.Uniform(8));
      const ExactBuffer buf(mutated);
      if (TupleCodec::PeekUniText(schema, buf.view(), key, &view).ok()) {
        EXPECT_TRUE(buf.Contains(view.text));
        EXPECT_TRUE(buf.Contains(view.phonemes));
      }
    }
  }
}

// PeekUniText is a second decoder of the tuple format; on every valid row
// it must see exactly the key Deserialize materializes.
TEST_P(FuzzSmokeTest, PeekUniTextAgreesWithDeserialize) {
  Rng rng(GetParam() ^ 0x9eefULL);
  for (const TypeId key_type : {TypeId::kUniText, TypeId::kText}) {
    const Schema schema = PeekSchema(key_type);
    const size_t key = schema.NumColumns() - 1;
    for (int iter = 0; iter < 200; ++iter) {
      Row row;
      for (size_t i = 0; i < schema.NumColumns(); ++i) {
        row.push_back(RandomValue(&rng, schema.column(i).type));
      }
      std::string bytes;
      ASSERT_TRUE(TupleCodec::Serialize(schema, row, &bytes).ok());
      const ExactBuffer buf(bytes);
      Row decoded;
      ASSERT_TRUE(TupleCodec::Deserialize(schema, buf.view(), &decoded).ok());
      ASSERT_EQ(decoded.size(), row.size());
      UniTextColumnView view;
      ASSERT_TRUE(TupleCodec::PeekUniText(schema, buf.view(), key, &view).ok());
      const Value& want = decoded[key];
      ASSERT_EQ(view.is_null, want.is_null());
      if (want.is_null()) continue;
      if (key_type == TypeId::kText) {
        EXPECT_EQ(view.text, want.text());
        EXPECT_EQ(view.lang, 0);
        EXPECT_FALSE(view.has_phonemes);
        continue;
      }
      const UniText& u = want.unitext();
      EXPECT_EQ(view.text, u.text());
      EXPECT_EQ(view.lang, u.lang());
      ASSERT_EQ(view.has_phonemes, u.has_phonemes());
      if (u.has_phonemes()) EXPECT_EQ(view.phonemes, *u.phonemes());
    }
  }
}

// Hand-crafted malformed UTF-8: overlong encodings, surrogate halves,
// out-of-range values, bare continuation bytes, and truncated sequences.
// Strict decoding must reject every one; lenient decoding must survive.
// Under ASan/UBSan this also proves the decoder never reads past the end
// of a short buffer.
TEST(Utf8AdversarialTest, MalformedSequencesAreRejectedCleanly) {
  const std::vector<std::string> malformed = {
      "\xC0\xAF",               // overlong '/': 2 bytes for U+002F
      "\xC1\xBF",               // overlong: top of the C0/C1 dead zone
      "\xE0\x80\xAF",           // overlong '/': 3 bytes
      "\xF0\x80\x80\xAF",       // overlong '/': 4 bytes
      "\xE0\x9F\xBF",           // overlong: 3-byte below U+0800
      "\xF0\x8F\xBF\xBF",       // overlong: 4-byte below U+10000
      "\xED\xA0\x80",           // UTF-16 high surrogate U+D800
      "\xED\xBF\xBF",           // UTF-16 low surrogate U+DFFF
      "\xF4\x90\x80\x80",       // first code point beyond U+10FFFF
      "\xF5\x80\x80\x80",       // lead byte that can never be valid
      "\xFE",                   // illegal lead byte
      "\xFF",                   // illegal lead byte
      "\x80",                   // bare continuation byte
      "\xBF\xBF",               // continuation bytes with no lead
      "\xC2",                   // truncated 2-byte sequence
      "\xE2\x82",               // truncated 3-byte sequence
      "\xF0\x9F\x92",           // truncated 4-byte sequence (half an emoji)
      "\xC2\x41",               // lead byte followed by ASCII, not cont.
      "\xE2\x28\xA1",           // 3-byte with bad 2nd byte
      "ok\xC0\xAFtail",         // malformed bytes embedded in ASCII
  };
  for (const std::string& bytes : malformed) {
    EXPECT_FALSE(utf8::IsValid(bytes)) << "accepted: " << bytes;
    const auto strict = utf8::DecodeStrict(bytes);
    EXPECT_FALSE(strict.ok()) << "strict-decoded: " << bytes;
    // Lenient decode substitutes U+FFFD and never crashes or over-reads.
    const std::vector<CodePoint> lenient = utf8::Decode(bytes);
    EXPECT_LE(lenient.size(), bytes.size());
    for (const CodePoint cp : lenient) {
      EXPECT_LE(cp, kMaxCodePoint);
    }
  }
}

TEST(Utf8AdversarialTest, BoundaryCodePointsRoundTrip) {
  // The last valid code point before each encoding-width boundary and the
  // first after it — off-by-one territory for the encoder tables.
  const std::vector<CodePoint> boundaries = {0x00,    0x7F,   0x80,
                                             0x7FF,   0x800,  0xFFFF,
                                             0x10000, 0x10FFFF};
  for (const CodePoint cp : boundaries) {
    if (cp >= 0xD800 && cp <= 0xDFFF) continue;
    const std::string enc = utf8::Encode({cp});
    EXPECT_TRUE(utf8::IsValid(enc)) << "cp=" << cp;
    const auto dec = utf8::DecodeStrict(enc);
    ASSERT_TRUE(dec.ok()) << "cp=" << cp;
    ASSERT_EQ(dec.value().size(), 1u);
    EXPECT_EQ(dec.value()[0], cp);
  }
}

// Length prefixes that lie: a tuple whose TEXT/UNITEXT field claims far
// more bytes than the buffer holds must fail with a clean Status.  Under
// ASan this is the canonical heap-overflow probe for the decoder.
TEST(TupleCodecAdversarialTest, LyingLengthPrefixesFailCleanly) {
  Schema schema({{"t", TypeId::kText}});
  Row out;
  for (const uint32_t lie :
       {uint32_t{8}, uint32_t{0x7FFFFFFF}, uint32_t{0xFFFFFFFF}}) {
    std::string bytes;
    PutU8(&bytes, 1);     // non-null flag
    PutU32(&bytes, lie);  // declared length
    bytes += "abc";       // actual payload: 3 bytes
    const Status st = TupleCodec::Deserialize(schema, bytes, &out);
    EXPECT_FALSE(st.ok()) << "declared " << lie << " bytes, decoded anyway";
  }
}

TEST(TupleCodecAdversarialTest, TruncatedUniTextPhonemesFailCleanly) {
  Schema schema({{"u", TypeId::kUniText}});
  Row row{Value::Uni(UniText("svara", lang::kTamil))};
  row[0].mutable_unitext().set_phonemes("S V A R A");
  std::string bytes;
  ASSERT_TRUE(TupleCodec::Serialize(schema, row, &bytes).ok());
  Row out;
  // Every strict prefix must fail; none may crash or over-read.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(
        TupleCodec::Deserialize(schema, bytes.substr(0, cut), &out).ok())
        << "prefix of length " << cut << " decoded";
  }
  // Trailing garbage after a well-formed tuple must also be rejected.
  EXPECT_FALSE(TupleCodec::Deserialize(schema, bytes + "x", &out).ok());
}

TEST_P(FuzzSmokeTest, Utf8DecodersNeverCrash) {
  Rng rng(GetParam() ^ 0x9999ULL);
  for (int iter = 0; iter < 1000; ++iter) {
    const std::string bytes = RandomBytes(&rng, 64);
    const std::vector<CodePoint> lenient = utf8::Decode(bytes);
    EXPECT_LE(lenient.size(), bytes.size());
    (void)utf8::DecodeStrict(bytes);
    (void)utf8::Length(bytes);
    (void)utf8::IsValid(bytes);
  }
  SUCCEED();
}

// Distance kernels over arbitrary bytes: embedded NULs, invalid UTF-8,
// wildly different lengths.  The byte kernels must agree with each other
// on every input (they define the same function), and the code-point
// kernel must survive malformed sequences without crashing or over-reading.
TEST_P(FuzzSmokeTest, DistanceKernelsAgreeOnArbitraryBytes) {
  Rng rng(GetParam() ^ 0xd157ULL);
  for (int iter = 0; iter < 400; ++iter) {
    std::string a = RandomBytes(&rng, 100);
    std::string b = RandomBytes(&rng, 100);
    // Force embedded NULs into some iterations — the kernels take
    // string_view and must treat NUL as an ordinary symbol.
    if (iter % 3 == 0) {
      if (!a.empty()) a[rng.Uniform(a.size())] = '\0';
      b.push_back('\0');
    }
    const int ref = Levenshtein(a, b);
    ASSERT_EQ(MyersLevenshtein(a, b), ref);
    for (int k : {-1, 0, 1, 3, 7, 150}) {
      const int want = k < 0 ? 1 : (ref <= k ? ref : k + 1);
      ASSERT_EQ(BoundedDistanceCounted(a, b, k, nullptr), want)
          << "k=" << k << " ref=" << ref;
      BoundedMyersMatcher matcher(a, k);
      ASSERT_EQ(matcher.Distance(b, nullptr), want)
          << "k=" << k << " ref=" << ref;
      if (k >= 0) {
        ASSERT_EQ(BoundedLevenshtein(a, b, k), want) << "k=" << k;
        ASSERT_EQ(BoundedMyersLevenshtein(a, b, k), want) << "k=" << k;
      }
    }
    // The code-point kernel decodes leniently; it must neither crash nor
    // report a distance larger than the longer input's lenient length.
    const int cp = LevenshteinCodePoints(a, b);
    ASSERT_GE(cp, 0);
    ASSERT_LE(cp, static_cast<int>(std::max(a.size(), b.size())));
  }
  SUCCEED();
}

TEST_P(FuzzSmokeTest, UdfWireDecoderNeverCrashes) {
  Rng rng(GetParam() ^ 0x1234ULL);
  for (int iter = 0; iter < 500; ++iter) {
    (void)pl::UdfRuntime::DeserializeArgs(RandomBytes(&rng, 64));
  }
  SUCCEED();
}

// A valid UDF wire payload cut anywhere short of its end fails with
// Corruption: the count promises every argument, so each cut removes
// bytes the decoder must read.
TEST(UdfWireAdversarialTest, TruncatedPayloadsAreCorruption) {
  const std::string wire = pl::UdfRuntime::SerializeArgs(
      {pl::PlValue(), pl::PlValue(true), pl::PlValue(int64_t{-42}),
       pl::PlValue(2.5), pl::PlValue(std::string("svara"))});
  ASSERT_TRUE(pl::UdfRuntime::DeserializeArgs(ExactBuffer(wire).view()).ok());
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    const ExactBuffer prefix(std::string_view(wire).substr(0, cut));
    EXPECT_TRUE(
        pl::UdfRuntime::DeserializeArgs(prefix.view()).status().IsCorruption())
        << "prefix of length " << cut;
  }
}

// The lint toolchain (lexer -> declaration parser -> per-function CFGs ->
// all rules) must survive arbitrary bytes and adversarial C++ fragments:
// it runs on every build over whatever is in the tree, including files
// mid-edit.  Malformed input may produce fewer symbols or violations,
// never a crash, hang, or over-read.
TEST_P(FuzzSmokeTest, LintToolchainNeverCrashes) {
  Rng rng(GetParam() ^ 0x11A7ULL);
  const std::vector<std::string> vocab = {
      "if",     "else",  "for",    "while", "do",     "switch", "case",
      "default","break", "continue","return","throw", "{",      "}",
      "(",      ")",     ";",      ":",     "::",     "?",      ",",
      "=",      "==",    "<",      ">",     "&",      "&&",     "*",
      "enum",   "class", "struct", "const", "Status", "StatusOr",
      "ReadPageGuard",   "WritePageGuard",  "RowBatch",
      "MURAL_RETURN_IF_ERROR",    "MURAL_ASSIGN_OR_RETURN",
      "std",    "move",  "Release","abort", "true",   "0",      "42",
      "g",      "x",     "F",      "R\"(",  "\"",     "'"};
  for (int iter = 0; iter < 200; ++iter) {
    for (const std::string& src :
         {RandomBytes(&rng, 200), RandomTokenSoup(&rng, vocab, 60)}) {
      const lint::LexResult lexed = lint::Lex(src);
      const lint::FileSymbols syms =
          lint::ParseFileSymbols("src/fuzz/probe.cc", lexed);
      (void)lint::BuildCfgs(lexed, syms);
      (void)lint::LintFile("src/fuzz/probe.cc", src);
    }
  }
  SUCCEED();
}

// Hand-crafted adversarial fragments for the CFG builder: unbalanced
// braces, truncated raw strings, embedded NULs, a dangling else, case
// labels outside a switch, and statements with no terminating ';'.
TEST(LintAdversarialTest, MalformedCppDegradesWithoutCrashing) {
  const std::vector<std::string> malformed = {
      "void F() { if (x) { return; ",            // unbalanced braces
      "void F() { } } } }",                      // extra closers
      "void F() { auto s = R\"(unterminated",    // truncated raw string
      std::string("void F() { int x\0= 1; }", 23),  // embedded NUL
      "void F() { else { g.Release(); } }",      // dangling else
      "void F() { case 1: break; }",             // case outside switch
      "void F() { for (;;) }",                   // empty infinite for
      "void F() { do { } }",                     // do without while
      "Status F() { MURAL_ASSIGN_OR_RETURN(WritePageGuard",  // cut macro
      "void F() { a ? b : ; c ? ; }",            // mangled ternaries
      "enum class E { kA, = , kB };",            // mangled enumerators
      "switch (k) { case A::kX:",                // switch at file scope
  };
  for (const std::string& src : malformed) {
    const lint::LexResult lexed = lint::Lex(src);
    const lint::FileSymbols syms =
        lint::ParseFileSymbols("src/fuzz/probe.cc", lexed);
    const std::vector<lint::Cfg> cfgs = lint::BuildCfgs(lexed, syms);
    for (const lint::Cfg& cfg : cfgs) {
      // Whatever graph came out must be internally consistent.
      for (const lint::CfgBlock& b : cfg.blocks) {
        for (const int succ : b.succs) {
          ASSERT_GE(succ, 0);
          ASSERT_LT(static_cast<size_t>(succ), cfg.blocks.size());
        }
      }
    }
    (void)lint::LintFile("src/fuzz/probe.cc", src);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSmokeTest,
                         ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace mural
