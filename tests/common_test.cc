// Unit tests for the common substrate: Status/StatusOr, Slice, coding,
// RNG, hashing, UTF-8, string utilities.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/coding.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/utf8.h"

namespace mural {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing widget");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing widget");
  EXPECT_EQ(s.ToString(), "NotFound: missing widget");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Corruption("x").code(), StatusCode::kCorruption);
  EXPECT_EQ(Status::NotSupported("x").code(), StatusCode::kNotSupported);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
}

StatusOr<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Status UseParse(int v, int* out) {
  MURAL_ASSIGN_OR_RETURN(*out, ParsePositive(v));
  return Status::OK();
}

TEST(StatusOrTest, ValueAndErrorPaths) {
  StatusOr<int> ok = ParsePositive(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);

  StatusOr<int> err = ParsePositive(-1);
  ASSERT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsInvalidArgument());
}

TEST(StatusOrTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseParse(7, &out).ok());
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(UseParse(-7, &out).ok());
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> s(std::make_unique<int>(42));
  ASSERT_TRUE(s.ok());
  std::unique_ptr<int> v = std::move(s).value();
  EXPECT_EQ(*v, 42);
}

// ----------------------------------------------------------------- Slice

TEST(SliceTest, BasicViews) {
  std::string backing = "hello world";
  Slice s(backing);
  EXPECT_EQ(s.size(), 11u);
  EXPECT_EQ(s.ToString(), backing);
  EXPECT_TRUE(s.StartsWith("hello"));
  EXPECT_FALSE(s.StartsWith("world"));
  s.RemovePrefix(6);
  EXPECT_EQ(s.ToString(), "world");
}

TEST(SliceTest, CompareOrdersLikeBytesThenLength) {
  EXPECT_LT(Slice("abc").Compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").Compare(Slice("abc")), 0);
  EXPECT_LT(Slice("ab").Compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").Compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("a") < Slice("b"));
  EXPECT_TRUE(Slice("") == Slice(""));
}

// ---------------------------------------------------------------- Coding

TEST(CodingTest, RoundTripAllWidths) {
  std::string buf;
  PutU8(&buf, 0xAB);
  PutU16(&buf, 0xBEEF);
  PutU32(&buf, 0xDEADBEEFu);
  PutU64(&buf, 0x0123456789ABCDEFull);
  PutF64(&buf, 3.25);
  PutLengthPrefixed(&buf, "payload");

  Decoder dec(buf);
  const uint8_t u8 = dec.U8();
  ASSERT_TRUE(dec.ok());
  const uint16_t u16 = dec.U16();
  ASSERT_TRUE(dec.ok());
  const uint32_t u32 = dec.U32();
  ASSERT_TRUE(dec.ok());
  const uint64_t u64 = dec.U64();
  ASSERT_TRUE(dec.ok());
  const double f64 = dec.F64();
  ASSERT_TRUE(dec.ok());
  const std::string_view str = dec.LengthPrefixed();
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(f64, 3.25);
  EXPECT_EQ(str, "payload");
  EXPECT_TRUE(dec.AtEnd());
}

TEST(CodingTest, TruncatedReadsFailCleanly) {
  std::string buf;
  PutU32(&buf, 100);  // claims a 100-byte string follows, but none does
  Decoder dec2(buf);
  EXPECT_TRUE(dec2.LengthPrefixed().empty());
  EXPECT_FALSE(dec2.ok());

  Decoder dec3("");
  EXPECT_EQ(dec3.U64(), 0u);
  EXPECT_TRUE(dec3.status().IsCorruption());
}

TEST(CodingTest, FirstShortReadLatches) {
  std::string buf;
  PutU16(&buf, 7);
  PutU8(&buf, 9);
  Decoder dec(buf);
  EXPECT_EQ(dec.U16(), 7u);
  EXPECT_EQ(dec.U32(), 0u);  // 1 byte left: fails and latches
  EXPECT_FALSE(dec.ok());
  // The byte that is still there is no longer readable, the cursor does
  // not move, and the status keeps naming the first failed read.
  EXPECT_EQ(dec.U8(), 0u);
  EXPECT_TRUE(dec.LengthPrefixed().empty());
  dec.Skip(1);
  EXPECT_EQ(dec.remaining(), 0u);
  const Status st = dec.status();
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("u32 at offset 2"), std::string::npos)
      << st.message();
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  bool all_equal = true, any_diff_seed_differs = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next(), vb = b.Next(), vc = c.Next();
    all_equal &= (va == vb);
    any_diff_seed_differs |= (va != vc);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed_differs);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(ZipfTest, SkewPrefersLowRanks) {
  ZipfGenerator zipf(1000, 1.0, 7);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Next()];
  // Rank 0 must be sampled far more often than rank 500.
  EXPECT_GT(counts[0], counts[500] * 5);
}

TEST(ZipfTest, ZeroSkewIsRoughlyUniform) {
  ZipfGenerator zipf(10, 0.0, 7);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Next()];
  for (const auto& [rank, count] : counts) {
    EXPECT_NEAR(count, 5000, 600) << "rank " << rank;
  }
}

// ------------------------------------------------------------------ Hash

TEST(HashTest, StableAndSpread) {
  EXPECT_EQ(Hash64("abc"), Hash64("abc"));
  EXPECT_NE(Hash64("abc"), Hash64("abd"));
  EXPECT_NE(Hash64("abc"), Hash64("abc", /*seed=*/1));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// ------------------------------------------------------------------ UTF8

TEST(Utf8Test, EncodeDecodeRoundTripAllRanges) {
  const std::vector<CodePoint> cps = {
      0x24, 0xA2, 0x939, 0x20AC, 0x10348, 0x10FFFF};
  const std::string encoded = utf8::Encode(cps);
  EXPECT_TRUE(utf8::IsValid(encoded));
  const std::vector<CodePoint> decoded = utf8::Decode(encoded);
  EXPECT_EQ(decoded, cps);
  EXPECT_EQ(utf8::Length(encoded), cps.size());
}

TEST(Utf8Test, RejectsMalformedSequences) {
  // Overlong encoding of '/': 0xC0 0xAF.
  EXPECT_FALSE(utf8::IsValid(std::string("\xC0\xAF", 2)));
  // Lone continuation byte.
  EXPECT_FALSE(utf8::IsValid(std::string("\x80", 1)));
  // Truncated 3-byte sequence.
  EXPECT_FALSE(utf8::IsValid(std::string("\xE0\xA0", 2)));
  // Surrogate half U+D800 = ED A0 80.
  EXPECT_FALSE(utf8::IsValid(std::string("\xED\xA0\x80", 3)));
}

TEST(Utf8Test, LenientDecodeReplacesMalformed) {
  const std::vector<CodePoint> decoded =
      utf8::Decode(std::string("a\x80z", 3));
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[0], static_cast<CodePoint>('a'));
  EXPECT_EQ(decoded[1], kReplacementChar);
  EXPECT_EQ(decoded[2], static_cast<CodePoint>('z'));
}

TEST(Utf8Test, StrictDecodeAcceptsGenuineReplacementChar) {
  std::string s;
  utf8::Append(kReplacementChar, &s);
  EXPECT_TRUE(utf8::DecodeStrict(s).ok());
}

TEST(Utf8Test, AsciiLowerLeavesNonAsciiAlone) {
  std::string devanagari;
  utf8::Append(0x939, &devanagari);
  EXPECT_EQ(utf8::AsciiLower("AbC" + devanagari), "abc" + devanagari);
}

// ----------------------------------------------------------- StringUtil

TEST(StringUtilTest, SplitAndJoin) {
  const std::vector<std::string> parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Join(parts, "|"), "a|b||c");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, FormatTrimEquals) {
  EXPECT_EQ(StringFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(Trim("  hi\t\n"), "hi");
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_FALSE(EqualsIgnoreCase("SELECT", "selec"));
}

}  // namespace
}  // namespace mural
