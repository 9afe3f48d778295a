// Tests for the edit-distance algorithms, including the metric-axiom
// property suite the M-Tree's pruning correctness rests on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "distance/bounded_myers.h"
#include "distance/edit_distance.h"
#include "phonetic/phoneme.h"

namespace mural {
namespace {

// ------------------------------------------------------------ known cases

TEST(LevenshteinTest, KnownValues) {
  EXPECT_EQ(Levenshtein("", ""), 0);
  EXPECT_EQ(Levenshtein("abc", ""), 3);
  EXPECT_EQ(Levenshtein("", "abc"), 3);
  EXPECT_EQ(Levenshtein("kitten", "sitting"), 3);
  EXPECT_EQ(Levenshtein("flaw", "lawn"), 2);
  EXPECT_EQ(Levenshtein("intention", "execution"), 5);
  EXPECT_EQ(Levenshtein("same", "same"), 0);
  EXPECT_EQ(Levenshtein("a", "b"), 1);
}

TEST(BoundedLevenshteinTest, ExactWhenWithinThreshold) {
  EXPECT_EQ(BoundedLevenshtein("kitten", "sitting", 3), 3);
  EXPECT_EQ(BoundedLevenshtein("kitten", "sitting", 5), 3);
  EXPECT_EQ(BoundedLevenshtein("same", "same", 0), 0);
}

TEST(BoundedLevenshteinTest, CapsWhenExceeded) {
  EXPECT_EQ(BoundedLevenshtein("kitten", "sitting", 2), 3);  // k+1
  EXPECT_EQ(BoundedLevenshtein("abcdefgh", "zzzzzzzz", 3), 4);
  // Length-difference shortcut.
  EXPECT_EQ(BoundedLevenshtein("a", "abcdefgh", 2), 3);
}

TEST(BoundedLevenshteinTest, NegativeThreshold) {
  EXPECT_FALSE(WithinDistance("a", "a", -1));
  EXPECT_TRUE(WithinDistance("a", "a", 0));
}

TEST(MyersTest, MatchesReferenceOnKnownCases) {
  EXPECT_EQ(MyersLevenshtein("kitten", "sitting"), 3);
  EXPECT_EQ(MyersLevenshtein("", "abc"), 3);
  EXPECT_EQ(MyersLevenshtein("intention", "execution"), 5);
}

TEST(CodePointTest, MultibyteCharactersCountOnce) {
  // Devanagari "naa" vs "na": one code point apart though several bytes.
  std::string na, naa;
  utf8::Append(0x928, &na);           // NA
  utf8::Append(0x928, &naa);
  utf8::Append(0x93E, &naa);          // AA matra
  EXPECT_EQ(LevenshteinCodePoints(na, naa), 1);
  // Byte-level distance would be 3 (the matra is 3 bytes).
  EXPECT_EQ(Levenshtein(na, naa), 3);
}

TEST(DistanceStatsTest, CountsCallsAndCells) {
  DistanceStats stats;
  BoundedLevenshteinCounted("kitten", "sitting", 3, &stats);
  BoundedLevenshteinCounted("abc", "abd", 1, &stats);
  EXPECT_EQ(stats.calls, 2u);
  EXPECT_GT(stats.cells, 0u);
  stats.Reset();
  EXPECT_EQ(stats.calls, 0u);
}

// ---------------------------------------------------- randomized equality

std::string RandomPhonemeString(Rng* rng, size_t max_len) {
  const size_t len = rng->Uniform(max_len + 1);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(phoneme::kAlphabet[rng->Uniform(phoneme::kAlphabet.size())]);
  }
  return s;
}

class RandomizedDistanceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomizedDistanceTest, AllAlgorithmsAgree) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    const std::string a = RandomPhonemeString(&rng, 24);
    const std::string b = RandomPhonemeString(&rng, 24);
    const int ref = Levenshtein(a, b);
    EXPECT_EQ(MyersLevenshtein(a, b), ref) << a << " / " << b;
    for (int k : {0, 1, 2, 3, 5, 30}) {
      const int bounded = BoundedLevenshtein(a, b, k);
      if (ref <= k) {
        EXPECT_EQ(bounded, ref) << a << " / " << b << " k=" << k;
      } else {
        EXPECT_EQ(bounded, k + 1) << a << " / " << b << " k=" << k;
      }
      EXPECT_EQ(WithinDistance(a, b, k), ref <= k);
    }
  }
}

TEST_P(RandomizedDistanceTest, MetricAxiomsHold) {
  Rng rng(GetParam() ^ 0xfeedULL);
  for (int iter = 0; iter < 100; ++iter) {
    const std::string a = RandomPhonemeString(&rng, 16);
    const std::string b = RandomPhonemeString(&rng, 16);
    const std::string c = RandomPhonemeString(&rng, 16);
    const int dab = Levenshtein(a, b);
    const int dba = Levenshtein(b, a);
    const int dac = Levenshtein(a, c);
    const int dcb = Levenshtein(c, b);
    // Identity of indiscernibles.
    EXPECT_EQ(Levenshtein(a, a), 0);
    EXPECT_EQ(dab == 0, a == b);
    // Symmetry.
    EXPECT_EQ(dab, dba);
    // Triangle inequality — what the M-Tree prunes with.
    EXPECT_LE(dab, dac + dcb);
    // Non-negativity and length bounds.
    EXPECT_GE(dab, std::abs(static_cast<int>(a.size()) -
                            static_cast<int>(b.size())));
    EXPECT_LE(dab, static_cast<int>(std::max(a.size(), b.size())));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedDistanceTest,
                         ::testing::Values(1, 2, 3, 42, 1337));

// Long strings exercise the >64-phoneme fallback in Myers.
TEST(MyersTest, LongStringsFallBackCorrectly) {
  Rng rng(99);
  const std::string a = RandomPhonemeString(&rng, 200);
  std::string b = a;
  if (b.size() > 10) b.erase(3, 4);
  b += "abc";
  EXPECT_EQ(MyersLevenshtein(a, b), Levenshtein(a, b));
}

// ------------------------------------------------ kernel equivalence harness
//
// The batch pipeline's production kernel (BoundedMyersLevenshtein and the
// BoundedDistanceCounted dispatcher in front of it) must be bit-for-bit
// interchangeable with the DP references.  Proven three ways: exhaustively
// on a small alphabet, at the 64-bit block boundaries, and on randomized
// long phoneme strings.

// Checks every kernel against the O(m*n) reference for one pair and one
// threshold.  `ref` is Levenshtein(a, b), precomputed by the caller.
void CheckKernelsAgree(const std::string& a, const std::string& b, int ref,
                       int k) {
  const int want = ref <= k ? ref : k + 1;
  EXPECT_EQ(BoundedLevenshtein(a, b, k), want)
      << a << " / " << b << " k=" << k;
  EXPECT_EQ(BoundedMyersLevenshtein(a, b, k), want)
      << a << " / " << b << " k=" << k;
  EXPECT_EQ(BoundedDistanceCounted(a, b, k, nullptr), want)
      << a << " / " << b << " k=" << k;
  BoundedMyersMatcher matcher(a, k);
  EXPECT_EQ(matcher.Distance(b, nullptr), want)
      << a << " / " << b << " k=" << k;
}

// All pairs of binary-alphabet strings up to length 9, every informative
// threshold.  2^0 + ... + 2^9 = 1023 strings, ~1.05M pairs.
TEST(KernelEquivalenceTest, ExhaustiveUpToLengthNine) {
  std::vector<std::string> strings;
  for (int len = 0; len <= 9; ++len) {
    for (uint32_t bits = 0; bits < (1u << len); ++bits) {
      std::string s(len, 'a');
      for (int i = 0; i < len; ++i) {
        if ((bits >> i) & 1u) s[i] = 'b';
      }
      strings.push_back(std::move(s));
    }
  }
  ASSERT_EQ(strings.size(), 1023u);
  for (const std::string& a : strings) {
    for (const std::string& b : strings) {
      const int ref = Levenshtein(a, b);
      ASSERT_EQ(MyersLevenshtein(a, b), ref) << a << " / " << b;
      for (int k : {0, 1, 2, 4, 9}) {
        const int want = ref <= k ? ref : k + 1;
        ASSERT_EQ(BoundedMyersLevenshtein(a, b, k), want)
            << a << " / " << b << " k=" << k;
        ASSERT_EQ(BoundedLevenshtein(a, b, k), want)
            << a << " / " << b << " k=" << k;
        BoundedMyersMatcher matcher(a, k);
        ASSERT_EQ(matcher.Distance(b, nullptr), want)
            << a << " / " << b << " k=" << k;
      }
    }
  }
}

// Pattern lengths straddling the one-word/block-based boundary (63/64/65)
// and the two/three-block boundary (127/128/129).
TEST(KernelEquivalenceTest, BlockBoundaryLengths) {
  Rng rng(0xb10cULL);
  for (size_t len : {63u, 64u, 65u, 127u, 128u, 129u}) {
    for (int variant = 0; variant < 8; ++variant) {
      std::string a;
      a.reserve(len);
      for (size_t i = 0; i < len; ++i) {
        a.push_back(
            phoneme::kAlphabet[rng.Uniform(phoneme::kAlphabet.size())]);
      }
      // Mutate a copy: substitutions, an insertion, and a deletion placed
      // at the ends and at the word boundary.
      std::string b = a;
      b[0] = b[0] == 'a' ? 'b' : 'a';
      b[len / 2] = b[len / 2] == 'k' ? 'm' : 'k';
      b.insert(std::min<size_t>(63, b.size()), 1, 'z');
      b.erase(b.size() - 1, 1);
      const int ref = Levenshtein(a, b);
      EXPECT_EQ(MyersLevenshtein(a, b), ref) << "len=" << len;
      for (int k : {0, 1, ref - 1, ref, ref + 1, 2 * ref + 3}) {
        if (k < 0) continue;
        CheckKernelsAgree(a, b, ref, k);
      }
      // Also the self pair and the empty-vs-long pair at this length.
      CheckKernelsAgree(a, a, 0, variant);
      CheckKernelsAgree(a, "", static_cast<int>(len), variant);
    }
  }
}

// Randomized long phoneme strings (>= 64 phonemes, i.e. the multi-block
// path) against the banded DP reference.
TEST_P(RandomizedDistanceTest, BoundedMyersAgreesOnLongStrings) {
  Rng rng(GetParam() * 0x9e3779b97f4a7c15ULL + 1);
  for (int iter = 0; iter < 60; ++iter) {
    const size_t len_a = 64 + rng.Uniform(120);
    std::string a;
    for (size_t i = 0; i < len_a; ++i) {
      a.push_back(phoneme::kAlphabet[rng.Uniform(phoneme::kAlphabet.size())]);
    }
    // b: a with a random number of edits, so small thresholds are
    // informative instead of always saturating.
    std::string b = a;
    const size_t edits = rng.Uniform(8);
    for (size_t e = 0; e < edits && !b.empty(); ++e) {
      const size_t pos = rng.Uniform(b.size());
      switch (rng.Uniform(3)) {
        case 0: b[pos] = phoneme::kAlphabet[rng.Uniform(
                    phoneme::kAlphabet.size())]; break;
        case 1: b.erase(pos, 1); break;
        default: b.insert(pos, 1, 'q'); break;
      }
    }
    const int ref = Levenshtein(a, b);
    EXPECT_EQ(MyersLevenshtein(a, b), ref);
    for (int k : {0, 1, 2, 5, 9, 200}) {
      CheckKernelsAgree(a, b, ref, k);
    }
  }
}

// ------------------------------------------------- metric axioms per kernel

// Random UTF-8 string mixing ASCII, Devanagari, and CJK code points —
// multi-byte sequences stress the code-point kernel's decoder.
std::string RandomUtf8String(Rng* rng, size_t max_points) {
  static constexpr uint32_t kRanges[][2] = {
      {0x61, 0x7A},       // ASCII letters
      {0x905, 0x939},     // Devanagari
      {0x4E00, 0x4E80},   // CJK
  };
  const size_t n = rng->Uniform(max_points + 1);
  std::string s;
  for (size_t i = 0; i < n; ++i) {
    const auto& r = kRanges[rng->Uniform(3)];
    utf8::Append(r[0] + static_cast<uint32_t>(rng->Uniform(r[1] - r[0] + 1)),
                 &s);
  }
  return s;
}

// Every exact kernel is a metric; the axiom suite runs once per kernel so
// a regression pinpoints which implementation broke.
struct NamedKernel {
  const char* name;
  int (*fn)(std::string_view, std::string_view);
};

int ExactViaBounded(std::string_view a, std::string_view b) {
  const int cap = static_cast<int>(std::max(a.size(), b.size()));
  return BoundedLevenshtein(a, b, cap);
}
int ExactViaBoundedMyers(std::string_view a, std::string_view b) {
  const int cap = static_cast<int>(std::max(a.size(), b.size()));
  return BoundedMyersLevenshtein(a, b, cap);
}
int ExactViaDispatcher(std::string_view a, std::string_view b) {
  const int cap = static_cast<int>(std::max(a.size(), b.size()));
  return BoundedDistanceCounted(a, b, cap, nullptr);
}
int ExactViaMatcher(std::string_view a, std::string_view b) {
  const int cap = static_cast<int>(std::max(a.size(), b.size()));
  BoundedMyersMatcher matcher(a, cap);
  return matcher.Distance(b, nullptr);
}

TEST_P(RandomizedDistanceTest, MetricAxiomsHoldForEveryKernel) {
  static constexpr NamedKernel kKernels[] = {
      {"Levenshtein", Levenshtein},
      {"Myers", MyersLevenshtein},
      {"BoundedDP", ExactViaBounded},
      {"BoundedMyers", ExactViaBoundedMyers},
      {"Dispatcher", ExactViaDispatcher},
      {"Matcher", ExactViaMatcher},
      {"CodePoints", LevenshteinCodePoints},
  };
  Rng rng(GetParam() ^ 0xa11ce5ULL);
  for (const NamedKernel& kernel : kKernels) {
    for (int iter = 0; iter < 40; ++iter) {
      // Phoneme inputs for all kernels; UTF-8 inputs additionally stress
      // the code-point kernel (byte kernels treat them as byte strings —
      // still a metric, just over a different alphabet).
      const bool utf8_inputs = (iter % 2) == 1;
      const std::string a = utf8_inputs ? RandomUtf8String(&rng, 12)
                                        : RandomPhonemeString(&rng, 20);
      const std::string b = utf8_inputs ? RandomUtf8String(&rng, 12)
                                        : RandomPhonemeString(&rng, 20);
      const std::string c = utf8_inputs ? RandomUtf8String(&rng, 12)
                                        : RandomPhonemeString(&rng, 20);
      const int dab = kernel.fn(a, b);
      SCOPED_TRACE(std::string(kernel.name) + ": \"" + a + "\" / \"" + b +
                   "\" / \"" + c + "\"");
      EXPECT_EQ(kernel.fn(a, a), 0);
      EXPECT_EQ(dab == 0, a == b);
      EXPECT_EQ(dab, kernel.fn(b, a));
      EXPECT_LE(dab, kernel.fn(a, c) + kernel.fn(c, b));
      EXPECT_GE(dab, 0);
    }
  }
}

// ----------------------------------------------------- effort accounting

TEST(DistanceStatsTest, BoundedMyersCountsWordOps) {
  DistanceStats stats;
  BoundedMyersLevenshteinCounted("kitten", "sitting", 3, &stats);
  EXPECT_EQ(stats.calls, 1u);
  EXPECT_GT(stats.word_ops, 0u);
  // Word-ops mirror into cells so cross-kernel effort reports compare.
  EXPECT_EQ(stats.cells, stats.word_ops);
  // One word-op per column on a one-word pattern: at most |b| columns.
  EXPECT_LE(stats.word_ops, 7u);
}

TEST(DistanceStatsTest, DispatcherCountingRules) {
  DistanceStats stats;
  // k < 0: rejected before any counting.
  EXPECT_EQ(BoundedDistanceCounted("a", "a", -1, &stats), 1);
  EXPECT_EQ(stats.calls, 0u);
  // k == 0: an equality compare still counts as one call, no word-ops.
  EXPECT_EQ(BoundedDistanceCounted("abc", "abc", 0, &stats), 0);
  EXPECT_EQ(BoundedDistanceCounted("abc", "abd", 0, &stats), 1);
  EXPECT_EQ(stats.calls, 2u);
  EXPECT_EQ(stats.word_ops, 0u);
  // k > 0: the bit-parallel kernel runs and counts word-ops.
  EXPECT_EQ(BoundedDistanceCounted("kitten", "sitting", 3, &stats), 3);
  EXPECT_EQ(stats.calls, 3u);
  EXPECT_GT(stats.word_ops, 0u);
  // A null stats pointer is allowed everywhere.
  EXPECT_EQ(BoundedDistanceCounted("kitten", "sitting", 2, nullptr), 3);
}

// The prepared matcher must mirror the dispatcher's counting rules
// call-for-call, since the Psi operators' stats (matcher-based) are
// compared against the generic Filter plan's dispatcher-based stats.
TEST(DistanceStatsTest, MatcherMirrorsDispatcherCounting) {
  {
    // k < 0: rejected before any counting.
    DistanceStats stats;
    BoundedMyersMatcher matcher("a", -1);
    EXPECT_EQ(matcher.Distance("a", &stats), 1);
    EXPECT_EQ(stats.calls, 0u);
  }
  {
    // k == 0: an equality compare still counts as one call, no word-ops.
    DistanceStats stats;
    BoundedMyersMatcher matcher("abc", 0);
    EXPECT_EQ(matcher.Distance("abc", &stats), 0);
    EXPECT_EQ(matcher.Distance("abd", &stats), 1);
    EXPECT_EQ(stats.calls, 2u);
    EXPECT_EQ(stats.word_ops, 0u);
  }
  {
    // k > 0: the column loop runs and counts word-ops; a length-diff
    // shortcut counts the call but no word-ops, like the dispatcher.
    DistanceStats stats;
    BoundedMyersMatcher matcher("kitten", 3);
    EXPECT_EQ(matcher.Distance("sitting", &stats), 3);
    EXPECT_EQ(stats.calls, 1u);
    EXPECT_GT(stats.word_ops, 0u);
    EXPECT_EQ(stats.cells, stats.word_ops);
    const uint64_t after_kernel = stats.word_ops;
    EXPECT_EQ(matcher.Distance("kitten-kaboodles", &stats), 4);
    EXPECT_EQ(stats.calls, 2u);
    EXPECT_EQ(stats.word_ops, after_kernel);
    EXPECT_EQ(matcher.Distance("mitten", nullptr), 1);  // null stats OK
  }
}

// A block-form matcher (pattern > 64 phonemes) must reset its carry
// scratch between calls: interleave near and far texts and expect the
// same answers as fresh dispatcher calls every time.
TEST(DistanceStatsTest, MatcherScratchResetsAcrossCalls) {
  std::string pattern(100, 'a');
  std::string near = pattern;
  near[3] = 'b';
  const std::string far(100, 'z');
  BoundedMyersMatcher matcher(pattern, 2);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(matcher.Distance(pattern, nullptr), 0) << round;
    EXPECT_EQ(matcher.Distance(near, nullptr), 1) << round;
    EXPECT_EQ(matcher.Distance(far, nullptr), 3) << round;
  }
}

// The cut-off must terminate early, not just cap the result: wildly
// different long strings at k=1 should cost far fewer word-ops than the
// full matrix.
TEST(DistanceStatsTest, CutOffLimitsWork) {
  std::string a(128, 'a');
  std::string b(128, 'z');
  DistanceStats stats;
  EXPECT_EQ(BoundedMyersLevenshteinCounted(a, b, 1, &stats), 2);
  // Full matrix would be 128 columns x 2 blocks = 256 word-ops.
  EXPECT_LT(stats.word_ops, 32u);
}

}  // namespace
}  // namespace mural
