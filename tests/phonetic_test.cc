// Tests for the phonetic layer: canonical alphabet, G2P engines, the
// transformer facade, and the cross-lingual convergence property LexEQUAL
// depends on (variant spellings of one name land on nearby phoneme
// strings).

#include <gtest/gtest.h>

#include <ostream>

#include "distance/edit_distance.h"
#include "phonetic/g2p_engine.h"
#include "phonetic/phoneme.h"
#include "phonetic/transformer.h"
#include "text/language.h"

namespace mural {
namespace {

// --------------------------------------------------------------- alphabet

TEST(PhonemeTest, AlphabetMembership) {
  EXPECT_TRUE(phoneme::IsPhoneme('a'));
  EXPECT_TRUE(phoneme::IsPhoneme('S'));
  EXPECT_TRUE(phoneme::IsPhoneme('@'));
  EXPECT_FALSE(phoneme::IsPhoneme(' '));
  EXPECT_FALSE(phoneme::IsPhoneme('!'));
  EXPECT_TRUE(phoneme::IsValidPhonemeString("nEru"));
  EXPECT_FALSE(phoneme::IsValidPhonemeString("n ru"));
  EXPECT_EQ(phoneme::ToDisplay("nEru"), "/nEru/");
}

TEST(PhonemeTest, VowelClassification) {
  for (char c : std::string("aeiouAEIOU@")) EXPECT_TRUE(phoneme::IsVowel(c));
  for (char c : std::string("pbtdkgSZ")) EXPECT_FALSE(phoneme::IsVowel(c));
}

// -------------------------------------------------------------- engines

TEST(G2pEngineTest, AllBuiltinRuleSetsEmitCanonicalPhonemes) {
  for (const G2pRuleSet* rules :
       {&EnglishRules(), &IndicRules(), &RomanceRules(), &GermanicRules()}) {
    G2pEngine engine(*rules, {});
    EXPECT_TRUE(engine.Validate().ok()) << rules->name;
  }
}

TEST(G2pEngineTest, LongestMatchWins) {
  // "sch" must apply before "s"+"ch" in the Germanic set.
  G2pEngine engine(GermanicRules(), {});
  EXPECT_EQ(engine.Transform("schmidt")[0], 'S');
}

TEST(G2pEngineTest, ContextRulesApply) {
  G2pEngine en(EnglishRules(), {});
  // Word-initial kn -> n.
  EXPECT_EQ(en.Transform("knight")[0], 'n');
  // Soft c before e/i, hard otherwise.
  EXPECT_EQ(en.Transform("cell")[0], 's');
  EXPECT_EQ(en.Transform("call")[0], 'k');
  // Silent final e.
  const PhonemeString blake = en.Transform("blake");
  EXPECT_EQ(blake.back(), 'k');
}

TEST(G2pEngineTest, OutputsAreDeterministic) {
  G2pEngine en(EnglishRules(), {});
  EXPECT_EQ(en.Transform("nehru"), en.Transform("nehru"));
  EXPECT_EQ(en.Transform("NEHRU"), en.Transform("nehru"));  // case folded
}

TEST(G2pEngineTest, NonLettersAreSkipped) {
  G2pEngine en(EnglishRules(), {});
  EXPECT_EQ(en.Transform("o'brien 3rd"), en.Transform("obrien rd"));
}

TEST(G2pEngineTest, CollapseRunsFoldsDoubledConsonants) {
  G2pEngine en(EnglishRules(), {});
  EXPECT_EQ(en.Transform("anna"), en.Transform("ana"));
}

// ------------------------------------------------------------ transformer

TEST(TransformerTest, DispatchesByLanguageFamily) {
  const PhoneticTransformer& t = PhoneticTransformer::Default();
  // German 'w' is /v/; English 'w' stays /w/.
  const PhonemeString de = t.Transform("wagner", lang::kGerman);
  const PhonemeString en = t.Transform("wagner", lang::kEnglish);
  EXPECT_EQ(de[0], 'v');
  EXPECT_EQ(en[0], 'w');
}

TEST(TransformerTest, UnknownLanguageFallsBackDeterministically) {
  const PhoneticTransformer& t = PhoneticTransformer::Default();
  EXPECT_EQ(t.Transform("smith", 999),
            t.Transform("smith", lang::kEnglish));
}

TEST(TransformerTest, MaterializationIsUsedWhenPresent) {
  const PhoneticTransformer& t = PhoneticTransformer::Default();
  UniText u("nehru", lang::kEnglish);
  t.Materialize(&u);
  ASSERT_TRUE(u.has_phonemes());
  const PhonemeString direct = t.Transform("nehru", lang::kEnglish);
  EXPECT_EQ(*u.phonemes(), direct);
  // A (deliberately wrong) materialized value short-circuits transform —
  // proving the cached string is what joins will read.
  u.set_phonemes("xxx");
  EXPECT_EQ(t.Transform(u), "xxx");
}

TEST(TransformerTest, OutputsAreAlwaysCanonical) {
  const PhoneticTransformer& t = PhoneticTransformer::Default();
  const char* samples[] = {"nehru",   "chaudhary", "krishnamurthy",
                           "rousseau", "schmidt",  "o'connor",
                           "tchaikovsky", "bhattacharya"};
  for (LangId lang : {lang::kEnglish, lang::kHindi, lang::kTamil,
                      lang::kKannada, lang::kFrench, lang::kGerman}) {
    for (const char* s : samples) {
      EXPECT_TRUE(phoneme::IsValidPhonemeString(t.Transform(s, lang)))
          << s << " lang=" << lang;
    }
  }
}

// --------------------------------------------- cross-lingual convergence

struct ConvergenceCase {
  const char* a;
  LangId lang_a;
  const char* b;
  LangId lang_b;
  int max_distance;  // phonemic distance budget (paper threshold ~2-3)
};

// Print a case by its spellings. The default printer dumps the raw struct
// bytes, pointers included, so the listed test names would change from run
// to run.
void PrintTo(const ConvergenceCase& c, std::ostream* os) {
  *os << c.a << "_" << c.b;
}

class ConvergenceTest : public ::testing::TestWithParam<ConvergenceCase> {};

TEST_P(ConvergenceTest, VariantSpellingsArePhonemicallyClose) {
  const ConvergenceCase& c = GetParam();
  const PhoneticTransformer& t = PhoneticTransformer::Default();
  const PhonemeString pa = t.Transform(c.a, c.lang_a);
  const PhonemeString pb = t.Transform(c.b, c.lang_b);
  EXPECT_LE(Levenshtein(pa, pb), c.max_distance)
      << c.a << " -> /" << pa << "/ vs " << c.b << " -> /" << pb << "/";
}

INSTANTIATE_TEST_SUITE_P(
    NameVariants, ConvergenceTest,
    ::testing::Values(
        // The paper's running example: Nehru across languages.
        ConvergenceCase{"nehru", lang::kEnglish, "nehrU", lang::kHindi, 2},
        ConvergenceCase{"nehru", lang::kEnglish, "neharu", lang::kTamil, 2},
        // English spelling variants.
        ConvergenceCase{"smith", lang::kEnglish, "smyth", lang::kEnglish, 1},
        ConvergenceCase{"philip", lang::kEnglish, "filip", lang::kEnglish,
                        1},
        ConvergenceCase{"catherine", lang::kEnglish, "katherine",
                        lang::kEnglish, 1},
        // Cross-family: German/English renderings.
        ConvergenceCase{"schmidt", lang::kGerman, "shmit", lang::kEnglish,
                        1},
        // Indic romanization variants.
        ConvergenceCase{"chaudhary", lang::kHindi, "choudhury",
                        lang::kHindi, 2},
        ConvergenceCase{"lakshmi", lang::kHindi, "laxmi", lang::kHindi, 1},
        ConvergenceCase{"krishna", lang::kKannada, "krishnaa",
                        lang::kKannada, 1}));

// Distinct names must stay apart (no degenerate collapse to one string).
TEST(ConvergenceTest, DistinctNamesStayApart) {
  const PhoneticTransformer& t = PhoneticTransformer::Default();
  const PhonemeString nehru = t.Transform("nehru", lang::kEnglish);
  const PhonemeString gandhi = t.Transform("gandhi", lang::kEnglish);
  const PhonemeString patel = t.Transform("patel", lang::kEnglish);
  EXPECT_GT(Levenshtein(nehru, gandhi), 3);
  EXPECT_GT(Levenshtein(nehru, patel), 3);
  EXPECT_GT(Levenshtein(gandhi, patel), 3);
}

// ---------------------------------------------------------- languages

TEST(LanguageRegistryTest, DefaultLanguagesPresent) {
  LanguageRegistry& reg = LanguageRegistry::Default();
  ASSERT_NE(reg.Find(lang::kEnglish), nullptr);
  EXPECT_EQ(reg.Find(lang::kEnglish)->iso_code, "en");
  EXPECT_EQ(reg.FindByName("tamil")->id, lang::kTamil);
  EXPECT_EQ(reg.FindByName("HI")->id, lang::kHindi);
  EXPECT_EQ(reg.Find(kLangUnknown), nullptr);
  EXPECT_EQ(reg.NameOf(999), "lang#999");
}

TEST(LanguageRegistryTest, RegistrationValidation) {
  LanguageRegistry reg;  // fresh copy with defaults
  EXPECT_TRUE(reg.Register({42, "Klingon", "tlh", Script::kOther,
                            G2pFamily::kNone})
                  .ok());
  EXPECT_TRUE(reg.Register({42, "Qlingon", "qq", Script::kOther,
                            G2pFamily::kNone})
                  .IsInvalidArgument() ||
              !reg.Register({42, "Qlingon", "qq", Script::kOther,
                             G2pFamily::kNone})
                   .ok());
  EXPECT_FALSE(
      reg.Register({0, "Zero", "zz", Script::kOther, G2pFamily::kNone})
          .ok());
  EXPECT_FALSE(reg.Register({43, "English", "en2", Script::kLatin,
                             G2pFamily::kNone})
                   .ok());
}

}  // namespace
}  // namespace mural
