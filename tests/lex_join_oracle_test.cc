// Independent oracle for the Psi join.  LexJoinOp verifies only the pairs
// its pigeonhole index admits; a brute-force nested loop over every outer x
// inner pair under the unbounded reference Levenshtein must find exactly
// the same rows, in the same order (outer order, then inner order), at
// every threshold k in {0..5}, DOP in {1, 2, 4, 8} and tag_distance
// setting.  The inputs cover the filter's edge cases: NULL keys on both
// sides, empty phoneme strings, keys shorter than k+1, keys longer than
// 64 phonemes (the block kernel), duplicate keys, and an inner side whose
// lengths are skewed into one bucket.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/name_generator.h"
#include "distance/edit_distance.h"
#include "exec/basic_ops.h"
#include "exec/mural_ops.h"
#include "phonetic/phoneme_cache.h"
#include "phonetic/transformer.h"

namespace mural {
namespace {

constexpr int kDops[] = {1, 2, 4, 8};
constexpr int kMaxThreshold = 5;

Schema KeySchema() {
  return Schema({{"id", TypeId::kInt32}, {"name", TypeId::kUniText}});
}

// A row whose key carries `phonemes` materialized, so the join reads them
// exactly as given.
Row PhonemeRow(int32_t id, std::string phonemes) {
  UniText name("k" + std::to_string(id), lang::kEnglish);
  name.set_phonemes(std::move(phonemes));
  return {Value::Int32(id), Value::Uni(std::move(name))};
}

Row NullRow(int32_t id) { return {Value::Int32(id), Value::Null()}; }

std::string RandomString(size_t len, std::string_view alphabet, Rng* rng) {
  std::string s;
  for (size_t i = 0; i < len; ++i) s += alphabet[rng->Uniform(alphabet.size())];
  return s;
}

// `edits` random single-phoneme substitutions, insertions and deletions
// (substitutions only when `keep_length`).
std::string Mutate(std::string s, int edits, std::string_view alphabet,
                   bool keep_length, Rng* rng) {
  for (int e = 0; e < edits; ++e) {
    const char c = alphabet[rng->Uniform(alphabet.size())];
    const uint64_t op = keep_length ? 0 : rng->Uniform(3);
    if (op == 1 || s.empty()) {
      s.insert(s.begin() + static_cast<long>(rng->Uniform(s.size() + 1)), c);
    } else if (op == 2) {
      s.erase(rng->Uniform(s.size()), 1);
    } else {
      s[rng->Uniform(s.size())] = c;
    }
  }
  return s;
}

struct Sides {
  std::vector<Row> outer, inner;
};

// Keys over a six-phoneme alphabet, so near pairs are common at every k.
Sides EdgeCaseSides(uint64_t seed) {
  constexpr std::string_view kAlpha = "aeiptk";
  Rng rng(seed);
  std::vector<std::string> bases = {"", "a", "pa", "tik", "kapi", "eatp"};
  for (int i = 0; i < 12; ++i) {
    bases.push_back(RandomString(rng.UniformInt(6, 20), kAlpha, &rng));
  }
  for (int i = 0; i < 4; ++i) {
    bases.push_back(RandomString(rng.UniformInt(65, 90), kAlpha, &rng));
  }
  const std::string skew_base = RandomString(9, kAlpha, &rng);

  Sides sides;
  int32_t id = 0;
  auto add = [&id](std::vector<Row>* side, std::string phonemes) {
    // Every 7th row has a NULL key instead.
    if (id % 7 == 3) side->push_back(NullRow(id++));
    side->push_back(PhonemeRow(id++, std::move(phonemes)));
  };
  for (const std::string& base : bases) {
    add(&sides.inner, base);
    add(&sides.inner, base);  // a duplicate key
    add(&sides.inner, Mutate(base, 1, kAlpha, false, &rng));
    add(&sides.inner, Mutate(base, 3, kAlpha, false, &rng));
  }
  // Skew: most of the inner side falls in one length bucket.
  for (int i = 0; i < 60; ++i) {
    add(&sides.inner, Mutate(skew_base, static_cast<int>(rng.Uniform(4)),
                             kAlpha, true, &rng));
  }
  for (const std::string& base : bases) {
    for (int edits = 0; edits <= kMaxThreshold + 1; ++edits) {
      add(&sides.outer, Mutate(base, edits, kAlpha, false, &rng));
    }
  }
  for (int i = 0; i < 20; ++i) {
    add(&sides.outer, Mutate(skew_base, static_cast<int>(rng.Uniform(7)),
                             kAlpha, false, &rng));
    add(&sides.outer, RandomString(rng.Uniform(12), kAlpha, &rng));
  }
  return sides;
}

// Seeded names without materialized phonemes: the join runs G2P through
// the phoneme cache.  The inner side is a slice of the outer one, so
// variants of a shared base match.
Sides SeededNameSides(uint64_t seed) {
  NameGenOptions options;
  options.seed = seed;
  options.num_bases = 60;
  options.variants_per_base = 3;
  Sides sides;
  for (NameRecord& rec : GenerateNames(options)) {
    sides.outer.push_back({Value::Int32(static_cast<int32_t>(rec.id)),
                           Value::Uni(std::move(rec.name))});
  }
  sides.inner.assign(sides.outer.begin(),
                     sides.outer.begin() + static_cast<long>(
                                               sides.outer.size() / 2));
  return sides;
}

std::string RenderRow(const Row& row) {
  std::string out;
  for (const Value& v : row) {
    out += v.ToString();
    out += '|';
  }
  return out;
}

std::string ReferencePhonemes(const Value& v) {
  const UniText& u = v.unitext();
  return u.has_phonemes() ? *u.phonemes()
                          : PhoneticTransformer::Default().Transform(u);
}

// Every outer x inner pair, in outer order then inner order.
std::vector<std::string> BruteForce(const Sides& sides, int k, bool tag) {
  std::vector<std::string> rows;
  for (const Row& o : sides.outer) {
    if (o[1].is_null()) continue;
    const std::string po = ReferencePhonemes(o[1]);
    for (const Row& i : sides.inner) {
      if (i[1].is_null()) continue;
      const int d = Levenshtein(po, ReferencePhonemes(i[1]));
      if (d > k) continue;
      Row row = o;
      row.insert(row.end(), i.begin(), i.end());
      if (tag) row.push_back(Value::Int32(d));
      rows.push_back(RenderRow(row));
    }
  }
  return rows;
}

std::vector<std::pair<std::string, uint64_t>> StatsVector(
    const ExecStats& s) {
  std::vector<std::pair<std::string, uint64_t>> out;
  ExecStats::ForEachCounter(s, [&](const char* name, const uint64_t& v) {
    out.emplace_back(name, v);
  });
  return out;
}

class LexJoinOracleTest : public ::testing::Test {
 protected:
  LexJoinOracleTest() : pool_(8) {}

  struct Run {
    std::vector<std::string> rows;
    ExecStats stats;
  };

  // A disabled phoneme cache makes every lookup a counted miss, so the
  // hit/miss split cannot depend on which worker converted a key first.
  Run Join(const Sides& sides, int k, int dop, bool tag) {
    PhonemeCache disabled(0);
    ExecContext ctx;
    ctx.phoneme_cache = &disabled;
    if (dop > 1) {
      ctx.thread_pool = &pool_;
      ctx.degree_of_parallelism = dop;
    }
    LexJoinOp::Options options;
    options.threshold = k;
    options.tag_distance = tag;
    options.dop = dop;
    LexJoinOp join(&ctx,
                   std::make_unique<ValuesOp>(&ctx, KeySchema(), sides.outer),
                   std::make_unique<ValuesOp>(&ctx, KeySchema(), sides.inner),
                   1, 1, options);
    StatusOr<std::vector<Row>> rows = CollectAll(&join);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    Run run;
    if (rows.ok()) {
      for (const Row& r : *rows) run.rows.push_back(RenderRow(r));
    }
    run.stats = ctx.stats;
    return run;
  }

  // The oracle sweep: k x tag_distance x DOP, each against the brute force,
  // with ExecStats equal to the DOP-1 run's.
  void ExpectMatchesBruteForce(const Sides& sides) {
    for (int k = 0; k <= kMaxThreshold; ++k) {
      for (const bool tag : {false, true}) {
        const std::vector<std::string> expected = BruteForce(sides, k, tag);
        ASSERT_FALSE(expected.empty()) << "k=" << k;
        std::vector<std::pair<std::string, uint64_t>> serial_stats;
        for (const int dop : kDops) {
          const Run run = Join(sides, k, dop, tag);
          EXPECT_EQ(run.rows, expected)
              << "k=" << k << " tag=" << tag << " dop=" << dop;
          if (dop == 1) {
            serial_stats = StatsVector(run.stats);
          } else {
            EXPECT_EQ(StatsVector(run.stats), serial_stats)
                << "k=" << k << " tag=" << tag << " dop=" << dop;
          }
          // One kernel call per verified pair, never more than all pairs.
          EXPECT_EQ(run.stats.distance.calls, run.stats.predicate_evals);
          EXPECT_LE(run.stats.predicate_evals,
                    sides.outer.size() * sides.inner.size());
        }
      }
    }
  }

  ThreadPool pool_;
};

TEST_F(LexJoinOracleTest, EdgeCaseKeysMatchBruteForce) {
  for (const uint64_t seed : {11u, 12u}) {
    const Sides sides = EdgeCaseSides(seed);
    ExpectMatchesBruteForce(sides);
  }
}

TEST_F(LexJoinOracleTest, SeededNamesMatchBruteForce) {
  const Sides sides = SeededNameSides(42);
  ExpectMatchesBruteForce(sides);
}

TEST_F(LexJoinOracleTest, HugeThresholdAdmitsEveryPair) {
  // SQL's THRESHOLD takes any number.  Far above every key length, it
  // makes every non-NULL pair a match, and the index sizes nothing by k.
  const Sides sides = EdgeCaseSides(11);
  constexpr int kHuge = 1'000'000'000;
  const std::vector<std::string> expected = BruteForce(sides, kHuge, true);
  for (const int dop : kDops) {
    EXPECT_EQ(Join(sides, kHuge, dop, true).rows, expected)
        << "dop=" << dop;
  }
}

TEST_F(LexJoinOracleTest, CacheLookupsAreOnePerRow) {
  // The G2P hoist: each outer and inner key is looked up once, however
  // many pairs the probe verifies.
  const Sides sides = SeededNameSides(7);
  const uint64_t rows = sides.outer.size() + sides.inner.size();
  for (const int dop : kDops) {
    const Run run = Join(sides, 2, dop, false);
    EXPECT_EQ(run.stats.phoneme_cache_hits + run.stats.phoneme_cache_misses,
              rows)
        << "dop=" << dop;
  }
}

TEST_F(LexJoinOracleTest, FilterVerifiesFewerPairsThanAllPairs) {
  // At k=2 on names the index admits a small share of the pairs; a
  // regression to all-pairs verification keeps the rows but fails here.
  const Sides sides = SeededNameSides(42);
  const Run run = Join(sides, 2, 1, false);
  EXPECT_LT(run.stats.predicate_evals * 4,
            sides.outer.size() * sides.inner.size());
}

}  // namespace
}  // namespace mural
