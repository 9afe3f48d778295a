// Unit tests for the sharded phoneme CLOCK cache: hit/miss accounting,
// eviction at capacity, exact (text, language) keys, cross-thread sharing
// with and without eviction, the capacity-0 (disabled) mode, and the
// LexJoinOp G2P-hoist regression (one transform per row, not per candidate
// pair), serial and under a shared cache at DOP 1-8.

#include "phonetic/phoneme_cache.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "datagen/name_generator.h"
#include "exec/basic_ops.h"
#include "exec/mural_ops.h"
#include "phonetic/transformer.h"

// This thread's calls to the global operator new (replaced at the end of
// this file), so a test can count what one code path allocates.
thread_local size_t t_allocations = 0;

namespace mural {
namespace {

const PhoneticTransformer& Xf() { return PhoneticTransformer::Default(); }

TEST(PhonemeCacheTest, MissThenHitReturnsTheSamePhonemes) {
  PhonemeCache cache(64);
  bool hit = true;
  const PhonemeString first =
      cache.GetOrCompute("nehru", lang::kEnglish, Xf(), &hit);
  EXPECT_FALSE(hit);
  const PhonemeString again =
      cache.GetOrCompute("nehru", lang::kEnglish, Xf(), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first, again);
  EXPECT_EQ(first, Xf().Transform("nehru", lang::kEnglish));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PhonemeCacheTest, HitAllocatesOnlyTheReturnedString) {
  // A key longer than any inline string buffer: a hit that built a key
  // string would allocate for it.
  const std::string text = "vishwanathan subrahmanyam";
  PhonemeCache cache(64);
  const PhonemeString phonemes =
      cache.GetOrCompute(text, lang::kEnglish, Xf());
  // The first hit also registers the process-wide hit counter, once.
  (void)cache.GetOrCompute(text, lang::kEnglish, Xf());
  const size_t per_hit =
      phonemes.size() > PhonemeString().capacity() ? 1 : 0;
  const size_t kLookups = 100;
  size_t hits = 0;
  const size_t before = t_allocations;
  for (size_t i = 0; i < kLookups; ++i) {
    bool hit = false;
    (void)cache.GetOrCompute(text, lang::kEnglish, Xf(), &hit);
    hits += hit ? 1 : 0;
  }
  const size_t allocations = t_allocations - before;
  EXPECT_EQ(hits, kLookups);
  EXPECT_EQ(allocations, kLookups * per_hit);
}

TEST(PhonemeCacheTest, LanguageIsPartOfTheKey) {
  PhonemeCache cache(64);
  (void)cache.GetOrCompute("nehru", lang::kEnglish, Xf());
  bool hit = true;
  (void)cache.GetOrCompute("nehru", lang::kHindi, Xf(), &hit);
  EXPECT_FALSE(hit);  // different language, different entry
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PhonemeCacheTest, KeyIsExactTextAndLanguage) {
  using namespace std::string_view_literals;
  // The same text under two languages, texts holding the 0x1f separator
  // an older key encoding used and an embedded NUL, and texts that are
  // prefixes of one another: every (text, lang) is its own entry.
  const std::vector<std::pair<std::string_view, LangId>> keys = {
      {"nehru", lang::kEnglish},
      {"nehru", lang::kHindi},
      {"nehru\x1f", lang::kEnglish},
      {"nehru\x1f" "1", lang::kEnglish},  // the old key of "nehru", kEnglish
      {"neh\0ru"sv, lang::kEnglish},
      {"neh", lang::kEnglish},
      {"nehrudas", lang::kEnglish},
      {"nehr", lang::kHindi},
  };
  PhonemeCache cache(1024);
  for (const auto& [text, lang] : keys) {
    bool hit = true;
    const PhonemeString p = cache.GetOrCompute(text, lang, Xf(), &hit);
    EXPECT_FALSE(hit) << "first lookup of key of size " << text.size();
    EXPECT_EQ(p, Xf().Transform(text, lang));
  }
  EXPECT_EQ(cache.size(), keys.size());
  for (const auto& [text, lang] : keys) {
    bool hit = false;
    const PhonemeString p = cache.GetOrCompute(text, lang, Xf(), &hit);
    EXPECT_TRUE(hit) << "second lookup of key of size " << text.size();
    EXPECT_EQ(p, Xf().Transform(text, lang));
  }
  EXPECT_EQ(cache.hits(), keys.size());
  EXPECT_EQ(cache.misses(), keys.size());
}

TEST(PhonemeCacheTest, EvictsAtCapacity) {
  PhonemeCache cache(16);  // 2 entries per shard
  for (int i = 0; i < 1000; ++i) {
    (void)cache.GetOrCompute("name" + std::to_string(i), lang::kEnglish,
                             Xf());
  }
  EXPECT_LE(cache.size(), 16u);
  EXPECT_EQ(cache.misses(), 1000u);
  // The first key was evicted long ago, so re-reading it is a miss.
  bool hit = true;
  (void)cache.GetOrCompute("name0", lang::kEnglish, Xf(), &hit);
  EXPECT_FALSE(hit);
}

TEST(PhonemeCacheTest, RecentUseProtectsFromEviction) {
  PhonemeCache cache(8);  // 1 entry per shard
  (void)cache.GetOrCompute("anchor", lang::kEnglish, Xf());
  // Re-touch "anchor" after every insert; it must stay resident in its
  // shard, so the final lookup is a hit.
  for (int i = 0; i < 50; ++i) {
    (void)cache.GetOrCompute("fill" + std::to_string(i), lang::kEnglish,
                             Xf());
    bool hit = false;
    (void)cache.GetOrCompute("anchor", lang::kEnglish, Xf(), &hit);
    // A fill key that lands in anchor's shard evicts it (capacity 1), so
    // the re-touch may miss once — but then reloads it.
    (void)hit;
  }
  bool hit = false;
  (void)cache.GetOrCompute("anchor", lang::kEnglish, Xf(), &hit);
  EXPECT_TRUE(hit);
}

TEST(PhonemeCacheTest, ReferencedEntrySurvivesEviction) {
  // Two entries per shard: a key re-read after every insert has its
  // reference bit set whenever its shard evicts, so the sweep passes over
  // it and evicts the other entry.  FIFO eviction would drop it.
  PhonemeCache cache(16);
  (void)cache.GetOrCompute("anchor", lang::kEnglish, Xf());
  int misses = 0;
  for (int i = 0; i < 200; ++i) {
    (void)cache.GetOrCompute("fill" + std::to_string(i), lang::kEnglish,
                             Xf());
    bool hit = false;
    (void)cache.GetOrCompute("anchor", lang::kEnglish, Xf(), &hit);
    misses += hit ? 0 : 1;
  }
  EXPECT_EQ(misses, 0);
  EXPECT_LE(cache.size(), 16u);
}

TEST(PhonemeCacheTest, CapacityZeroDisablesCaching) {
  PhonemeCache cache(0);
  EXPECT_FALSE(cache.enabled());
  for (int i = 0; i < 3; ++i) {
    bool hit = true;
    const PhonemeString p =
        cache.GetOrCompute("nehru", lang::kEnglish, Xf(), &hit);
    EXPECT_FALSE(hit);  // never stored, never hit
    EXPECT_EQ(p, Xf().Transform("nehru", lang::kEnglish));
  }
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PhonemeCacheTest, ClearDropsEntriesButKeepsCounters) {
  PhonemeCache cache(64);
  (void)cache.GetOrCompute("nehru", lang::kEnglish, Xf());
  (void)cache.GetOrCompute("nehru", lang::kEnglish, Xf());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  bool hit = true;
  (void)cache.GetOrCompute("nehru", lang::kEnglish, Xf(), &hit);
  EXPECT_FALSE(hit);
}

TEST(PhonemeCacheTest, CrossThreadHitsAreAccounted) {
  PhonemeCache cache(1024);
  // Warm the cache serially so every parallel lookup below is a hit
  // (avoids the benign duplicate-compute race inflating misses).
  const int kKeys = 32;
  for (int i = 0; i < kKeys; ++i) {
    (void)cache.GetOrCompute("key" + std::to_string(i), lang::kEnglish,
                             Xf());
  }
  const uint64_t misses_after_warm = cache.misses();
  EXPECT_EQ(misses_after_warm, static_cast<uint64_t>(kKeys));

  ThreadPool pool(4);
  const int kTasks = 8, kLookupsPerTask = 100;
  std::vector<std::future<Status>> futures;
  for (int t = 0; t < kTasks; ++t) {
    futures.push_back(pool.Submit([&cache] {
      for (int i = 0; i < kLookupsPerTask; ++i) {
        bool hit = false;
        (void)cache.GetOrCompute("key" + std::to_string(i % kKeys),
                                 lang::kEnglish, Xf(), &hit);
        if (!hit) return Status::Internal("expected warm hit");
      }
      return Status::OK();
    }));
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(cache.hits(), static_cast<uint64_t>(kTasks * kLookupsPerTask));
  EXPECT_EQ(cache.misses(), misses_after_warm);
}

TEST(PhonemeCacheTest, ConcurrentLookupsWithEvictionStayExact) {
  // Four times more keys than slots, over two languages, so hits, misses,
  // reference-bit updates and evictions interleave across the workers.
  const size_t kCapacity = 32;  // 4 entries per shard
  const int kKeys = 4 * static_cast<int>(kCapacity);
  std::vector<std::pair<std::string, LangId>> keys;
  std::vector<PhonemeString> expected;
  for (int i = 0; i < kKeys; ++i) {
    keys.emplace_back("name" + std::to_string(i),
                      i % 2 == 0 ? lang::kEnglish : lang::kHindi);
    expected.push_back(Xf().Transform(keys.back().first, keys.back().second));
  }
  PhonemeCache cache(kCapacity);
  ThreadPool pool(4);
  const int kTasks = 8, kLookupsPerTask = 2000;
  std::vector<std::future<Status>> futures;
  for (int t = 0; t < kTasks; ++t) {
    futures.push_back(pool.Submit([&, t] {
      for (int i = 0; i < kLookupsPerTask; ++i) {
        // Each task walks the keys with its own stride, and revisits a
        // small hot set every other lookup.
        const int k = i % 2 == 0 ? (i / 2) % 8 : (i * (2 * t + 1)) % kKeys;
        const PhonemeString p =
            cache.GetOrCompute(keys[k].first, keys[k].second, Xf());
        if (p != expected[k]) {
          return Status::Internal("wrong phonemes for " + keys[k].first);
        }
        if (i % 100 == 0 && cache.size() > kCapacity) {
          return Status::Internal("cache over capacity");
        }
      }
      return Status::OK();
    }));
  }
  for (auto& f : futures) {
    const Status s = f.get();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<uint64_t>(kTasks * kLookupsPerTask));
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), static_cast<uint64_t>(kCapacity));  // it evicted
  EXPECT_LE(cache.size(), kCapacity);
}

// ---------------------------------------------------------------------
// Regression: LexJoinOp must transform each row's phonemes once (hoisted
// per outer row and materialized per inner row), never once per candidate
// pair.  With non-materialized UniText values and no cache, the transform
// counter must equal n_outer + n_inner exactly.

Value RawUni(const char* text, LangId lang) {
  return Value::Uni(UniText(text, lang));  // no materialized phonemes
}

std::unique_ptr<ValuesOp> MakeNamesValues(ExecContext* ctx,
                                          const char* prefix, int n) {
  Schema schema({{"name", TypeId::kUniText}});
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(
        {RawUni((std::string(prefix) + std::to_string(i)).c_str(),
                lang::kEnglish)});
  }
  return std::make_unique<ValuesOp>(ctx, schema, std::move(rows));
}

TEST(LexJoinG2pHoistTest, OneTransformPerRowWithoutCache) {
  ExecContext ctx;
  const int kOuter = 7, kInner = 5;
  LexJoinOp join(&ctx, MakeNamesValues(&ctx, "outer", kOuter),
                 MakeNamesValues(&ctx, "inner", kInner), 0, 0);
  ASSERT_TRUE(join.Open().ok());
  Row row;
  while (true) {
    StatusOr<bool> more = join.Next(&row);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
  }
  ASSERT_TRUE(join.Close().ok());
  // Hoisted: n_outer + n_inner transforms, not n_outer * n_inner.
  EXPECT_EQ(ctx.stats.phoneme_transforms,
            static_cast<uint64_t>(kOuter + kInner));
}

TEST(LexJoinG2pHoistTest, CacheTurnsRepeatedValuesIntoHits) {
  PhonemeCache cache(256);
  ExecContext ctx;
  ctx.phoneme_cache = &cache;
  // Rerunning the identical join: the second Open/Next pass finds every
  // (text, lang) pair already cached — zero new transforms.
  const int kOuter = 6, kInner = 4;
  for (int round = 0; round < 2; ++round) {
    LexJoinOp join(&ctx, MakeNamesValues(&ctx, "outer", kOuter),
                   MakeNamesValues(&ctx, "inner", kInner), 0, 0);
    ASSERT_TRUE(join.Open().ok());
    Row row;
    while (true) {
      StatusOr<bool> more = join.Next(&row);
      ASSERT_TRUE(more.ok());
      if (!*more) break;
    }
    ASSERT_TRUE(join.Close().ok());
  }
  EXPECT_EQ(ctx.stats.phoneme_transforms,
            static_cast<uint64_t>(kOuter + kInner));  // first round only
  EXPECT_EQ(ctx.stats.phoneme_cache_misses,
            static_cast<uint64_t>(kOuter + kInner));
  EXPECT_EQ(ctx.stats.phoneme_cache_hits,
            static_cast<uint64_t>(kOuter + kInner));  // second round
}

TEST(LexJoinG2pHoistTest, SharedCacheJoinIsDopInvariant) {
  // Non-materialized names through one cache shared by every worker: the
  // rows are the DOP-1 rows at every DOP, and each non-NULL key is looked
  // up exactly once, whether the cache holds every key or keeps evicting.
  NameGenOptions gen;
  gen.seed = 5;
  gen.num_bases = 80;
  gen.variants_per_base = 3;
  Schema schema({{"id", TypeId::kInt32}, {"name", TypeId::kUniText}});
  std::vector<Row> outer;
  for (NameRecord& rec : GenerateNames(gen)) {
    const auto id = static_cast<int32_t>(rec.id);
    outer.push_back({Value::Int32(id), id % 9 == 4
                                           ? Value::Null()
                                           : Value::Uni(std::move(rec.name))});
  }
  const std::vector<Row> inner(
      outer.begin(), outer.begin() + static_cast<long>(outer.size() / 2));
  uint64_t keys = 0;
  for (const Row& row : outer) keys += row[1].is_null() ? 0 : 1;
  for (const Row& row : inner) keys += row[1].is_null() ? 0 : 1;

  ThreadPool pool(8);
  constexpr size_t kRoomy = 4096;  // holds every key: no eviction
  constexpr size_t kTight = 16;    // evicts throughout the join
  for (const size_t capacity : {kRoomy, kTight}) {
    PhonemeCache cache(capacity);
    std::vector<std::string> serial;
    uint64_t warm_misses = 0;
    // DOP 1 twice: the first pass warms the cache.
    for (const int dop : {1, 1, 2, 4, 8}) {
      ExecContext ctx;
      ctx.phoneme_cache = &cache;
      if (dop > 1) {
        ctx.thread_pool = &pool;
        ctx.degree_of_parallelism = dop;
      }
      LexJoinOp::Options options;
      options.threshold = 2;
      options.dop = dop;
      LexJoinOp join(&ctx, std::make_unique<ValuesOp>(&ctx, schema, outer),
                     std::make_unique<ValuesOp>(&ctx, schema, inner), 1, 1,
                     options);
      StatusOr<std::vector<Row>> rows = CollectAll(&join);
      ASSERT_TRUE(rows.ok()) << rows.status().ToString();
      std::vector<std::string> rendered;
      for (const Row& r : *rows) {
        std::string line;
        for (const Value& v : r) line += v.ToString() + "|";
        rendered.push_back(std::move(line));
      }
      if (serial.empty()) {
        ASSERT_FALSE(rendered.empty());
        serial = rendered;
        warm_misses = cache.misses();
      }
      EXPECT_EQ(rendered, serial) << "capacity=" << capacity << " dop=" << dop;
      EXPECT_EQ(ctx.stats.phoneme_cache_hits + ctx.stats.phoneme_cache_misses,
                keys)
          << "capacity=" << capacity << " dop=" << dop;
    }
    // Holding every key, the warm cache answers all later lookups.
    if (capacity == kRoomy) {
      EXPECT_EQ(cache.misses(), warm_misses);
    }
  }
}

}  // namespace
}  // namespace mural

void* operator new(std::size_t size) {
  ++t_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) std::abort();
  return p;
}

// Not inlined, so the compiler does not pair a `new` it sees with this
// `free` and warn of a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
