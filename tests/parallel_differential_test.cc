// Differential harness for morsel-parallel Psi execution (the PR's
// mandatory equivalence proof): every seeded scan/join workload runs under
// DOP in {1, 2, 4, 8} and must produce results bit-identical to the serial
// reference — same rows, and (for the operator-level cases) the same
// emission order, since the exchange-style gather concatenates morsel
// slots in morsel-index order.
//
// Two layers:
//   1. Operator-level: the keyed SeqScanOp (the Psi scan leaf) over a real
//      table heap (workers claim page-range morsels and scan through read
//      guards) against a Filter(SeqScan) reference, and LexJoinOp over
//      seeded ValuesOp inputs, with small morsels so inputs span many
//      morsels.
//   2. Planner-level: full Database queries under a degree_of_parallelism
//      hint sweep, with datasets sized so the cost model actually picks
//      the parallel plan at dop > 1.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "datagen/name_generator.h"
#include "engine/database.h"
#include "exec/basic_ops.h"
#include "exec/mural_ops.h"
#include "exec/scan_ops.h"
#include "mural/algebra.h"
#include "phonetic/phoneme_cache.h"
#include "session/session.h"

namespace mural {
namespace {

constexpr uint64_t kSeeds[] = {42, 7, 1234};
constexpr int kDops[] = {1, 2, 4, 8};
constexpr size_t kBatches[] = {0, 1, 7, 1024};

std::string RenderRow(const Row& row) {
  std::string out;
  for (const Value& v : row) {
    out += v.ToString();
    out += '|';
  }
  return out;
}

std::vector<std::string> RenderAll(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& r : rows) out.push_back(RenderRow(r));
  return out;
}

// No rows when the run failed; the caller EXPECTs rows.ok() and reports it.
std::vector<std::string> RenderAll(const StatusOr<std::vector<Row>>& rows) {
  return rows.ok() ? RenderAll(*rows) : std::vector<std::string>{};
}

std::vector<std::string> Sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Sum of the `cache h=H m=M` counts a plan tree renders; 0 when no node
// renders them.
uint64_t RenderedCacheLookups(const std::string& tree) {
  const size_t at = tree.find("cache h=");
  if (at == std::string::npos) return 0;
  unsigned long long hits = 0, misses = 0;
  if (std::sscanf(tree.c_str() + at, "cache h=%llu m=%llu", &hits,
                  &misses) != 2) {
    return 0;
  }
  return hits + misses;
}

// The `verified=N` count a plan tree renders; nullopt when no node
// renders one.
std::optional<uint64_t> RenderedVerified(const std::string& tree) {
  const size_t at = tree.find("verified=");
  if (at == std::string::npos) return std::nullopt;
  unsigned long long verified = 0;
  if (std::sscanf(tree.c_str() + at, "verified=%llu", &verified) != 1) {
    return std::nullopt;
  }
  return verified;
}

// Seeded names as rows; `materialize` controls whether phoneme strings
// are precomputed (false = workers must run G2P through the cache).
std::vector<Row> SeededNameRows(uint64_t seed, size_t bases, size_t variants,
                                bool materialize) {
  NameGenOptions options;
  options.seed = seed;
  options.num_bases = bases;
  options.variants_per_base = variants;
  std::vector<Row> rows;
  for (NameRecord& rec : GenerateNames(options)) {
    if (materialize) {
      PhoneticTransformer::Default().Materialize(&rec.name);
    }
    rows.push_back({Value::Int32(static_cast<int32_t>(rec.id)),
                    Value::Uni(std::move(rec.name))});
  }
  return rows;
}

Schema NamesSchema() {
  return Schema({{"id", TypeId::kInt32}, {"name", TypeId::kUniText}});
}

// Seeded names loaded into a fresh single-table database ("names"); the
// operator-level scan tests run against the table's heap pages directly.
// `materialize` maps to the column's MATERIALIZE PHONEMES flag.
StatusOr<std::unique_ptr<Database>> MakeNamesDatabase(size_t bases,
                                                      size_t variants,
                                                      uint64_t seed,
                                                      bool materialize) {
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open());
  Schema schema({{"id", TypeId::kInt32},
                 {"name", TypeId::kUniText, materialize}});
  MURAL_RETURN_IF_ERROR(db->CreateTable("names", schema));
  NameGenOptions options;
  options.seed = seed;
  options.num_bases = bases;
  options.variants_per_base = variants;
  for (const NameRecord& rec : GenerateNames(options)) {
    MURAL_RETURN_IF_ERROR(
        db->Insert("names", {Value::Int32(static_cast<int32_t>(rec.id)),
                             Value::Uni(rec.name)}));
  }
  MURAL_RETURN_IF_ERROR(db->Analyze("names"));
  return db;
}

// ------------------------------------------------------------------
// Layer 1: operator-level equivalence.

class OperatorDifferentialTest : public ::testing::Test {
 protected:
  OperatorDifferentialTest() : pool_(8) {}

  ExecContext MakeCtx(int dop) {
    ExecContext ctx;
    ctx.lexequal_threshold = 2;
    ctx.phoneme_cache = &cache_;
    if (dop > 1) {
      ctx.thread_pool = &pool_;
      ctx.degree_of_parallelism = dop;
    }
    return ctx;
  }

  ThreadPool pool_;
  PhonemeCache cache_{1 << 14};
};

TEST_F(OperatorDifferentialTest, LexSelectMatchesSerialFilter) {
  for (const uint64_t seed : kSeeds) {
    for (const bool materialize : {true, false}) {
      auto db_or = MakeNamesDatabase(/*bases=*/300, /*variants=*/4, seed,
                                     materialize);
      ASSERT_TRUE(db_or.ok());
      std::unique_ptr<Database> db = std::move(*db_or);
      auto table_or = db->catalog()->GetTable("names");
      ASSERT_TRUE(table_or.ok());
      const TableInfo* table = *table_or;
      ASSERT_GT(table->heap->num_pages(), 1u);

      // Probe with the first generated name: guarantees non-empty output.
      NameGenOptions gen;
      gen.seed = seed;
      gen.num_bases = 300;
      gen.variants_per_base = 4;
      const UniText probe = GenerateNames(gen).front().name;

      // Serial reference: FilterOp over a serial SeqScan of the same heap.
      ExecContext serial_ctx = MakeCtx(1);
      FilterOp serial(&serial_ctx,
                      std::make_unique<SeqScanOp>(&serial_ctx, table),
                      LexEq(Col(1, "name"), Lit(Value::Uni(probe)), 2));
      StatusOr<std::vector<Row>> expected = CollectAll(&serial);
      ASSERT_TRUE(expected.ok());
      ASSERT_FALSE(expected->empty());

      for (const int dop : kDops) {
        for (const size_t batch : kBatches) {
          ExecContext ctx = MakeCtx(dop);
          ctx.batch_size = batch;
          // The heap spans several pages and a heap this small gets
          // one-page morsels, so every dop > 1 run splits the scan across
          // many page-range morsels.
          SeqScanOp scan(&ctx, table, PsiScanKey{1, Value::Uni(probe), 2},
                         /*residual=*/nullptr, dop);
          StatusOr<std::vector<Row>> actual = CollectAll(&scan);
          ASSERT_TRUE(actual.ok()) << "seed=" << seed << " dop=" << dop;
          // Bit-identical including order (morsel-order gather follows
          // the page chain order, which is the serial scan order).
          EXPECT_EQ(RenderAll(*actual), RenderAll(*expected))
              << "seed=" << seed << " dop=" << dop << " batch=" << batch
              << " materialize=" << materialize;
        }
      }
    }
  }
}

TEST_F(OperatorDifferentialTest, LexSelectResidualMatchesSerialFilter) {
  // Psi AND LangIn: the residual runs on key matches only, and the result
  // equals the Filter(SeqScan) reference over the whole conjunction.
  auto db_or = MakeNamesDatabase(/*bases=*/300, /*variants=*/4, /*seed=*/7,
                                 /*materialize=*/true);
  ASSERT_TRUE(db_or.ok());
  std::unique_ptr<Database> db = std::move(*db_or);
  auto table_or = db->catalog()->GetTable("names");
  ASSERT_TRUE(table_or.ok());
  const TableInfo* table = *table_or;

  NameGenOptions gen;
  gen.seed = 7;
  gen.num_bases = 300;
  gen.variants_per_base = 4;
  const UniText probe = GenerateNames(gen).front().name;
  const std::set<LangId> langs = {probe.lang()};
  auto residual = [&] { return LangIn(Col(1, "name"), langs); };

  ExecContext serial_ctx = MakeCtx(1);
  FilterOp serial(
      &serial_ctx, std::make_unique<SeqScanOp>(&serial_ctx, table),
      And(LexEq(Col(1, "name"), Lit(Value::Uni(probe)), 2), residual()));
  StatusOr<std::vector<Row>> expected = CollectAll(&serial);
  ASSERT_TRUE(expected.ok());
  ASSERT_FALSE(expected->empty());

  // Without the residual the leaf returns more: the language filter is
  // doing work, so the comparison below is not vacuous.
  ExecContext psi_ctx = MakeCtx(1);
  SeqScanOp psi_only(&psi_ctx, table, PsiScanKey{1, Value::Uni(probe), 2});
  StatusOr<std::vector<Row>> unfiltered = CollectAll(&psi_only);
  ASSERT_TRUE(unfiltered.ok());
  ASSERT_GT(unfiltered->size(), expected->size());

  for (const int dop : kDops) {
    for (const size_t batch : kBatches) {
      ExecContext ctx = MakeCtx(dop);
      ctx.batch_size = batch;
      SeqScanOp scan(&ctx, table, PsiScanKey{1, Value::Uni(probe), 2},
                     residual(), dop);
      StatusOr<std::vector<Row>> actual = CollectAll(&scan);
      ASSERT_TRUE(actual.ok()) << "dop=" << dop;
      EXPECT_EQ(RenderAll(*actual), RenderAll(*expected))
          << "dop=" << dop << " batch=" << batch;
    }
  }
}

TEST_F(OperatorDifferentialTest, LexSelectSkipsNullKeysAtEveryDop) {
  // NULL keys never match, and a NULL probe matches nothing.
  auto db_or = Database::Open();
  ASSERT_TRUE(db_or.ok());
  std::unique_ptr<Database> db = std::move(*db_or);
  ASSERT_TRUE(db->CreateTable("t", NamesSchema()).ok());
  const std::vector<Row> rows = SeededNameRows(42, 200, 3, false);
  for (size_t i = 0; i < rows.size(); ++i) {
    Row row = rows[i];
    if (i % 5 == 0) row[1] = Value::Null();
    ASSERT_TRUE(db->Insert("t", row).ok());
  }
  auto table_or = db->catalog()->GetTable("t");
  ASSERT_TRUE(table_or.ok());
  const TableInfo* table = *table_or;
  ASSERT_GT(table->heap->num_pages(), 1u);
  const Value probe = rows[1][1];

  ExecContext serial_ctx = MakeCtx(1);
  FilterOp serial(&serial_ctx,
                  std::make_unique<SeqScanOp>(&serial_ctx, table),
                  LexEq(Col(1, "name"), Lit(probe), 2));
  StatusOr<std::vector<Row>> expected = CollectAll(&serial);
  ASSERT_TRUE(expected.ok());
  ASSERT_FALSE(expected->empty());

  for (const int dop : kDops) {
    ExecContext ctx = MakeCtx(dop);
    SeqScanOp scan(&ctx, table, PsiScanKey{1, probe, 2}, nullptr, dop);
    StatusOr<std::vector<Row>> actual = CollectAll(&scan);
    ASSERT_TRUE(actual.ok()) << "dop=" << dop;
    EXPECT_EQ(RenderAll(*actual), RenderAll(*expected)) << "dop=" << dop;

    ExecContext null_ctx = MakeCtx(dop);
    SeqScanOp null_probe(&null_ctx, table, PsiScanKey{1, Value::Null(), 2},
                         nullptr, dop);
    StatusOr<std::vector<Row>> none = CollectAll(&null_probe);
    ASSERT_TRUE(none.ok()) << "dop=" << dop;
    EXPECT_TRUE(none->empty()) << "dop=" << dop;
  }
}

TEST_F(OperatorDifferentialTest, ParallelLexJoinMatchesSerial) {
  for (const uint64_t seed : kSeeds) {
    for (const bool materialize : {true, false}) {
      // Overlapping sides cut from one seeded dataset: variants of a
      // shared base fall within the threshold, so the join is non-empty.
      std::vector<Row> all =
          SeededNameRows(seed, /*bases=*/80, /*variants=*/3, materialize);
      std::vector<Row> outer = all;
      std::vector<Row> inner(all.begin(),
                             all.begin() + (all.size() * 3) / 5);

      auto run = [&](int dop, bool tag) -> std::vector<std::string> {
        ExecContext ctx = MakeCtx(dop);
        LexJoinOp::Options options;
        options.threshold = 2;
        options.tag_distance = tag;
        options.dop = dop;
        LexJoinOp join(&ctx,
                       std::make_unique<ValuesOp>(&ctx, NamesSchema(), outer),
                       std::make_unique<ValuesOp>(&ctx, NamesSchema(), inner),
                       1, 1, options);
        StatusOr<std::vector<Row>> rows = CollectAll(&join);
        EXPECT_TRUE(rows.ok()) << "seed=" << seed << " dop=" << dop;
        return RenderAll(rows);
      };

      for (const bool tag : {false, true}) {
        const std::vector<std::string> expected = run(1, tag);
        ASSERT_FALSE(expected.empty());
        for (const int dop : kDops) {
          EXPECT_EQ(run(dop, tag), expected)
              << "seed=" << seed << " dop=" << dop << " tag=" << tag
              << " materialize=" << materialize;
        }
      }
    }
  }
}

TEST_F(OperatorDifferentialTest, NullKeysAreSkippedIdentically) {
  std::vector<Row> all = SeededNameRows(42, 40, 3, true);
  std::vector<Row> outer = all;
  std::vector<Row> inner(all.begin(), all.begin() + (all.size() * 3) / 4);
  // Null out every 5th key on both sides.
  for (size_t i = 0; i < outer.size(); i += 5) outer[i][1] = Value::Null();
  for (size_t i = 0; i < inner.size(); i += 5) inner[i][1] = Value::Null();

  auto run = [&](int dop) {
    ExecContext ctx = MakeCtx(dop);
    LexJoinOp::Options options;
    options.threshold = 2;
    options.dop = dop;
    LexJoinOp join(&ctx,
                   std::make_unique<ValuesOp>(&ctx, NamesSchema(), outer),
                   std::make_unique<ValuesOp>(&ctx, NamesSchema(), inner),
                   1, 1, options);
    StatusOr<std::vector<Row>> rows = CollectAll(&join);
    EXPECT_TRUE(rows.ok());
    return RenderAll(rows);
  };

  const std::vector<std::string> expected = run(1);
  for (const int dop : kDops) EXPECT_EQ(run(dop), expected) << dop;
}

TEST_F(OperatorDifferentialTest, ParallelStatsMatchSerialCounts) {
  // Determinism extends to the effort counters: the per-morsel contexts
  // merge in morsel order, so predicate_evals and distance.calls are
  // DOP-invariant.
  std::vector<Row> outer = SeededNameRows(7, 50, 2, true);
  std::vector<Row> inner = SeededNameRows(8, 40, 2, true);
  uint64_t serial_evals = 0, serial_calls = 0;
  for (const int dop : kDops) {
    ExecContext ctx = MakeCtx(dop);
    LexJoinOp::Options options;
    options.threshold = 2;
    options.dop = dop;
    LexJoinOp join(&ctx,
                   std::make_unique<ValuesOp>(&ctx, NamesSchema(), outer),
                   std::make_unique<ValuesOp>(&ctx, NamesSchema(), inner),
                   1, 1, options);
    StatusOr<std::vector<Row>> rows = CollectAll(&join);
    ASSERT_TRUE(rows.ok());
    if (dop == 1) {
      serial_evals = ctx.stats.predicate_evals;
      serial_calls = ctx.stats.distance.calls;
      ASSERT_GT(serial_evals, 0u);
    } else {
      EXPECT_EQ(ctx.stats.predicate_evals, serial_evals) << dop;
      EXPECT_EQ(ctx.stats.distance.calls, serial_calls) << dop;
    }
  }
}

TEST_F(OperatorDifferentialTest, TraceTreeAndMergedMetricsAreDopInvariant) {
  // Observability determinism: the executed plan tree's per-node row counts
  // and the merged process metrics (phoneme cache hits+misses, morsels run)
  // must be identical across DOP {1, 2, 4, 8}.  Wall times and the
  // hit/miss *split* are excluded: times vary by machine, and two workers
  // can duplicate-compute the same key (each counting a miss) — only the
  // hits+misses sum equals the deterministic lookup count.
  auto db_or = MakeNamesDatabase(/*bases=*/300, /*variants=*/4, /*seed=*/42,
                                 /*materialize=*/false);
  ASSERT_TRUE(db_or.ok());
  std::unique_ptr<Database> db = std::move(*db_or);
  auto table_or = db->catalog()->GetTable("names");
  ASSERT_TRUE(table_or.ok());
  const TableInfo* table = *table_or;

  NameGenOptions gen;
  gen.seed = 42;
  gen.num_bases = 300;
  gen.variants_per_base = 4;
  const UniText probe = GenerateNames(gen).front().name;
  Counter* hits =
      MetricsRegistry::Global().GetCounter("phonetic.phoneme_cache.hits");
  Counter* misses =
      MetricsRegistry::Global().GetCounter("phonetic.phoneme_cache.misses");
  Counter* morsels = MetricsRegistry::Global().GetCounter("exec.morsels_run");

  // Normalizes one trace line per node: the operator name truncated at '('
  // (drops the dop= and per-run cache annotations in DisplayName) plus the
  // actual-rows annotation.
  auto normalize = [](const std::string& tree) {
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos < tree.size()) {
      size_t eol = tree.find('\n', pos);
      if (eol == std::string::npos) eol = tree.size();
      const std::string line = tree.substr(pos, eol - pos);
      pos = eol + 1;
      if (line.empty()) continue;
      std::string norm = line.substr(0, line.find('('));
      const size_t rows = line.find("actual rows=");
      if (rows != std::string::npos) {
        const size_t end = line.find_first_of(" )", rows);
        norm += line.substr(rows, end - rows);
      }
      out.push_back(norm);
    }
    return out;
  };

  std::vector<std::string> reference_tree;
  uint64_t reference_lookups = 0;
  uint64_t reference_morsels = 0;
  for (const int dop : kDops) {
    const uint64_t lookups0 = hits->value() + misses->value();
    const uint64_t morsels0 = morsels->value();
    ExecContext ctx = MakeCtx(dop);
    SeqScanOp scan(&ctx, table, PsiScanKey{1, Value::Uni(probe), 2},
                   /*residual=*/nullptr, dop);
    StatusOr<std::vector<Row>> rows = CollectAll(&scan);
    ASSERT_TRUE(rows.ok()) << "dop=" << dop;
    TraceOptions opts;
    opts.with_times = false;
    const std::vector<std::string> tree = normalize(TraceTree(scan, opts));
    const uint64_t lookups = hits->value() + misses->value() - lookups0;
    const uint64_t morsels_run = morsels->value() - morsels0;
    if (dop == 1) {
      reference_tree = tree;
      reference_lookups = lookups;
      reference_morsels = morsels_run;
      ASSERT_FALSE(reference_tree.empty());
      ASSERT_GT(reference_lookups, 0u);
      // The morsel count is a function of the page count alone, by
      // construction DOP-independent, and splits this heap.
      EXPECT_EQ(reference_morsels, MorselCount(table->heap->num_pages()));
      EXPECT_GT(reference_morsels, 1u);
    } else {
      EXPECT_EQ(tree, reference_tree) << "dop=" << dop;
      EXPECT_EQ(lookups, reference_lookups) << "dop=" << dop;
      EXPECT_EQ(morsels_run, reference_morsels) << "dop=" << dop;
    }
  }
}

// ------------------------------------------------------------------
// Batch/tuple differential: the vectorized path must be bit-identical to
// tuple-at-a-time execution — rows, order, and the complete ExecStats.

std::vector<std::pair<std::string, uint64_t>> StatsVector(
    const ExecStats& s) {
  std::vector<std::pair<std::string, uint64_t>> out;
  ExecStats::ForEachCounter(
      s, [&](const char* name, const uint64_t& v) { out.emplace_back(name, v); });
  return out;
}

TEST_F(OperatorDifferentialTest, LexSelectBatchMatchesTuplePathExactly) {
  for (const uint64_t seed : kSeeds) {
    for (const bool materialize : {true, false}) {
      auto db_or = MakeNamesDatabase(/*bases=*/300, /*variants=*/4, seed,
                                     materialize);
      ASSERT_TRUE(db_or.ok());
      std::unique_ptr<Database> db = std::move(*db_or);
      auto table_or = db->catalog()->GetTable("names");
      ASSERT_TRUE(table_or.ok());
      const TableInfo* table = *table_or;

      NameGenOptions gen;
      gen.seed = seed;
      gen.num_bases = 300;
      gen.variants_per_base = 4;
      const UniText probe = GenerateNames(gen).front().name;

      // A disabled phoneme cache (every lookup computes and counts a
      // miss) makes the hit/miss split a function of the plan alone:
      // with a shared cache, two workers can both miss on one key.
      auto run = [&](int dop, size_t batch) {
        PhonemeCache disabled(0);
        ExecContext ctx = MakeCtx(dop);
        ctx.phoneme_cache = &disabled;
        ctx.batch_size = batch;
        SeqScanOp op(&ctx, table, PsiScanKey{1, Value::Uni(probe)},
                     /*residual=*/nullptr, dop);
        StatusOr<std::vector<Row>> rows = CollectAll(&op);
        EXPECT_TRUE(rows.ok()) << "seed=" << seed << " dop=" << dop
                               << " batch=" << batch;
        const uint64_t batches = op.batches_produced();
        return std::make_tuple(RenderAll(rows), StatsVector(ctx.stats),
                               batches);
      };

      // DOP 1, batch = 0: tuple-at-a-time reference through NextImpl.
      const auto [ref_rows, ref_stats, ref_batches] = run(1, 0);
      ASSERT_FALSE(ref_rows.empty());
      EXPECT_EQ(ref_batches, 0u);  // Next() never emits batches
      for (const int dop : kDops) {
        for (const size_t batch : kBatches) {
          const auto [rows, stats, batches] = run(dop, batch);
          EXPECT_EQ(rows, ref_rows)
              << "seed=" << seed << " dop=" << dop << " batch=" << batch
              << " materialize=" << materialize;
          // FULL counter equality: per-morsel contexts merge in morsel
          // order, so no counter depends on DOP or batch size.
          EXPECT_EQ(stats, ref_stats)
              << "seed=" << seed << " dop=" << dop << " batch=" << batch
              << " materialize=" << materialize;
          if (batch == 0) {
            EXPECT_EQ(batches, 0u);
          } else if (batch == 1) {
            // One match per batch: the count proves NextBatch actually
            // drove the execution (and didn't fall back to the tuple loop).
            EXPECT_EQ(batches, ref_rows.size());
          } else {
            EXPECT_GE(batches, 1u);
          }
        }
      }
    }
  }
}

TEST_F(OperatorDifferentialTest, BatchBoundaryStraddlingMatches) {
  // Matches placed so runs of them cross every batch boundary: 120 rows,
  // every 3rd a match, swept against batch sizes that are <, =, and
  // coprime to the match period.  Any off-by-one at a batch seam (lost
  // carry row, double-emitted boundary row) changes the result set.
  auto db_or = Database::Open();
  ASSERT_TRUE(db_or.ok());
  std::unique_ptr<Database> db = std::move(*db_or);
  Schema schema({{"id", TypeId::kInt32}, {"name", TypeId::kUniText}});
  ASSERT_TRUE(db->CreateTable("t", schema).ok());
  for (int i = 0; i < 120; ++i) {
    const std::string name =
        (i % 3 == 0) ? "nira" : ("qx" + std::to_string(i) + "qzzz");
    ASSERT_TRUE(db->Insert("t", {Value::Int32(i),
                                 Value::Uni(UniText(name, lang::kEnglish))})
                    .ok());
  }
  auto table_or = db->catalog()->GetTable("t");
  ASSERT_TRUE(table_or.ok());

  auto run = [&](size_t batch) {
    ExecContext ctx = MakeCtx(1);
    ctx.batch_size = batch;
    SeqScanOp op(&ctx, *table_or,
                 PsiScanKey{1, Value::Uni(UniText("nira", lang::kEnglish)), 1});
    StatusOr<std::vector<Row>> rows = CollectAll(&op);
    EXPECT_TRUE(rows.ok()) << "batch=" << batch;
    return RenderAll(rows);
  };

  const std::vector<std::string> expected = run(0);
  ASSERT_EQ(expected.size(), 40u);  // every 3rd of 120 rows
  for (const size_t batch : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                             size_t{40}, size_t{64}, size_t{1024}}) {
    EXPECT_EQ(run(batch), expected) << "batch=" << batch;
  }
}

TEST_F(OperatorDifferentialTest, SmallOuterJoinRunsManyProbeMorsels) {
  // A 1,200-row outer (Table 4's join size) splits into many probe
  // morsels, so DOP 4 has work for every strip; rows, the full ExecStats
  // and the morsel count still equal the serial run's.  A disabled phoneme
  // cache makes the hit/miss split a function of the plan alone.
  std::vector<Row> outer = SeededNameRows(42, /*bases=*/400, /*variants=*/3,
                                          /*materialize=*/false);
  ASSERT_GE(outer.size(), 1200u);
  outer.resize(1200);
  const std::vector<Row> inner(outer.begin(), outer.begin() + 500);
  Counter* morsels = MetricsRegistry::Global().GetCounter("exec.morsels_run");

  auto run = [&](int dop, size_t batch) {
    PhonemeCache disabled(0);
    ExecContext ctx = MakeCtx(dop);
    ctx.phoneme_cache = &disabled;
    ctx.batch_size = batch;
    LexJoinOp::Options options;
    options.threshold = 2;
    options.dop = dop;
    LexJoinOp join(&ctx,
                   std::make_unique<ValuesOp>(&ctx, NamesSchema(), outer),
                   std::make_unique<ValuesOp>(&ctx, NamesSchema(), inner),
                   1, 1, options);
    const uint64_t morsels0 = morsels->value();
    StatusOr<std::vector<Row>> rows = CollectAll(&join);
    EXPECT_TRUE(rows.ok()) << "dop=" << dop;
    return std::make_tuple(RenderAll(rows), StatsVector(ctx.stats),
                           morsels->value() - morsels0);
  };

  const auto [ref_rows, ref_stats, ref_morsels] = run(1, 0);
  ASSERT_FALSE(ref_rows.empty());
  // The build phase's morsels cover the inner side; the rest are probe
  // morsels, and there is more than one of them.
  EXPECT_GT(ref_morsels - MorselCount(inner.size()), 1u);
  for (const int dop : kDops) {
    for (const size_t batch : kBatches) {
      const auto [rows, stats, morsels_run] = run(dop, batch);
      EXPECT_EQ(rows, ref_rows) << "dop=" << dop << " batch=" << batch;
      EXPECT_EQ(stats, ref_stats) << "dop=" << dop << " batch=" << batch;
      EXPECT_EQ(morsels_run, ref_morsels)
          << "dop=" << dop << " batch=" << batch;
    }
  }
}

TEST_F(OperatorDifferentialTest, MaterializedInnerKeysRunNoBuildMorsels) {
  // Materialized inner phonemes are copied inline; only the probe runs in
  // morsels, and the rows still equal the serial run's.
  std::vector<Row> outer = SeededNameRows(7, /*bases=*/200, /*variants=*/3,
                                          /*materialize=*/true);
  const std::vector<Row> inner(outer.begin(), outer.begin() + 500);
  Counter* morsels = MetricsRegistry::Global().GetCounter("exec.morsels_run");

  auto run = [&](int dop) {
    ExecContext ctx = MakeCtx(dop);
    LexJoinOp::Options options;
    options.threshold = 2;
    options.dop = dop;
    LexJoinOp join(&ctx,
                   std::make_unique<ValuesOp>(&ctx, NamesSchema(), outer),
                   std::make_unique<ValuesOp>(&ctx, NamesSchema(), inner),
                   1, 1, options);
    const uint64_t morsels0 = morsels->value();
    StatusOr<std::vector<Row>> rows = CollectAll(&join);
    EXPECT_TRUE(rows.ok()) << "dop=" << dop;
    return std::make_pair(RenderAll(rows), morsels->value() - morsels0);
  };

  const auto [ref_rows, ref_morsels] = run(1);
  ASSERT_FALSE(ref_rows.empty());
  EXPECT_EQ(ref_morsels, MorselCount(outer.size()));
  for (const int dop : kDops) {
    const auto [rows, morsels_run] = run(dop);
    EXPECT_EQ(rows, ref_rows) << "dop=" << dop;
    EXPECT_EQ(morsels_run, ref_morsels) << "dop=" << dop;
  }
}

// ------------------------------------------------------------------
// Layer 2: planner-level equivalence (the cost model must actually pick
// the parallel plan, and the full query results must match the serial
// reference).

TEST(PlannerDifferentialTest, ScanSweepProducesIdenticalResults) {
  for (const uint64_t seed : kSeeds) {
    auto db_or = MakeNamesDatabase(/*bases=*/1600, /*variants=*/3, seed,
                                   /*materialize=*/true);
    ASSERT_TRUE(db_or.ok());
    std::unique_ptr<Database> db = std::move(*db_or);
    auto session_or = db->Connect();
    ASSERT_TRUE(session_or.ok());
    std::unique_ptr<Session> session = std::move(*session_or);
    // Provision the worker pool regardless of this machine's core count;
    // the hint sweep below selects the per-query DOP.
    ASSERT_TRUE(session->Set("degree_of_parallelism", 8).ok());

    NameGenOptions gen;
    gen.seed = seed;
    gen.num_bases = 1600;
    gen.variants_per_base = 3;
    const std::vector<NameRecord> records = GenerateNames(gen);
    const Schema schema({{"id", TypeId::kInt32},
                         {"name", TypeId::kUniText, /*mat=*/true}});

    const LogicalPtr plan =
        MuralBuilder::Scan("names", schema)
            .PsiSelect("name", records[1].name, {}, 3)
            .Build();

    std::vector<std::string> reference;
    for (const int dop : kDops) {
      PlannerHints hints;
      hints.enable_mtree = false;
      hints.degree_of_parallelism = dop;
      auto result = session->Query(plan, hints);
      ASSERT_TRUE(result.ok()) << "seed=" << seed << " dop=" << dop;
      // One Psi scan leaf at every DOP.
      EXPECT_NE(result->explain.find("LexSelect("), std::string::npos)
          << result->explain;
      if (dop == 1) {
        EXPECT_EQ(result->explain.find("dop="), std::string::npos)
            << result->explain;
        reference = Sorted(RenderAll(result->rows));
        ASSERT_FALSE(reference.empty());
      } else {
        // The CPU term dominates at this scale, so the parallel costing
        // must win for every dop > 1.
        EXPECT_NE(result->explain.find("dop=" + std::to_string(dop)),
                  std::string::npos)
            << "seed=" << seed << " dop=" << dop << "\n" << result->explain;
        EXPECT_EQ(Sorted(RenderAll(result->rows)), reference)
            << "seed=" << seed << " dop=" << dop;
      }
    }
  }
}

TEST(PlannerDifferentialTest, JoinSweepProducesIdenticalResults) {
  // Unmaterialized names make the join run G2P through the phoneme cache,
  // so its EXPLAIN ANALYZE node has cache counts to show.
  for (const bool materialize : {true, false}) {
    for (const uint64_t seed : kSeeds) {
      auto db_or = MakeNamesDatabase(/*bases=*/120, /*variants=*/3, seed,
                                     materialize);
      ASSERT_TRUE(db_or.ok());
      std::unique_ptr<Database> db = std::move(*db_or);
      auto session_or = db->Connect();
      ASSERT_TRUE(session_or.ok());
      std::unique_ptr<Session> session = std::move(*session_or);
      ASSERT_TRUE(session->Set("degree_of_parallelism", 8).ok());

      // Second table for the join.
      const Schema schema({{"id", TypeId::kInt32},
                           {"name", TypeId::kUniText, materialize}});
      ASSERT_TRUE(db->CreateTable("others", schema).ok());
      // Same seed as "names" so the two tables share bases: variants of a
      // shared base join within the threshold.
      NameGenOptions gen;
      gen.seed = seed;
      gen.num_bases = 120;
      gen.variants_per_base = 3;
      const std::vector<NameRecord> all = GenerateNames(gen);
      for (size_t i = 0; i < (all.size() * 3) / 4; ++i) {
        const NameRecord& rec = all[i];
        ASSERT_TRUE(
            db->Insert("others", {Value::Int32(static_cast<int32_t>(rec.id)),
                                  Value::Uni(rec.name)})
                .ok());
      }
      ASSERT_TRUE(db->Analyze("others").ok());

      const LogicalPtr plan =
          MuralBuilder::Scan("names", schema)
              .PsiJoin(MuralBuilder::Scan("others", schema), "name", "name",
                       2)
              .Build();

      std::vector<std::string> reference;
      uint64_t reference_calls = 0;
      for (const int dop : kDops) {
        PlannerHints hints;
        hints.enable_mtree = false;
        hints.degree_of_parallelism = dop;
        // A plan that has not run shows no cache or verified counts at
        // any DOP.
        auto unrun = session->PlanQuery(plan, hints);
        ASSERT_TRUE(unrun.ok());
        EXPECT_EQ(unrun->Explain().find("cache h="), std::string::npos)
            << "dop=" << dop << "\n" << unrun->Explain();
        EXPECT_EQ(RenderedVerified(unrun->Explain()), std::nullopt)
            << "dop=" << dop << "\n" << unrun->Explain();
        auto result = session->Query(plan, hints);
        ASSERT_TRUE(result.ok()) << "seed=" << seed << " dop=" << dop;
        // The join is the plan's only Psi operator, so the counts its
        // EXPLAIN ANALYZE node shows are every lookup the query made.
        const uint64_t lookups = result->exec_stats.phoneme_cache_hits +
                                 result->exec_stats.phoneme_cache_misses;
        EXPECT_EQ(lookups > 0, !materialize);
        EXPECT_EQ(RenderedCacheLookups(result->explain_analyze), lookups)
            << "seed=" << seed << " dop=" << dop << "\n"
            << result->explain_analyze;
        // The filtered join renders the pairs it verified: one kernel call
        // each, the same count at every DOP.
        EXPECT_EQ(RenderedVerified(result->explain_analyze),
                  std::optional<uint64_t>(result->exec_stats.distance.calls))
            << "seed=" << seed << " dop=" << dop << "\n"
            << result->explain_analyze;
        if (dop == 1) {
          EXPECT_EQ(result->explain.find("dop="), std::string::npos)
              << result->explain;
          reference = Sorted(RenderAll(result->rows));
          ASSERT_FALSE(reference.empty());
          reference_calls = result->exec_stats.distance.calls;
        } else {
          EXPECT_NE(result->explain.find("dop=" + std::to_string(dop)),
                    std::string::npos)
              << "seed=" << seed << " dop=" << dop << "\n"
              << result->explain;
          EXPECT_EQ(Sorted(RenderAll(result->rows)), reference)
              << "seed=" << seed << " dop=" << dop;
          EXPECT_EQ(result->exec_stats.distance.calls, reference_calls)
              << "seed=" << seed << " dop=" << dop;
        }
      }
    }
  }
}

TEST(PlannerDifferentialTest, BatchSweepProducesIdenticalResults) {
  // Full-query differential over SET batch_size x degree_of_parallelism:
  // every combination must return the same rows as the outside-the-server
  // oracle (opaque predicate, an unkeyed scan), and the distance-kernel
  // call count must be plan-shape-invariant (one bounded call per non-null
  // key on every path).
  for (const uint64_t seed : kSeeds) {
    auto db_or = MakeNamesDatabase(/*bases=*/1600, /*variants=*/3, seed,
                                   /*materialize=*/true);
    ASSERT_TRUE(db_or.ok());
    std::unique_ptr<Database> db = std::move(*db_or);
    auto session_or = db->Connect();
    ASSERT_TRUE(session_or.ok());
    std::unique_ptr<Session> session = std::move(*session_or);
    ASSERT_TRUE(session->Set("degree_of_parallelism", 8).ok());

    NameGenOptions gen;
    gen.seed = seed;
    gen.num_bases = 1600;
    gen.variants_per_base = 3;
    const std::vector<NameRecord> records = GenerateNames(gen);
    const Schema schema({{"id", TypeId::kInt32},
                         {"name", TypeId::kUniText, /*mat=*/true}});
    const LogicalPtr plan = MuralBuilder::Scan("names", schema)
                                .PsiSelect("name", records[1].name, {}, 3)
                                .Build();

    PlannerHints opaque;
    opaque.opaque_multilingual = true;
    auto oracle = session->Query(plan, opaque);
    ASSERT_TRUE(oracle.ok());
    ASSERT_EQ(oracle->explain.find("LexSelect"), std::string::npos)
        << oracle->explain;
    std::vector<std::string> reference = Sorted(RenderAll(oracle->rows));
    ASSERT_FALSE(reference.empty());
    uint64_t reference_calls = 0;
    for (const size_t batch : kBatches) {
      ASSERT_TRUE(
          session->Sql("SET batch_size = " + std::to_string(batch)).ok());
      ASSERT_EQ(session->options().batch_size,
                static_cast<int64_t>(batch));
      for (const int dop : kDops) {
        PlannerHints hints;
        hints.enable_mtree = false;
        hints.degree_of_parallelism = dop;
        auto result = session->Query(plan, hints);
        ASSERT_TRUE(result.ok())
            << "seed=" << seed << " batch=" << batch << " dop=" << dop;
        // The same leaf at every batch size and DOP.
        EXPECT_NE(result->explain.find("LexSelect("), std::string::npos)
            << "batch=" << batch << " dop=" << dop << "\n"
            << result->explain;
        EXPECT_EQ(Sorted(RenderAll(result->rows)), reference)
            << "seed=" << seed << " batch=" << batch << " dop=" << dop;
        if (reference_calls == 0) {
          reference_calls = result->exec_stats.distance.calls;
          ASSERT_GT(reference_calls, 0u);
        } else {
          EXPECT_EQ(result->exec_stats.distance.calls, reference_calls)
              << "seed=" << seed << " batch=" << batch << " dop=" << dop;
        }
      }
    }
  }
}

TEST(PlannerDifferentialTest, PsiAndOmegaScanStaysSerial) {
  // Omega in the residual pins the scan leaf to DOP 1, keyed or not, even
  // where the same leaf without it plans parallel: SemEqualExpr counts
  // closure computations vs reuses from the shared cache's miss counter
  // around each Get, and Get computes outside its lock, so at DOP > 1 the
  // two counters would depend on how workers interleave.
  auto db_or = MakeNamesDatabase(/*bases=*/1600, /*variants=*/3, 42,
                                 /*materialize=*/true);
  ASSERT_TRUE(db_or.ok());
  std::unique_ptr<Database> db = std::move(*db_or);
  auto session_or = db->Connect();
  ASSERT_TRUE(session_or.ok());
  std::unique_ptr<Session> session = std::move(*session_or);
  ASSERT_TRUE(session->Set("degree_of_parallelism", 8).ok());

  NameGenOptions gen;
  gen.seed = 42;
  gen.num_bases = 1600;
  gen.variants_per_base = 3;
  const std::vector<NameRecord> records = GenerateNames(gen);
  const UniText& probe = records[1].name;
  // A one-synset taxonomy naming the probe itself: Omega holds exactly for
  // rows spelled like the probe.
  auto taxonomy = std::make_unique<Taxonomy>();
  taxonomy->AddSynset(probe.lang(), probe.text());
  ASSERT_TRUE(db->LoadTaxonomy(std::move(taxonomy)).ok());

  const Schema schema({{"id", TypeId::kInt32},
                       {"name", TypeId::kUniText, /*mat=*/true}});
  const LogicalPtr psi_only = MuralBuilder::Scan("names", schema)
                                  .PsiSelect("name", probe, {}, 3)
                                  .Build();
  const LogicalPtr psi_and_omega =
      MuralBuilder::Scan("names", schema)
          .Select(And(LexEq(Col(1, "name"), Lit(Value::Uni(probe)), 3),
                      SemEq(Col(1, "name"), Lit(Value::Uni(probe)))))
          .Build();

  PlannerHints hints;
  hints.enable_mtree = false;
  hints.degree_of_parallelism = 4;
  auto par = session->Query(psi_only, hints);
  ASSERT_TRUE(par.ok());
  ASSERT_NE(par->explain.find("dop=4"), std::string::npos) << par->explain;

  PlannerHints opaque;
  opaque.opaque_multilingual = true;
  auto oracle = session->Query(psi_and_omega, opaque);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_FALSE(oracle->rows.empty());

  for (const int dop : kDops) {
    hints.degree_of_parallelism = dop;
    auto result = session->Query(psi_and_omega, hints);
    ASSERT_TRUE(result.ok()) << "dop=" << dop;
    EXPECT_NE(result->explain.find("LexSelect("), std::string::npos)
        << result->explain;
    EXPECT_EQ(result->explain.find("dop="), std::string::npos)
        << "dop=" << dop << "\n" << result->explain;
    EXPECT_EQ(RenderAll(result->rows), RenderAll(oracle->rows))
        << "dop=" << dop;
  }

  // The residual-only Omega scan (the semequal_scan shape): the same leaf
  // with a non-Omega residual plans parallel, the Omega one never does.
  const LogicalPtr id_scan =
      MuralBuilder::Scan("names", schema)
          .Select(Cmp(CompareOp::kGe, Col(0, "id"), Lit(Value::Int32(0))))
          .Build();
  hints.degree_of_parallelism = 4;
  auto id_par = session->Query(id_scan, hints);
  ASSERT_TRUE(id_par.ok());
  ASSERT_NE(id_par->explain.find("dop=4"), std::string::npos)
      << id_par->explain;

  const LogicalPtr omega_only =
      MuralBuilder::Scan("names", schema)
          .Select(SemEq(Col(1, "name"), Lit(Value::Uni(probe))))
          .Build();
  std::vector<std::string> serial_rows;
  for (const int dop : kDops) {
    hints.degree_of_parallelism = dop;
    auto result = session->Query(omega_only, hints);
    ASSERT_TRUE(result.ok()) << "dop=" << dop;
    EXPECT_NE(result->explain.find("SeqScan("), std::string::npos)
        << result->explain;
    EXPECT_EQ(result->explain.find("dop="), std::string::npos)
        << "dop=" << dop << "\n" << result->explain;
    if (dop == 1) {
      serial_rows = RenderAll(result->rows);
      ASSERT_FALSE(serial_rows.empty());
    } else {
      EXPECT_EQ(RenderAll(result->rows), serial_rows) << "dop=" << dop;
    }
  }
}

TEST(PlannerDifferentialTest, SessionDopViaSqlSetIsHonored) {
  auto db_or = MakeNamesDatabase(/*bases=*/1600, /*variants=*/3, 42,
                                 /*materialize=*/true);
  ASSERT_TRUE(db_or.ok());
  std::unique_ptr<Database> db = std::move(*db_or);
  auto session_or = db->Connect();
  ASSERT_TRUE(session_or.ok());
  std::unique_ptr<Session> session = std::move(*session_or);

  auto set4 = session->Sql("SET degree_of_parallelism = 4");
  ASSERT_TRUE(set4.ok());
  EXPECT_EQ(session->options().degree_of_parallelism, 4);

  NameGenOptions gen;
  gen.seed = 42;
  gen.num_bases = 1600;
  gen.variants_per_base = 3;
  const std::vector<NameRecord> records = GenerateNames(gen);
  const Schema schema({{"id", TypeId::kInt32},
                       {"name", TypeId::kUniText, /*mat=*/true}});
  const LogicalPtr plan = MuralBuilder::Scan("names", schema)
                              .PsiSelect("name", records[1].name, {}, 3)
                              .Build();
  PlannerHints hints;
  hints.enable_mtree = false;  // hints.degree_of_parallelism stays -1
  auto par = session->Query(plan, hints);
  ASSERT_TRUE(par.ok());
  // The planner only plans dop= with a session worker pool, so this also
  // shows that SET provisioned one.
  ASSERT_NE(par->explain.find("dop=4"), std::string::npos) << par->explain;

  auto set1 = session->Sql("SET degree_of_parallelism = 1");
  ASSERT_TRUE(set1.ok());
  auto serial = session->Query(plan, hints);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->explain.find("dop="), std::string::npos)
      << serial->explain;
  EXPECT_EQ(Sorted(RenderAll(serial->rows)), Sorted(RenderAll(par->rows)));
}

}  // namespace
}  // namespace mural
