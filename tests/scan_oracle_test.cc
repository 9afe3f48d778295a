// Independent oracle for the heap-scan leaf.  SeqScanOp walks page morsels
// through read guards and, when keyed, peeks the Psi key before it
// deserializes a row; the oracle walks the heap with HeapFile::Iterator,
// deserializes every record and evaluates the whole predicate with
// EvalPredicate.  Every scan shape (no key, residual only, key only, key
// + residual) must return the same rows in the same order at DOP
// {1, 2, 4, 8} x batch {1, 7, 1024}, over tables with tombstones (a whole
// page of them among them), NULL keys, a one-page table, and tables that
// split into several morsels.  On materialized keys the merged ExecStats
// must not depend on DOP or batch size either.  (The ragged last morsel is
// covered by ParallelMorselsTest: tables this small get one-page morsels.)

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/tuple_codec.h"
#include "common/thread_pool.h"
#include "datagen/name_generator.h"
#include "engine/database.h"
#include "exec/scan_ops.h"
#include "phonetic/phoneme_cache.h"
#include "phonetic/transformer.h"

namespace mural {
namespace {

constexpr int kDops[] = {1, 2, 4, 8};
constexpr size_t kBatches[] = {1, 7, 1024};
constexpr int kThreshold = 2;

std::string Render(const std::vector<Row>& rows) {
  std::string out;
  for (const Row& row : rows) {
    for (const Value& v : row) out += v.ToString() + "|";
    out += "\n";
  }
  return out;
}

std::vector<std::pair<std::string, uint64_t>> StatsVector(
    const ExecStats& s) {
  std::vector<std::pair<std::string, uint64_t>> out;
  ExecStats::ForEachCounter(s, [&](const char* name, const uint64_t& v) {
    out.emplace_back(name, v);
  });
  return out;
}

// One scan shape: an optional Psi key and an optional residual.
struct Shape {
  std::string name;
  std::optional<PsiScanKey> key;
  ExprPtr residual;

  // The predicate the oracle evaluates: the key as a LexEQUAL conjunct,
  // AND the residual.
  ExprPtr Predicate() const {
    ExprPtr pred;
    if (key.has_value()) {
      pred = LexEq(Col(key->col, "name"), Lit(key->probe),
                   key->threshold_override);
    }
    if (residual != nullptr) {
      pred = pred == nullptr ? residual : And(pred, residual);
    }
    return pred;
  }
};

class ScanOracleTest : public ::testing::Test {
 protected:
  ScanOracleTest() : pool_(7) {}

  void SetUp() override {
    auto db = Database::Open();
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    NameGenOptions gen;
    gen.seed = 11;
    gen.num_bases = 500;
    gen.variants_per_base = 4;
    names_ = GenerateNames(gen);
    // The probe is materialized so the key and the oracle's literal cost
    // no phoneme-cache lookups.
    probe_ = names_[3].name;
    PhoneticTransformer::Default().Materialize(&probe_);
  }

  // Loads `rows` names into a fresh table; every 11th key is NULL.
  const TableInfo* MakeTable(const std::string& name, size_t rows,
                             bool materialize) {
    const Schema schema({{"id", TypeId::kInt32},
                         {"name", TypeId::kUniText, materialize}});
    EXPECT_TRUE(db_->CreateTable(name, schema).ok());
    for (size_t i = 0; i < rows; ++i) {
      const Value key =
          i % 11 == 5 ? Value::Null() : Value::Uni(names_[i].name);
      EXPECT_TRUE(
          db_->Insert(name, {Value::Int32(static_cast<int32_t>(i)), key})
              .ok());
    }
    auto table = db_->catalog()->GetTable(name);
    EXPECT_TRUE(table.ok());
    return *table;
  }

  // Deletes every 4th record, and every record of the second page.
  static void Tombstone(const TableInfo* table) {
    ASSERT_GE(table->heap->pages().size(), 3u);
    const PageId second = table->heap->pages()[1];
    std::vector<Rid> doomed;
    size_t i = 0;
    for (auto it = table->heap->Begin(); it.Valid(); it.Next(), ++i) {
      if (i % 4 == 0 || it.rid().page == second) doomed.push_back(it.rid());
    }
    for (const Rid rid : doomed) ASSERT_TRUE(table->heap->Delete(rid).ok());
  }

  std::vector<Shape> Shapes() const {
    // The residual-only predicate holds Psi inside an OR, the form the
    // planner cannot turn into a key.
    const Value probe = Value::Uni(probe_);
    std::vector<Shape> shapes;
    shapes.push_back({"no key", std::nullopt, nullptr});
    shapes.push_back(
        {"residual only", std::nullopt,
         Or(LexEq(Col(1, "name"), Lit(probe), kThreshold),
            Cmp(CompareOp::kLt, Col(0, "id"), Lit(Value::Int32(40))))});
    shapes.push_back({"key only", PsiScanKey{1, probe, kThreshold}, nullptr});
    shapes.push_back({"key + residual", PsiScanKey{1, probe},
                      LangIn(Col(1, "name"), {probe_.lang()})});
    return shapes;
  }

  ExecContext MakeCtx(int dop, size_t batch) {
    ExecContext ctx;
    ctx.lexequal_threshold = kThreshold;
    ctx.phoneme_cache = &cache_;
    ctx.batch_size = batch;
    if (dop > 1) {
      ctx.thread_pool = &pool_;
      ctx.degree_of_parallelism = dop;
    }
    return ctx;
  }

  // HeapFile::Iterator + Deserialize + EvalPredicate.
  std::vector<Row> Oracle(const TableInfo* table, const ExprPtr& pred) {
    ExecContext ctx = MakeCtx(1, 0);
    std::vector<Row> rows;
    auto it = table->heap->Begin();
    for (; it.Valid(); it.Next()) {
      Row row;
      EXPECT_TRUE(
          TupleCodec::Deserialize(table->schema, it.record(), &row).ok());
      if (pred != nullptr) {
        StatusOr<bool> keep = EvalPredicate(*pred, row, &ctx);
        EXPECT_TRUE(keep.ok());
        if (!keep.ok() || !*keep) continue;
      }
      rows.push_back(std::move(row));
    }
    EXPECT_TRUE(it.status().ok());
    return rows;
  }

  // Runs every shape at every DOP x batch against the oracle; with
  // `check_stats`, the merged counters must match the DOP-1 batch-1 run.
  void Sweep(const TableInfo* table, bool check_stats) {
    for (const Shape& shape : Shapes()) {
      const std::vector<Row> expected = Oracle(table, shape.Predicate());
      if (shape.key.has_value() || shape.residual != nullptr) {
        ASSERT_FALSE(expected.empty()) << shape.name;
      }
      std::optional<std::vector<std::pair<std::string, uint64_t>>> ref_stats;
      for (const int dop : kDops) {
        for (const size_t batch : kBatches) {
          ExecContext ctx = MakeCtx(dop, batch);
          SeqScanOp scan(&ctx, table, shape.key, shape.residual, dop);
          StatusOr<std::vector<Row>> rows = CollectAll(&scan);
          ASSERT_TRUE(rows.ok()) << rows.status().ToString();
          EXPECT_EQ(Render(*rows), Render(expected))
              << shape.name << " dop=" << dop << " batch=" << batch;
          if (!check_stats) continue;
          if (!ref_stats.has_value()) {
            ref_stats = StatsVector(ctx.stats);
          } else {
            EXPECT_EQ(StatsVector(ctx.stats), *ref_stats)
                << shape.name << " dop=" << dop << " batch=" << batch;
          }
        }
      }
    }
  }

  ThreadPool pool_;
  PhonemeCache cache_{1 << 14};
  std::unique_ptr<Database> db_;
  std::vector<NameRecord> names_;
  UniText probe_;
};

TEST_F(ScanOracleTest, MaterializedKeysWithTombstones) {
  const TableInfo* table = MakeTable("t", 1500, /*materialize=*/true);
  const size_t pages = table->heap->pages().size();
  ASSERT_GT(MorselCount(pages), 1u) << pages << " pages";
  Tombstone(table);
  Sweep(table, /*check_stats=*/true);
}

TEST_F(ScanOracleTest, UnmaterializedKeysWithTombstones) {
  // The key runs G2P through the shared cache, so only rows are compared:
  // two workers may both miss on one key.
  const TableInfo* table = MakeTable("t", 1200, /*materialize=*/false);
  ASSERT_GT(MorselCount(table->heap->pages().size()), 1u)
      << table->heap->pages().size() << " pages";
  Tombstone(table);
  Sweep(table, /*check_stats=*/false);
}

TEST_F(ScanOracleTest, OnePageTable) {
  const TableInfo* table = MakeTable("t", 40, /*materialize=*/true);
  ASSERT_EQ(table->heap->pages().size(), 1u);
  Sweep(table, /*check_stats=*/true);
}

TEST_F(ScanOracleTest, EmptyTableReturnsNothing) {
  const TableInfo* table = MakeTable("t", 0, /*materialize=*/true);
  for (const Shape& shape : Shapes()) {
    for (const int dop : kDops) {
      ExecContext ctx = MakeCtx(dop, 7);
      SeqScanOp scan(&ctx, table, shape.key, shape.residual, dop);
      StatusOr<std::vector<Row>> rows = CollectAll(&scan);
      ASSERT_TRUE(rows.ok());
      EXPECT_TRUE(rows->empty()) << shape.name << " dop=" << dop;
    }
  }
}

}  // namespace
}  // namespace mural
