// Tests for the vectorized execution path: RowBatch mechanics, the
// default NextBatchImpl shim every operator inherits, FilterOp's
// selection-vector compaction, the SET BATCH_SIZE session setting, and
// the batches= annotation in EXPLAIN ANALYZE trace trees.
//
// Kernel-level equivalence lives in distance_test.cc; whole-pipeline
// batch-vs-tuple differentials in parallel_differential_test.cc.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/database.h"
#include "exec/basic_ops.h"
#include "exec/operator.h"
#include "mural/algebra.h"
#include "session/session.h"

namespace mural {
namespace {

Schema IntSchema() { return Schema({{"a", TypeId::kInt32}}); }

std::vector<Row> IntRows(int n) {
  std::vector<Row> rows;
  rows.reserve(n);
  for (int i = 0; i < n; ++i) rows.push_back({Value::Int32(i)});
  return rows;
}

// ------------------------------------------------------------- RowBatch

TEST(RowBatchTest, PushRowSelectsAndFills) {
  RowBatch batch(3);
  EXPECT_EQ(batch.capacity(), 3u);
  EXPECT_TRUE(batch.empty());
  EXPECT_FALSE(batch.full());
  *batch.PushRow() = {Value::Int32(10)};
  *batch.PushRow() = {Value::Int32(11)};
  EXPECT_EQ(batch.num_selected(), 2u);
  EXPECT_FALSE(batch.full());
  *batch.PushRow() = {Value::Int32(12)};
  EXPECT_TRUE(batch.full());
  EXPECT_EQ(batch.SelectedRow(0)[0].int32(), 10);
  EXPECT_EQ(batch.SelectedRow(2)[0].int32(), 12);
}

TEST(RowBatchTest, ZeroCapacityIsPromotedToOne) {
  RowBatch batch(0);
  EXPECT_EQ(batch.capacity(), 1u);
  *batch.PushRow() = {Value::Int32(7)};
  EXPECT_TRUE(batch.full());
}

TEST(RowBatchTest, ResetClearsSelectionKeepsStorage) {
  RowBatch batch(4);
  *batch.PushRow() = {Value::Int32(1)};
  *batch.PushRow() = {Value::Int32(2)};
  batch.Reset();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.num_selected(), 0u);
  EXPECT_FALSE(batch.full());
  // Refill after Reset starts from slot zero again.
  *batch.PushRow() = {Value::Int32(3)};
  EXPECT_EQ(batch.SelectedRow(0)[0].int32(), 3);
}

TEST(RowBatchTest, SelectionCompactionSkipsRows) {
  RowBatch batch(5);
  for (int i = 0; i < 5; ++i) *batch.PushRow() = {Value::Int32(i)};
  // Keep the even slots, the way FilterOp compacts in place.
  std::vector<uint32_t>& sel = batch.selection();
  size_t kept = 0;
  for (size_t i = 0; i < sel.size(); ++i) {
    if (batch.SelectedRow(i)[0].int32() % 2 == 0) sel[kept++] = sel[i];
  }
  sel.resize(kept);
  ASSERT_EQ(batch.num_selected(), 3u);
  EXPECT_EQ(batch.SelectedRow(0)[0].int32(), 0);
  EXPECT_EQ(batch.SelectedRow(1)[0].int32(), 2);
  EXPECT_EQ(batch.SelectedRow(2)[0].int32(), 4);
}

// ---------------------------------------------- default NextBatch shim

// ValuesOp does not override NextBatchImpl, so this exercises the base
// implementation that loops NextImpl.
TEST(NextBatchShimTest, BatchesArePackedAndCounted) {
  ExecContext ctx;
  ValuesOp op(&ctx, IntSchema(), IntRows(10));
  ASSERT_TRUE(op.Open().ok());
  RowBatch batch(4);
  int total = 0, batches = 0;
  while (true) {
    auto more = op.NextBatch(&batch);
    ASSERT_TRUE(more.ok());
    if (!*more && batch.empty()) break;
    ++batches;
    for (size_t i = 0; i < batch.num_selected(); ++i) {
      EXPECT_EQ(batch.SelectedRow(i)[0].int32(), total++);
    }
    if (!*more) break;
  }
  ASSERT_TRUE(op.Close().ok());
  EXPECT_EQ(total, 10);
  EXPECT_EQ(batches, 3);  // 4 + 4 + 2
  EXPECT_EQ(op.batches_produced(), 3u);
  EXPECT_EQ(op.rows_produced(), 10u);
  // A further call reports exhaustion with an empty batch.
}

TEST(NextBatchShimTest, ExhaustedOperatorReturnsEmptyFalse) {
  ExecContext ctx;
  ValuesOp op(&ctx, IntSchema(), IntRows(2));
  ASSERT_TRUE(op.Open().ok());
  RowBatch batch(8);
  auto first = op.NextBatch(&batch);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(batch.num_selected(), 2u);
  auto second = op.NextBatch(&batch);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(*second);
  EXPECT_TRUE(batch.empty());
  // Only the non-empty batch counted.
  EXPECT_EQ(op.batches_produced(), 1u);
  ASSERT_TRUE(op.Close().ok());
}

// ------------------------------------------------ FilterOp batch path

TEST(FilterBatchTest, CompactsSelectionInPlace) {
  ExecContext ctx;
  ctx.batch_size = 4;
  // a >= 90 keeps the last 10 of 100 rows: the filter must loop past many
  // all-filtered batches without emitting empties.
  FilterOp filter(&ctx,
                  std::make_unique<ValuesOp>(&ctx, IntSchema(), IntRows(100)),
                  Cmp(CompareOp::kGe, Col(0, "a"), Lit(Value::Int32(90))));
  ASSERT_TRUE(filter.Open().ok());
  RowBatch batch(4);
  std::vector<int> got;
  while (true) {
    auto more = filter.NextBatch(&batch);
    ASSERT_TRUE(more.ok());
    for (size_t i = 0; i < batch.num_selected(); ++i) {
      got.push_back(batch.SelectedRow(i)[0].int32());
    }
    // Every emitted batch is non-empty by contract.
    if (*more) {
      EXPECT_FALSE(batch.empty());
    }
    if (!*more) break;
  }
  ASSERT_TRUE(filter.Close().ok());
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(got[i], 90 + i);
  EXPECT_EQ(filter.rows_produced(), 10u);
}

TEST(FilterBatchTest, CollectAllMatchesTuplePath) {
  auto run = [](size_t batch_size) {
    ExecContext ctx;
    ctx.batch_size = batch_size;
    FilterOp filter(
        &ctx, std::make_unique<ValuesOp>(&ctx, IntSchema(), IntRows(37)),
        Cmp(CompareOp::kLt, Col(0, "a"), Lit(Value::Int32(23))));
    auto rows = CollectAll(&filter);
    EXPECT_TRUE(rows.ok());
    std::vector<int> out;
    for (const Row& r : *rows) out.push_back(r[0].int32());
    return out;
  };
  const std::vector<int> tuple_path = run(0);
  ASSERT_EQ(tuple_path.size(), 23u);
  for (const size_t b : {size_t{1}, size_t{5}, size_t{64}}) {
    EXPECT_EQ(run(b), tuple_path) << "batch=" << b;
  }
}

// --------------------------------------------------- session setting

TEST(BatchSizeSettingTest, SqlSetAndClamping) {
  auto db_or = Database::Open();
  ASSERT_TRUE(db_or.ok());
  std::unique_ptr<Database> db = std::move(*db_or);
  auto session_or = db->Connect();
  ASSERT_TRUE(session_or.ok());
  std::unique_ptr<Session> session = std::move(*session_or);
  EXPECT_EQ(session->options().batch_size, 1024);  // default on

  ASSERT_TRUE(session->Sql("SET batch_size = 7").ok());
  EXPECT_EQ(session->options().batch_size, 7);
  ASSERT_TRUE(session->Sql("SET batch_size = 0").ok());
  EXPECT_EQ(session->options().batch_size, 0);

  ASSERT_TRUE(session->Set("batch_size", 1 << 20).ok());
  EXPECT_EQ(session->options().batch_size, 65536);
  ASSERT_TRUE(session->Set("batch_size", -5).ok());
  EXPECT_EQ(session->options().batch_size, 0);

  DatabaseOptions options;
  options.batch_size = 13;
  auto db2 = Database::Open(options);
  ASSERT_TRUE(db2.ok());
  auto session2 = (*db2)->Connect();
  ASSERT_TRUE(session2.ok());
  EXPECT_EQ((*session2)->options().batch_size, 13);
}

// --------------------------------------------------- trace annotation

TEST(BatchTraceTest, ExplainAnalyzeReportsBatches) {
  auto db_or = Database::Open();
  ASSERT_TRUE(db_or.ok());
  std::unique_ptr<Database> db = std::move(*db_or);
  auto session_or = db->Connect();
  ASSERT_TRUE(session_or.ok());
  std::unique_ptr<Session> session = std::move(*session_or);
  // Deterministic serial plan.
  ASSERT_TRUE(session->Set("degree_of_parallelism", 1).ok());
  Schema schema({{"id", TypeId::kInt32}, {"name", TypeId::kUniText}});
  ASSERT_TRUE(db->CreateTable("t", schema).ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        db->Insert("t", {Value::Int32(i),
                         Value::Uni(UniText(i % 5 == 0 ? "nira" : "zzzzz",
                                            lang::kEnglish))})
            .ok());
  }
  ASSERT_TRUE(db->Analyze("t").ok());
  const LogicalPtr plan =
      MuralBuilder::Scan("t", schema)
          .PsiSelect("name", UniText("nira", lang::kEnglish), {}, 1)
          .Build();

  ASSERT_TRUE(session->Set("batch_size", 4).ok());
  auto batched = session->Query(plan);
  ASSERT_TRUE(batched.ok());
  EXPECT_NE(batched->explain.find("LexSelect"), std::string::npos)
      << batched->explain;
  EXPECT_NE(batched->explain_analyze.find("batches="), std::string::npos)
      << batched->explain_analyze;
  EXPECT_NE(batched->explain_analyze.find("rows/batch="), std::string::npos)
      << batched->explain_analyze;

  // Tuple path: no batch annotation anywhere in the tree.
  ASSERT_TRUE(session->Set("batch_size", 0).ok());
  auto tuple = session->Query(plan);
  ASSERT_TRUE(tuple.ok());
  EXPECT_EQ(tuple->explain_analyze.find("batches="), std::string::npos)
      << tuple->explain_analyze;
  // Same matches either way.
  EXPECT_EQ(tuple->rows.size(), batched->rows.size());
  EXPECT_EQ(tuple->rows.size(), 10u);
}

}  // namespace
}  // namespace mural
