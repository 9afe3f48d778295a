// Tests for statistics, cardinality estimation (§3.4), the cost model
// (Table 3), and planner access-path / join-strategy choices.

#include <gtest/gtest.h>

#include "datagen/name_generator.h"
#include "engine/database.h"
#include "mural/algebra.h"
#include "optimizer/cardinality.h"
#include "optimizer/cost_model.h"
#include "session/session.h"

namespace mural {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open();
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto session = db_->Connect();
    ASSERT_TRUE(session.ok());
    session_ = std::move(*session);
    Schema schema({{"id", TypeId::kInt32},
                   {"name", TypeId::kUniText, /*mat=*/true}});
    ASSERT_TRUE(db_->CreateTable("names", schema).ok());
    // Skewed data: 'nehru' appears 50x (an MFV), tail names once each.
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db_->Insert("names", {Value::Int32(i),
                                        Value::Uni("nehru", lang::kEnglish)})
                      .ok());
    }
    Rng rng(5);
    for (int i = 50; i < 1000; ++i) {
      ASSERT_TRUE(
          db_->Insert("names", {Value::Int32(i),
                                Value::Uni(RandomBaseName(&rng),
                                           lang::kEnglish)})
              .ok());
    }
    ASSERT_TRUE(db_->Analyze("names").ok());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
};

// ---------------------------------------------------------------- stats

TEST_F(OptimizerTest, AnalyzeBuildsEndBiasedHistogram) {
  const std::shared_ptr<const TableStats> stats = db_->stats_catalog()->Get("names");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->num_rows, 1000u);
  EXPECT_GT(stats->num_pages, 0u);
  EXPECT_GT(stats->avg_row_len, 0.0);

  const ColumnStats* name = stats->Column("name");
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->non_null, 1000u);
  ASSERT_FALSE(name->mfvs.empty());
  // 'nehru' must be the top MFV with its exact count.
  EXPECT_EQ(name->mfvs[0].first.unitext().text(), "nehru");
  EXPECT_EQ(name->mfvs[0].second, 50u);
  EXPECT_LE(name->mfvs.size(), kNumMfvs);
  // Phoneme strings captured for Psi estimation.
  EXPECT_EQ(name->mfv_phonemes.size(), name->mfvs.size());
  EXPECT_FALSE(name->mfv_phonemes[0].empty());
  EXPECT_GT(name->avg_phoneme_len, 0.0);

  const ColumnStats* id = stats->Column("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->ndv, 1000u);
  EXPECT_GE(id->bounds.size(), 2u);
  EXPECT_EQ(id->bounds.front().int32(), 0);
  EXPECT_EQ(id->bounds.back().int32(), 999);
}

// ----------------------------------------------------------- cardinality

TEST_F(OptimizerTest, PsiSelectivityTracksMfvMassAndThreshold) {
  const std::shared_ptr<const TableStats> stats = db_->stats_catalog()->Get("names");
  const ColumnStats* name = stats->Column("name");
  CardinalityEstimator est(db_->stats_catalog(), nullptr);

  const Value query = Value::Uni("nehru", lang::kEnglish);
  const double sel0 =
      est.PsiScanSelectivity(*name, query, 0, session_->exec_context());
  // At least the 50 exact copies out of 1000.
  EXPECT_GE(sel0, 0.05);
  const double sel3 =
      est.PsiScanSelectivity(*name, query, 3, session_->exec_context());
  EXPECT_GE(sel3, sel0);  // threshold inflation is monotone
  EXPECT_LE(sel3, 1.0);

  // A query far from every MFV gets only the tail inflation.
  const Value far = Value::Uni("zzzzzzzzzz", lang::kEnglish);
  const double self_far =
      est.PsiScanSelectivity(*name, far, 1, session_->exec_context());
  EXPECT_LT(self_far, sel0);
}

TEST_F(OptimizerTest, EqSelectivityExactForMfvUniformForTail) {
  const std::shared_ptr<const TableStats> stats = db_->stats_catalog()->Get("names");
  const ColumnStats* name = stats->Column("name");
  CardinalityEstimator est(db_->stats_catalog(), nullptr);
  const double mfv_sel =
      est.EqSelectivity(*name, Value::Uni("nehru", lang::kEnglish));
  EXPECT_NEAR(mfv_sel, 0.05, 1e-9);
  const double tail_sel =
      est.EqSelectivity(*name, Value::Uni("unseen", lang::kEnglish));
  EXPECT_LT(tail_sel, mfv_sel);
  EXPECT_GT(tail_sel, 0.0);
}

TEST_F(OptimizerTest, RangeSelectivityFromBounds) {
  const std::shared_ptr<const TableStats> stats = db_->stats_catalog()->Get("names");
  const ColumnStats* id = stats->Column("id");
  CardinalityEstimator est(db_->stats_catalog(), nullptr);
  const double half =
      est.RangeSelectivity(*id, Value::Int32(0), Value::Int32(499));
  EXPECT_NEAR(half, 0.5, 0.15);
  const double all =
      est.RangeSelectivity(*id, Value::Null(), Value::Null());
  EXPECT_NEAR(all, 1.0, 1e-9);
}

TEST_F(OptimizerTest, OmegaSelectivityUsesClosureSize) {
  // 1 root + 9 children; closure(root)=10 of 20 synsets.
  auto tax = std::make_unique<Taxonomy>();
  const SynsetId root = tax->AddSynset(lang::kEnglish, "Root");
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(
        tax->AddIsA(tax->AddSynset(lang::kEnglish, "c" + std::to_string(i)),
                    root)
            .ok());
  }
  for (int i = 0; i < 10; ++i) {
    tax->AddSynset(lang::kEnglish, "other" + std::to_string(i));
  }
  CardinalityEstimator est(db_->stats_catalog(), tax.get());
  const Value root_value = Value::Uni("Root", lang::kEnglish);
  EXPECT_EQ(est.OmegaClosureSize(&root_value), 10.0);
  const std::shared_ptr<const TableStats> stats = db_->stats_catalog()->Get("names");
  const double sel =
      est.OmegaScanSelectivity(*stats->Column("name"), &root_value);
  EXPECT_NEAR(sel, 0.5, 1e-9);
}

// ------------------------------------------------------------ cost model

TEST_F(OptimizerTest, CostModelShapesMatchTable3) {
  CostModel model;
  RelProfile rel;
  rel.rows = 10000;
  rel.pages = 100;
  rel.avg_len = 12;
  rel.index_pages = 120;

  // Psi scan CPU grows with threshold (the k*L band).
  const Cost scan_k1 = model.PsiScanNoIndex(rel, 1);
  const Cost scan_k3 = model.PsiScanNoIndex(rel, 3);
  EXPECT_GT(scan_k3.cpu, scan_k1.cpu);
  EXPECT_EQ(scan_k3.io, scan_k1.io);  // both scan all pages

  // The approximate index reads a threshold-dependent fraction.
  const Cost mtree_k0 = model.PsiScanMTree(rel, 0);
  const Cost mtree_k3 = model.PsiScanMTree(rel, 3);
  EXPECT_LT(mtree_k0.io, mtree_k3.io);
  EXPECT_LT(mtree_k0.io, scan_k1.io);  // small k: index wins on I/O
  EXPECT_GE(model.ApproxIndexFraction(4), model.ApproxIndexFraction(1));
  EXPECT_LE(model.ApproxIndexFraction(100), 1.0);

  // Psi join CPU is quadratic in rows; halving one side halves cost.
  RelProfile half = rel;
  half.rows = 5000;
  EXPECT_NEAR(model.PsiJoinNoIndex(rel, half, 2).cpu /
                  model.PsiJoinNoIndex(rel, rel, 2).cpu,
              0.5, 0.01);

  // Omega with B+Tree beats per-level scans for small closures over a
  // large taxonomy.
  const Cost omega_seq =
      model.OmegaScanNoIndex(rel, /*closure=*/100, /*tax_nodes=*/60000,
                             /*tax_pages=*/400, /*tax_height=*/12);
  const Cost omega_btree =
      model.OmegaScanBTree(rel, /*closure=*/100, /*btree_height=*/3,
                           /*fanout=*/4.5);
  EXPECT_LT(omega_btree.total(), omega_seq.total());
}

// --------------------------------------------------------------- planner

TEST_F(OptimizerTest, PlannerPicksMTreeForSelectivePsiScan) {
  ASSERT_TRUE(db_->CreateIndex("names_mtree", "names", "name",
                               IndexKind::kMTree, /*on_phonemes=*/true)
                  .ok());
  ASSERT_TRUE(session_->Set("lexequal_threshold", 1).ok());
  // Pin the tuple-at-a-time path: this test compares the index race
  // against the scan leaf's per-tuple (Table 3) cost specifically.
  ASSERT_TRUE(session_->Set("batch_size", 0).ok());
  auto plan = MuralBuilder::Scan(
                  "names", (*db_->catalog()->GetTable("names"))->schema)
                  .PsiSelect("name", UniText("nehru", lang::kEnglish))
                  .Build();
  auto physical = session_->PlanQuery(plan);
  ASSERT_TRUE(physical.ok());
  EXPECT_NE(physical->Explain().find("mtreeIndexScan"), std::string::npos)
      << physical->Explain();

  // Disabling the metric index forces the scan leaf.
  PlannerHints hints;
  hints.enable_mtree = false;
  auto forced = session_->PlanQuery(plan, hints);
  ASSERT_TRUE(forced.ok());
  EXPECT_EQ(forced->Explain().find("mtreeIndexScan"), std::string::npos);
  EXPECT_NE(forced->Explain().find("LexSelect("), std::string::npos)
      << forced->Explain();
  // And the optimizer believed the index plan was cheaper.
  EXPECT_LT(physical->predicted_cost.total(),
            forced->predicted_cost.total());
}

TEST_F(OptimizerTest, IndexAndSeqPlansReturnSameRows) {
  ASSERT_TRUE(db_->CreateIndex("names_mtree", "names", "name",
                               IndexKind::kMTree, /*on_phonemes=*/true)
                  .ok());
  ASSERT_TRUE(session_->Set("lexequal_threshold", 2).ok());
  auto plan = MuralBuilder::Scan(
                  "names", (*db_->catalog()->GetTable("names"))->schema)
                  .PsiSelect("name", UniText("nehru", lang::kEnglish))
                  .Build();
  auto with_index = session_->Query(plan);
  PlannerHints hints;
  hints.enable_mtree = false;
  auto without = session_->Query(plan, hints);
  ASSERT_TRUE(with_index.ok() && without.ok());
  EXPECT_EQ(with_index->rows.size(), without->rows.size());
  EXPECT_GE(with_index->rows.size(), 50u);
}

TEST_F(OptimizerTest, PlannerPicksBTreeForEqualityProbe) {
  ASSERT_TRUE(db_->CreateIndex("names_id", "names", "id", IndexKind::kBTree,
                               /*on_phonemes=*/false)
                  .ok());
  auto table = db_->catalog()->GetTable("names");
  auto plan = MuralBuilder::Scan("names", (*table)->schema)
                  .Select(Eq(Col(0, "id"), Lit(Value::Int32(77))))
                  .Build();
  auto physical = session_->PlanQuery(plan);
  ASSERT_TRUE(physical.ok());
  EXPECT_NE(physical->Explain().find("btreeIndexScan"), std::string::npos)
      << physical->Explain();
  auto result = session_->Query(plan);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].int32(), 77);
}

TEST_F(OptimizerTest, OpaqueMultilingualHintBlocksMetricIndex) {
  ASSERT_TRUE(db_->CreateIndex("names_mtree", "names", "name",
                               IndexKind::kMTree, /*on_phonemes=*/true)
                  .ok());
  auto plan = MuralBuilder::Scan(
                  "names", (*db_->catalog()->GetTable("names"))->schema)
                  .PsiSelect("name", UniText("nehru", lang::kEnglish))
                  .Build();
  PlannerHints hints;
  hints.opaque_multilingual = true;
  auto physical = session_->PlanQuery(plan, hints);
  ASSERT_TRUE(physical.ok());
  EXPECT_EQ(physical->Explain().find("mtreeIndexScan"), std::string::npos);
}

// ------------------------------------------------------------ parallelism

TEST_F(OptimizerTest, ParallelizeDividesCpuAndChargesCoordination) {
  CostModel model;
  const Cost serial{/*cpu=*/100.0, /*io=*/40.0};
  // dop = 1 is the identity: no setup, no worker charge.
  const Cost same = model.Parallelize(serial, 1);
  EXPECT_DOUBLE_EQ(same.cpu, serial.cpu);
  EXPECT_DOUBLE_EQ(same.io, serial.io);
  // dop = 4: cpu/4 plus setup plus per-worker coordination; I/O is not
  // parallelized (children are drained serially).
  const Cost par = model.Parallelize(serial, 4);
  EXPECT_DOUBLE_EQ(par.cpu, 100.0 / 4 + 10.0 + 2.0 * 4);
  EXPECT_DOUBLE_EQ(par.io, serial.io);
  // Tiny CPU loads never win: the fixed charges dominate.
  const Cost tiny{/*cpu=*/5.0, /*io=*/1.0};
  EXPECT_GT(model.Parallelize(tiny, 4).total(), tiny.total());
}

TEST_F(OptimizerTest, SerialPlanAtDopOneAndAtSmallCardinality) {
  // Provision the pool.
  ASSERT_TRUE(session_->Set("degree_of_parallelism", 8).ok());
  auto plan = MuralBuilder::Scan(
                  "names", (*db_->catalog()->GetTable("names"))->schema)
                  .PsiSelect("name", UniText("nehru", lang::kEnglish))
                  .Build();
  PlannerHints hints;
  hints.enable_mtree = false;

  // Explicit DOP = 1: the Psi leaf runs serially.
  hints.degree_of_parallelism = 1;
  auto serial = session_->PlanQuery(plan, hints);
  ASSERT_TRUE(serial.ok());
  EXPECT_NE(serial->Explain().find("LexSelect("), std::string::npos)
      << serial->Explain();
  EXPECT_EQ(serial->Explain().find("dop="), std::string::npos)
      << serial->Explain();

  // DOP = 4 but only 1000 rows at threshold 2: the Table-3 CPU term
  // (~12 units) is below the parallel setup+worker charge, so the cost
  // model keeps the serial plan.
  ASSERT_TRUE(session_->Set("lexequal_threshold", 2).ok());
  hints.degree_of_parallelism = 4;
  auto small = session_->PlanQuery(plan, hints);
  ASSERT_TRUE(small.ok());
  EXPECT_NE(small->Explain().find("LexSelect("), std::string::npos)
      << small->Explain();
  EXPECT_EQ(small->Explain().find("dop="), std::string::npos)
      << small->Explain();
}

TEST_F(OptimizerTest, ParallelPlanWhenCpuTermDominates) {
  ASSERT_TRUE(session_->Set("degree_of_parallelism", 8).ok());
  // Threshold 6 widens the edit-distance band: the per-row CPU term grows
  // past the parallel overhead, so the parallel candidate wins.
  ASSERT_TRUE(session_->Set("lexequal_threshold", 6).ok());
  auto plan = MuralBuilder::Scan(
                  "names", (*db_->catalog()->GetTable("names"))->schema)
                  .PsiSelect("name", UniText("nehru", lang::kEnglish))
                  .Build();
  PlannerHints hints;
  hints.enable_mtree = false;
  hints.degree_of_parallelism = 4;
  auto par = session_->PlanQuery(plan, hints);
  ASSERT_TRUE(par.ok());
  EXPECT_NE(par->Explain().find("LexSelect("), std::string::npos)
      << par->Explain();
  EXPECT_NE(par->Explain().find("dop=4"), std::string::npos)
      << par->Explain();

  // The opaque-multilingual hint (paper §4.1: engine can't see inside the
  // predicate) also blocks parallel rewrites.
  hints.opaque_multilingual = true;
  auto opaque = session_->PlanQuery(plan, hints);
  ASSERT_TRUE(opaque.ok());
  EXPECT_EQ(opaque->Explain().find("LexSelect"), std::string::npos)
      << opaque->Explain();
  EXPECT_EQ(opaque->Explain().find("dop="), std::string::npos)
      << opaque->Explain();
}

TEST_F(OptimizerTest, PredictedRowsTrackActualForPsiScan) {
  ASSERT_TRUE(session_->Set("lexequal_threshold", 1).ok());
  auto plan = MuralBuilder::Scan(
                  "names", (*db_->catalog()->GetTable("names"))->schema)
                  .PsiSelect("name", UniText("nehru", lang::kEnglish))
                  .Build();
  auto result = session_->Query(plan);
  ASSERT_TRUE(result.ok());
  // The MFV-based estimate must be within a small factor of the truth
  // (the 50 copies dominate).
  EXPECT_GE(result->rows.size(), 50u);
  EXPECT_GT(result->predicted_rows, 25.0);
  EXPECT_LT(result->predicted_rows,
            static_cast<double>(result->rows.size()) * 10);
}

}  // namespace
}  // namespace mural
