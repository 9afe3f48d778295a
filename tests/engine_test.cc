// Integration tests for the Database core and its Sessions: DDL/DML,
// taxonomy loading, core vs outside-the-server execution paths, and closure
// strategies.

#include <gtest/gtest.h>

#include <set>

#include "datagen/catalog_generator.h"
#include "datagen/name_generator.h"
#include "datagen/taxonomy_generator.h"
#include "engine/closure_exec.h"
#include "engine/database.h"
#include "engine/outside_server.h"
#include "mural/algebra.h"
#include "session/session.h"

namespace mural {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open();
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto session = db_->Connect();
    ASSERT_TRUE(session.ok());
    session_ = std::move(*session);
  }

  void LoadNames(size_t bases, size_t variants) {
    Schema schema({{"id", TypeId::kInt32},
                   {"name", TypeId::kUniText, /*mat=*/true}});
    ASSERT_TRUE(db_->CreateTable("names", schema).ok());
    NameGenOptions options;
    options.seed = 99;
    options.num_bases = bases;
    options.variants_per_base = variants;
    names_ = GenerateNames(options);
    for (const NameRecord& rec : names_) {
      ASSERT_TRUE(db_->Insert("names",
                              {Value::Int32(static_cast<int32_t>(rec.id)),
                               Value::Uni(rec.name)})
                      .ok());
    }
    ASSERT_TRUE(db_->Analyze("names").ok());
  }

  void LoadSmallTaxonomy() {
    TaxonomyGenOptions options;
    options.seed = 7;
    options.base_synsets = 800;
    options.languages = {lang::kEnglish, lang::kTamil};
    gen_ = GenerateTaxonomy(options);
    // Keep a copy of handles before the taxonomy moves into the DB.
    base_synsets_ = gen_.base_synsets;
    ASSERT_TRUE(db_->LoadTaxonomy(std::move(gen_.taxonomy)).ok());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
  std::vector<NameRecord> names_;
  GeneratedTaxonomy gen_;
  std::vector<SynsetId> base_synsets_;
};

TEST_F(EngineTest, InsertMaterializesPhonemesPerSchema) {
  Schema schema({{"a", TypeId::kUniText, /*mat=*/true},
                 {"b", TypeId::kUniText, /*mat=*/false}});
  ASSERT_TRUE(db_->CreateTable("t", schema).ok());
  ASSERT_TRUE(db_->Insert("t", {Value::Uni("nehru", lang::kEnglish),
                                Value::Uni("nehru", lang::kEnglish)})
                  .ok());
  auto result = session_->Sql("SELECT * FROM t");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_TRUE(result->rows[0][0].unitext().has_phonemes());
  EXPECT_FALSE(result->rows[0][1].unitext().has_phonemes());
}

TEST_F(EngineTest, CoreLexScanFindsHomophoneFamilies) {
  LoadNames(200, 4);
  ASSERT_TRUE(session_->Set("lexequal_threshold", 3).ok());
  // Query with the first record's name: its base family must be found.
  const NameRecord& probe = names_[0];
  auto plan =
      MuralBuilder::Scan("names",
                         (*db_->catalog()->GetTable("names"))->schema)
          .PsiSelect("name", probe.name)
          .Build();
  auto result = session_->Query(plan);
  ASSERT_TRUE(result.ok());
  std::set<uint32_t> found;
  for (const Row& r : result->rows) {
    found.insert(static_cast<uint32_t>(r[0].int32()));
  }
  // Most variants of the same base should match at threshold 2.
  size_t family_hits = 0, family_size = 0;
  for (const NameRecord& rec : names_) {
    if (rec.base_id != probe.base_id) continue;
    ++family_size;
    if (found.count(rec.id)) ++family_hits;
  }
  EXPECT_EQ(family_size, 4u);
  EXPECT_GE(family_hits, 3u);
}

TEST_F(EngineTest, OutsideLexScanMatchesCoreResults) {
  LoadNames(100, 4);
  ASSERT_TRUE(session_->Set("lexequal_threshold", 2).ok());
  const NameRecord& probe = names_[5];

  auto core_plan =
      MuralBuilder::Scan("names",
                         (*db_->catalog()->GetTable("names"))->schema)
          .PsiSelect("name", probe.name)
          .Build();
  auto core = session_->Query(core_plan);
  ASSERT_TRUE(core.ok());

  auto outside = OutsideLexScan(db_.get(), "names", "name", probe.name, 2);
  ASSERT_TRUE(outside.ok()) << outside.status().ToString();
  EXPECT_EQ(outside->first.size(), core->rows.size());
  EXPECT_EQ(outside->second.udf_calls, 400u);  // one per row
  EXPECT_GT(outside->second.wire_bytes, 0u);
}

TEST_F(EngineTest, OutsideLexScanWithMdiVerifiesCandidates) {
  LoadNames(100, 4);
  ASSERT_TRUE(db_->CreateIndex("names_mdi", "names", "name",
                               IndexKind::kMdi, /*on_phonemes=*/true)
                  .ok());
  ASSERT_TRUE(session_->Set("lexequal_threshold", 2).ok());
  const NameRecord& probe = names_[9];
  auto plain = OutsideLexScan(db_.get(), "names", "name", probe.name, 2);
  auto indexed = OutsideLexScan(db_.get(), "names", "name", probe.name, 2,
                                /*use_mdi_index=*/true, "names_mdi");
  ASSERT_TRUE(plain.ok() && indexed.ok());
  // Same answers...
  EXPECT_EQ(plain->first.size(), indexed->first.size());
  // ...with fewer UDF verifications through the index.
  EXPECT_LT(indexed->second.udf_calls, plain->second.udf_calls);
  EXPECT_EQ(indexed->second.udf_calls, indexed->second.candidates);
}

TEST_F(EngineTest, OutsideLexJoinMatchesCoreJoin) {
  LoadNames(40, 3);
  // Second table: a copy of a slice of names.
  Schema schema({{"id", TypeId::kInt32},
                 {"name", TypeId::kUniText, /*mat=*/true}});
  ASSERT_TRUE(db_->CreateTable("other", schema).ok());
  for (size_t i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        db_->Insert("other", {Value::Int32(static_cast<int32_t>(i)),
                              Value::Uni(names_[i * 2].name)})
            .ok());
  }
  ASSERT_TRUE(db_->Analyze("other").ok());
  ASSERT_TRUE(session_->Set("lexequal_threshold", 1).ok());

  auto core_plan =
      MuralBuilder::Scan("names",
                         (*db_->catalog()->GetTable("names"))->schema)
          .PsiJoin(MuralBuilder::Scan(
                       "other", (*db_->catalog()->GetTable("other"))->schema),
                   "name", "name")
          .Build();
  auto core = session_->Query(core_plan);
  ASSERT_TRUE(core.ok());

  auto outside = OutsideLexJoin(db_.get(), "names", "name", "other", "name",
                                1);
  ASSERT_TRUE(outside.ok());
  EXPECT_EQ(outside->first.size(), core->rows.size());
  EXPECT_GT(core->rows.size(), 0u);
}

TEST_F(EngineTest, ClosureStrategiesAgree) {
  LoadSmallTaxonomy();
  const Taxonomy& tax = *db_->taxonomy();
  // Pick a mid-size root.
  const std::vector<SynsetId> roots = FindRootsWithClosureSize(
      tax, std::vector<SynsetId>(base_synsets_.begin(),
                                 base_synsets_.begin() + 200),
      50);
  ASSERT_FALSE(roots.empty());
  const Synset& root = tax.Get(roots[0]);

  auto pinned = ComputeClosure(db_.get(), root.lemma, root.lang,
                               ClosureStrategy::kPinned);
  auto seq = ComputeClosure(db_.get(), root.lemma, root.lang,
                            ClosureStrategy::kSeqScan);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  EXPECT_EQ(pinned->first, seq->first);
  EXPECT_GT(seq->second.heap_scans, 0u);

  ASSERT_TRUE(db_->CreateTaxonomyIndexes().ok());
  auto btree = ComputeClosure(db_.get(), root.lemma, root.lang,
                              ClosureStrategy::kBTree);
  ASSERT_TRUE(btree.ok()) << btree.status().ToString();
  EXPECT_EQ(pinned->first, btree->first);
  EXPECT_GT(btree->second.index_probes, 0u);
}

TEST_F(EngineTest, OutsideClosureMatchesCore) {
  LoadSmallTaxonomy();
  const Taxonomy& tax = *db_->taxonomy();
  const std::vector<SynsetId> roots = FindRootsWithClosureSize(
      tax, std::vector<SynsetId>(base_synsets_.begin(),
                                 base_synsets_.begin() + 100),
      30);
  ASSERT_FALSE(roots.empty());
  const Synset& root = tax.Get(roots[0]);

  auto pinned = ComputeClosure(db_.get(), root.lemma, root.lang,
                               ClosureStrategy::kPinned);
  ASSERT_TRUE(pinned.ok());

  ASSERT_TRUE(db_->CreateTaxonomyIndexes().ok());
  auto outside_seq =
      OutsideClosureSize(db_.get(), root.lemma, root.lang,
                         /*use_btree=*/false);
  auto outside_btree =
      OutsideClosureSize(db_.get(), root.lemma, root.lang,
                         /*use_btree=*/true);
  ASSERT_TRUE(outside_seq.ok()) << outside_seq.status().ToString();
  ASSERT_TRUE(outside_btree.ok());
  EXPECT_EQ(outside_seq->first, pinned->first.size());
  EXPECT_EQ(outside_btree->first, pinned->first.size());
}

TEST_F(EngineTest, OutsideSemScanMatchesCoreOmega) {
  LoadSmallTaxonomy();
  const Taxonomy& tax = *db_->taxonomy();
  ASSERT_TRUE(db_->CreateTaxonomyIndexes().ok());

  // Category table drawing from the taxonomy.
  Schema schema({{"cat", TypeId::kUniText}});
  ASSERT_TRUE(db_->CreateTable("docs", schema).ok());
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    const Synset& s =
        tax.Get(base_synsets_[rng.Uniform(base_synsets_.size())]);
    ASSERT_TRUE(db_->Insert("docs", {Value::Uni(s.lemma, s.lang)}).ok());
  }
  ASSERT_TRUE(db_->Analyze("docs").ok());

  const Synset& probe_concept = tax.Get(base_synsets_[3]);
  const UniText query(probe_concept.lemma, probe_concept.lang);
  auto core_plan =
      MuralBuilder::Scan("docs", schema).OmegaSelect("cat", query).Build();
  auto core = session_->Query(core_plan);
  ASSERT_TRUE(core.ok());

  auto outside = OutsideSemScan(db_.get(), "docs", "cat", query,
                                /*use_btree=*/true);
  ASSERT_TRUE(outside.ok()) << outside.status().ToString();
  EXPECT_EQ(outside->first.size(), core->rows.size());
}

TEST_F(EngineTest, BooksDatasetLoadsAndJoins) {
  TaxonomyGenOptions tax_options;
  tax_options.base_synsets = 300;
  tax_options.languages = {lang::kEnglish, lang::kTamil};
  GeneratedTaxonomy tax = GenerateTaxonomy(tax_options);

  BooksGenOptions options;
  options.num_authors = 120;
  options.num_publishers = 40;
  options.num_books = 300;
  options.publisher_author_overlap = 0.3;
  const BooksDataset data = GenerateBooks(options, tax);

  ASSERT_TRUE(session_->Sql("CREATE TABLE Author (AuthorID INT, "
                            "AName UNITEXT MATERIALIZE PHONEMES)")
                  .ok());
  ASSERT_TRUE(session_->Sql("CREATE TABLE Publisher (PublisherID INT, "
                            "PName UNITEXT MATERIALIZE PHONEMES)")
                  .ok());
  ASSERT_TRUE(session_->Sql("CREATE TABLE Book (BookID INT, AuthorID INT, "
                            "PublisherID INT, Title UNITEXT, Category UNITEXT)")
                  .ok());
  for (const AuthorRow& a : data.authors) {
    ASSERT_TRUE(db_->Insert("Author", {Value::Int32(a.author_id),
                                       Value::Uni(a.name)})
                    .ok());
  }
  for (const PublisherRow& p : data.publishers) {
    ASSERT_TRUE(db_->Insert("Publisher", {Value::Int32(p.publisher_id),
                                          Value::Uni(p.name)})
                    .ok());
  }
  for (const BookRow& b : data.books) {
    ASSERT_TRUE(db_->Insert("Book",
                            {Value::Int32(b.book_id),
                             Value::Int32(b.author_id),
                             Value::Int32(b.publisher_id),
                             Value::Uni(b.title), Value::Uni(b.category)})
                    .ok());
  }
  for (const char* t : {"Author", "Publisher", "Book"}) {
    ASSERT_TRUE(db_->Analyze(t).ok());
  }
  ASSERT_TRUE(session_->Set("lexequal_threshold", 3).ok());
  auto result = session_->Sql(
      "SELECT count(*) FROM Author A, Publisher P "
      "WHERE A.AName LexEQUAL P.PName");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The 30% publisher/author base overlap must yield matches.
  EXPECT_GT(result->rows[0][0].int64(), 0);
}

TEST_F(EngineTest, ExplainAnalyzeReportsActualRows) {
  LoadNames(50, 3);
  ASSERT_TRUE(session_->Set("lexequal_threshold", 2).ok());
  // The assertions below inspect a two-node tree: a Filter node over a
  // bare scan (a scan's own predicate would fold into the scan leaf).
  const LogicalPtr plan = LFilter(
      LScan("names"), LexEq(Col(1, "name"), Lit(Value::Uni(names_[0].name))));
  auto result = session_->Query(plan);
  ASSERT_TRUE(result.ok());
  // The analyzed plan carries per-operator actual row counts; the scan
  // line must report the full table, the filter line the result size.
  EXPECT_NE(result->explain_analyze.find("actual rows=150"),
            std::string::npos)
      << result->explain_analyze;
  EXPECT_NE(result->explain_analyze.find(
                "actual rows=" + std::to_string(result->rows.size())),
            std::string::npos)
      << result->explain_analyze;
}

TEST_F(EngineTest, QueryReportsPerQueryStats) {
  LoadNames(50, 3);
  ASSERT_TRUE(session_->Set("lexequal_threshold", 2).ok());
  auto plan =
      MuralBuilder::Scan("names",
                         (*db_->catalog()->GetTable("names"))->schema)
          .PsiSelect("name", names_[0].name)
          .Build();
  auto r1 = session_->Query(plan);
  auto r2 = session_->Query(plan);
  ASSERT_TRUE(r1.ok() && r2.ok());
  // Deltas, not cumulative: the two runs report the same work.
  EXPECT_EQ(r1->exec_stats.distance.calls, r2->exec_stats.distance.calls);
  EXPECT_GT(r1->exec_stats.distance.calls, 0u);
  EXPECT_GT(r1->runtime_ms, 0.0);
}

}  // namespace
}  // namespace mural
