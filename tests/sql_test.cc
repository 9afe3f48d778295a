// Tests for the SQL front end: parsing, binding, and end-to-end execution
// of the paper's query surface through a Session.

#include <gtest/gtest.h>

#include <set>

#include "engine/database.h"
#include "session/session.h"
#include "sql/sql.h"

namespace mural {
namespace {

class SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Open();
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    auto session = db_->Connect();
    ASSERT_TRUE(session.ok());
    session_ = std::move(*session);
    // The paper's Book table (Fig. 1), abbreviated.
    ASSERT_TRUE(session_->Sql("CREATE TABLE Book (BookID INT, "
                              "Author UNITEXT MATERIALIZE PHONEMES, "
                              "Title UNITEXT, Category UNITEXT)")
                    .ok());
    const char* rows[] = {
        "INSERT INTO Book VALUES (1, 'nehru'@English, "
        "'discovery of india'@English, 'History'@English)",
        "INSERT INTO Book VALUES (2, 'nehrU'@Hindi, "
        "'bharat ki khoj'@Hindi, 'Itihaas'@Hindi)",
        "INSERT INTO Book VALUES (3, 'neharu'@Tamil, "
        "'india kandupidippu'@Tamil, 'Charitram'@Tamil)",
        "INSERT INTO Book VALUES (4, 'gandhi'@English, "
        "'my experiments'@English, 'Autobiography'@English)",
        "INSERT INTO Book VALUES (5, 'smith'@English, "
        "'wealth of nations'@English, 'Economics'@English)",
    };
    for (const char* stmt : rows) {
      ASSERT_TRUE(session_->Sql(stmt).ok()) << stmt;
    }
  }

  /// Loads the bilingual History taxonomy used by the paper's Fig. 4.
  void LoadTaxonomy() {
    auto tax = std::make_unique<Taxonomy>();
    const SynsetId history = tax->AddSynset(lang::kEnglish, "History");
    const SynsetId autob = tax->AddSynset(lang::kEnglish, "Autobiography");
    const SynsetId econ = tax->AddSynset(lang::kEnglish, "Economics");
    const SynsetId itihaas = tax->AddSynset(lang::kHindi, "Itihaas");
    const SynsetId charitram = tax->AddSynset(lang::kTamil, "Charitram");
    ASSERT_TRUE(tax->AddIsA(autob, history).ok());
    ASSERT_TRUE(tax->AddEquivalence(history, itihaas).ok());
    ASSERT_TRUE(tax->AddEquivalence(history, charitram).ok());
    (void)econ;
    ASSERT_TRUE(db_->LoadTaxonomy(std::move(tax)).ok());
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
};

TEST_F(SqlTest, ParseErrorsAreClean) {
  EXPECT_FALSE(session_->Sql("SELEKT * FROM Book").ok());
  EXPECT_FALSE(session_->Sql("SELECT FROM Book").ok());
  EXPECT_FALSE(session_->Sql("SELECT * FROM NoSuchTable").ok());
  EXPECT_FALSE(session_->Sql("SELECT nope FROM Book").ok());
  EXPECT_FALSE(session_->Sql("SELECT * FROM Book WHERE Author LexEQUAL "
                             "'x'@Klingonese")
                   .ok());
}

TEST_F(SqlTest, SelectStarAndProjection) {
  auto all = session_->Sql("SELECT * FROM Book");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->rows.size(), 5u);
  EXPECT_EQ(all->schema.NumColumns(), 4u);

  auto proj = session_->Sql("SELECT Title, BookID FROM Book WHERE BookID >= 4");
  ASSERT_TRUE(proj.ok());
  EXPECT_EQ(proj->rows.size(), 2u);
  EXPECT_EQ(proj->schema.NumColumns(), 2u);
  EXPECT_EQ(proj->schema.column(0).name, "TITLE");
}

TEST_F(SqlTest, PaperFigure2LexEqualQuery) {
  ASSERT_TRUE(session_->Sql("SET LEXEQUAL_THRESHOLD = 2").ok());
  auto result = session_->Sql(
      "SELECT Author, Title FROM Book "
      "WHERE Author LexEQUAL 'nehru'@English IN English, Hindi, Tamil");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::set<std::string> authors;
  for (const Row& r : result->rows) authors.insert(r[0].unitext().text());
  EXPECT_EQ(authors,
            (std::set<std::string>{"nehru", "nehrU", "neharu"}));
}

TEST_F(SqlTest, LexEqualRespectsLanguageList) {
  ASSERT_TRUE(session_->Sql("SET LEXEQUAL_THRESHOLD = 2").ok());
  auto result = session_->Sql(
      "SELECT Author FROM Book "
      "WHERE Author LexEQUAL 'nehru'@English IN Tamil");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].unitext().lang(), lang::kTamil);
}

TEST_F(SqlTest, LexEqualExplicitThreshold) {
  ASSERT_TRUE(session_->Sql("SET LEXEQUAL_THRESHOLD = 0").ok());
  // Session threshold 0 finds the *perfect* homophones: English 'nehru'
  // and Hindi 'nehrU' share the phoneme string /nehru/ exactly.
  auto strict = session_->Sql(
      "SELECT Author FROM Book WHERE Author LexEQUAL 'nehru'@English");
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(strict->rows.size(), 2u);
  // ...but an explicit THRESHOLD overrides it.
  auto loose = session_->Sql(
      "SELECT Author FROM Book WHERE Author LexEQUAL 'nehru'@English "
      "THRESHOLD 2");
  ASSERT_TRUE(loose.ok());
  EXPECT_EQ(loose->rows.size(), 3u);
}

TEST_F(SqlTest, PaperFigure4SemEqualQuery) {
  LoadTaxonomy();
  auto result = session_->Sql(
      "SELECT Author, Title, Category FROM Book "
      "WHERE Category SemEQUAL 'History'@English "
      "IN English, Hindi, Tamil");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // History itself, Itihaas (equivalent), Charitram (equivalent), and
  // Autobiography (subclass) — but NOT Economics.
  std::set<std::string> cats;
  for (const Row& r : result->rows) cats.insert(r[2].unitext().text());
  EXPECT_EQ(cats, (std::set<std::string>{"History", "Itihaas", "Charitram",
                                         "Autobiography"}));
}

TEST_F(SqlTest, CountStarAndGroupBy) {
  auto count = session_->Sql("SELECT count(*) FROM Book");
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(count->rows.size(), 1u);
  EXPECT_EQ(count->rows[0][0].int64(), 5);

  auto grouped =
      session_->Sql("SELECT Category, count(*) FROM Book GROUP BY Category");
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->rows.size(), 5u);  // all categories distinct
}

TEST_F(SqlTest, OrderByAndLimit) {
  auto result =
      session_->Sql("SELECT BookID FROM Book ORDER BY BookID DESC LIMIT 2");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0].int32(), 5);
  EXPECT_EQ(result->rows[1][0].int32(), 4);
}

TEST_F(SqlTest, PsiJoinAcrossTables) {
  ASSERT_TRUE(session_->Sql("CREATE TABLE Publisher (PublisherID INT, "
                            "PName UNITEXT MATERIALIZE PHONEMES)")
                  .ok());
  ASSERT_TRUE(
      session_->Sql("INSERT INTO Publisher VALUES (1, 'neroo'@English)").ok());
  ASSERT_TRUE(session_->Sql("INSERT INTO Publisher VALUES "
                            "(2, 'penguin'@English)")
                  .ok());
  ASSERT_TRUE(session_->Sql("SET LEXEQUAL_THRESHOLD = 2").ok());
  auto result = session_->Sql(
      "SELECT count(*) FROM Book B, Publisher P "
      "WHERE B.Author LexEQUAL P.PName");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  // 'neroo' = /nerU/ is within 2 of /nehru/ (en, hi) but 3 from the
  // Tamil /neharu/.
  EXPECT_EQ(result->rows[0][0].int64(), 2);
}

TEST_F(SqlTest, EquiJoinWithAliases) {
  ASSERT_TRUE(
      session_->Sql("CREATE TABLE Sales (BookID INT, Copies INT)").ok());
  ASSERT_TRUE(session_->Sql("INSERT INTO Sales VALUES (1, 100)").ok());
  ASSERT_TRUE(session_->Sql("INSERT INTO Sales VALUES (4, 50)").ok());
  auto result = session_->Sql(
      "SELECT B.Title, S.Copies FROM Book B, Sales S "
      "WHERE B.BookID = S.BookID ORDER BY S.Copies");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][1].int32(), 50);
  EXPECT_EQ(result->rows[1][1].int32(), 100);
}

TEST_F(SqlTest, ExplainShowsPlan) {
  auto result = session_->Sql("EXPLAIN SELECT * FROM Book WHERE BookID = 1");
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->explain.find("SeqScan(BOOK)"), std::string::npos);
  EXPECT_NE(result->explain.find("cost"), std::string::npos);
  EXPECT_FALSE(result->rows.empty());
}

TEST_F(SqlTest, IndexDdlAndIndexedQuery) {
  // Pad the table so the metric index actually wins the cost race (at 5
  // rows a sequential scan is rightly cheaper).
  for (int i = 100; i < 400; ++i) {
    ASSERT_TRUE(session_->Sql("INSERT INTO Book VALUES (" + std::to_string(i) +
                              ", 'filler" + std::to_string(i) +
                              "'@English, 'x'@English, 'Misc'@English)")
                    .ok());
  }
  ASSERT_TRUE(session_->Sql("ANALYZE Book").ok());
  ASSERT_TRUE(session_->Sql("CREATE INDEX book_author_mtree ON Book(Author) "
                            "USING MTREE")
                  .ok());
  ASSERT_TRUE(session_->Sql("SET LEXEQUAL_THRESHOLD = 1").ok());
  auto explain = session_->Sql(
      "EXPLAIN SELECT Author FROM Book "
      "WHERE Author LexEQUAL 'nehru'@English");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->explain.find("mtreeIndexScan"), std::string::npos)
      << explain->explain;
  auto result = session_->Sql(
      "SELECT Author FROM Book WHERE Author LexEQUAL 'nehru'@English");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 3u);
}

TEST_F(SqlTest, MTreeJoinKeepsInnerFilter) {
  // An M-Tree index join reads inner rows straight from the heap, so it
  // must not stand in for a filtered inner: the PublisherID conjuncts have
  // to hold with the index on and off.
  ASSERT_TRUE(session_->Sql("CREATE TABLE Author (AuthorID INT, "
                            "AName UNITEXT MATERIALIZE PHONEMES)")
                  .ok());
  ASSERT_TRUE(session_->Sql("CREATE TABLE Publisher (PublisherID INT, "
                            "PName UNITEXT MATERIALIZE PHONEMES)")
                  .ok());
  const char* names[] = {"nehru", "gandhi", "smith"};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db_->Insert("Author", {Value::Int32(i),
                                       Value::Uni(UniText(names[i],
                                                          lang::kEnglish))})
                    .ok());
  }
  // Publishers 0..5 carry the authors' names; the rest match no author.
  for (int i = 0; i < 4000; ++i) {
    const std::string name =
        i < 6 ? names[i % 3] : "zq" + std::to_string(i) + "xv";
    ASSERT_TRUE(db_->Insert("Publisher",
                            {Value::Int32(i),
                             Value::Uni(UniText(name, lang::kEnglish))})
                    .ok());
  }
  ASSERT_TRUE(session_->Sql("ANALYZE Author").ok());
  ASSERT_TRUE(session_->Sql("ANALYZE Publisher").ok());
  ASSERT_TRUE(session_->Sql("CREATE INDEX PUB_MTREE ON Publisher(PName) "
                            "USING MTREE")
                  .ok());
  ASSERT_TRUE(session_->Set("degree_of_parallelism", 1).ok());
  ASSERT_TRUE(session_->Set("lexequal_threshold", 1).ok());

  // Over the unfiltered inner, the index join is the plan.
  auto unfiltered = session_->Sql(
      "EXPLAIN SELECT A.AName, P.PName FROM Author A, Publisher P "
      "WHERE A.AName LexEQUAL P.PName");
  ASSERT_TRUE(unfiltered.ok()) << unfiltered.status().ToString();
  EXPECT_NE(unfiltered->explain.find("LexIndexJoin("), std::string::npos)
      << unfiltered->explain;

  const std::string query =
      "SELECT A.AName, P.PName, P.PublisherID FROM Author A, Publisher P "
      "WHERE A.AName LexEQUAL P.PName AND P.PublisherID <> 1 "
      "AND P.PublisherID <> 0";
  auto render = [](const QueryResult& result) {
    std::multiset<std::string> out;
    for (const Row& row : result.rows) {
      std::string line;
      for (const Value& v : row) line += v.ToString() + "|";
      out.insert(line);
    }
    return out;
  };
  auto with_mtree = session_->Sql(query);
  ASSERT_TRUE(with_mtree.ok()) << with_mtree.status().ToString();
  PlannerHints no_mtree;
  no_mtree.enable_mtree = false;
  auto without_mtree = session_->Sql(query, no_mtree);
  ASSERT_TRUE(without_mtree.ok()) << without_mtree.status().ToString();
  EXPECT_EQ(render(*with_mtree), render(*without_mtree))
      << with_mtree->explain;
  ASSERT_EQ(without_mtree->rows.size(), 4u);
  for (const Row& row : with_mtree->rows) EXPECT_GT(row[2].int32(), 1);
}

TEST_F(SqlTest, SetRejectsUnknownSetting) {
  EXPECT_FALSE(session_->Sql("SET nonsense = 3").ok());
}

TEST_F(SqlTest, PrepareParsesNameAndVerbatimBody) {
  auto stmt = sql::Parse(
      "PREPARE find_author AS SELECT Author FROM Book "
      "WHERE Author LexEQUAL 'nehru'@English;");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->kind, sql::StatementKind::kPrepare);
  EXPECT_EQ(stmt->prepare_name, "find_author");
  // Body is kept verbatim (one trailing ';' stripped), so re-parsing it
  // at EXECUTE time sees exactly what the client wrote.
  EXPECT_EQ(stmt->prepare_body,
            "SELECT Author FROM Book WHERE Author LexEQUAL 'nehru'@English");
  // The cache keys on the whole original text.
  EXPECT_EQ(stmt->text,
            "PREPARE find_author AS SELECT Author FROM Book "
            "WHERE Author LexEQUAL 'nehru'@English;");
}

TEST_F(SqlTest, PrepareRejectsMalformedForms) {
  // Missing AS, missing body, missing name.
  EXPECT_FALSE(sql::Parse("PREPARE p SELECT * FROM Book").ok());
  EXPECT_FALSE(sql::Parse("PREPARE p AS").ok());
  EXPECT_FALSE(sql::Parse("PREPARE p AS   ;").ok());
  EXPECT_FALSE(sql::Parse("PREPARE AS SELECT * FROM Book").ok());
  // "ASDF" must not be taken as the AS keyword.
  EXPECT_FALSE(sql::Parse("PREPARE p ASDF SELECT * FROM Book").ok());
}

TEST_F(SqlTest, ExecuteParsesStatementName) {
  auto stmt = sql::Parse("EXECUTE find_author;");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->kind, sql::StatementKind::kExecute);
  // The tokenizer upper-cases identifiers, which is exactly why the
  // per-session prepared-statement map is keyed on the upper-cased name.
  EXPECT_EQ(stmt->prepare_name, "FIND_AUTHOR");
  EXPECT_EQ(stmt->text, "EXECUTE find_author;");
  EXPECT_FALSE(sql::Parse("EXECUTE").ok());
}

TEST_F(SqlTest, EveryStatementCarriesItsText) {
  const std::string text = "SELECT Author FROM Book";
  auto stmt = sql::Parse(text);
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->text, text);
}

TEST_F(SqlTest, InsertCoercesPlainTextIntoUniText) {
  ASSERT_TRUE(session_->Sql("INSERT INTO Book VALUES (6, 'orwell', "
                            "'nineteen eighty-four', 'Fiction')")
                  .ok());
  auto result = session_->Sql("SELECT Author FROM Book WHERE BookID = 6");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].unitext().lang(), lang::kEnglish);
  // The materialize-phonemes column property applied on the way in.
  EXPECT_TRUE(result->rows[0][0].unitext().has_phonemes());
}

}  // namespace
}  // namespace mural
