// The Session/Database API split: Database::Connect() mints sessions with
// independent settings over one shared engine core; the single
// Session::Set path validates and clamps every knob (SQL SET and the C++
// API identically); results carry session attribution; and the shared plan
// cache serves repeated (prepared) statements with DDL/ANALYZE
// invalidation.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "engine/database.h"
#include "mural/algebra.h"
#include "optimizer/stats.h"
#include "session/session.h"

namespace mural {
namespace {

Counter* PlanCacheHits() {
  return MetricsRegistry::Global().GetCounter("engine.plan_cache.hits");
}

Counter* PlanCacheMisses() {
  return MetricsRegistry::Global().GetCounter("engine.plan_cache.misses");
}

Counter* PlanCacheInvalidations() {
  return MetricsRegistry::Global().GetCounter(
      "engine.plan_cache.invalidations");
}

StatusOr<std::unique_ptr<Database>> MakeBookDatabase(
    DatabaseOptions options = DatabaseOptions()) {
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                         Database::Open(options));
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Session> setup, db->Connect());
  MURAL_RETURN_IF_ERROR(setup->Sql("CREATE TABLE Book (BookID INT, "
                                   "Author UNITEXT MATERIALIZE PHONEMES)")
                            .status());
  const char* rows[] = {"Nehru", "Neru", "Nero", "Gandhi"};
  int id = 1;
  for (const char* author : rows) {
    MURAL_RETURN_IF_ERROR(
        setup->Sql("INSERT INTO Book VALUES (" + std::to_string(id++) +
                   ", '" + author + "'@English)")
            .status());
  }
  return db;
}

TEST(SessionTest, ConnectMintsDistinctSessions) {
  auto db = MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  Gauge* active = MetricsRegistry::Global().GetGauge(
      "engine.sessions.active");
  const int64_t active_before = active->value();

  auto a = (*db)->Connect();
  auto b = (*db)->Connect();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE((*a)->id(), (*b)->id());
  EXPECT_GE((*a)->id(), 1u);  // session ids start at 1
  EXPECT_GE((*b)->id(), 1u);
  EXPECT_EQ(active->value(), active_before + 2);

  a->reset();
  b->reset();
  EXPECT_EQ(active->value(), active_before);
}

TEST(SessionTest, SessionsHaveIndependentSettings) {
  auto db = MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto strict = (*db)->Connect();
  auto loose = (*db)->Connect();
  ASSERT_TRUE(strict.ok());
  ASSERT_TRUE(loose.ok());

  ASSERT_TRUE((*strict)->Sql("SET LEXEQUAL_THRESHOLD = 0").ok());
  ASSERT_TRUE((*loose)->Set("lexequal_threshold", 3).ok());
  EXPECT_EQ((*strict)->options().lexequal_threshold, 0);
  EXPECT_EQ((*loose)->options().lexequal_threshold, 3);
  // The Database defaults new sessions start from are untouched by either.
  EXPECT_EQ((*db)->session_defaults().lexequal_threshold, 2);

  const std::string query =
      "SELECT Author FROM Book WHERE Author LexEQUAL 'Nehru'";
  auto strict_rows = (*strict)->Sql(query);
  auto loose_rows = (*loose)->Sql(query);
  ASSERT_TRUE(strict_rows.ok());
  ASSERT_TRUE(loose_rows.ok());
  // Threshold 0 = exact phonetic match only; threshold 3 catches the
  // spelling variants too.
  EXPECT_LT(strict_rows->rows.size(), loose_rows->rows.size());
  EXPECT_EQ(strict_rows->session_id, (*strict)->id());
  EXPECT_EQ(loose_rows->session_id, (*loose)->id());
}

TEST(SessionTest, ConnectWithExplicitOptions) {
  auto db = MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  SessionOptions options;
  options.lexequal_threshold = 5;
  options.batch_size = 0;
  options.degree_of_parallelism = 2;
  auto session = (*db)->Connect(options);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ((*session)->options().lexequal_threshold, 5);
  EXPECT_EQ((*session)->options().batch_size, 0);
  EXPECT_EQ((*session)->options().degree_of_parallelism, 2);
}

TEST(SessionTest, SetValidatesAndClampsInOnePlace) {
  auto db = MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto session = (*db)->Connect();
  ASSERT_TRUE(session.ok());

  // Clamping — same behavior the old setter zoo had.
  ASSERT_TRUE((*session)->Set("batch_size", -5).ok());
  EXPECT_EQ((*session)->options().batch_size, 0);
  ASSERT_TRUE((*session)->Set("batch_size", int64_t{1} << 20).ok());
  EXPECT_EQ((*session)->options().batch_size, 65536);
  ASSERT_TRUE((*session)->Set("lexequal_threshold", -1).ok());
  EXPECT_EQ((*session)->options().lexequal_threshold, 0);
  ASSERT_TRUE((*session)->Set("lexequal_threshold", 10000).ok());
  EXPECT_EQ((*session)->options().lexequal_threshold,
            kMaxLexequalThreshold);

  // Unknown names fail identically through SQL and the C++ API.
  auto bad_api = (*session)->Set("nonsense", 3);
  EXPECT_TRUE(bad_api.IsNotFound()) << bad_api.ToString();
  auto bad_sql = (*session)->Sql("SET nonsense = 3");
  ASSERT_FALSE(bad_sql.ok());
  EXPECT_TRUE(bad_sql.status().IsNotFound());

  // Case-insensitive, like SQL SET always was.
  ASSERT_TRUE((*session)->Set("LEXEQUAL_THRESHOLD", 1).ok());
  EXPECT_EQ((*session)->options().lexequal_threshold, 1);
  // The session's execution context follows every Set.
  EXPECT_EQ((*session)->exec_context()->lexequal_threshold, 1);
  EXPECT_EQ((*session)->exec_context()->batch_size, 65536u);

  // Raising the DOP provisions the session worker pool.
  ASSERT_TRUE((*session)->Set("degree_of_parallelism", 4).ok());
  EXPECT_EQ((*session)->options().degree_of_parallelism, 4);
  EXPECT_EQ((*session)->exec_context()->degree_of_parallelism, 4);
  EXPECT_NE((*session)->exec_context()->thread_pool, nullptr);

  // Queries still run under the clamped settings, attributed to the
  // session.
  ASSERT_TRUE((*session)->Set("degree_of_parallelism", 1).ok());
  auto result = (*session)->Sql("SELECT Author FROM Book");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 4u);
  EXPECT_EQ(result->session_id, (*session)->id());
}

TEST(SessionTest, ExplainAnalyzeAttributesSession) {
  auto db = MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto session = (*db)->Connect();
  ASSERT_TRUE(session.ok());
  auto result = (*session)->Sql(
      "EXPLAIN ANALYZE SELECT Author FROM Book WHERE Author LexEQUAL "
      "'Nehru'");
  ASSERT_TRUE(result.ok());
  const std::string want =
      "session: id=" + std::to_string((*session)->id());
  EXPECT_NE(result->explain_analyze.find(want), std::string::npos)
      << result->explain_analyze;
}

TEST(SessionTest, PlannerHintsThreadThroughSql) {
  auto db = MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto session = (*db)->Connect();
  ASSERT_TRUE(session.ok());
  PlannerHints serial;
  serial.degree_of_parallelism = 1;
  auto result = (*session)->Sql(
      "SELECT Author FROM Book WHERE Author LexEQUAL 'Nehru'", serial);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->explain.find("LexSelect("), std::string::npos)
      << result->explain;
  EXPECT_EQ(result->explain.find("dop="), std::string::npos)
      << result->explain;
}

TEST(SessionTest, PrepareExecuteRoundTrip) {
  auto db = MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto session = (*db)->Connect();
  ASSERT_TRUE(session.ok());

  ASSERT_TRUE((*session)
                  ->Sql("PREPARE q1 AS SELECT Author FROM Book WHERE "
                        "Author LexEQUAL 'Nehru'")
                  .ok());
  auto first = (*session)->Sql("EXECUTE q1");
  ASSERT_TRUE(first.ok());
  auto second = (*session)->Execute("q1");  // API spelling, same statement
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->rows.size(), second->rows.size());

  // Unknown name and nested PREPARE both refuse.
  auto missing = (*session)->Sql("EXECUTE nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
  auto nested =
      (*session)->Sql("PREPARE q2 AS PREPARE q3 AS SELECT * FROM Book");
  ASSERT_FALSE(nested.ok());
  EXPECT_TRUE(nested.status().IsInvalidArgument());
  // A PREPARE body with a parse error is rejected at PREPARE time.
  auto bad_body = (*session)->Sql("PREPARE q4 AS SELECTT nope");
  ASSERT_FALSE(bad_body.ok());

  // Prepared statements are per-session state.
  auto other = (*db)->Connect();
  ASSERT_TRUE(other.ok());
  auto not_here = (*other)->Sql("EXECUTE q1");
  ASSERT_FALSE(not_here.ok());
  EXPECT_TRUE(not_here.status().IsNotFound());
}

TEST(SessionTest, PlanCacheHitsOnRepeatAndInvalidatesOnDdl) {
  auto db = MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto session = (*db)->Connect();
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)
                  ->Sql("PREPARE probe AS SELECT Author FROM Book WHERE "
                        "Author LexEQUAL 'Nehru'")
                  .ok());

  const uint64_t hits0 = PlanCacheHits()->value();
  const uint64_t misses0 = PlanCacheMisses()->value();
  auto first = (*session)->Execute("probe");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(PlanCacheMisses()->value(), misses0 + 1);
  EXPECT_EQ(PlanCacheHits()->value(), hits0);

  auto second = (*session)->Execute("probe");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(PlanCacheHits()->value(), hits0 + 1);
  EXPECT_EQ((*db)->plan_cache()->size(), 1u);

  // A second session with identical knobs shares the cached bind.
  auto twin = (*db)->Connect();
  ASSERT_TRUE(twin.ok());
  auto twin_run = (*twin)->Sql(
      "SELECT Author FROM Book WHERE Author LexEQUAL 'Nehru'");
  ASSERT_TRUE(twin_run.ok());
  EXPECT_EQ(PlanCacheHits()->value(), hits0 + 2);
  EXPECT_EQ(twin_run->rows.size(), second->rows.size());

  // A session with a different threshold must NOT share it (the key
  // carries the knobs), but populates its own entry.
  auto other = (*db)->Connect();
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE((*other)->Set("lexequal_threshold", 3).ok());
  auto other_run = (*other)->Sql(
      "SELECT Author FROM Book WHERE Author LexEQUAL 'Nehru'");
  ASSERT_TRUE(other_run.ok());
  EXPECT_EQ(PlanCacheMisses()->value(), misses0 + 2);
  EXPECT_EQ((*db)->plan_cache()->size(), 2u);

  // DDL sweeps the cache; the next run re-binds.
  const uint64_t invalidations0 = PlanCacheInvalidations()->value();
  ASSERT_TRUE((*twin)->Sql("CREATE TABLE Other (X INT)").ok());
  EXPECT_EQ(PlanCacheInvalidations()->value(), invalidations0 + 1);
  EXPECT_EQ((*db)->plan_cache()->size(), 0u);
  auto after_ddl = (*session)->Execute("probe");
  ASSERT_TRUE(after_ddl.ok());
  EXPECT_EQ(PlanCacheMisses()->value(), misses0 + 3);

  // ANALYZE sweeps too.
  ASSERT_TRUE((*session)->Sql("ANALYZE Book").ok());
  EXPECT_EQ((*db)->plan_cache()->size(), 0u);
  EXPECT_GE(PlanCacheInvalidations()->value(), invalidations0 + 2);
}

TEST(SessionTest, PlanCacheCapacityZeroDisables) {
  DatabaseOptions options;
  options.plan_cache_capacity = 0;
  auto db = MakeBookDatabase(options);
  ASSERT_TRUE(db.ok());
  auto session = (*db)->Connect();
  ASSERT_TRUE(session.ok());
  const uint64_t hits0 = PlanCacheHits()->value();
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(
        (*session)->Sql("SELECT Author FROM Book").ok());
  }
  EXPECT_EQ(PlanCacheHits()->value(), hits0);
  EXPECT_EQ((*db)->plan_cache()->size(), 0u);
}

TEST(SessionTest, QueryViaLogicalPlanCarriesSessionId) {
  auto db = MakeBookDatabase();
  ASSERT_TRUE(db.ok());
  auto session = (*db)->Connect();
  ASSERT_TRUE(session.ok());
  const Schema schema({{"BookID", TypeId::kInt32},
                       {"Author", TypeId::kUniText, /*mat=*/true}});
  const LogicalPtr plan =
      MuralBuilder::Scan("Book", schema)
          .PsiSelect("Author", UniText("Nehru", lang::kEnglish))
          .Build();
  auto result = (*session)->Query(plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->session_id, (*session)->id());
  EXPECT_GE(result->queue_wait_ms, 0.0);
  auto physical = (*session)->PlanQuery(plan);
  ASSERT_TRUE(physical.ok());
}

/// Loads People(id, mat UNITEXT MATERIALIZE PHONEMES, plain UNITEXT) with
/// repeated names, so both UniText columns get MFVs and phoneme strings.
StatusOr<std::unique_ptr<Database>> MakePeopleDatabase() {
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Database> db, Database::Open());
  MURAL_ASSIGN_OR_RETURN(std::unique_ptr<Session> setup, db->Connect());
  MURAL_RETURN_IF_ERROR(
      setup->Sql("CREATE TABLE People (id INT, "
                 "mat UNITEXT MATERIALIZE PHONEMES, plain UNITEXT)")
          .status());
  const char* names[] = {"Nehru", "Neru",   "Nehru", "Gandhi",
                         "Nehru", "Gandhi", "Smith", "Smyth"};
  int id = 1;
  for (const char* name : names) {
    MURAL_RETURN_IF_ERROR(
        setup->Sql("INSERT INTO People VALUES (" + std::to_string(id++) +
                   ", '" + name + "'@English, '" + name + "'@English)")
            .status());
  }
  return db;
}

void ExpectSameColumnStats(const ColumnStats& a, const ColumnStats& b) {
  EXPECT_EQ(a.non_null, b.non_null);
  EXPECT_EQ(a.ndv, b.ndv);
  EXPECT_DOUBLE_EQ(a.avg_len, b.avg_len);
  EXPECT_DOUBLE_EQ(a.avg_phoneme_len, b.avg_phoneme_len);
  ASSERT_EQ(a.mfvs.size(), b.mfvs.size());
  for (size_t i = 0; i < a.mfvs.size(); ++i) {
    EXPECT_TRUE(a.mfvs[i].first.Equals(b.mfvs[i].first)) << i;
    EXPECT_EQ(a.mfvs[i].second, b.mfvs[i].second) << i;
  }
  EXPECT_EQ(a.mfv_phonemes, b.mfv_phonemes);
  ASSERT_EQ(a.bounds.size(), b.bounds.size());
  for (size_t i = 0; i < a.bounds.size(); ++i) {
    EXPECT_TRUE(a.bounds[i].Equals(b.bounds[i])) << i;
  }
}

// Database::Analyze runs on a private ExecContext while SQL ANALYZE runs on
// the calling session's; both must publish the same statistics.
TEST(SessionTest, DatabaseAnalyzeMatchesSqlAnalyze) {
  auto api_db = MakePeopleDatabase();
  ASSERT_TRUE(api_db.ok()) << api_db.status().ToString();
  auto sql_db = MakePeopleDatabase();
  ASSERT_TRUE(sql_db.ok()) << sql_db.status().ToString();

  ASSERT_TRUE((*api_db)->Analyze("People").ok());
  auto session = (*sql_db)->Connect();
  ASSERT_TRUE(session.ok());
  const ExecStats before = (*session)->exec_context()->stats;
  ASSERT_TRUE((*session)->Sql("ANALYZE People").ok());
  // SQL ANALYZE charged the non-materialized column's G2P to the session.
  const ExecStats& after = (*session)->exec_context()->stats;
  EXPECT_GT(after.phoneme_transforms + after.phoneme_cache_hits,
            before.phoneme_transforms + before.phoneme_cache_hits);

  const auto api = (*api_db)->stats_catalog()->Get("People");
  const auto sql = (*sql_db)->stats_catalog()->Get("People");
  ASSERT_NE(api, nullptr);
  ASSERT_NE(sql, nullptr);
  EXPECT_EQ(api->num_rows, sql->num_rows);
  EXPECT_EQ(api->num_pages, sql->num_pages);
  EXPECT_DOUBLE_EQ(api->avg_row_len, sql->avg_row_len);
  for (const char* column : {"mat", "plain"}) {
    SCOPED_TRACE(column);
    const ColumnStats* a = api->Column(column);
    const ColumnStats* b = sql->Column(column);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    // Non-vacuous: both columns carry MFVs with phoneme strings.
    ASSERT_FALSE(a->mfvs.empty());
    ASSERT_FALSE(a->mfv_phonemes.empty());
    EXPECT_FALSE(a->mfv_phonemes.front().empty());
    ExpectSameColumnStats(*a, *b);
  }
}

}  // namespace
}  // namespace mural
