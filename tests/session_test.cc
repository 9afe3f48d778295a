// The Session/Database API split: Database::Connect() mints sessions with
// independent settings over one shared engine core; the single
// SessionState::Set path validates and clamps every knob (SQL SET and the
// C++ API identically); the deprecated single-session Database shims keep
// working; results carry session attribution; and the shared plan cache
// serves repeated (prepared) statements with DDL/ANALYZE invalidation.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "engine/database.h"
#include "mural/algebra.h"
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
  MURAL_RETURN_IF_ERROR(db->Sql("CREATE TABLE Book (BookID INT, "
                                "Author UNITEXT MATERIALIZE PHONEMES)")
                            .status());
  const char* rows[] = {"Nehru", "Neru", "Nero", "Gandhi"};
  int id = 1;
  for (const char* author : rows) {
    MURAL_RETURN_IF_ERROR(
        db->Sql("INSERT INTO Book VALUES (" + std::to_string(id++) +
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
  EXPECT_NE((*a)->id(), 0u);  // id 0 is the built-in legacy session
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
  // The legacy default session is untouched by either.
  EXPECT_EQ((*db)->lexequal_threshold(), 2);

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
}

TEST(SessionTest, DeprecatedDatabaseShimsStillWork) {
  auto db = MakeBookDatabase();
  ASSERT_TRUE(db.ok());

  // The pre-split single-session surface, end to end.
  (*db)->SetLexequalThreshold(1);
  EXPECT_EQ((*db)->lexequal_threshold(), 1);
  (*db)->SetBatchSize(-5);
  EXPECT_EQ((*db)->batch_size(), 0u);
  (*db)->SetSlowQueryMillis(0);
  EXPECT_EQ((*db)->slow_query_millis(), 0);
  (*db)->SetDegreeOfParallelism(4);
  EXPECT_EQ((*db)->degree_of_parallelism(), 4);
  ASSERT_NE((*db)->thread_pool(), nullptr);
  ASSERT_NE((*db)->exec_context(), nullptr);
  EXPECT_EQ((*db)->exec_context()->lexequal_threshold, 1);

  auto result = (*db)->Sql("SELECT Author FROM Book");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 4u);
  EXPECT_EQ(result->session_id, 0u);  // the built-in legacy session
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
  ASSERT_TRUE(
      (*db)->Sql("CREATE TABLE Other (X INT)").ok());
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

}  // namespace
}  // namespace mural
