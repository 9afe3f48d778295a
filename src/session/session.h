// Session: one client's handle onto a shared Database, and the only query
// entry point.
//
// Database is the shared engine core — storage, catalog, statistics,
// optimizer, taxonomy, plan cache, admission gate — used concurrently by
// many sessions, while everything per-client lives here: the typed
// SessionOptions knobs, the ExecContext with per-session effort counters,
// the session worker pool, and prepared statements.  `Database::Connect()`
// mints sessions:
//
//   MURAL_ASSIGN_OR_RETURN(auto db, Database::Open());
//   MURAL_ASSIGN_OR_RETURN(auto alice, db->Connect());
//   MURAL_ASSIGN_OR_RETURN(auto bob,
//                          db->Connect({.lexequal_threshold = 3}));
//   MURAL_RETURN_IF_ERROR(alice->Set("degree_of_parallelism", 8));
//   MURAL_ASSIGN_OR_RETURN(QueryResult r, alice->Sql("SELECT ..."));
//
// All settings changes — SQL `SET name = value`, Connect()'s options and
// the C++ API alike — funnel through Set(), which validates, clamps, and
// (for DOP) provisions the worker pool in one place.
//
// A Session is NOT internally synchronized — one client drives it at a
// time (the server gives each connection its own) — but any number of
// sessions may run queries against the same Database concurrently.
// Sessions must not outlive their Database.
//
// Exported metrics: engine.sessions.active (gauge),
// engine.sessions.opened (counter).

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/thread_pool.h"
#include "engine/database.h"

namespace mural {

namespace sql {
struct Statement;
}  // namespace sql

class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Parses and runs one SQL statement (SELECT / EXPLAIN / SET / CREATE /
  /// INSERT / ANALYZE / PREPARE / EXECUTE), consulting the shared plan
  /// cache for SELECT/EXPLAIN binds.  `hints` reaches the planner for
  /// SELECT / EXPLAIN [ANALYZE], so hint-driven runs attribute their
  /// EXPLAIN ANALYZE output and slow-query logs to this session.
  [[nodiscard]] StatusOr<QueryResult> Sql(
      const std::string& statement, PlannerHints hints = PlannerHints());

  /// Plans and executes a bound logical plan: takes an admission-gate
  /// slot, reports predictions/timings/counters, and stamps the result
  /// with the session id and queue wait.
  [[nodiscard]] StatusOr<QueryResult> Query(
      const LogicalPtr& plan, PlannerHints hints = PlannerHints());

  /// Plans without executing (EXPLAIN).
  [[nodiscard]] StatusOr<PhysicalPlan> PlanQuery(
      const LogicalPtr& plan, PlannerHints hints = PlannerHints());

  /// THE settings path, shared with SQL SET.  Case-insensitive `name` in
  /// {lexequal_threshold, degree_of_parallelism, batch_size,
  /// slow_query_millis}; values are clamped into their documented ranges;
  /// unknown names are NotFound.  Raising degree_of_parallelism above 1
  /// provisions the session worker pool (grow-only).
  [[nodiscard]] Status Set(const std::string& name, int64_t value);

  /// PREPARE name AS statement / EXECUTE name, as API calls.
  [[nodiscard]] Status Prepare(const std::string& name,
                               const std::string& statement);
  [[nodiscard]] StatusOr<QueryResult> Execute(const std::string& name);

  uint64_t id() const { return id_; }
  const SessionOptions& options() const { return options_; }
  /// The session's execution context, refreshed with the engine's shared
  /// handles (taxonomy, closure cache), which may have been loaded after
  /// the session was minted.
  ExecContext* exec_context();

 private:
  friend class Database;  // Connect() is the only minter
  Session(Database* db, uint64_t id);

  /// Binds `stmt` through the shared plan cache (hit skips parse+bind
  /// work; miss binds and populates).
  [[nodiscard]] StatusOr<LogicalPtr> BindCached(const sql::Statement& stmt);

  Database* const db_;
  const uint64_t id_;
  SessionOptions options_;
  ExecContext ctx_;
  /// Session-owned morsel workers, provisioned when DOP > 1 (grow-only).
  std::unique_ptr<ThreadPool> pool_;
  /// Prepared statements: name (upper-cased) -> validated statement text.
  std::map<std::string, std::string> prepared_;
};

}  // namespace mural
