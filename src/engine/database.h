// Database: the shared engine core tying together storage, catalog,
// statistics, the optimizer, the pinned taxonomy, the shared plan cache,
// the admission-control gate, and the outside-the-server UDF runtime.
//
// One Database serves many concurrent sessions and has no query entry
// point of its own.  Per-session state — the settings the paper stores in
// system tables (§4.2: LexEQUAL threshold, execution mode) plus the
// execution context, worker pool and prepared statements — lives in a
// Session (session/session.h), and every query runs through one:
//
//   MURAL_ASSIGN_OR_RETURN(auto db, Database::Open());
//   MURAL_ASSIGN_OR_RETURN(auto session, db->Connect());
//   MURAL_ASSIGN_OR_RETURN(QueryResult r, session->Sql("SELECT ..."));
//
// Database keeps the setup surface: DDL, loading, ANALYZE, the taxonomy.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "datagen/taxonomy_generator.h"
#include "engine/admission.h"
#include "engine/plan_cache.h"
#include "exec/exec_context.h"
#include "optimizer/planner.h"
#include "phonetic/phoneme_cache.h"
#include "plfront/udf_runtime.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace mural {

class Session;  // session layer; minted by Connect(), defined there

struct DatabaseOptions {
  /// Buffer-pool frames (8 KiB each).
  size_t buffer_pool_pages = 8192;
  /// Backing file; empty = in-memory pages (logical I/O still counted).
  std::string disk_path;
  /// Initial LexEQUAL mismatch threshold: the default for every session
  /// this Database mints (SET LEXEQUAL_THRESHOLD changes it per session).
  int lexequal_threshold = 2;
  /// Default session degree of parallelism for Psi operators.  0 =
  /// hardware concurrency; 1 = serial plans (SET DEGREE_OF_PARALLELISM
  /// changes it per session).
  int degree_of_parallelism = 0;
  /// Entry budget of the shared phoneme cache; 0 disables caching.
  size_t phoneme_cache_capacity = 1 << 16;
  /// Default rows per batch on the vectorized execution path
  /// (SET BATCH_SIZE changes it per session); 0 = tuple-at-a-time.
  size_t batch_size = 1024;
  /// Shared plan-cache entry budget; 0 disables plan caching.
  size_t plan_cache_capacity = 128;
  /// Admission-control gate over concurrent query execution
  /// (max_concurrent = 0 leaves the gate open — library single-user use
  /// pays nothing).
  AdmissionOptions admission;
};

/// The typed per-session settings.  Field defaults are the engine defaults
/// a fresh session starts with; Database::Open seeds session_defaults()
/// from DatabaseOptions.
struct SessionOptions {
  /// LexEQUAL mismatch threshold (SET LEXEQUAL_THRESHOLD).
  int lexequal_threshold = 2;
  /// Degree of parallelism for Psi operators; 0 = hardware concurrency,
  /// 1 = serial plans (SET DEGREE_OF_PARALLELISM).
  int degree_of_parallelism = 0;
  /// Rows per batch on the vectorized path; 0 = tuple-at-a-time
  /// (SET BATCH_SIZE).
  int64_t batch_size = 1024;
  /// Queries running at least this many milliseconds log a warning with
  /// the timed plan tree; negative disables (SET SLOW_QUERY_MILLIS).
  int64_t slow_query_millis = -1;
};

/// Clamp ceilings enforced by Session::Set.
constexpr int kMaxLexequalThreshold = 256;
constexpr int kMaxDegreeOfParallelism = 256;
constexpr int64_t kMaxBatchSize = 65536;

/// Plan-vs-actual feedback for one executed plan node: the planner's
/// cardinality estimate against the observed row count, as a q-error.
struct NodeFeedback {
  std::string op;        // operator display name
  int depth = 0;         // position in the plan tree
  int64_t estimated_rows = -1;
  uint64_t actual_rows = 0;
  double qerror = 1.0;   // max(est/actual, actual/est), both floored at 1
};

/// Result of one query execution.
struct QueryResult {
  std::vector<Row> rows;
  Schema schema;
  double predicted_rows = 0;
  Cost predicted_cost;
  double runtime_ms = 0;
  ExecStats exec_stats;   // counters for this query only
  std::string explain;
  /// EXPLAIN ANALYZE form: the executed plan as a timed tree (per-operator
  /// wall time, estimated vs actual rows, per-node q-error) plus a q-error
  /// summary line and the session attribution line.
  std::string explain_analyze;
  /// Per-node estimate feedback, pre-order; nodes without an estimate are
  /// skipped.  max_qerror summarizes the worst node.
  std::vector<NodeFeedback> feedback;
  double max_qerror = 1.0;
  /// The session that ran the query (session ids start at 1).
  uint64_t session_id = 0;
  /// Time spent queued at the admission gate before execution began.
  double queue_wait_ms = 0;

  /// Pretty-prints rows as an aligned table.
  std::string ToTable(size_t max_rows = 20) const;
};

class Database {
 public:
  [[nodiscard]] static StatusOr<std::unique_ptr<Database>> Open(
      DatabaseOptions options = DatabaseOptions());

  // ------------------------------------------------------------ sessions

  /// Mints a new concurrent session against this Database with the
  /// Database-default session options (thread-safe).  The Session must
  /// not outlive the Database.  Defined in session/session.cc.
  [[nodiscard]] StatusOr<std::unique_ptr<Session>> Connect();
  [[nodiscard]] StatusOr<std::unique_ptr<Session>> Connect(
      SessionOptions options);

  const SessionOptions& session_defaults() const {
    return session_defaults_;
  }

  // ------------------------------------------------------------- DDL/DML
  //
  // DDL and ANALYZE mutate what bound plans were built against, so each
  // of these invalidates the shared plan cache.  Safe to call from any
  // session's thread; the catalog and stats catalog are internally
  // synchronized.

  [[nodiscard]] Status CreateTable(const std::string& name, Schema schema);

  /// Inserts a row; UniText values in MATERIALIZE PHONEMES columns get
  /// their phoneme strings computed and stored (paper §4.2).
  [[nodiscard]] Status Insert(const std::string& table, Row row);

  [[nodiscard]]
  Status InsertBulk(const std::string& table, std::vector<Row> rows);

  /// Creates and registers an index.  `on_phonemes` keys the index by the
  /// materialized phoneme string (required for kMTree/kMdi).
  [[nodiscard]]
  Status CreateIndex(const std::string& index_name, const std::string& table,
                     const std::string& column, IndexKind kind,
                     bool on_phonemes);

  /// Rebuilds optimizer statistics for a table.  G2P for MFV phonemes runs
  /// on a private ExecContext wired to the shared phoneme cache (SQL
  /// ANALYZE charges the calling session instead; same statistics).
  [[nodiscard]] Status Analyze(const std::string& table);

  // ------------------------------------------------------------ taxonomy

  /// Pins `taxonomy` in memory for SemEQUAL *and* persists it into the
  /// relational tables tax_synsets / tax_edges / tax_equiv, so closure
  /// computation can also run against storage (the Figure-8 experiments).
  /// Setup-phase only: must not race live queries.
  [[nodiscard]] Status LoadTaxonomy(std::unique_ptr<Taxonomy> taxonomy);

  /// Adds B+Tree indexes on tax_edges.parent and tax_equiv.a (the
  /// "B+Tree index on the parent attribute" configuration of §5.4).
  [[nodiscard]] Status CreateTaxonomyIndexes();

  const Taxonomy* taxonomy() const { return taxonomy_.get(); }

  // -------------------------------------------------------------- access

  Catalog* catalog() { return catalog_.get(); }
  StatsCatalog* stats_catalog() { return &stats_; }
  BufferPool* buffer_pool() { return pool_.get(); }
  DiskManager* disk() { return disk_.get(); }
  PhonemeCache* phoneme_cache() { return phoneme_cache_.get(); }
  PlanCache* plan_cache() { return plan_cache_.get(); }
  AdmissionController* admission() { return admission_.get(); }

  /// The outside-the-server UDF runtime with SQL_*/TEMPSET_* host
  /// callbacks bound to this database.  `use_btree_for_closure` selects
  /// how the SQL_CHILDREN host statement executes: B+Tree probe (requires
  /// CreateTaxonomyIndexes) vs full scan of tax_edges.  The host plans and
  /// runs that statement on a private ExecContext, outside any session and
  /// the admission gate, like the paper's one-user outside baseline.
  [[nodiscard]] StatusOr<pl::UdfRuntime*> udf_runtime();
  void set_outside_closure_uses_btree(bool use) {
    outside_closure_btree_ = use;
  }

 private:
  friend class Session;  // sessions run their queries on this core

  Database() = default;

  [[nodiscard]] Status BindUdfHosts();

  /// ANALYZE core: G2P for MFV phonemes runs through `ctx`, so SQL ANALYZE
  /// charges the requesting session's counters.
  [[nodiscard]] Status AnalyzeWith(const std::string& table,
                                   ExecContext* ctx);

  uint64_t MintSessionId() {
    return next_session_id_.fetch_add(1, std::memory_order_relaxed);
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
  StatsCatalog stats_;
  std::unique_ptr<Taxonomy> taxonomy_;
  std::unique_ptr<ClosureCache> closure_cache_;
  std::unique_ptr<PhonemeCache> phoneme_cache_;
  std::unique_ptr<PlanCache> plan_cache_;
  std::unique_ptr<AdmissionController> admission_;
  SessionOptions session_defaults_;
  std::atomic<uint64_t> next_session_id_{1};
  std::unique_ptr<pl::UdfRuntime> udf_;
  bool outside_closure_btree_ = false;
  // TEMPSET_* backing store (models PL/SQL temp tables with an index).
  std::map<int64_t, std::unordered_set<int64_t>> tempsets_;
  int64_t next_tempset_ = 1;
};

}  // namespace mural
