#include "session/session.h"

#include <algorithm>
#include <cctype>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "sql/sql.h"

namespace mural {

namespace {

Gauge* ActiveSessions() {
  static Gauge* g =
      MetricsRegistry::Global().GetGauge("engine.sessions.active");
  return g;
}

Counter* OpenedSessions() {
  static Counter* c =
      MetricsRegistry::Global().GetCounter("engine.sessions.opened");
  return c;
}

/// Pre-order walk collecting estimate-vs-actual feedback for every node
/// the planner stamped with a cardinality estimate.
void CollectFeedback(const PhysicalOp& op, int depth,
                     std::vector<NodeFeedback>* out) {
  if (op.estimated_rows() >= 0) {
    NodeFeedback fb;
    fb.op = op.DisplayName();
    fb.depth = depth;
    fb.estimated_rows = op.estimated_rows();
    fb.actual_rows = op.rows_produced();
    fb.qerror = QError(static_cast<double>(fb.estimated_rows),
                       static_cast<double>(fb.actual_rows));
    out->push_back(std::move(fb));
  }
  for (const PhysicalOp* child : op.Children()) {
    CollectFeedback(*child, depth + 1, out);
  }
}

std::string UpperAscii(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

/// The one-row `ok = true` result of a statement that returns no rows.
QueryResult OkResult(uint64_t session_id) {
  QueryResult result;
  result.session_id = session_id;
  result.schema = Schema({{"ok", TypeId::kBool}});
  result.rows.push_back({Value::Bool(true)});
  return result;
}

}  // namespace

Session::Session(Database* db, uint64_t id) : db_(db), id_(id) {
  PhonemeCache* phoneme_cache = db->phoneme_cache();
  if (phoneme_cache != nullptr && phoneme_cache->enabled()) {
    ctx_.phoneme_cache = phoneme_cache;
  }
  ActiveSessions()->Add(1);
  OpenedSessions()->Increment();
}

Session::~Session() { ActiveSessions()->Add(-1); }

ExecContext* Session::exec_context() {
  ctx_.taxonomy = db_->taxonomy_.get();
  ctx_.closure_cache = db_->closure_cache_.get();
  return &ctx_;
}

Status Session::Set(const std::string& name, int64_t value) {
  if (EqualsIgnoreCase(name, "lexequal_threshold")) {
    const int64_t clamped = std::min<int64_t>(
        std::max<int64_t>(value, 0), kMaxLexequalThreshold);
    options_.lexequal_threshold = static_cast<int>(clamped);
    ctx_.lexequal_threshold = options_.lexequal_threshold;
    return Status::OK();
  }
  if (EqualsIgnoreCase(name, "degree_of_parallelism")) {
    int dop = static_cast<int>(std::min<int64_t>(
        std::max<int64_t>(value, 0), kMaxDegreeOfParallelism));
    if (dop <= 0) dop = static_cast<int>(ThreadPool::HardwareConcurrency());
    options_.degree_of_parallelism = std::max(1, dop);
    ctx_.degree_of_parallelism = options_.degree_of_parallelism;
    if (ctx_.degree_of_parallelism > 1) {
      // ParallelMorsels runs strip 0 on the calling thread, so a dop-way
      // phase needs dop - 1 pool workers.  Grow-only: raising then
      // lowering the session DOP keeps the larger pool.
      const size_t want =
          static_cast<size_t>(ctx_.degree_of_parallelism - 1);
      if (pool_ == nullptr || pool_->num_threads() < want) {
        pool_ = std::make_unique<ThreadPool>(want);
      }
    }
    ctx_.thread_pool = pool_.get();
    return Status::OK();
  }
  if (EqualsIgnoreCase(name, "batch_size")) {
    options_.batch_size =
        std::min<int64_t>(std::max<int64_t>(value, 0), kMaxBatchSize);
    ctx_.batch_size = static_cast<size_t>(options_.batch_size);
    return Status::OK();
  }
  if (EqualsIgnoreCase(name, "slow_query_millis")) {
    options_.slow_query_millis = value;  // negative = disabled
    return Status::OK();
  }
  return Status::NotFound("unknown setting: " + name);
}

StatusOr<PhysicalPlan> Session::PlanQuery(const LogicalPtr& plan,
                                          PlannerHints hints) {
  Planner planner(db_->catalog_.get(), &db_->stats_, exec_context());
  return planner.Plan(plan, hints);
}

StatusOr<QueryResult> Session::Query(const LogicalPtr& plan,
                                     PlannerHints hints) {
  // The single admission funnel: every execution path (Query, and Sql
  // including EXPLAIN ANALYZE and EXECUTE) reaches execution through
  // here, so the gate is taken exactly once per query.
  double queue_wait_ms = 0;
  MURAL_ASSIGN_OR_RETURN(AdmissionTicket ticket,
                         db_->admission_->Admit(&queue_wait_ms));
  MURAL_ASSIGN_OR_RETURN(PhysicalPlan physical, PlanQuery(plan, hints));
  QueryResult result;
  result.session_id = id_;
  result.queue_wait_ms = queue_wait_ms;
  result.schema = physical.root->output_schema();
  result.predicted_rows = physical.predicted_rows;
  result.predicted_cost = physical.predicted_cost;
  result.explain = physical.Explain();

  const ExecStats before = ctx_.stats;
  Timer timer;
  MURAL_ASSIGN_OR_RETURN(result.rows, CollectAll(physical.root.get()));
  result.runtime_ms = timer.ElapsedMillis();

  // Plan-vs-actual feedback: walk the executed tree, compare each node's
  // cardinality estimate with its observed row count, and export the
  // q-error distribution through the metrics registry.
  static Histogram* qerror_hist = MetricsRegistry::Global().GetHistogram(
      "optimizer.qerror", DefaultRatioBounds());
  CollectFeedback(*physical.root, 0, &result.feedback);
  for (const NodeFeedback& fb : result.feedback) {
    result.max_qerror = std::max(result.max_qerror, fb.qerror);
    qerror_hist->Observe(fb.qerror);
  }
  result.explain_analyze = TraceTree(*physical.root);
  result.explain_analyze += StringFormat(
      "q-error: max=%.2f over %zu estimated nodes\n", result.max_qerror,
      result.feedback.size());
  result.explain_analyze += StringFormat(
      "session: id=%llu queue_wait_ms=%.2f\n",
      static_cast<unsigned long long>(result.session_id),
      result.queue_wait_ms);

  const int64_t slow_millis = options_.slow_query_millis;
  if (slow_millis >= 0 &&
      result.runtime_ms >= static_cast<double>(slow_millis)) {
    static Counter* slow_queries =
        MetricsRegistry::Global().GetCounter("engine.slow_queries");
    slow_queries->Increment();
    MURAL_LOG(Warn) << "slow query (session " << id_ << ": "
                    << result.runtime_ms << " ms >= " << slow_millis
                    << " ms):\n"
                    << result.explain_analyze;
  }

  // Per-query counter deltas.
  result.exec_stats = ctx_.stats;
  result.exec_stats.SubtractBaseline(before);
  return result;
}

StatusOr<QueryResult> Session::Sql(const std::string& statement,
                                   PlannerHints hints) {
  MURAL_ASSIGN_OR_RETURN(sql::Statement stmt, sql::Parse(statement));
  QueryResult result;
  switch (stmt.kind) {
    case sql::StatementKind::kSelect: {
      MURAL_ASSIGN_OR_RETURN(LogicalPtr plan, BindCached(stmt));
      return Query(plan, hints);
    }
    case sql::StatementKind::kExplain: {
      MURAL_ASSIGN_OR_RETURN(LogicalPtr plan, BindCached(stmt));
      if (stmt.explain_analyze) {
        // EXPLAIN ANALYZE: execute, then return the timed plan tree (with
        // estimated vs actual rows and the q-error summary) as rows.
        MURAL_ASSIGN_OR_RETURN(QueryResult executed, Query(plan, hints));
        result = std::move(executed);
        result.rows.clear();
        result.schema = Schema({{"plan", TypeId::kText}});
        for (const std::string& line :
             Split(result.explain_analyze, '\n')) {
          if (!line.empty()) result.rows.push_back({Value::Text(line)});
        }
        return result;
      }
      MURAL_ASSIGN_OR_RETURN(PhysicalPlan physical, PlanQuery(plan, hints));
      result.session_id = id_;
      result.schema = Schema({{"plan", TypeId::kText}});
      result.predicted_rows = physical.predicted_rows;
      result.predicted_cost = physical.predicted_cost;
      result.explain = physical.Explain();
      for (const std::string& line : Split(result.explain, '\n')) {
        if (!line.empty()) result.rows.push_back({Value::Text(line)});
      }
      return result;
    }
    case sql::StatementKind::kSet: {
      // THE settings path: SQL SET and the C++ API both land in Set, so
      // validation/clamping live in one place.
      MURAL_RETURN_IF_ERROR(Set(stmt.set_name, stmt.set_value));
      return OkResult(id_);
    }
    case sql::StatementKind::kCreateTable:
      MURAL_RETURN_IF_ERROR(db_->CreateTable(stmt.table_name, stmt.schema));
      return OkResult(id_);
    case sql::StatementKind::kCreateIndex:
      MURAL_RETURN_IF_ERROR(db_->CreateIndex(
          stmt.index_name, stmt.table_name, stmt.index_column,
          stmt.index_kind, stmt.index_on_phonemes));
      return OkResult(id_);
    case sql::StatementKind::kInsert: {
      // Coerce TEXT literals into UNITEXT columns (default: English), the
      // binder-level counterpart of the compose operator.
      MURAL_ASSIGN_OR_RETURN(TableInfo * info,
                             db_->catalog_->GetTable(stmt.table_name));
      for (Row& row : stmt.insert_rows) {
        for (size_t c = 0;
             c < row.size() && c < info->schema.NumColumns(); ++c) {
          if (info->schema.column(c).type == TypeId::kUniText &&
              row[c].type() == TypeId::kText) {
            row[c] = Value::Uni(row[c].text(), lang::kEnglish);
          }
        }
        MURAL_RETURN_IF_ERROR(db_->Insert(stmt.table_name, std::move(row)));
      }
      result.session_id = id_;
      result.schema = Schema({{"inserted", TypeId::kInt64}});
      result.rows.push_back(
          {Value::Int64(static_cast<int64_t>(stmt.insert_rows.size()))});
      return result;
    }
    case sql::StatementKind::kAnalyze:
      MURAL_RETURN_IF_ERROR(db_->AnalyzeWith(stmt.table_name, &ctx_));
      return OkResult(id_);
    case sql::StatementKind::kPrepare: {
      // Validate the body now so EXECUTE never hits a parse error, and
      // refuse nested PREPARE/EXECUTE (no indirection cycles).
      MURAL_ASSIGN_OR_RETURN(sql::Statement body,
                             sql::Parse(stmt.prepare_body));
      if (body.kind == sql::StatementKind::kPrepare ||
          body.kind == sql::StatementKind::kExecute) {
        return Status::InvalidArgument(
            "PREPARE body must not itself be PREPARE or EXECUTE");
      }
      prepared_[UpperAscii(stmt.prepare_name)] = stmt.prepare_body;
      return OkResult(id_);
    }
    case sql::StatementKind::kExecute: {
      const auto it = prepared_.find(UpperAscii(stmt.prepare_name));
      if (it == prepared_.end()) {
        return Status::NotFound("no prepared statement named " +
                                stmt.prepare_name);
      }
      // One level of recursion only: PREPARE rejected nested
      // PREPARE/EXECUTE bodies above.
      return Sql(it->second, hints);
    }
  }
  return Status::Internal("unhandled statement kind");
}

StatusOr<LogicalPtr> Session::BindCached(const sql::Statement& stmt) {
  // The cache key carries everything that feeds binding and plan shape:
  // the statement text (which embeds the predicate language set), plus
  // the session's threshold/DOP/batch knobs.
  PlanCacheKey key;
  key.statement = stmt.text;
  key.lexequal_threshold = options_.lexequal_threshold;
  key.degree_of_parallelism = options_.degree_of_parallelism;
  key.batch_size = options_.batch_size;
  LogicalPtr plan = db_->plan_cache_->Lookup(key);
  if (plan != nullptr) return plan;
  MURAL_ASSIGN_OR_RETURN(plan, sql::Bind(stmt, db_->catalog_.get()));
  db_->plan_cache_->Insert(key, plan);
  return plan;
}

Status Session::Prepare(const std::string& name,
                        const std::string& statement) {
  // Same path as SQL PREPARE so validation happens exactly once, in Sql.
  return Sql("PREPARE " + name + " AS " + statement).status();
}

StatusOr<QueryResult> Session::Execute(const std::string& name) {
  return Sql("EXECUTE " + name);
}

// Defined here, where Session is complete, so the engine layer never
// includes upward into the session layer.
StatusOr<std::unique_ptr<Session>> Database::Connect() {
  return Connect(session_defaults_);
}

StatusOr<std::unique_ptr<Session>> Database::Connect(
    SessionOptions options) {
  std::unique_ptr<Session> session(new Session(this, MintSessionId()));
  // Construction-time options take the same validated/clamped path as a
  // later SET.
  MURAL_RETURN_IF_ERROR(
      session->Set("lexequal_threshold", options.lexequal_threshold));
  MURAL_RETURN_IF_ERROR(
      session->Set("degree_of_parallelism", options.degree_of_parallelism));
  MURAL_RETURN_IF_ERROR(session->Set("batch_size", options.batch_size));
  MURAL_RETURN_IF_ERROR(
      session->Set("slow_query_millis", options.slow_query_millis));
  return session;
}

}  // namespace mural
