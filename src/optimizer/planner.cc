#include "optimizer/planner.h"

#include <algorithm>
#include <optional>

#include "common/string_util.h"

namespace mural {

std::string PhysicalPlan::Explain() const {
  std::string out = StringFormat("Predicted: rows=%.0f %s\n", predicted_rows,
                                 predicted_cost.ToString().c_str());
  out += ExplainTree(*root);
  return out;
}

namespace {

/// Flattens an AND tree into conjuncts.
void FlattenConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (const auto* logical = dynamic_cast<const LogicalExpr*>(expr.get())) {
    if (logical->op() == LogicalOp::kAnd) {
      FlattenConjuncts(logical->left(), out);
      FlattenConjuncts(logical->right(), out);
      return;
    }
  }
  out->push_back(expr);
}

/// Matches `expr` as Psi(colref, literal) in either operand order (Psi
/// commutes, Table 1).  Returns the column index and the literal.
bool MatchPsiConstant(const Expr& expr, size_t* col, Value* constant,
                      int* threshold_override) {
  const auto* psi = dynamic_cast<const LexEqualExpr*>(&expr);
  if (psi == nullptr) return false;
  const auto* c = dynamic_cast<const ColumnRefExpr*>(psi->left().get());
  const auto* l = dynamic_cast<const LiteralExpr*>(psi->right().get());
  if (c == nullptr || l == nullptr) {
    c = dynamic_cast<const ColumnRefExpr*>(psi->right().get());
    l = dynamic_cast<const LiteralExpr*>(psi->left().get());
  }
  if (c == nullptr || l == nullptr) return false;
  *col = c->index();
  *constant = l->value();
  *threshold_override = psi->threshold_override();
  return true;
}

bool MatchEqConstant(const Expr& expr, size_t* col, Value* constant) {
  const auto* cmp = dynamic_cast<const ComparisonExpr*>(&expr);
  if (cmp == nullptr || cmp->op() != CompareOp::kEq) return false;
  const auto* c = dynamic_cast<const ColumnRefExpr*>(cmp->left().get());
  const auto* l = dynamic_cast<const LiteralExpr*>(cmp->right().get());
  if (c == nullptr || l == nullptr) {
    c = dynamic_cast<const ColumnRefExpr*>(cmp->right().get());
    l = dynamic_cast<const LiteralExpr*>(cmp->left().get());
  }
  if (c == nullptr || l == nullptr) return false;
  *col = c->index();
  *constant = l->value();
  return true;
}

bool ContainsPsi(const Expr& expr) {
  if (dynamic_cast<const LexEqualExpr*>(&expr) != nullptr) return true;
  if (const auto* logical = dynamic_cast<const LogicalExpr*>(&expr)) {
    if (ContainsPsi(*logical->left())) return true;
    if (logical->right() && ContainsPsi(*logical->right())) return true;
  }
  return false;
}

bool ContainsOmega(const Expr& expr) {
  if (dynamic_cast<const SemEqualExpr*>(&expr) != nullptr) return true;
  if (const auto* logical = dynamic_cast<const LogicalExpr*>(&expr)) {
    if (ContainsOmega(*logical->left())) return true;
    if (logical->right() && ContainsOmega(*logical->right())) return true;
  }
  return false;
}

}  // namespace

int Planner::EffectiveDop(const PlannerHints& hints) const {
  if (ctx_->thread_pool == nullptr) return 1;
  const int dop = hints.degree_of_parallelism >= 0
                      ? hints.degree_of_parallelism
                      : ctx_->degree_of_parallelism;
  return std::max(1, dop);
}

RelProfile Planner::ProfileOf(const Planned& planned, size_t key_col) const {
  RelProfile profile;
  profile.rows = planned.rows;
  if (planned.base_table != nullptr) {
    profile.pages = planned.base_table->heap->num_pages();
  } else {
    // Intermediate results are pipelined/materialized in memory; charge a
    // synthetic page count from the row estimate.
    profile.pages = std::max(1.0, planned.rows / 80.0);
  }
  profile.avg_len = 12.0;  // default phoneme-string length
  if (planned.base_stats != nullptr &&
      key_col < planned.op->output_schema().NumColumns()) {
    const ColumnStats* cs = planned.base_stats->Column(
        planned.op->output_schema().column(key_col).name);
    if (cs != nullptr) {
      profile.avg_len =
          cs->avg_phoneme_len > 0 ? cs->avg_phoneme_len : cs->avg_len;
    }
  }
  return profile;
}

StatusOr<PhysicalPlan> Planner::Plan(const LogicalPtr& root,
                                     PlannerHints hints) {
  if (root == nullptr) {
    return Status::InvalidArgument("null logical plan");
  }
  MURAL_ASSIGN_OR_RETURN(Planned planned, PlanNode(*root, hints));
  PhysicalPlan plan;
  plan.root = std::move(planned.op);
  plan.predicted_rows = planned.rows;
  plan.predicted_cost = planned.cost;
  return plan;
}

StatusOr<Planner::Planned> Planner::PlanNode(const LogicalNode& node,
                                             const PlannerHints& hints) {
  MURAL_ASSIGN_OR_RETURN(Planned planned, PlanNodeImpl(node, hints));
  if (planned.op != nullptr) {
    // Stamp the estimate on the operator so EXPLAIN ANALYZE can report
    // estimated-vs-actual rows and the per-node q-error.
    planned.op->set_estimated_rows(
        static_cast<int64_t>(planned.rows + 0.5));
  }
  return planned;
}

StatusOr<Planner::Planned> Planner::PlanNodeImpl(const LogicalNode& node,
                                                 const PlannerHints& hints) {
  switch (node.kind) {
    case LogicalKind::kScan:
      return PlanScan(node, hints);
    case LogicalKind::kEquiJoin:
      return PlanEquiJoin(node, hints);
    case LogicalKind::kPsiJoin:
      return PlanPsiJoin(node, hints);
    case LogicalKind::kOmegaJoin:
      return PlanOmegaJoin(node, hints);
    case LogicalKind::kFilter: {
      MURAL_ASSIGN_OR_RETURN(Planned child, PlanNode(*node.left, hints));
      Planned out;
      double sel = estimator_.params().opaque_selectivity;
      if (child.base_table != nullptr && child.base_stats != nullptr) {
        sel = estimator_.PredicateSelectivity(*node.predicate,
                                              *child.base_stats,
                                              child.base_table->schema, ctx_);
      }
      out.rows = std::max(1.0, child.rows * sel);
      out.cost = child.cost + cost_model_.Filter(child.rows);
      if (ContainsPsi(*node.predicate)) {
        // Each surviving row pays a distance evaluation.
        RelProfile rel;
        rel.rows = child.rows;
        rel.pages = 0;
        rel.avg_len = 12.0;
        Cost psi = cost_model_.PsiScanNoIndex(rel, ctx_->lexequal_threshold);
        out.cost.cpu += psi.cpu;
      }
      out.base_table = child.base_table;
      out.base_stats = child.base_stats;
      out.op = std::make_unique<FilterOp>(ctx_, std::move(child.op),
                                          node.predicate);
      return out;
    }
    case LogicalKind::kProject: {
      MURAL_ASSIGN_OR_RETURN(Planned child, PlanNode(*node.left, hints));
      Planned out;
      out.rows = child.rows;
      out.cost = child.cost + cost_model_.Project(child.rows);
      std::vector<Column> cols;
      for (size_t i = 0; i < node.exprs.size(); ++i) {
        // Column type: propagate when the expression is a bare reference.
        TypeId type = TypeId::kText;
        if (const auto* ref = dynamic_cast<const ColumnRefExpr*>(
                node.exprs[i].get())) {
          type = child.op->output_schema().column(ref->index()).type;
        }
        const std::string name = i < node.output_names.size()
                                     ? node.output_names[i]
                                     : node.exprs[i]->ToString();
        cols.emplace_back(name, type);
      }
      out.op = std::make_unique<ProjectOp>(ctx_, std::move(child.op),
                                           node.exprs, Schema(cols));
      return out;
    }
    case LogicalKind::kAggregate: {
      MURAL_ASSIGN_OR_RETURN(Planned child, PlanNode(*node.left, hints));
      Planned out;
      out.rows = node.group_by.empty()
                     ? 1.0
                     : std::max(1.0, child.rows / 10.0);
      out.cost = child.cost + cost_model_.Aggregate(child.rows);
      out.op = std::make_unique<AggregateOp>(ctx_, std::move(child.op),
                                             node.group_by, node.aggs);
      return out;
    }
    case LogicalKind::kSort: {
      MURAL_ASSIGN_OR_RETURN(Planned child, PlanNode(*node.left, hints));
      Planned out;
      out.rows = child.rows;
      out.cost = child.cost + cost_model_.Sort(child.rows);
      out.op = std::make_unique<SortOp>(ctx_, std::move(child.op),
                                        node.sort_keys);
      return out;
    }
    case LogicalKind::kLimit: {
      MURAL_ASSIGN_OR_RETURN(Planned child, PlanNode(*node.left, hints));
      Planned out;
      out.rows = std::min<double>(child.rows,
                                  static_cast<double>(node.limit));
      out.cost = child.cost;
      out.op = std::make_unique<LimitOp>(ctx_, std::move(child.op),
                                         node.limit);
      return out;
    }
    case LogicalKind::kUnionAll: {
      MURAL_ASSIGN_OR_RETURN(Planned l, PlanNode(*node.left, hints));
      MURAL_ASSIGN_OR_RETURN(Planned r, PlanNode(*node.right, hints));
      Planned out;
      out.rows = l.rows + r.rows;
      out.cost = l.cost + r.cost;
      out.op = std::make_unique<UnionAllOp>(ctx_, std::move(l.op),
                                            std::move(r.op));
      return out;
    }
    case LogicalKind::kJoin: {
      MURAL_ASSIGN_OR_RETURN(Planned l, PlanNode(*node.left, hints));
      MURAL_ASSIGN_OR_RETURN(Planned r, PlanNode(*node.right, hints));
      Planned out;
      const double sel = estimator_.params().opaque_selectivity;
      out.rows = std::max(1.0, l.rows * r.rows * sel);
      out.cost = l.cost + r.cost +
                 cost_model_.NestedLoopJoin(ProfileOf(l, 0), ProfileOf(r, 0),
                                            0.0);
      out.op = std::make_unique<NestedLoopJoinOp>(
          ctx_, std::move(l.op), std::move(r.op), node.predicate);
      return out;
    }
  }
  return Status::Internal("unknown logical node kind");
}

StatusOr<Planner::Planned> Planner::PlanScan(const LogicalNode& node,
                                             const PlannerHints& hints) {
  MURAL_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(node.table));
  const std::shared_ptr<const TableStats> tstats = stats_->Get(node.table);
  const double base_rows =
      tstats != nullptr ? static_cast<double>(tstats->num_rows)
                        : static_cast<double>(table->heap->num_records());

  RelProfile rel;
  rel.rows = base_rows;
  rel.pages = table->heap->num_pages();
  rel.avg_len = tstats != nullptr ? tstats->avg_row_len : 64.0;

  Planned best;
  best.base_table = table;
  best.base_stats = tstats;
  best.rows = base_rows;
  std::vector<ExprPtr> conjuncts;
  std::optional<PsiScanKey> key;
  ExprPtr residual;
  // The one heap-scan leaf, costed per shape and then divided across DOP
  // when that is cheaper.
  Cost serial = cost_model_.SeqScan(rel);
  if (node.predicate != nullptr) {
    double sel = estimator_.params().opaque_selectivity;
    if (tstats != nullptr && !hints.opaque_multilingual) {
      sel = estimator_.PredicateSelectivity(*node.predicate, *tstats,
                                            table->schema, ctx_);
    }
    best.rows = std::max(1.0, base_rows * sel);
    FlattenConjuncts(node.predicate, &conjuncts);

    // A Psi(col, literal) conjunct becomes the scan's key; the other
    // conjuncts ride along as its residual.
    if (!hints.opaque_multilingual) {
      for (const ExprPtr& conjunct : conjuncts) {
        PsiScanKey k;
        if (!key.has_value() && MatchPsiConstant(*conjunct, &k.col, &k.probe,
                                                 &k.threshold_override)) {
          key = std::move(k);
          continue;
        }
        residual = residual == nullptr ? conjunct : And(residual, conjunct);
      }
    }
    if (key.has_value()) {
      // The batched Table-3 scan.
      RelProfile psi_rel = rel;
      const ColumnStats* cs =
          tstats != nullptr
              ? tstats->Column(table->schema.column(key->col).name)
              : nullptr;
      psi_rel.avg_len = cs != nullptr && cs->avg_phoneme_len > 0
                            ? cs->avg_phoneme_len
                            : 12.0;
      const int k = key->threshold_override >= 0 ? key->threshold_override
                                                 : ctx_->lexequal_threshold;
      serial = cost_model_.PsiScanBatched(psi_rel, k, ctx_->batch_size);
    } else {
      // No key: the whole predicate is the residual.  Psi lands here only
      // when opaque (outside-the-server) or not of the Psi(col, literal)
      // form (an OR, or Psi(col, col)).
      residual = node.predicate;
      if (!hints.opaque_multilingual && ContainsPsi(*node.predicate)) {
        serial = cost_model_.PsiScanNoIndex(rel, ctx_->lexequal_threshold);
      } else {
        // Opaque Psi UDFs still run per row; the engine simply cannot
        // model them.  Charging the generic operator cost only is exactly
        // the mis-costing that makes outside-the-server plans poor (paper
        // §5.3).
        serial.cpu += base_rows * cost_model_.params().cpu_operator_cost;
      }
    }
  }
  // Omega in the residual keeps the scan serial: SemEqualExpr counts
  // closure computations vs reuses from the shared cache's miss counter
  // around each Get, and Get computes outside its lock, so at DOP > 1 the
  // two counters would depend on how workers interleave.
  int dop = residual != nullptr && ContainsOmega(*residual)
                ? 1
                : EffectiveDop(hints);
  best.cost = cost_model_.Parallelize(serial, dop);
  if (best.cost.total() >= serial.total()) {
    best.cost = serial;
    dop = 1;
  }
  best.op = std::make_unique<SeqScanOp>(ctx_, table, std::move(key),
                                        std::move(residual), dop);

  // --- index scans over one indexable conjunct
  for (const ExprPtr& conjunct : conjuncts) {
    size_t col;
    Value constant;
    int k_override;
    if (!hints.opaque_multilingual && hints.enable_mtree &&
        MatchPsiConstant(*conjunct, &col, &constant, &k_override)) {
      const std::string& col_name = table->schema.column(col).name;
      for (IndexInfo* index : catalog_->FindIndexes(node.table, col_name)) {
        if (!index->on_phonemes) continue;
        if (index->kind != IndexKind::kMTree &&
            index->kind != IndexKind::kMdi) {
          continue;
        }
        StatusOr<PhonemeString> ph = PhonemesOf(constant, ctx_);
        if (!ph.ok()) continue;
        const int k = k_override >= 0 ? k_override
                                      : ctx_->lexequal_threshold;
        RelProfile irel = rel;
        irel.index_pages = index->index->NumPages();
        const ColumnStats* cs =
            tstats != nullptr ? tstats->Column(col_name) : nullptr;
        irel.avg_len = cs != nullptr && cs->avg_phoneme_len > 0
                           ? cs->avg_phoneme_len
                           : 12.0;
        Cost cost = cost_model_.PsiScanMTree(irel, k);
        cost.cpu += best.rows * cost_model_.params().cpu_tuple_cost;
        if (cost.total() < best.cost.total()) {
          IndexProbe probe;
          probe.kind = IndexProbe::Kind::kWithin;
          probe.key = Value::Text(*ph);
          probe.radius = k;
          // The M-Tree is exact on the phoneme metric, but the full
          // predicate may carry more conjuncts (language filters); MDI is
          // approximate and always needs the recheck.
          best.cost = cost;
          best.op = std::make_unique<IndexScanOp>(ctx_, table, index, probe,
                                                  node.predicate);
        }
      }
    }
    if (hints.enable_indexscan && MatchEqConstant(*conjunct, &col,
                                                  &constant)) {
      const std::string& col_name = table->schema.column(col).name;
      for (IndexInfo* index : catalog_->FindIndexes(node.table, col_name)) {
        if (index->kind != IndexKind::kBTree || index->on_phonemes) continue;
        const ColumnStats* cs =
            tstats != nullptr ? tstats->Column(col_name) : nullptr;
        const double eq_sel =
            cs != nullptr ? estimator_.EqSelectivity(*cs, constant)
                          : estimator_.params().opaque_selectivity;
        RelProfile irel = rel;
        irel.index_height = 2 + index->index->NumPages() / 500.0;
        Cost cost = cost_model_.BTreeProbe(irel, base_rows * eq_sel);
        if (cost.total() < best.cost.total()) {
          IndexProbe probe;
          probe.kind = IndexProbe::Kind::kEqual;
          probe.key = constant;
          best.cost = cost;
          best.op = std::make_unique<IndexScanOp>(ctx_, table, index, probe,
                                                  node.predicate);
        }
      }
    }
  }

  return best;
}

StatusOr<Planner::Planned> Planner::PlanEquiJoin(const LogicalNode& node,
                                                 const PlannerHints& hints) {
  MURAL_ASSIGN_OR_RETURN(Planned l, PlanNode(*node.left, hints));
  MURAL_ASSIGN_OR_RETURN(Planned r, PlanNode(*node.right, hints));

  double sel = 0.01;
  const ColumnStats* lcs = nullptr;
  const ColumnStats* rcs = nullptr;
  if (l.base_stats != nullptr) {
    lcs = l.base_stats->Column(
        l.op->output_schema().column(node.left_col).name);
  }
  if (r.base_stats != nullptr) {
    rcs = r.base_stats->Column(
        r.op->output_schema().column(node.right_col).name);
  }
  if (lcs != nullptr && rcs != nullptr) {
    sel = estimator_.EquiJoinSelectivity(*lcs, *rcs);
  }

  Planned out;
  out.rows = std::max(1.0, l.rows * r.rows * sel);
  const RelProfile lp = ProfileOf(l, node.left_col);
  const RelProfile rp = ProfileOf(r, node.right_col);
  const Cost hash_cost = cost_model_.HashJoin(lp, rp);
  const Cost nlj_cost = cost_model_.NestedLoopJoin(lp, rp, 0.0);
  if (hash_cost.total() <= nlj_cost.total()) {
    out.cost = l.cost + r.cost + hash_cost;
    out.op = std::make_unique<HashJoinOp>(ctx_, std::move(l.op),
                                          std::move(r.op), node.left_col,
                                          node.right_col);
  } else {
    out.cost = l.cost + r.cost + nlj_cost;
    ExprPtr pred = Eq(Col(node.left_col,
                          l.op->output_schema().column(node.left_col).name),
                      Col(l.op->output_schema().NumColumns() + node.right_col,
                          r.op->output_schema().column(node.right_col).name));
    out.op = std::make_unique<NestedLoopJoinOp>(ctx_, std::move(l.op),
                                                std::move(r.op), pred);
  }
  return out;
}

StatusOr<Planner::Planned> Planner::PlanPsiJoin(const LogicalNode& node,
                                                const PlannerHints& hints) {
  MURAL_ASSIGN_OR_RETURN(Planned l, PlanNode(*node.left, hints));
  MURAL_ASSIGN_OR_RETURN(Planned r, PlanNode(*node.right, hints));
  const int k = node.psi_threshold >= 0 ? node.psi_threshold
                                        : ctx_->lexequal_threshold;

  double sel = estimator_.params().opaque_selectivity;
  if (!hints.opaque_multilingual) {
    const ColumnStats* lcs =
        l.base_stats != nullptr
            ? l.base_stats->Column(
                  l.op->output_schema().column(node.left_col).name)
            : nullptr;
    const ColumnStats* rcs =
        r.base_stats != nullptr
            ? r.base_stats->Column(
                  r.op->output_schema().column(node.right_col).name)
            : nullptr;
    sel = (lcs != nullptr && rcs != nullptr)
              ? estimator_.PsiJoinSelectivity(*lcs, *rcs, k)
              : 0.001 * (k + 1);
  }

  Planned out;
  out.rows = std::max(1.0, l.rows * r.rows * sel);
  const RelProfile lp = ProfileOf(l, node.left_col);
  const RelProfile rp = ProfileOf(r, node.right_col);
  const Cost serial_nlj_cost = cost_model_.PsiJoinNoIndex(lp, rp, k);

  // Morsel-parallel build/probe: the quadratic CPU term divides by DOP.
  const int dop = EffectiveDop(hints);
  const Cost par_nlj_cost =
      hints.opaque_multilingual
          ? serial_nlj_cost
          : cost_model_.Parallelize(serial_nlj_cost, dop);
  const bool parallel_wins =
      dop > 1 && par_nlj_cost.total() < serial_nlj_cost.total();
  const Cost nlj_cost = parallel_wins ? par_nlj_cost : serial_nlj_cost;

  // Index-nested-loop via an M-Tree on the right side's base table.  The
  // index join reads inner rows straight from the heap, so it stands in
  // only for an unfiltered inner.
  const IndexInfo* mtree = nullptr;
  if (!hints.opaque_multilingual && hints.enable_mtree &&
      node.right->kind == LogicalKind::kScan &&
      node.right->predicate == nullptr) {
    const std::string& col_name =
        r.op->output_schema().column(node.right_col).name;
    for (IndexInfo* index :
         catalog_->FindIndexes(r.base_table->name, col_name)) {
      if (index->kind == IndexKind::kMTree && index->on_phonemes) {
        mtree = index;
        break;
      }
    }
  }
  if (mtree != nullptr) {
    RelProfile ip = rp;
    ip.index_pages = mtree->index->NumPages();
    const Cost idx_cost = cost_model_.PsiJoinMTree(lp, ip, k);
    if (idx_cost.total() < nlj_cost.total()) {
      out.cost = l.cost + r.cost + idx_cost;
      out.op = std::make_unique<LexIndexJoinOp>(ctx_, std::move(l.op),
                                                r.base_table, mtree,
                                                node.left_col,
                                                node.psi_threshold);
      return out;
    }
  }
  out.cost = l.cost + r.cost + nlj_cost;
  LexJoinOp::Options options;
  options.threshold = node.psi_threshold;
  options.tag_distance = node.psi_tag_distance;
  if (parallel_wins) options.dop = dop;
  out.op = std::make_unique<LexJoinOp>(ctx_, std::move(l.op),
                                       std::move(r.op), node.left_col,
                                       node.right_col, options);
  return out;
}

StatusOr<Planner::Planned> Planner::PlanOmegaJoin(const LogicalNode& node,
                                                  const PlannerHints& hints) {
  MURAL_ASSIGN_OR_RETURN(Planned l, PlanNode(*node.left, hints));
  MURAL_ASSIGN_OR_RETURN(Planned r, PlanNode(*node.right, hints));

  double sel = estimator_.params().opaque_selectivity;
  double rhs_unique = std::max(1.0, r.rows / 10.0);
  if (!hints.opaque_multilingual) {
    const ColumnStats* lcs =
        l.base_stats != nullptr
            ? l.base_stats->Column(
                  l.op->output_schema().column(node.left_col).name)
            : nullptr;
    const ColumnStats* rcs =
        r.base_stats != nullptr
            ? r.base_stats->Column(
                  r.op->output_schema().column(node.right_col).name)
            : nullptr;
    if (lcs != nullptr && rcs != nullptr) {
      sel = estimator_.OmegaJoinSelectivity(*lcs, *rcs);
      rhs_unique = static_cast<double>(std::max<uint64_t>(1, rcs->ndv));
    }
  }

  Planned out;
  out.rows = std::max(1.0, l.rows * r.rows * sel);
  double tax_nodes = 1, tax_pages = 1, tax_height = 1;
  if (ctx_->taxonomy != nullptr) {
    const TaxonomyStats ts = ctx_->taxonomy->ComputeStats();
    tax_nodes = static_cast<double>(ts.num_synsets);
    tax_pages = std::max(1.0, tax_nodes / 150.0);
    tax_height = std::max<double>(1.0, ts.height);
  }
  const double closure = estimator_.OmegaClosureSize(nullptr);
  out.cost = l.cost + r.cost +
             cost_model_.OmegaJoin(ProfileOf(l, node.left_col),
                                   ProfileOf(r, node.right_col), rhs_unique,
                                   closure, tax_nodes, tax_pages, tax_height,
                                   /*btree=*/false, 2.0, 8.0);
  SemJoinOp::Options options;
  out.op = std::make_unique<SemJoinOp>(ctx_, std::move(l.op),
                                       std::move(r.op), node.left_col,
                                       node.right_col, options);
  return out;
}

}  // namespace mural
