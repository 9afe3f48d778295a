// The cost-based physical planner.
//
// Turns a logical plan into a physical operator tree, choosing access
// paths (seq scan vs B-Tree vs M-Tree vs MDI) and join strategies (hash vs
// nested loop vs index-nested-loop Psi vs RHS-outer SemJoin) by the Table-3
// cost model and the §3.4 selectivity estimates.  Hints replicate the
// paper's methodology of forcing alternative plans by enabling/disabling
// optimizer options (§5.2.1).

#pragma once

#include <memory>

#include "catalog/catalog.h"
#include "exec/join_ops.h"
#include "exec/mural_ops.h"
#include "exec/scan_ops.h"
#include "optimizer/cardinality.h"
#include "optimizer/cost_model.h"
#include "optimizer/logical_plan.h"

namespace mural {

/// Plan-forcing switches (§5.2.1's alternative plans): PostgreSQL-style
/// enable_* access-path switches, the opaque-UDF view, and a DOP override.
struct PlannerHints {
  bool enable_indexscan = true;  // B-Tree / MDI access paths
  bool enable_mtree = true;      // metric index access paths
  /// Treat multilingual predicates as optimizer-opaque black boxes with
  /// default selectivity and no index support — how an engine sees
  /// outside-the-server UDFs.
  bool opaque_multilingual = false;
  /// Degree of parallelism for morsel-parallel Psi operators.
  /// -1 = inherit the session setting (ctx->degree_of_parallelism);
  ///  1 = force serial plans.  Psi operators are only costed at DOP > 1
  /// when the session has a thread pool.
  int degree_of_parallelism = -1;
};

/// A planned query: the executable tree plus the optimizer's predictions.
struct PhysicalPlan {
  OpPtr root;
  double predicted_rows = 0;
  Cost predicted_cost;

  std::string Explain() const;
};

class Planner {
 public:
  Planner(Catalog* catalog, const StatsCatalog* stats, ExecContext* ctx,
          CostModel cost_model = CostModel(),
          CardinalityParams card_params = CardinalityParams())
      : catalog_(catalog),
        stats_(stats),
        ctx_(ctx),
        cost_model_(cost_model),
        estimator_(stats, ctx->taxonomy, card_params) {}

  /// Plans `root` under the hints.
  StatusOr<PhysicalPlan> Plan(const LogicalPtr& root,
                              PlannerHints hints = PlannerHints());

  const CostModel& cost_model() const { return cost_model_; }
  const CardinalityEstimator& estimator() const { return estimator_; }

 private:
  struct Planned {
    OpPtr op;
    double rows = 0;
    Cost cost;
    /// Set when the node reads one base table, filtered or not (its page
    /// count feeds ProfileOf).
    const TableInfo* base_table = nullptr;
    /// Stats snapshot held for the planning pass (StatsCatalog::Get hands
    /// out immutable shared_ptr snapshots; a concurrent ANALYZE publishes
    /// a replacement without invalidating this one).
    std::shared_ptr<const TableStats> base_stats;
  };

  /// Dispatches to the per-kind planners and stamps the winning operator
  /// with its cardinality estimate (plan-vs-actual feedback).
  StatusOr<Planned> PlanNode(const LogicalNode& node,
                             const PlannerHints& hints);
  StatusOr<Planned> PlanNodeImpl(const LogicalNode& node,
                                 const PlannerHints& hints);
  StatusOr<Planned> PlanScan(const LogicalNode& node,
                             const PlannerHints& hints);
  StatusOr<Planned> PlanEquiJoin(const LogicalNode& node,
                                 const PlannerHints& hints);
  StatusOr<Planned> PlanPsiJoin(const LogicalNode& node,
                                const PlannerHints& hints);
  StatusOr<Planned> PlanOmegaJoin(const LogicalNode& node,
                                  const PlannerHints& hints);

  RelProfile ProfileOf(const Planned& planned, size_t key_col) const;

  /// The DOP parallel plan candidates are costed at: the hint override or
  /// the session setting, forced to 1 without a worker pool.
  int EffectiveDop(const PlannerHints& hints) const;

  Catalog* catalog_;
  const StatsCatalog* stats_;
  ExecContext* ctx_;
  CostModel cost_model_;
  CardinalityEstimator estimator_;
};

}  // namespace mural
