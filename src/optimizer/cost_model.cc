#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

namespace mural {

double CostModel::ApproxIndexFraction(int k) const {
  return std::min(1.0, params_.mtree_frac_base +
                           params_.mtree_frac_slope * std::max(0, k));
}

Cost CostModel::SeqScan(const RelProfile& rel) const {
  return {rel.rows * params_.cpu_tuple_cost,
          rel.pages * params_.seq_page_cost};
}

Cost CostModel::BTreeProbe(const RelProfile& rel, double match_rows) const {
  return {match_rows * params_.cpu_tuple_cost,
          (rel.index_height + std::max(1.0, match_rows / 100.0)) *
              params_.random_page_cost};
}

Cost CostModel::PsiScanNoIndex(const RelProfile& rel, int k) const {
  Cost c = SeqScan(rel);
  c.cpu += rel.rows * DistanceEvalCost(k, rel.avg_len);
  return c;
}

Cost CostModel::PsiScanBatched(const RelProfile& rel, int k,
                               size_t batch_size) const {
  if (batch_size == 0) return PsiScanNoIndex(rel, k);
  Cost c;
  c.io = rel.pages * params_.seq_page_cost;
  const double batches =
      std::ceil(rel.rows / static_cast<double>(batch_size));
  c.cpu = rel.rows *
              (DistanceEvalCost(k, rel.avg_len) + params_.cpu_batch_row_cost) +
          batches * params_.cpu_tuple_cost;
  return c;
}

Cost CostModel::PsiScanMTree(const RelProfile& rel, int k) const {
  const double frac = ApproxIndexFraction(k);
  Cost c;
  // The metric index prunes to a fraction of its pages; every visited
  // entry pays a distance evaluation (routing objects included).
  c.io = frac * rel.index_pages * params_.random_page_cost;
  c.cpu = frac * rel.rows * DistanceEvalCost(k, rel.avg_len);
  // Matched tuples are fetched from the heap.
  c.io += frac * rel.rows * 0.01 * params_.random_page_cost;
  return c;
}

Cost CostModel::OmegaScanNoIndex(const RelProfile& rel, double closure_size,
                                 double tax_nodes, double tax_pages,
                                 double tax_height) const {
  Cost c = SeqScan(rel);
  // Closure by levelwise expansion over the taxonomy table: each of the
  // ~h_T levels scans the edge table once.
  const double levels = std::max(1.0, tax_height);
  c.io += levels * tax_pages * params_.seq_page_cost;
  c.cpu += levels * tax_nodes * params_.cpu_operator_cost;
  c.cpu += closure_size * params_.closure_node_cost;
  c.cpu += rel.rows * params_.cpu_hash_probe_cost;
  return c;
}

Cost CostModel::OmegaScanBTree(const RelProfile& rel, double closure_size,
                               double btree_height, double fanout) const {
  Cost c = SeqScan(rel);
  // Each closure member costs one B+Tree descent to find its children.
  c.io += closure_size * btree_height * params_.random_page_cost;
  c.cpu += closure_size * (btree_height + fanout) *
           params_.cpu_operator_cost;
  c.cpu += closure_size * params_.closure_node_cost;
  c.cpu += rel.rows * params_.cpu_hash_probe_cost;
  return c;
}

Cost CostModel::NestedLoopJoin(const RelProfile& outer,
                               const RelProfile& inner,
                               double per_pair_cpu) const {
  Cost c;
  c.io = (outer.pages + inner.pages) * params_.seq_page_cost;
  c.cpu = outer.rows * inner.rows *
              (params_.cpu_operator_cost + per_pair_cpu) +
          (outer.rows + inner.rows) * params_.cpu_tuple_cost;
  return c;
}

Cost CostModel::HashJoin(const RelProfile& outer,
                         const RelProfile& inner) const {
  Cost c;
  c.io = (outer.pages + inner.pages) * params_.seq_page_cost;
  c.cpu = inner.rows * (params_.cpu_tuple_cost + params_.cpu_hash_probe_cost) +
          outer.rows * (params_.cpu_tuple_cost + params_.cpu_hash_probe_cost);
  return c;
}

Cost CostModel::PsiJoinNoIndex(const RelProfile& left,
                               const RelProfile& right, int k) const {
  const double len = std::max(left.avg_len, right.avg_len);
  return NestedLoopJoin(left, right, DistanceEvalCost(k, len));
}

Cost CostModel::PsiJoinMTree(const RelProfile& probe,
                             const RelProfile& indexed, int k) const {
  const double frac = ApproxIndexFraction(k);
  Cost c;
  c.io = probe.pages * params_.seq_page_cost +
         probe.rows * frac * indexed.index_pages * params_.random_page_cost;
  c.cpu = probe.rows * frac * indexed.rows *
          DistanceEvalCost(k, indexed.avg_len);
  return c;
}

Cost CostModel::OmegaJoin(const RelProfile& lhs, const RelProfile& rhs,
                          double rhs_unique, double closure_size,
                          double tax_nodes, double tax_pages,
                          double tax_height, bool btree,
                          double btree_height, double fanout) const {
  Cost c;
  c.io = (lhs.pages + rhs.pages) * params_.seq_page_cost;
  // One closure per *unique* RHS value (§4.3 memoization / sort-unique).
  const double uniq = std::max(1.0, rhs_unique);
  if (btree) {
    c.io += uniq * closure_size * btree_height * params_.random_page_cost;
    c.cpu += uniq * closure_size * (btree_height + fanout) *
             params_.cpu_operator_cost;
  } else {
    const double levels = std::max(1.0, tax_height);
    c.io += levels * tax_pages * params_.seq_page_cost;
    c.cpu += uniq * levels * tax_nodes * params_.cpu_operator_cost;
  }
  c.cpu += uniq * closure_size * params_.closure_node_cost;
  // Membership probes: every (lhs, rhs) pair is one hash probe.
  c.cpu += lhs.rows * rhs.rows * params_.cpu_hash_probe_cost;
  return c;
}

Cost CostModel::Filter(double rows) const {
  return {rows * params_.cpu_operator_cost, 0.0};
}

Cost CostModel::Project(double rows) const {
  return {rows * params_.cpu_operator_cost, 0.0};
}

Cost CostModel::Sort(double rows) const {
  const double n = std::max(2.0, rows);
  return {n * std::log2(n) * params_.cpu_operator_cost, 0.0};
}

Cost CostModel::Aggregate(double rows) const {
  return {rows * (params_.cpu_operator_cost + params_.cpu_hash_probe_cost),
          0.0};
}

Cost CostModel::Parallelize(const Cost& serial, int dop) const {
  if (dop <= 1) return serial;
  const double d = static_cast<double>(dop);
  return {serial.cpu / d + params_.parallel_setup_cost +
              params_.parallel_worker_cost * d,
          serial.io};
}

}  // namespace mural
