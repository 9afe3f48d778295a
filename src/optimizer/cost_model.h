// The operator cost model (paper §3.3, Tables 2 & 3).
//
// Costs are split into CPU and disk-I/O components, in PostgreSQL-style
// abstract units (one sequential page read = 1.0).  The formulas are the
// concrete instantiations of Table 3's big-O rows:
//
//   Psi scan,  no index:   CPU n_l * k * L_ph          IO  P_l
//   Psi scan,  approx idx: CPU frac(k) * n_l * k * L   IO  frac(k) * P_AI
//   Psi join,  no index:   CPU n_l * n_r * k * L       IO  P_l + P_r
//   Psi join,  approx idx: CPU n_l * frac(k)*n_r*k*L   IO  P_l + n_l*frac*P_AI
//   Omega scan, no index:  CPU levels*n_T + n_l        IO  P_l + h_T * P_T
//   Omega scan, B+Tree:    CPU |TC|*(h_B + f_T) + n_l  IO  P_l + |TC| * h_B
//   Omega join:            scan cost with the closure amortized over
//                          unique RHS values + n_l * n_r membership probes
//
// frac(k) — the fraction of an approximate (metric) index scanned — is
// modelled as a linear function of the error threshold, following the
// paper's empirical observation (§3.3 last paragraph).
//
// All edit-distance computations use the diagonal-transition algorithm, so
// a single distance evaluation costs O(k * L) cells (paper §3.3).

#pragma once

#include <cstdint>
#include <string>

#include "common/string_util.h"

namespace mural {

/// Tunable cost constants (PostgreSQL-flavoured defaults).
struct CostParams {
  double seq_page_cost = 1.0;
  double random_page_cost = 2.0;
  double cpu_tuple_cost = 0.01;
  double cpu_operator_cost = 0.0025;
  /// Cost of one DP cell of the diagonal-transition edit distance.
  double cpu_distance_cell_cost = 0.0002;
  double cpu_hash_probe_cost = 0.004;
  /// Cost of visiting one taxonomy node during closure expansion.
  double closure_node_cost = 0.004;
  /// Approximate-index scan fraction: frac(k) = min(1, base + slope * k).
  double mtree_frac_base = 0.05;
  double mtree_frac_slope = 0.30;
  /// Fixed cost of launching a morsel-parallel phase (gather, slots).
  double parallel_setup_cost = 10.0;
  /// Per-worker coordination cost of a parallel phase.
  double parallel_worker_cost = 2.0;
  /// Per-row CPU on the vectorized path: what remains of cpu_tuple_cost
  /// once the per-tuple virtual dispatch, span bookkeeping, and full-row
  /// materialization are amortized over a batch (late materialization
  /// deserializes matches only).
  double cpu_batch_row_cost = 0.0025;
};

/// A (cpu, io) cost pair.
struct Cost {
  double cpu = 0.0;
  double io = 0.0;

  double total() const { return cpu + io; }
  Cost operator+(const Cost& o) const { return {cpu + o.cpu, io + o.io}; }
  Cost& operator+=(const Cost& o) {
    cpu += o.cpu;
    io += o.io;
    return *this;
  }
  std::string ToString() const {
    return StringFormat("cost{cpu=%.1f io=%.1f total=%.1f}", cpu, io,
                        total());
  }
};

/// Inputs describing one operand relation (the subscripted symbols of
/// Table 2).
struct RelProfile {
  double rows = 0;        // n
  double pages = 0;       // P
  double avg_len = 0;     // L (bytes of the matched attribute)
  double index_pages = 0; // P_AI / P_I when an index participates
  double index_height = 2;
};

/// The cost model.
class CostModel {
 public:
  explicit CostModel(CostParams params = CostParams()) : params_(params) {}

  const CostParams& params() const { return params_; }

  /// Fraction of an approximate (metric) index scanned at threshold k.
  double ApproxIndexFraction(int k) const;

  // ------------------------------------------------------------ scans
  Cost SeqScan(const RelProfile& rel) const;
  Cost BTreeProbe(const RelProfile& rel, double match_rows) const;

  /// Psi scan-type (Attr ~ Const), Table 3 rows 1-2.
  Cost PsiScanNoIndex(const RelProfile& rel, int k) const;
  Cost PsiScanMTree(const RelProfile& rel, int k) const;

  /// The Psi scan leaf (LexSelect) at `batch_size`: same I/O and distance
  /// terms as PsiScanNoIndex, but the per-tuple dispatch cost is paid once
  /// per batch, with a smaller per-row residual (cpu_batch_row_cost).
  /// batch_size 0 (tuple-at-a-time) is PsiScanNoIndex.  The planner feeds
  /// this to Parallelize for the leaf's DOP.
  Cost PsiScanBatched(const RelProfile& rel, int k, size_t batch_size) const;

  /// Omega scan-type: closure computed once, then n membership probes.
  Cost OmegaScanNoIndex(const RelProfile& rel, double closure_size,
                        double tax_nodes, double tax_pages,
                        double tax_height) const;
  Cost OmegaScanBTree(const RelProfile& rel, double closure_size,
                      double btree_height, double fanout) const;

  // ------------------------------------------------------------ joins
  /// Generic nested-loop join with materialized inner.
  Cost NestedLoopJoin(const RelProfile& outer, const RelProfile& inner,
                      double per_pair_cpu) const;
  Cost HashJoin(const RelProfile& outer, const RelProfile& inner) const;

  /// Psi join-type, Table 3 rows 5-8.
  Cost PsiJoinNoIndex(const RelProfile& left, const RelProfile& right,
                      int k) const;
  Cost PsiJoinMTree(const RelProfile& probe, const RelProfile& indexed,
                    int k) const;

  /// Omega join-type: closures for unique RHS values + membership probes.
  Cost OmegaJoin(const RelProfile& lhs, const RelProfile& rhs,
                 double rhs_unique, double closure_size, double tax_nodes,
                 double tax_pages, double tax_height, bool btree,
                 double btree_height, double fanout) const;

  // ------------------------------------------------- parallelism
  /// Cost of running a CPU-bound operator with `dop` morsel workers: the
  /// Table-3 CPU term divides by dop (morsels are embarrassingly
  /// parallel), the I/O term does not (workers share one buffer pool), and
  /// setup/coordination overhead is added so small inputs stay serial.
  Cost Parallelize(const Cost& serial, int dop) const;

  // ------------------------------------------------------- other ops
  Cost Filter(double rows) const;
  Cost Project(double rows) const;
  Cost Sort(double rows) const;
  Cost Aggregate(double rows) const;

 private:
  /// CPU of one diagonal-transition distance evaluation.
  double DistanceEvalCost(int k, double len) const {
    // The band has (2k+1) diagonals over ~len columns; at least one cell.
    const double cells = std::max(1.0, (2.0 * k + 1.0) * len);
    return cells * params_.cpu_distance_cell_cost;
  }

  CostParams params_;
};

}  // namespace mural
