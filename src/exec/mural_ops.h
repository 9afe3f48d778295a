// Physical operators for the multilingual algebra (paper §3.2, §4).  The
// Psi(col, constant) selection is not here: it is pushed into the one
// heap-scan leaf, SeqScanOp (exec/scan_ops.h).
//
//  - LexJoinOp (Psi join): phoneme-space approximate join.  The algebraic
//    Psi tags every pair of the Cartesian product with the phonemic edit
//    distance; this operator folds in the threshold selection (as every
//    query in the paper does) and optionally emits the distance as an
//    extra column for downstream operators.
//
//  - LexIndexJoinOp: the index nested-loop Psi join over an M-Tree.
//
//  - SemJoinOp (Omega join): taxonomy-subsumption join.  Implements the
//    optimizations of §4.3: the RHS operand drives the (outer) loop so one
//    materialized closure serves all LHS probes; closures are memoized in
//    the session's hash-table cache; optionally RHS values are sorted and
//    deduplicated so each distinct value's closure is computed exactly
//    once even without the cache.

#pragma once

#include <optional>
#include <vector>

#include "catalog/catalog.h"
#include "exec/expression.h"
#include "exec/operator.h"

namespace mural {

/// Psi join: matches outer.col_left with inner.col_right under the
/// phonemic edit-distance threshold.
struct LexJoinOptions {
  /// -1: use the session threshold (ctx->lexequal_threshold).
  int threshold = -1;
  /// Append an INT column "psi_distance" with the pair's distance.
  bool tag_distance = false;
  /// Degree of parallelism for the build/probe phases.  > 1 (with a
  /// thread pool in the context) runs the morsels on the pool; the
  /// gather is in morsel order, so output order does not depend on it.
  int dop = 1;
};

/// One build/probe path at every DOP: Open drains both children
/// (CollectAll), copies materialized inner phonemes and converts the other
/// inner keys in morsels, builds an ephemeral pigeonhole index over them, then probes the outer rows in
/// morsels — each outer row looks up its candidate inner keys and verifies
/// only those, in inner order, with one BoundedMyersMatcher.  Both phases
/// run through GatherMorsels, which sizes morsels from the input alone, so
/// even a small outer side splits into many morsels (a phase under 2 * DOP
/// units runs them inline).  Next replays the
/// gathered result.
class LexJoinOp : public PhysicalOp {
 public:
  using Options = LexJoinOptions;

  LexJoinOp(ExecContext* ctx, OpPtr outer, OpPtr inner, size_t outer_col,
            size_t inner_col, Options options = Options());

  [[nodiscard]] Status OpenImpl() override;
  [[nodiscard]] StatusOr<bool> NextImpl(Row* out) override;
  [[nodiscard]] Status CloseImpl() override;
  const Schema& output_schema() const override { return schema_; }
  std::string DisplayName() const override;
  std::vector<const PhysicalOp*> Children() const override {
    return {outer_.get(), inner_.get()};
  }

 private:
  OpPtr outer_, inner_;
  size_t outer_col_, inner_col_;
  Options options_;
  Schema schema_;

  std::vector<Row> results_;
  size_t result_pos_ = 0;
  uint64_t cache_hits_ = 0;    // phoneme-cache lookups by this operator
  uint64_t cache_misses_ = 0;
  uint64_t verified_ = 0;      // candidate pairs the kernel verified
  bool ran_ = false;           // Open has completed at least once
};

/// Omega join: emits outer x inner pairs where the LHS value is subsumed
/// by the RHS value in the pinned taxonomy.
///
/// Column roles: `lhs_col` indexes the *probe* side (set-membership tested
/// against the closure), `rhs_col` the closure side, matching the paper's
/// Omega(LHS, RHS) semantics.  Physically the RHS child is the outer loop.
/// The output schema is Concat(lhs_child, rhs_child) regardless.
struct SemJoinOptions {
  /// Use the session closure cache (§4.3).  Off = recompute per RHS row
  /// (the ablation baseline).
  bool use_closure_cache = true;
  /// Sort RHS rows by value and skip duplicates' recomputation even
  /// without the cache (§4.3 "sorting the RHS values and computing the
  /// closure only for unique values").
  bool sort_unique_rhs = false;
};

class SemJoinOp : public PhysicalOp {
 public:
  using Options = SemJoinOptions;

  SemJoinOp(ExecContext* ctx, OpPtr lhs_child, OpPtr rhs_child,
            size_t lhs_col, size_t rhs_col, Options options = Options());

  [[nodiscard]] Status OpenImpl() override;
  [[nodiscard]] StatusOr<bool> NextImpl(Row* out) override;
  [[nodiscard]] Status CloseImpl() override;
  const Schema& output_schema() const override { return schema_; }
  std::string DisplayName() const override;
  std::vector<const PhysicalOp*> Children() const override {
    return {lhs_.get(), rhs_.get()};
  }

 private:
  [[nodiscard]] Status ComputeClosureFor(const Value& rhs_value);

  OpPtr lhs_, rhs_;
  size_t lhs_col_, rhs_col_;
  Options options_;
  Schema schema_;

  std::vector<Row> lhs_rows_;           // materialized probe side
  std::vector<Row> rhs_rows_;           // outer loop (sorted if requested)
  size_t rhs_pos_ = 0;
  size_t lhs_pos_ = 0;
  bool rhs_open_ = false;

  // Closure of the current RHS value (points into the cache, or local).
  const Closure* current_closure_ = nullptr;
  Closure local_closure_;
  std::optional<std::string> last_rhs_key_;  // for sort_unique_rhs reuse
};

/// Index nested-loop Psi join: for each outer row, probes the inner
/// table's M-Tree with the outer value's phonemes at the threshold radius
/// and fetches matching heap tuples (Table 3's join-with-approx-index
/// case).  Output schema: Concat(outer, inner_table).
class LexIndexJoinOp : public PhysicalOp {
 public:
  LexIndexJoinOp(ExecContext* ctx, OpPtr outer, const TableInfo* inner_table,
                 const IndexInfo* inner_index, size_t outer_col,
                 int threshold = -1);

  [[nodiscard]] Status OpenImpl() override;
  [[nodiscard]] StatusOr<bool> NextImpl(Row* out) override;
  [[nodiscard]] Status CloseImpl() override;
  const Schema& output_schema() const override { return schema_; }
  std::string DisplayName() const override;
  std::vector<const PhysicalOp*> Children() const override {
    return {outer_.get()};
  }

 private:
  OpPtr outer_;
  const TableInfo* inner_table_;
  const IndexInfo* inner_index_;
  size_t outer_col_;
  int threshold_;
  Schema schema_;

  Row outer_row_;
  bool outer_valid_ = false;
  std::vector<Rid> matches_;
  size_t match_pos_ = 0;
};

}  // namespace mural
