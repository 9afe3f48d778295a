// PhysicalOp: the Volcano-style iterator interface all physical operators
// implement, plus EXPLAIN-tree rendering.
//
// The public Open/Next/Close entry points are non-virtual: they time the
// call through SpanClock into a per-operator trace span, maintain the
// process-wide `exec.spans_in_progress` gauge, and delegate to the
// protected OpenImpl/NextImpl/CloseImpl virtuals that subclasses override.
// Close() is idempotent and safe after a failed Open, so a driver can
// unconditionally Close a plan on any error and leave no span dangling.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "exec/exec_context.h"

namespace mural {

class PhysicalOp;
using OpPtr = std::unique_ptr<PhysicalOp>;

/// Wall-time trace span for one operator, split by iterator phase.
/// Next time is inclusive of children (parents drive children from their
/// NextImpl), matching the EXPLAIN ANALYZE convention.
///
/// `storage_ns` attributes buffer-pool time to the operator: the delta of
/// the process-wide storage.buffer_pool.fetch_nanos counter across each
/// Open/Next/Close call.  Like the wall times it is inclusive of
/// children, and being a process-global counter it also absorbs fetches
/// issued by concurrent queries — a per-query attribution would need
/// per-context counters.  Within the bench harness and EXPLAIN ANALYZE
/// (one query at a time) it reads as "time this subtree spent in the
/// buffer pool".
struct OpSpan {
  uint64_t open_ns = 0;
  uint64_t next_ns = 0;
  uint64_t close_ns = 0;
  uint64_t storage_ns = 0;

  uint64_t TotalNanos() const { return open_ns + next_ns + close_ns; }
  double TotalMillis() const {
    return static_cast<double>(TotalNanos()) * 1e-6;
  }
  double StorageMillis() const {
    return static_cast<double>(storage_ns) * 1e-6;
  }
};

/// A batch of rows plus a selection vector — the unit of the vectorized
/// execution path (DESIGN.md "Vectorized execution").
///
/// Row storage is persistent across Reset() so a pipeline reuses one
/// allocation per operator; `sel_` lists the indices of rows that are
/// live after filtering.  Producers PushRow() (which self-selects the
/// row); filters shrink the selection in place without moving rows.
class RowBatch {
 public:
  explicit RowBatch(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    rows_.resize(capacity_);
    sel_.reserve(capacity_);
  }

  size_t capacity() const { return capacity_; }

  /// Number of selected (live) rows.
  size_t num_selected() const { return sel_.size(); }
  bool empty() const { return sel_.empty(); }

  /// Clears the selection and logical row count; storage is kept.
  void Reset() {
    count_ = 0;
    sel_.clear();
  }

  /// Returns the next writable row slot and marks it selected.  Must not
  /// be called more than capacity() times between Resets.
  Row* PushRow() {
    sel_.push_back(static_cast<uint32_t>(count_));
    return &rows_[count_++];
  }
  bool full() const { return count_ == capacity_; }

  /// i-th *selected* row (0 <= i < num_selected()).
  Row& SelectedRow(size_t i) { return rows_[sel_[i]]; }
  const Row& SelectedRow(size_t i) const { return rows_[sel_[i]]; }

  /// The selection vector itself, for filters that compact it in place.
  std::vector<uint32_t>& selection() { return sel_; }

 private:
  size_t capacity_;
  size_t count_ = 0;            // rows written since Reset
  std::vector<Row> rows_;       // persistent storage, capacity_ slots
  std::vector<uint32_t> sel_;   // indices of live rows, ascending
};

/// Base class for physical operators.
class PhysicalOp {
 public:
  explicit PhysicalOp(ExecContext* ctx) : ctx_(ctx) {}
  virtual ~PhysicalOp();

  /// Prepares for iteration.  May be called again after Close (rescan).
  /// On failure the operator still counts as in progress; call Close()
  /// to release it (the span gauge invariant relies on this).
  [[nodiscard]] Status Open();

  /// Produces the next row into *out; returns false when exhausted.
  [[nodiscard]] StatusOr<bool> Next(Row* out);

  /// Produces the next batch of rows into *out (Reset + refilled); returns
  /// false when exhausted and the batch is empty.  Timed into the same
  /// span as Next().  The default NextBatchImpl loops NextImpl, so every
  /// operator supports the batch protocol; hot operators override it.
  [[nodiscard]] StatusOr<bool> NextBatch(RowBatch* out);

  /// Idempotent; a no-op unless a prior Open is outstanding.
  [[nodiscard]] Status Close();

  virtual const Schema& output_schema() const = 0;

  /// Operator name + arguments for EXPLAIN ("SeqScan(Book)").
  virtual std::string DisplayName() const = 0;

  virtual std::vector<const PhysicalOp*> Children() const { return {}; }

  uint64_t rows_produced() const { return rows_produced_; }

  /// Non-empty batches emitted via NextBatch (0 on the tuple path).
  uint64_t batches_produced() const { return batches_produced_; }

  /// Trace span accumulated across Open/Next/Close calls so far.
  const OpSpan& span() const { return span_; }

  ExecContext* context() const { return ctx_; }

  /// Planner's cardinality estimate for this node; -1 = not estimated.
  int64_t estimated_rows() const { return estimated_rows_; }
  void set_estimated_rows(int64_t rows) { estimated_rows_ = rows; }

 protected:
  virtual Status OpenImpl() = 0;
  virtual StatusOr<bool> NextImpl(Row* out) = 0;
  virtual Status CloseImpl() = 0;

  /// Default batch implementation: loops NextImpl until the batch is full
  /// or the operator is exhausted.  Overrides must keep the same counter
  /// semantics as the tuple path (CountRow/CountRows per emitted row).
  virtual StatusOr<bool> NextBatchImpl(RowBatch* out);

  /// Subclasses call this when emitting a row.
  void CountRow() {
    ++rows_produced_;
    ++ctx_->stats.rows_emitted;
  }

  /// Batch form of CountRow: `n` rows emitted at once.
  void CountRows(uint64_t n) {
    rows_produced_ += n;
    ctx_->stats.rows_emitted += n;
  }

  ExecContext* ctx_;
  uint64_t rows_produced_ = 0;

 private:
  OpSpan span_;
  uint64_t batches_produced_ = 0;
  int64_t estimated_rows_ = -1;
  bool in_progress_ = false;
};

/// Renders an indented operator tree (EXPLAIN-style).  With
/// `with_actuals`, appends each operator's produced-row count — call
/// after execution for EXPLAIN ANALYZE output.
std::string ExplainTree(const PhysicalOp& root, bool with_actuals = false);

/// Rendering options for TraceTree.
struct TraceOptions {
  bool with_times = true;      // per-operator wall time from the span
  bool with_estimates = true;  // est rows + per-node q-error where known
};

/// Renders the executed plan as a timed tree: estimated vs actual rows,
/// per-node q-error, and per-operator wall time.  The `actual rows=N`
/// annotation matches ExplainTree's EXPLAIN ANALYZE format.
std::string TraceTree(const PhysicalOp& root,
                      const TraceOptions& opts = TraceOptions());

/// q-error between an estimate and an observation, both floored at one
/// row: max(est/actual, actual/est) >= 1, with 1 = perfect.
double QError(double estimated, double actual);

/// Drives a plan to completion, collecting all rows.  The plan is always
/// Closed before returning — also on Open/Next failure — so no operator
/// is left with an in-progress span.
StatusOr<std::vector<Row>> CollectAll(PhysicalOp* root);

/// One morsel of a morsel-parallel operator: processes input units
/// [begin, end), counting effort in `wctx` and appending output rows to
/// `slot`.
using MorselFn = std::function<Status(size_t begin, size_t end,
                                      ExecContext* wctx,
                                      std::vector<Row>* slot)>;

/// The morsel driver of every morsel-parallel operator: cuts [0, count)
/// into morsels (ParallelMorsels, at `dop` on ctx->thread_pool), runs `fn`
/// per morsel under its own WorkerClone() of `ctx` into its own slot, then
/// merges the workers' stats into ctx->stats and concatenates the slots, in
/// morsel order.  Rows, their order and ExecStats are the same at every DOP.
[[nodiscard]] StatusOr<std::vector<Row>> GatherMorsels(ExecContext* ctx,
                                                       size_t count, int dop,
                                                       const MorselFn& fn);

}  // namespace mural
