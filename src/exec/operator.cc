#include "exec/operator.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace mural {

namespace {

Gauge* SpansInProgressGauge() {
  static Gauge* gauge =
      MetricsRegistry::Global().GetGauge("exec.spans_in_progress");
  return gauge;
}

/// The buffer pool's fetch-time counter (see BufferPool::Fetch); span
/// deltas of it attribute storage time to operators.
Counter* FetchNanosCounter() {
  static Counter* counter =
      MetricsRegistry::Global().GetCounter("storage.buffer_pool.fetch_nanos");
  return counter;
}

void ExplainRec(const PhysicalOp& op, int depth, bool with_actuals,
                std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append("-> ");
  out->append(op.DisplayName());
  if (with_actuals) {
    out->append(" (actual rows=");
    out->append(std::to_string(op.rows_produced()));
    out->append(")");
  }
  out->push_back('\n');
  for (const PhysicalOp* child : op.Children()) {
    ExplainRec(*child, depth + 1, with_actuals, out);
  }
}

void TraceRec(const PhysicalOp& op, int depth, const TraceOptions& opts,
              std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append("-> ");
  out->append(op.DisplayName());
  out->append(" (");
  if (opts.with_estimates && op.estimated_rows() >= 0) {
    out->append(StringFormat("est rows=%lld ",
                             static_cast<long long>(op.estimated_rows())));
  }
  out->append(StringFormat("actual rows=%llu",
                           static_cast<unsigned long long>(
                               op.rows_produced())));
  if (opts.with_estimates && op.estimated_rows() >= 0) {
    out->append(StringFormat(
        " q=%.2f", QError(static_cast<double>(op.estimated_rows()),
                          static_cast<double>(op.rows_produced()))));
  }
  if (op.batches_produced() > 0) {
    out->append(StringFormat(
        " batches=%llu rows/batch=%.1f",
        static_cast<unsigned long long>(op.batches_produced()),
        static_cast<double>(op.rows_produced()) /
            static_cast<double>(op.batches_produced())));
  }
  if (opts.with_times) {
    out->append(StringFormat(" time=%.3fms", op.span().TotalMillis()));
    // Buffer-pool attribution only when the subtree touched storage, so
    // pure compute plans keep the compact line.
    if (op.span().storage_ns > 0) {
      out->append(StringFormat(" storage=%.3fms", op.span().StorageMillis()));
    }
  }
  out->append(")\n");
  for (const PhysicalOp* child : op.Children()) {
    TraceRec(*child, depth + 1, opts, out);
  }
}

}  // namespace

PhysicalOp::~PhysicalOp() {
  // Safety net: a plan destroyed without Close (driver bug) must not leak
  // an in-progress span in the process-wide gauge.
  if (in_progress_) SpansInProgressGauge()->Add(-1);
}

Status PhysicalOp::Open() {
  if (!in_progress_) {
    in_progress_ = true;
    SpansInProgressGauge()->Add(1);
  }
  const uint64_t t0 = SpanClock::NowNanos();
  const uint64_t f0 = FetchNanosCounter()->value();
  Status s = OpenImpl();
  span_.open_ns += SpanClock::NowNanos() - t0;
  span_.storage_ns += FetchNanosCounter()->value() - f0;
  return s;
}

StatusOr<bool> PhysicalOp::Next(Row* out) {
  const uint64_t t0 = SpanClock::NowNanos();
  const uint64_t f0 = FetchNanosCounter()->value();
  StatusOr<bool> r = NextImpl(out);
  span_.next_ns += SpanClock::NowNanos() - t0;
  span_.storage_ns += FetchNanosCounter()->value() - f0;
  return r;
}

StatusOr<bool> PhysicalOp::NextBatch(RowBatch* out) {
  const uint64_t t0 = SpanClock::NowNanos();
  const uint64_t f0 = FetchNanosCounter()->value();
  out->Reset();
  StatusOr<bool> r = NextBatchImpl(out);
  if (r.ok() && *r && !out->empty()) ++batches_produced_;
  span_.next_ns += SpanClock::NowNanos() - t0;
  span_.storage_ns += FetchNanosCounter()->value() - f0;
  return r;
}

StatusOr<bool> PhysicalOp::NextBatchImpl(RowBatch* out) {
  // Compatibility shim: any operator without a native batch path produces
  // a batch by looping its tuple-at-a-time NextImpl.  Row counters are
  // maintained by NextImpl itself (CountRow), exactly as on the tuple
  // path, so counter parity holds by construction.
  while (!out->full()) {
    Row* slot = out->PushRow();
    MURAL_ASSIGN_OR_RETURN(const bool more, NextImpl(slot));
    if (!more) {
      out->selection().pop_back();  // the slot was never filled
      return !out->empty();
    }
  }
  return true;
}

Status PhysicalOp::Close() {
  if (!in_progress_) return Status::OK();
  const uint64_t t0 = SpanClock::NowNanos();
  const uint64_t f0 = FetchNanosCounter()->value();
  Status s = CloseImpl();
  span_.close_ns += SpanClock::NowNanos() - t0;
  span_.storage_ns += FetchNanosCounter()->value() - f0;
  in_progress_ = false;
  SpansInProgressGauge()->Add(-1);
  return s;
}

std::string ExplainTree(const PhysicalOp& root, bool with_actuals) {
  std::string out;
  ExplainRec(root, 0, with_actuals, &out);
  return out;
}

std::string TraceTree(const PhysicalOp& root, const TraceOptions& opts) {
  std::string out;
  TraceRec(root, 0, opts, &out);
  return out;
}

double QError(double estimated, double actual) {
  const double e = std::max(estimated, 1.0);
  const double a = std::max(actual, 1.0);
  return std::max(e / a, a / e);
}

StatusOr<std::vector<Row>> CollectAll(PhysicalOp* root) {
  Status status = root->Open();
  std::vector<Row> rows;
  const size_t batch_size = root->context()->batch_size;
  if (status.ok() && batch_size > 0) {
    RowBatch batch(batch_size);
    while (true) {
      StatusOr<bool> more = root->NextBatch(&batch);
      if (!more.ok()) {
        status = more.status();
        break;
      }
      for (size_t i = 0; i < batch.num_selected(); ++i) {
        rows.push_back(std::move(batch.SelectedRow(i)));
      }
      if (!*more) break;
    }
  } else if (status.ok()) {
    Row row;
    while (true) {
      StatusOr<bool> more = root->Next(&row);
      if (!more.ok()) {
        status = more.status();
        break;
      }
      if (!*more) break;
      rows.push_back(std::move(row));
    }
  }
  // Close even on failure: operators release resources and the span
  // gauge returns to zero.  The execution error wins over a close error.
  const Status close_status = root->Close();
  MURAL_RETURN_IF_ERROR(status);
  MURAL_RETURN_IF_ERROR(close_status);
  return rows;
}

StatusOr<std::vector<Row>> GatherMorsels(ExecContext* ctx, size_t count,
                                         int dop, const MorselFn& fn) {
  const size_t num_morsels = MorselCount(count);
  std::vector<std::vector<Row>> slots(num_morsels);
  std::vector<ExecContext> worker_ctxs(num_morsels, ctx->WorkerClone());
  MURAL_RETURN_IF_ERROR(ParallelMorsels(
      ctx->thread_pool, count, dop,
      [&fn, &slots, &worker_ctxs](size_t m, size_t begin, size_t end) {
        return fn(begin, end, &worker_ctxs[m], &slots[m]);
      }));
  size_t total = 0;
  for (const std::vector<Row>& slot : slots) total += slot.size();
  std::vector<Row> rows;
  rows.reserve(total);
  for (size_t m = 0; m < num_morsels; ++m) {
    ctx->stats.Merge(worker_ctxs[m].stats);
    for (Row& r : slots[m]) rows.push_back(std::move(r));
  }
  return rows;
}

}  // namespace mural
