#include "exec/basic_ops.h"

#include <algorithm>
#include <utility>

namespace mural {

StatusOr<bool> FilterOp::NextImpl(Row* out) {
  while (true) {
    MURAL_ASSIGN_OR_RETURN(const bool more, child_->Next(out));
    if (!more) return false;
    MURAL_ASSIGN_OR_RETURN(const bool keep,
                           EvalPredicate(*predicate_, *out, ctx_));
    if (keep) {
      CountRow();
      return true;
    }
  }
}

StatusOr<bool> FilterOp::NextBatchImpl(RowBatch* out) {
  // Pulls child batches and compacts the selection vector in place; rows
  // never move.  Loops past batches the predicate empties so callers see
  // at most one empty batch (the exhausted one).
  while (true) {
    MURAL_ASSIGN_OR_RETURN(const bool more, child_->NextBatch(out));
    std::vector<uint32_t>& sel = out->selection();
    size_t kept = 0;
    for (size_t i = 0; i < sel.size(); ++i) {
      MURAL_ASSIGN_OR_RETURN(
          const bool keep,
          EvalPredicate(*predicate_, out->SelectedRow(i), ctx_));
      if (keep) sel[kept++] = sel[i];
    }
    sel.resize(kept);
    CountRows(kept);
    if (!more) return !out->empty();
    if (kept > 0) return true;
  }
}

OpPtr ProjectOp::ByColumns(ExecContext* ctx, OpPtr child,
                           const std::vector<size_t>& columns) {
  const Schema& in = child->output_schema();
  std::vector<ExprPtr> exprs;
  std::vector<Column> cols;
  for (size_t c : columns) {
    exprs.push_back(Col(c, in.column(c).name));
    cols.push_back(in.column(c));
  }
  return std::make_unique<ProjectOp>(ctx, std::move(child), std::move(exprs),
                                     Schema(std::move(cols)));
}

StatusOr<bool> ProjectOp::NextImpl(Row* out) {
  Row in;
  MURAL_ASSIGN_OR_RETURN(const bool more, child_->Next(&in));
  if (!more) return false;
  out->clear();
  out->reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) {
    MURAL_ASSIGN_OR_RETURN(Value v, e->Evaluate(in, ctx_));
    out->push_back(std::move(v));
  }
  CountRow();
  return true;
}

std::string ProjectOp::DisplayName() const {
  std::string out = "Project(";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs_[i]->ToString();
  }
  out += ")";
  return out;
}

StatusOr<bool> LimitOp::NextImpl(Row* out) {
  if (seen_ >= limit_) return false;
  MURAL_ASSIGN_OR_RETURN(const bool more, child_->Next(out));
  if (!more) return false;
  ++seen_;
  CountRow();
  return true;
}

StatusOr<bool> UnionAllOp::NextImpl(Row* out) {
  if (!on_right_) {
    MURAL_ASSIGN_OR_RETURN(const bool more, left_->Next(out));
    if (more) {
      CountRow();
      return true;
    }
    on_right_ = true;
  }
  MURAL_ASSIGN_OR_RETURN(const bool more, right_->Next(out));
  if (more) CountRow();
  return more;
}

Status SortOp::OpenImpl() {
  pos_ = 0;
  MURAL_ASSIGN_OR_RETURN(rows_, CollectAll(child_.get()));
  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Row& a, const Row& b) {
                     for (const SortKey& k : keys_) {
                       const int c = a[k.column].Compare(b[k.column]);
                       if (c != 0) return k.ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
  return Status::OK();
}

StatusOr<bool> SortOp::NextImpl(Row* out) {
  // Open rebuilds rows_, so replaying by move is safe.
  if (pos_ >= rows_.size()) return false;
  *out = std::move(rows_[pos_++]);
  CountRow();
  return true;
}

Status SortOp::CloseImpl() {
  rows_.clear();
  return Status::OK();
}

std::string SortOp::DisplayName() const {
  std::string out = "Sort(";
  const Schema& schema = child_->output_schema();
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += schema.column(keys_[i].column).name;
    if (!keys_[i].ascending) out += " DESC";
  }
  out += ")";
  return out;
}

}  // namespace mural
