#include "exec/join_ops.h"

#include <utility>

namespace mural {

namespace {

Row ConcatRows(const Row& a, const Row& b) {
  Row out;
  out.reserve(a.size() + b.size());
  out.insert(out.end(), a.begin(), a.end());
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

NestedLoopJoinOp::NestedLoopJoinOp(ExecContext* ctx, OpPtr outer, OpPtr inner,
                                   ExprPtr predicate)
    : PhysicalOp(ctx),
      outer_(std::move(outer)),
      inner_(std::move(inner)),
      predicate_(std::move(predicate)),
      schema_(Schema::Concat(outer_->output_schema(),
                             inner_->output_schema())) {}

Status NestedLoopJoinOp::OpenImpl() {
  MURAL_RETURN_IF_ERROR(outer_->Open());
  MURAL_ASSIGN_OR_RETURN(inner_rows_, CollectAll(inner_.get()));
  outer_valid_ = false;
  inner_pos_ = 0;
  return Status::OK();
}

StatusOr<bool> NestedLoopJoinOp::NextImpl(Row* out) {
  while (true) {
    if (!outer_valid_) {
      MURAL_ASSIGN_OR_RETURN(const bool more, outer_->Next(&outer_row_));
      if (!more) return false;
      outer_valid_ = true;
      inner_pos_ = 0;
    }
    while (inner_pos_ < inner_rows_.size()) {
      Row candidate = ConcatRows(outer_row_, inner_rows_[inner_pos_++]);
      bool keep = true;
      if (predicate_ != nullptr) {
        MURAL_ASSIGN_OR_RETURN(keep,
                               EvalPredicate(*predicate_, candidate, ctx_));
      }
      if (keep) {
        *out = std::move(candidate);
        CountRow();
        return true;
      }
    }
    outer_valid_ = false;
  }
}

Status NestedLoopJoinOp::CloseImpl() {
  inner_rows_.clear();
  return outer_->Close();
}

HashJoinOp::HashJoinOp(ExecContext* ctx, OpPtr outer, OpPtr inner,
                       size_t outer_col, size_t inner_col)
    : PhysicalOp(ctx),
      outer_(std::move(outer)),
      inner_(std::move(inner)),
      outer_col_(outer_col),
      inner_col_(inner_col),
      schema_(Schema::Concat(outer_->output_schema(),
                             inner_->output_schema())) {}

Status HashJoinOp::OpenImpl() {
  MURAL_RETURN_IF_ERROR(outer_->Open());
  table_.clear();
  MURAL_ASSIGN_OR_RETURN(std::vector<Row> build, CollectAll(inner_.get()));
  for (Row& row : build) {
    const Value& key = row[inner_col_];
    if (key.is_null()) continue;  // NULL never joins
    const uint64_t hash = key.Hash();
    table_.emplace(hash, std::move(row));
  }
  outer_valid_ = false;
  matches_open_ = false;
  return Status::OK();
}

StatusOr<bool> HashJoinOp::NextImpl(Row* out) {
  while (true) {
    if (!matches_open_) {
      MURAL_ASSIGN_OR_RETURN(const bool more, outer_->Next(&outer_row_));
      if (!more) return false;
      const Value& key = outer_row_[outer_col_];
      if (key.is_null()) continue;
      matches_ = table_.equal_range(key.Hash());
      matches_open_ = true;
    }
    while (matches_.first != matches_.second) {
      const Row& inner_row = matches_.first->second;
      ++matches_.first;
      // Re-check: hash collision safety.
      if (!outer_row_[outer_col_].Equals(inner_row[inner_col_])) continue;
      *out = Row();
      out->reserve(outer_row_.size() + inner_row.size());
      out->insert(out->end(), outer_row_.begin(), outer_row_.end());
      out->insert(out->end(), inner_row.begin(), inner_row.end());
      CountRow();
      return true;
    }
    matches_open_ = false;
  }
}

Status HashJoinOp::CloseImpl() {
  table_.clear();
  return outer_->Close();
}

std::string HashJoinOp::DisplayName() const {
  return "HashJoin(" + outer_->output_schema().column(outer_col_).name +
         " = " + inner_->output_schema().column(inner_col_).name + ")";
}

}  // namespace mural
