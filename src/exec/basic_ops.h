// Row-shaping operators: Filter, Project, Limit, Sort, UnionAll, Values.

#pragma once

#include <vector>

#include "exec/expression.h"
#include "exec/operator.h"

namespace mural {

/// Emits child rows satisfying a predicate.
class FilterOp : public PhysicalOp {
 public:
  FilterOp(ExecContext* ctx, OpPtr child, ExprPtr predicate)
      : PhysicalOp(ctx),
        child_(std::move(child)),
        predicate_(std::move(predicate)) {}

  [[nodiscard]] Status OpenImpl() override { return child_->Open(); }
  [[nodiscard]] StatusOr<bool> NextImpl(Row* out) override;
  [[nodiscard]] StatusOr<bool> NextBatchImpl(RowBatch* out) override;
  [[nodiscard]] Status CloseImpl() override { return child_->Close(); }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string DisplayName() const override {
    return "Filter(" + predicate_->ToString() + ")";
  }
  std::vector<const PhysicalOp*> Children() const override {
    return {child_.get()};
  }

 private:
  OpPtr child_;
  ExprPtr predicate_;
};

/// Projects expressions into a new schema.
class ProjectOp : public PhysicalOp {
 public:
  ProjectOp(ExecContext* ctx, OpPtr child, std::vector<ExprPtr> exprs,
            Schema schema)
      : PhysicalOp(ctx),
        child_(std::move(child)),
        exprs_(std::move(exprs)),
        schema_(std::move(schema)) {}

  /// Convenience: project child columns by index, deriving the schema.
  static OpPtr ByColumns(ExecContext* ctx, OpPtr child,
                         const std::vector<size_t>& columns);

  [[nodiscard]] Status OpenImpl() override { return child_->Open(); }
  [[nodiscard]] StatusOr<bool> NextImpl(Row* out) override;
  [[nodiscard]] Status CloseImpl() override { return child_->Close(); }
  const Schema& output_schema() const override { return schema_; }
  std::string DisplayName() const override;
  std::vector<const PhysicalOp*> Children() const override {
    return {child_.get()};
  }

 private:
  OpPtr child_;
  std::vector<ExprPtr> exprs_;
  Schema schema_;
};

/// Emits at most `limit` rows.
class LimitOp : public PhysicalOp {
 public:
  LimitOp(ExecContext* ctx, OpPtr child, uint64_t limit)
      : PhysicalOp(ctx), child_(std::move(child)), limit_(limit) {}

  [[nodiscard]] Status OpenImpl() override {
    seen_ = 0;
    return child_->Open();
  }
  [[nodiscard]] StatusOr<bool> NextImpl(Row* out) override;
  [[nodiscard]] Status CloseImpl() override { return child_->Close(); }
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string DisplayName() const override {
    return "Limit(" + std::to_string(limit_) + ")";
  }
  std::vector<const PhysicalOp*> Children() const override {
    return {child_.get()};
  }

 private:
  OpPtr child_;
  uint64_t limit_;
  uint64_t seen_ = 0;
};

/// One sort key.
struct SortKey {
  size_t column = 0;
  bool ascending = true;
};

/// In-memory sort: drains the child at Open and replays the sorted rows.
class SortOp : public PhysicalOp {
 public:
  SortOp(ExecContext* ctx, OpPtr child, std::vector<SortKey> keys)
      : PhysicalOp(ctx), child_(std::move(child)), keys_(std::move(keys)) {}

  [[nodiscard]] Status OpenImpl() override;
  [[nodiscard]] StatusOr<bool> NextImpl(Row* out) override;
  [[nodiscard]] Status CloseImpl() override;
  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string DisplayName() const override;
  std::vector<const PhysicalOp*> Children() const override {
    return {child_.get()};
  }

 private:
  OpPtr child_;
  std::vector<SortKey> keys_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

/// Concatenates two inputs with compatible schemas (bag union).
class UnionAllOp : public PhysicalOp {
 public:
  UnionAllOp(ExecContext* ctx, OpPtr left, OpPtr right)
      : PhysicalOp(ctx), left_(std::move(left)), right_(std::move(right)) {}

  [[nodiscard]] Status OpenImpl() override {
    on_right_ = false;
    MURAL_RETURN_IF_ERROR(left_->Open());
    return right_->Open();
  }
  [[nodiscard]] StatusOr<bool> NextImpl(Row* out) override;
  [[nodiscard]] Status CloseImpl() override {
    // Close both children even if the left one fails, so the right
    // subtree's buffer-pool pins are released; report the first error.
    const Status left_st = left_->Close();
    const Status right_st = right_->Close();
    MURAL_RETURN_IF_ERROR(left_st);
    return right_st;
  }
  const Schema& output_schema() const override {
    return left_->output_schema();
  }
  std::string DisplayName() const override { return "UnionAll"; }
  std::vector<const PhysicalOp*> Children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  OpPtr left_, right_;
  bool on_right_ = false;
};

/// A leaf operator replaying pre-built rows (tests, VALUES lists).
class ValuesOp : public PhysicalOp {
 public:
  ValuesOp(ExecContext* ctx, Schema schema, std::vector<Row> rows)
      : PhysicalOp(ctx),
        schema_(std::move(schema)),
        rows_(std::move(rows)) {}

  [[nodiscard]] Status OpenImpl() override {
    pos_ = 0;
    return Status::OK();
  }
  [[nodiscard]] StatusOr<bool> NextImpl(Row* out) override {
    if (pos_ >= rows_.size()) return false;
    *out = rows_[pos_++];
    CountRow();
    return true;
  }
  [[nodiscard]] Status CloseImpl() override { return Status::OK(); }
  const Schema& output_schema() const override { return schema_; }
  std::string DisplayName() const override {
    return "Values(" + std::to_string(rows_.size()) + " rows)";
  }

 private:
  Schema schema_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
};

}  // namespace mural
