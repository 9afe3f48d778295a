// Join operators: generic nested-loop join (arbitrary predicate) and hash
// join (equi-predicates).  The multilingual joins live in mural_ops.h.

#pragma once

#include <unordered_map>
#include <vector>

#include "exec/expression.h"
#include "exec/operator.h"

namespace mural {

/// Nested-loop inner join; the inner (right) side is drained into memory
/// once per Open (CollectAll).  Predicate may be null (pure Cartesian
/// product).
class NestedLoopJoinOp : public PhysicalOp {
 public:
  NestedLoopJoinOp(ExecContext* ctx, OpPtr outer, OpPtr inner,
                   ExprPtr predicate);

  [[nodiscard]] Status OpenImpl() override;
  [[nodiscard]] StatusOr<bool> NextImpl(Row* out) override;
  [[nodiscard]] Status CloseImpl() override;
  const Schema& output_schema() const override { return schema_; }
  std::string DisplayName() const override {
    return "NestedLoopJoin(" +
           (predicate_ ? predicate_->ToString() : std::string("true")) + ")";
  }
  std::vector<const PhysicalOp*> Children() const override {
    return {outer_.get(), inner_.get()};
  }

 private:
  OpPtr outer_, inner_;
  ExprPtr predicate_;
  Schema schema_;
  std::vector<Row> inner_rows_;
  Row outer_row_;
  bool outer_valid_ = false;
  size_t inner_pos_ = 0;
};

/// Hash inner join on left.column == right.column (SQL '=' semantics over
/// the Value equality used throughout; NULL keys never join).
class HashJoinOp : public PhysicalOp {
 public:
  HashJoinOp(ExecContext* ctx, OpPtr outer, OpPtr inner, size_t outer_col,
             size_t inner_col);

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
  Schema schema_;
  // build side: hash(value) -> candidate rows (collisions re-checked)
  std::unordered_multimap<uint64_t, Row> table_;
  Row outer_row_;
  bool outer_valid_ = false;
  std::pair<std::unordered_multimap<uint64_t, Row>::iterator,
            std::unordered_multimap<uint64_t, Row>::iterator>
      matches_;
  bool matches_open_ = false;
};

}  // namespace mural
