#include "exec/agg_ops.h"

#include <algorithm>
#include <utility>

namespace mural {

const char* AggKindToString(AggKind kind) {
  switch (kind) {
    case AggKind::kCountStar:
      return "count(*)";
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
  }
  return "?";
}

namespace {

TypeId AggOutputType(const AggSpec& spec, const Schema& in) {
  switch (spec.kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return TypeId::kInt64;
    case AggKind::kSum:
    case AggKind::kAvg:
      return TypeId::kFloat64;
    case AggKind::kMin:
    case AggKind::kMax:
      return in.column(spec.column).type;
  }
  return TypeId::kNull;
}

}  // namespace

AggregateOp::AggregateOp(ExecContext* ctx, OpPtr child,
                         std::vector<size_t> group_by,
                         std::vector<AggSpec> aggs)
    : PhysicalOp(ctx),
      child_(std::move(child)),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)) {
  const Schema& in = child_->output_schema();
  std::vector<Column> cols;
  for (size_t g : group_by_) cols.push_back(in.column(g));
  for (const AggSpec& a : aggs_) {
    cols.emplace_back(a.output_name, AggOutputType(a, in));
  }
  schema_ = Schema(std::move(cols));
}

Status AggregateOp::Accumulate(const Row& row,
                               std::vector<AggState>* states) const {
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& spec = aggs_[i];
    AggState& state = (*states)[i];
    if (spec.kind == AggKind::kCountStar) {
      ++state.count;
      continue;
    }
    const Value& v = row[spec.column];
    if (v.is_null()) continue;  // SQL: aggregates skip NULLs
    switch (spec.kind) {
      case AggKind::kCount:
        ++state.count;
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        state.sum += v.AsDouble();
        ++state.count;
        break;
      case AggKind::kMin:
        if (!state.saw_value || v.Compare(state.min) < 0) state.min = v;
        break;
      case AggKind::kMax:
        if (!state.saw_value || v.Compare(state.max) > 0) state.max = v;
        break;
      case AggKind::kCountStar:
        break;
    }
    state.saw_value = true;
  }
  return Status::OK();
}

Row AggregateOp::Finalize(const Row& group,
                          const std::vector<AggState>& states) const {
  Row out = group;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& spec = aggs_[i];
    const AggState& state = states[i];
    switch (spec.kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
        out.push_back(Value::Int64(state.count));
        break;
      case AggKind::kSum:
        out.push_back(state.saw_value ? Value::Float64(state.sum)
                                      : Value::Null());
        break;
      case AggKind::kAvg:
        out.push_back(state.count > 0
                          ? Value::Float64(state.sum /
                                           static_cast<double>(state.count))
                          : Value::Null());
        break;
      case AggKind::kMin:
        out.push_back(state.saw_value ? state.min : Value::Null());
        break;
      case AggKind::kMax:
        out.push_back(state.saw_value ? state.max : Value::Null());
        break;
    }
  }
  return out;
}

Status AggregateOp::OpenImpl() {
  MURAL_RETURN_IF_ERROR(child_->Open());
  results_.clear();
  pos_ = 0;

  // Ordered map over group-key display forms keeps output deterministic.
  std::map<std::string, std::pair<Row, std::vector<AggState>>> groups;
  Row row;
  uint64_t input_rows = 0;
  while (true) {
    MURAL_ASSIGN_OR_RETURN(const bool more, child_->Next(&row));
    if (!more) break;
    ++input_rows;
    std::string key;
    Row group;
    for (size_t g : group_by_) {
      key += row[g].ToString();
      key.push_back('\x1f');
      group.push_back(row[g]);
    }
    auto [it, inserted] = groups.try_emplace(
        key, std::make_pair(std::move(group),
                            std::vector<AggState>(aggs_.size())));
    MURAL_RETURN_IF_ERROR(Accumulate(row, &it->second.second));
  }
  MURAL_RETURN_IF_ERROR(child_->Close());

  if (groups.empty() && group_by_.empty()) {
    // Global aggregate over zero rows still emits one row.
    results_.push_back(Finalize({}, std::vector<AggState>(aggs_.size())));
  } else {
    for (const auto& [key, entry] : groups) {
      results_.push_back(Finalize(entry.first, entry.second));
    }
  }
  return Status::OK();
}

StatusOr<bool> AggregateOp::NextImpl(Row* out) {
  // Open rebuilds results_, so replaying by move is safe.
  if (pos_ >= results_.size()) return false;
  *out = std::move(results_[pos_++]);
  CountRow();
  return true;
}

Status AggregateOp::CloseImpl() {
  results_.clear();
  return child_->Close();
}

std::string AggregateOp::DisplayName() const {
  std::string out = "Aggregate(";
  const Schema& in = child_->output_schema();
  for (size_t i = 0; i < group_by_.size(); ++i) {
    if (i > 0) out += ", ";
    out += in.column(group_by_[i]).name;
  }
  if (!group_by_.empty() && !aggs_.empty()) out += "; ";
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += AggKindToString(aggs_[i].kind);
  }
  out += ")";
  return out;
}

}  // namespace mural
