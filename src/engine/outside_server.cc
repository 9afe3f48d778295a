#include "engine/outside_server.h"

#include "catalog/tuple_codec.h"
#include "common/timer.h"

namespace mural {

namespace {

/// Phoneme string of a stored UniText value (materialized at load time,
/// like the paper's outside-the-server experiments, §5.3).
StatusOr<std::string> StoredPhonemes(const Value& v) {
  if (v.type() != TypeId::kUniText) {
    return Status::InvalidArgument("LexEQUAL column must be UNITEXT");
  }
  if (v.unitext().has_phonemes()) return *v.unitext().phonemes();
  return PhoneticTransformer::Default().Transform(v.unitext());
}

StatusOr<bool> UdfLexMatch(pl::UdfRuntime* udf, const std::string& a,
                           const std::string& b, int k) {
  MURAL_ASSIGN_OR_RETURN(
      const pl::PlValue result,
      udf->CallWire("LEXMATCH", {pl::PlValue(a), pl::PlValue(b),
                                 pl::PlValue(static_cast<int64_t>(k))}));
  return !result.is_null() && result.AsBool();
}

}  // namespace

StatusOr<std::pair<std::vector<Row>, OutsideRunStats>> OutsideLexScan(
    Database* db, const std::string& table, const std::string& column,
    const UniText& query, int threshold, bool use_mdi_index,
    const std::string& mdi_index_name) {
  MURAL_ASSIGN_OR_RETURN(pl::UdfRuntime * udf, db->udf_runtime());
  MURAL_ASSIGN_OR_RETURN(TableInfo * info, db->catalog()->GetTable(table));
  MURAL_ASSIGN_OR_RETURN(const size_t col,
                         info->schema.Resolve(column));
  const std::string query_ph =
      PhoneticTransformer::Default().Transform(query);

  OutsideRunStats stats;
  const pl::UdfStats udf_before = udf->stats();
  Timer timer;
  std::vector<Row> out;
  Row row;

  if (use_mdi_index) {
    MURAL_ASSIGN_OR_RETURN(IndexInfo * mdi,
                           db->catalog()->GetIndex(mdi_index_name));
    std::vector<Rid> candidates;
    MURAL_RETURN_IF_ERROR(mdi->index->SearchWithin(
        Value::Text(query_ph), threshold, &candidates));
    stats.candidates = candidates.size();
    std::string record;
    for (Rid rid : candidates) {
      MURAL_RETURN_IF_ERROR(info->heap->Get(rid, &record));
      MURAL_RETURN_IF_ERROR(
          TupleCodec::Deserialize(info->schema, record, &row));
      ++stats.rows_examined;
      const Value& v = row[col];
      if (v.is_null()) continue;
      MURAL_ASSIGN_OR_RETURN(const std::string ph, StoredPhonemes(v));
      MURAL_ASSIGN_OR_RETURN(const bool match,
                             UdfLexMatch(udf, ph, query_ph, threshold));
      if (match) out.push_back(row);
    }
  } else {
    for (auto it = info->heap->Begin(); it.Valid(); it.Next()) {
      MURAL_RETURN_IF_ERROR(
          TupleCodec::Deserialize(info->schema, it.record(), &row));
      ++stats.rows_examined;
      const Value& v = row[col];
      if (v.is_null()) continue;
      MURAL_ASSIGN_OR_RETURN(const std::string ph, StoredPhonemes(v));
      MURAL_ASSIGN_OR_RETURN(const bool match,
                             UdfLexMatch(udf, ph, query_ph, threshold));
      if (match) out.push_back(row);
    }
  }
  stats.millis = timer.ElapsedMillis();
  stats.udf_calls = udf->stats().calls - udf_before.calls;
  stats.wire_bytes = udf->stats().wire_bytes - udf_before.wire_bytes;
  return std::make_pair(std::move(out), stats);
}

StatusOr<std::pair<std::vector<Row>, OutsideRunStats>> OutsideLexJoin(
    Database* db, const std::string& left_table,
    const std::string& left_column, const std::string& right_table,
    const std::string& right_column, int threshold, bool use_mdi_index,
    const std::string& mdi_index_name) {
  MURAL_ASSIGN_OR_RETURN(pl::UdfRuntime * udf, db->udf_runtime());
  MURAL_ASSIGN_OR_RETURN(TableInfo * left,
                         db->catalog()->GetTable(left_table));
  MURAL_ASSIGN_OR_RETURN(TableInfo * right,
                         db->catalog()->GetTable(right_table));
  MURAL_ASSIGN_OR_RETURN(const size_t lcol,
                         left->schema.Resolve(left_column));
  MURAL_ASSIGN_OR_RETURN(const size_t rcol,
                         right->schema.Resolve(right_column));
  IndexInfo* mdi = nullptr;
  if (use_mdi_index) {
    MURAL_ASSIGN_OR_RETURN(mdi, db->catalog()->GetIndex(mdi_index_name));
  }

  OutsideRunStats stats;
  const pl::UdfStats udf_before = udf->stats();
  Timer timer;
  std::vector<Row> out;

  // Materialize the inner side's rows + phoneme strings (the PL/SQL
  // script would select them into a temp table the same way).
  std::vector<Row> inner_rows;
  std::vector<std::string> inner_ph;
  Row row;
  for (auto it = right->heap->Begin(); it.Valid(); it.Next()) {
    MURAL_RETURN_IF_ERROR(
        TupleCodec::Deserialize(right->schema, it.record(), &row));
    const Value& v = row[rcol];
    if (v.is_null()) continue;
    MURAL_ASSIGN_OR_RETURN(std::string ph, StoredPhonemes(v));
    inner_rows.push_back(row);
    inner_ph.push_back(std::move(ph));
  }

  std::string record;
  for (auto it = left->heap->Begin(); it.Valid(); it.Next()) {
    MURAL_RETURN_IF_ERROR(
        TupleCodec::Deserialize(left->schema, it.record(), &row));
    ++stats.rows_examined;
    const Value& lv = row[lcol];
    if (lv.is_null()) continue;
    MURAL_ASSIGN_OR_RETURN(const std::string lph, StoredPhonemes(lv));
    if (mdi != nullptr) {
      // Probe the inner MDI for candidates of this outer value.
      std::vector<Rid> candidates;
      MURAL_RETURN_IF_ERROR(mdi->index->SearchWithin(
          Value::Text(lph), threshold, &candidates));
      stats.candidates += candidates.size();
      Row inner;
      for (Rid rid : candidates) {
        MURAL_RETURN_IF_ERROR(right->heap->Get(rid, &record));
        MURAL_RETURN_IF_ERROR(
            TupleCodec::Deserialize(right->schema, record, &inner));
        const Value& rv = inner[rcol];
        if (rv.is_null()) continue;
        MURAL_ASSIGN_OR_RETURN(const std::string rph,
                               StoredPhonemes(rv));
        MURAL_ASSIGN_OR_RETURN(const bool match,
                               UdfLexMatch(udf, lph, rph, threshold));
        if (match) {
          Row joined = row;
          joined.insert(joined.end(), inner.begin(), inner.end());
          out.push_back(std::move(joined));
        }
      }
    } else {
      for (size_t i = 0; i < inner_rows.size(); ++i) {
        MURAL_ASSIGN_OR_RETURN(
            const bool match,
            UdfLexMatch(udf, lph, inner_ph[i], threshold));
        if (match) {
          Row joined = row;
          joined.insert(joined.end(), inner_rows[i].begin(),
                        inner_rows[i].end());
          out.push_back(std::move(joined));
        }
      }
    }
  }
  stats.millis = timer.ElapsedMillis();
  stats.udf_calls = udf->stats().calls - udf_before.calls;
  stats.wire_bytes = udf->stats().wire_bytes - udf_before.wire_bytes;
  return std::make_pair(std::move(out), stats);
}

StatusOr<std::pair<size_t, OutsideRunStats>> OutsideClosureSize(
    Database* db, const std::string& lemma, LangId lang, bool use_btree) {
  MURAL_ASSIGN_OR_RETURN(pl::UdfRuntime * udf, db->udf_runtime());
  db->set_outside_closure_uses_btree(use_btree);
  OutsideRunStats stats;
  const pl::UdfStats udf_before = udf->stats();
  Timer timer;
  MURAL_ASSIGN_OR_RETURN(
      const pl::PlValue result,
      udf->CallWire("CLOSURE_SIZE",
                    {pl::PlValue(lemma),
                     pl::PlValue(static_cast<int64_t>(lang)),
                     pl::PlValue(static_cast<int64_t>(1))}));
  stats.millis = timer.ElapsedMillis();
  stats.udf_calls = udf->stats().calls - udf_before.calls;
  stats.wire_bytes = udf->stats().wire_bytes - udf_before.wire_bytes;
  return std::make_pair(static_cast<size_t>(result.AsInt()), stats);
}

StatusOr<std::pair<std::vector<Row>, OutsideRunStats>> OutsideSemScan(
    Database* db, const std::string& table, const std::string& column,
    const UniText& concept_value, bool use_btree) {
  MURAL_ASSIGN_OR_RETURN(pl::UdfRuntime * udf, db->udf_runtime());
  db->set_outside_closure_uses_btree(use_btree);
  MURAL_ASSIGN_OR_RETURN(TableInfo * info, db->catalog()->GetTable(table));
  MURAL_ASSIGN_OR_RETURN(const size_t col, info->schema.Resolve(column));

  OutsideRunStats stats;
  const pl::UdfStats udf_before = udf->stats();
  Timer timer;
  std::vector<Row> out;
  Row row;
  for (auto it = info->heap->Begin(); it.Valid(); it.Next()) {
    MURAL_RETURN_IF_ERROR(
        TupleCodec::Deserialize(info->schema, it.record(), &row));
    ++stats.rows_examined;
    const Value& v = row[col];
    if (v.is_null() || v.type() != TypeId::kUniText) continue;
    MURAL_ASSIGN_OR_RETURN(
        const pl::PlValue match,
        udf->CallWire(
            "SEM_MATCH",
            {pl::PlValue(v.unitext().text()),
             pl::PlValue(static_cast<int64_t>(v.unitext().lang())),
             pl::PlValue(concept_value.text()),
             pl::PlValue(static_cast<int64_t>(concept_value.lang()))}));
    if (!match.is_null() && match.AsBool()) out.push_back(row);
  }
  stats.millis = timer.ElapsedMillis();
  stats.udf_calls = udf->stats().calls - udf_before.calls;
  stats.wire_bytes = udf->stats().wire_bytes - udf_before.wire_bytes;
  return std::make_pair(std::move(out), stats);
}

}  // namespace mural
