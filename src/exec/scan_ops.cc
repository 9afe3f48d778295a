#include "exec/scan_ops.h"

#include <utility>

#include "catalog/tuple_codec.h"
#include "common/string_util.h"
#include "distance/bounded_myers.h"

namespace mural {

SeqScanOp::SeqScanOp(ExecContext* ctx, const TableInfo* table,
                     std::optional<PsiScanKey> key, ExprPtr residual,
                     int dop)
    : PhysicalOp(ctx),
      table_(table),
      key_(std::move(key)),
      residual_(std::move(residual)),
      dop_(dop < 1 ? 1 : dop) {}

Status SeqScanOp::OpenImpl() {
  results_.clear();
  result_pos_ = 0;
  int k = 0;
  PhonemeString probe_phonemes;
  if (key_.has_value()) {
    if (key_->probe.is_null()) return Status::OK();  // NULL never matches
    k = key_->threshold_override >= 0 ? key_->threshold_override
                                      : ctx_->lexequal_threshold;
    // Hoisted once per scan: one phoneme lookup for the probe, however
    // many morsels share it.
    MURAL_ASSIGN_OR_RETURN(probe_phonemes, PhonemesOf(key_->probe, ctx_));
  }
  const PhonemeString* probe = key_.has_value() ? &probe_phonemes : nullptr;

  // Morsels are page ranges; the gather follows the page chain order.
  MURAL_ASSIGN_OR_RETURN(
      results_,
      GatherMorsels(ctx_, table_->heap->pages().size(), dop_,
                    [this, k, probe](size_t begin, size_t end,
                                     ExecContext* wctx,
                                     std::vector<Row>* slot) {
                      return ScanPages(begin, end, k, probe, wctx, slot);
                    }));
  return Status::OK();
}

Status SeqScanOp::ScanPages(size_t begin, size_t end, int k,
                            const PhonemeString* probe_phonemes,
                            ExecContext* wctx, std::vector<Row>* slot) {
  // The matcher pre-builds the kernel's Peq table for the probe, leaving
  // only the column loop as per-row work.  It keeps scratch state, so each
  // morsel prepares its own.
  std::optional<BoundedMyersMatcher> matcher;
  if (probe_phonemes != nullptr) matcher.emplace(*probe_phonemes, k);
  const Schema& schema = table_->schema;
  const bool plain_text =
      key_.has_value() && schema.column(key_->col).type == TypeId::kText;
  BufferPool* pool = table_->heap->pool();
  const std::vector<PageId>& pages = table_->heap->pages();
  UniTextColumnView view;
  for (size_t p = begin; p < end; ++p) {
    // One Fetch and one shared latch per page; records are read in place
    // from the page bytes and deserialized only when they pass the key.
    MURAL_ASSIGN_OR_RETURN(const ReadPageGuard guard, pool->Fetch(pages[p]));
    const Page* page = guard.get();
    for (SlotId s = 0; s < page->NumSlots(); ++s) {
      StatusOr<Slice> record = page->Get(s);
      if (!record.ok()) continue;  // tombstone
      if (matcher.has_value()) {
        MURAL_RETURN_IF_ERROR(TupleCodec::PeekUniText(
            schema, record->ToStringView(), key_->col, &view));
        if (view.is_null) continue;  // NULL never matches (SQL WHERE)
        ++wctx->stats.predicate_evals;
        int d;
        if (view.has_phonemes) {
          d = matcher->Distance(view.phonemes, &wctx->stats.distance);
        } else {
          const PhonemeString ph = TransformPhonemesCounted(
              view.text, plain_text ? lang::kEnglish : view.lang, wctx);
          d = matcher->Distance(ph, &wctx->stats.distance);
        }
        if (d > k) continue;
      }
      Row row;
      MURAL_RETURN_IF_ERROR(
          TupleCodec::Deserialize(schema, record->ToStringView(), &row));
      if (residual_ != nullptr) {
        MURAL_ASSIGN_OR_RETURN(const bool pass,
                               EvalPredicate(*residual_, row, wctx));
        if (!pass) continue;
      }
      slot->push_back(std::move(row));
    }
  }
  return Status::OK();
}

StatusOr<bool> SeqScanOp::NextImpl(Row* out) {
  if (result_pos_ >= results_.size()) return false;
  *out = std::move(results_[result_pos_++]);
  CountRow();
  return true;
}

StatusOr<bool> SeqScanOp::NextBatchImpl(RowBatch* out) {
  while (result_pos_ < results_.size() && !out->full()) {
    *out->PushRow() = std::move(results_[result_pos_++]);
  }
  CountRows(out->num_selected());
  return result_pos_ < results_.size() || !out->empty();
}

Status SeqScanOp::CloseImpl() {
  results_.clear();
  result_pos_ = 0;
  return Status::OK();
}

std::string SeqScanOp::DisplayName() const {
  if (!key_.has_value()) {
    std::string out = "SeqScan(" + table_->name + ")";
    if (residual_ != nullptr) out += " WHERE " + residual_->ToString();
    if (dop_ > 1) out += StringFormat(" dop=%d", dop_);
    return out;
  }
  std::string out = "LexSelect(" + table_->name + "." +
                    table_->schema.column(key_->col).name + " LexEQUAL " +
                    key_->probe.ToString();
  if (key_->threshold_override >= 0) {
    out += StringFormat(" {t=%d}", key_->threshold_override);
  }
  if (residual_ != nullptr) out += " AND " + residual_->ToString();
  out += StringFormat(", batch=%zu", ctx_->batch_size);
  if (dop_ > 1) out += StringFormat(", dop=%d", dop_);
  out += ")";
  return out;
}

std::string IndexProbe::ToString() const {
  switch (kind) {
    case Kind::kEqual:
      return "= " + key.ToString();
    case Kind::kWithin:
      return "within " + std::to_string(radius) + " of " + key.ToString();
  }
  return "?";
}

Status IndexScanOp::OpenImpl() {
  rids_.clear();
  pos_ = 0;
  ++ctx_->stats.index_probes;
  switch (probe_.kind) {
    case IndexProbe::Kind::kEqual:
      MURAL_RETURN_IF_ERROR(index_->index->SearchEqual(probe_.key, &rids_));
      break;
    case IndexProbe::Kind::kWithin:
      MURAL_RETURN_IF_ERROR(
          index_->index->SearchWithin(probe_.key, probe_.radius, &rids_));
      break;
  }
  return Status::OK();
}

StatusOr<bool> IndexScanOp::NextImpl(Row* out) {
  std::string record;
  while (pos_ < rids_.size()) {
    const Rid rid = rids_[pos_++];
    MURAL_RETURN_IF_ERROR(table_->heap->Get(rid, &record));
    MURAL_RETURN_IF_ERROR(
        TupleCodec::Deserialize(table_->schema, record, out));
    if (residual_ != nullptr) {
      MURAL_ASSIGN_OR_RETURN(const bool keep,
                             EvalPredicate(*residual_, *out, ctx_));
      if (!keep) continue;
    }
    CountRow();
    return true;
  }
  return false;
}

Status IndexScanOp::CloseImpl() {
  rids_.clear();
  return Status::OK();
}

std::string IndexScanOp::DisplayName() const {
  std::string out = std::string(IndexKindToString(index_->kind)) +
                    "IndexScan(" + table_->name + "." + index_->column +
                    " " + probe_.ToString();
  if (residual_ != nullptr) out += " recheck: " + residual_->ToString();
  out += ")";
  return out;
}

}  // namespace mural
